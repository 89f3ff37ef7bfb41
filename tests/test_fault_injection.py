"""Fault injection: a deliberate fault in one physics factor turns check families red.

A check is worth something only if breaking the physics it verifies makes it
fail (mutation testing, DeMillo, Lipton & Sayward 1978).  Each fault replaces
one factor wherever the package binds it; every verify family then runs on
one-point grids through the same functions as the verify suites.  The table
gives the exact families each fault turns red, and names each family that no
fault reaches with the reason; the unfaulted control passes every family.
"""
import math
import sys

import numpy as np
import pytest

from halfspace_qed import fresnel, modes, verification as v
from halfspace_qed.config import DEFAULT_TOLERANCES
from halfspace_qed.kernels import KernelKind
from halfspace_qed.medium import Medium, Polarization, Side, SpectralPoint, label_wavenumbers
from halfspace_qed.spectral import QuadratureSpec

SPEC = QuadratureSpec()
# the residue points (|k_par|, z, z') of the reduced run, above and below the interface
RESIDUE_ABOVE, RESIDUE_BELOW = (1.3, 0.7, 0.4), (1.3, -0.6, 0.4)


def _reduced_run():
    """Every verify family on one-point grids: n = 2, one residue point and
    one pair on each side of the interface; true-Coulomb at its two n on a
    lower pair; the perfect-reflector slope in full."""
    med = Medium(2.0)
    pairs = (v.UPPER_PAIRS[0], v.LOWER_PAIRS[0])
    grid = v.mode_grid((0.7,), (0.6,))
    return [
        *v.fresnel_checks(42, 20),
        *v.mode_matching_checks(med, grid),
        *v.mode_fd_checks(med, grid),
        *v.kz_residue_checks(med, [RESIDUE_ABOVE, RESIDUE_BELOW], SPEC),
        *v.closed_form_checks(KernelKind.GENERALIZED_DELTA, (2.0,), pairs, SPEC),
        *v.closed_form_checks(KernelKind.GAUGE_DIFFERENCE, (2.0,), pairs, SPEC),
        *v.closed_form_checks(KernelKind.TRUE_COULOMB, (1.5, 4.0), pairs[1:], SPEC),
        *v.poisson_jump_checks(med, [(0.7, 0.7, Side.RIGHT), (0.7, 1.9, Side.LEFT)]),
        *v.curl_checks(med, v.curl_pairs(43, 1)),
        *v.perfect_reflector_slope_checks(v.MIRROR_PAIR, v.MIRROR_N, SPEC),
        *v.shift_ratio_checks((2.0,), (1.0,), SPEC),
        *v.gauge_energy_checks((2.0,), 1.0, SPEC),
        *v.n2_reference_checks(SPEC),
    ]


def _mode_normalisation():
    """(error, tolerance) of a test-only check: each TM mode's surface charge
    from the E_z jump of its mode function across z = 0 at r_par = 0,
    g = -(k / (2 kappa)) (E_z(0+) - E_z(0-)), k = sqrt(kappa^2 + k_z^2) with
    the vacuum k_z and the principal root.  No verify family sees the 1/n of
    the left modes; this one does."""
    med, kap = Medium(2.0), 1.0
    below = np.array([0.0, 0.0, np.nextafter(0.0, -1.0)])
    worst = 0.0
    # right labels travelling and evanescent, left labels travelling and
    # evanescent on the vacuum side
    for side, label in ((Side.RIGHT, 0.7), (Side.RIGHT, 0.5j), (Side.LEFT, 1.9), (Side.LEFT, 0.4)):
        point = SpectralPoint((kap, 0.0), complex(label), side, Polarization.TM)
        kz, kzd = label_wavenumbers(med, side, kap, label)
        jump = (modes.carniglia_mandel_mode(med, point, np.zeros(3))[2]
                - modes.carniglia_mandel_mode(med, point, below)[2])
        g = -np.sqrt(kap * kap + kz * kz) / (2.0 * kap) * jump
        tm = fresnel.fresnel_coefficients(med, Polarization.TM, kap, kz, kzd)
        target = modes.surface_charge_mode(med, side, tm)
        worst = max(worst, abs(g - target) / abs(target))
    return worst, DEFAULT_TOLERANCES["tol.modes.matching"]


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------

def _wrap(monkeypatch, original, fault):
    """Replace ``original`` in every package module that binds it by
    ``fault(value, *args)`` of its value and arguments."""
    def faulty(*args, **kwargs):
        return fault(original(*args, **kwargs), *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("halfspace_qed"):
            for attr in [a for a, val in vars(module).items() if val is original]:
                monkeypatch.setattr(module, attr, faulty)


class _Flipped:
    """A Fresnel set with the named coefficients of the wrong sign."""

    def __init__(self, coef, names):
        self._coef, self._names = coef, names

    def __getattr__(self, name):
        value = getattr(self._coef, name)
        return -value if name in self._names else value


def _flip_tm(monkeypatch, names):
    _wrap(monkeypatch, fresnel.fresnel_coefficients,
          lambda coef, medium, pol, *_: _Flipped(coef, names) if pol is Polarization.TM else coef)


def _right_charge_with_one_minus_r(monkeypatch):
    # g^R = (2 pi)^{-3/2} share (1 + rR) becomes (2 pi)^{-3/2} share (1 - rR)
    _wrap(monkeypatch, modes.surface_charge_mode, lambda g, medium, side, *_: (
        2.0 * (2.0 * math.pi) ** -1.5 * medium.surface_charge_share - g
        if side is Side.RIGHT else g))


def _left_charge_without_one_over_n(monkeypatch):
    _wrap(monkeypatch, modes.surface_charge_mode,
          lambda g, medium, side, *_: g * medium.n if side is Side.LEFT else g)


def _left_modes_without_one_over_n(monkeypatch):
    _wrap(monkeypatch, modes.carniglia_mandel_mode,
          lambda f, medium, point, *_: f * medium.n if point.side is Side.LEFT else f)


def _share_with_n2_plus_one(monkeypatch):
    monkeypatch.setattr(Medium, "surface_charge_share",
                        property(lambda m: (m.n * m.n + 1.0) / (2.0 * m.n * m.n)))


# the families a surface-charge fault reaches: the gauge-difference kernel, the
# true-Coulomb kernel that subtracts it, and every energy row of the mode sums
_SHARE_FAMILIES = {
    "gauge_difference_closed_form", "true_coulomb_free_space_form",
    "true_coulomb_n_independence", "electrostatic_shift_ratio",
    "gauge_invariance_energy_sum", "shift_ratio_n2_reference",
}

# fault -> (injection, the exact set of families it turns red on the reduced grids)
FAULTS = {
    # rR, and with it rL = -rR
    "tm_reflection_sign": (lambda mp: _flip_tm(mp, ("rR", "rL")), {
        "mode_tangential_continuity", "mode_displacement_continuity",
        "kz_integral_vs_residue", "generalized_delta_closed_form",
        "gauge_difference_closed_form", "true_coulomb_free_space_form",
        "true_coulomb_n_independence", "perfect_reflector_slope",
        "electrostatic_shift_ratio", "gauge_invariance_energy_sum",
        "shift_ratio_n2_reference",
    }),
    "tm_transmission_sign": (lambda mp: _flip_tm(mp, ("tR", "tL")), {
        "mode_tangential_continuity", "mode_displacement_continuity",
        "kz_integral_vs_residue", "generalized_delta_closed_form",
        "true_coulomb_free_space_form", "true_coulomb_n_independence",
    }),
    "right_charge_one_minus_r": (_right_charge_with_one_minus_r, _SHARE_FAMILIES),
    "left_charge_without_one_over_n": (_left_charge_without_one_over_n, _SHARE_FAMILIES),
    "share_n2_plus_one": (_share_with_n2_plus_one, _SHARE_FAMILIES),
    # no verify family sees the mode normalisation (only mode_normalisation does)
    "left_modes_without_one_over_n": (_left_modes_without_one_over_n, set()),
}

# the families no fault reaches, and why
UNREACHED = {
    "fresnel_left_right_reflection": "invariant: rR and rL flip together",
    "fresnel_left_transmission_link": "invariant: tR and tL flip together",
    "fresnel_contour_cancellation": "invariant: either TM flip changes the sign of both terms",
    "mode_gauge_divergence_fd": "invariant: each plane wave is transverse whatever its coefficient",
    "mode_helmholtz_residual_fd": "invariant: each plane wave solves its Helmholtz equation",
    "te_kernel_suppression": "invariant: no fault touches a TE coefficient",
    "poisson_jump_identity": "restatement: 2 kappa chi-dot(0) and sigma come from the same g",
    "gauge_difference_curl_annihilation": "restatement: the FD curl of a closed-form gradient",
    "physical_commutator_gauge_independence": "restatement: FD curls of closed-form gradients",
    "double_commutator_cnumber": "restatement: -dE from the same longitudinal integrals",
    "image_potential_n2_reference": "invariant: the closed form V^es has no faulted factor",
}

# every family once: the acceptance tests hold this to the verify suites
FAMILIES = sorted([*set().union(*(families for _, families in FAULTS.values())), *UNREACHED])


def _red(reports):
    return {r.check_name for r in reports if not r.passed}


@pytest.fixture(scope="module")
def control():
    """The unfaulted reduced run: family -> passed, mode_normalisation and the
    residue check on the transmitted profile alone (the point below) included."""
    reports = _reduced_run()
    below = v.kz_residue_checks(Medium(2.0), [RESIDUE_BELOW], SPEC)
    err, tol = _mode_normalisation()
    return {**{r.check_name: r.check_name not in _red(reports) for r in reports},
            "kz_integral_vs_residue_below": "kz_integral_vs_residue" not in _red(below),
            "mode_normalisation": err <= tol}


@pytest.mark.parametrize("check", FAMILIES + ["kz_integral_vs_residue_below", "mode_normalisation"])
def test_reduced_check_passes_without_a_fault(control, check):
    assert control[check]


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_turns_its_check_red(monkeypatch, fault):
    # exactly the families of the table, and always mode_normalisation
    inject, families = FAULTS[fault]
    inject(monkeypatch)
    assert _red(_reduced_run()) == families
    err, tol = _mode_normalisation()
    assert err > tol, f"mode_normalisation stays green under {fault}: error {err:.3e}"


@pytest.mark.parametrize("te", [0.0, math.inf], ids=["te_zero", "te_inf"])
def test_residue_row_scales_by_the_tm_entries(monkeypatch, te):
    # a residue form with its odd entries uz, zu flipped turns the row red,
    # whatever its TE slot holds: an infinite TE slot once set the scale of
    # every error and hid the flip (3.6e-15); it now reads NaN
    residue = v.residue_profile

    def flipped(*args):
        form = residue(*args) * np.array([1.0, -1.0, -1.0, 1.0, 1.0])
        form[4] = te
        return form

    monkeypatch.setattr(v, "residue_profile", flipped)
    rows = v.kz_residue_checks(Medium(2.0), [RESIDUE_ABOVE, RESIDUE_BELOW], SPEC)
    assert "kz_integral_vs_residue" in _red(rows)
    if te == math.inf:
        assert all(math.isnan(r.abs_err) and not r.passed for r in rows)
