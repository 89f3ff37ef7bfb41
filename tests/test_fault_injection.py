"""Fault injection: a deliberate fault in one physics factor turns a named check red.

A check is worth something only if breaking the physics it verifies makes it
fail (mutation testing, DeMillo, Lipton & Sayward 1978).  Each fault below
replaces one factor wherever the package binds it.  The named verify checks
are then rerun in reduced form, with the same comparison and the same
tolerance key as the verify suites but on one point, pair or height.  The
unfaulted control shows that each reduced check passes on working code.
"""
import math
import sys

import numpy as np
import pytest

from halfspace_qed import fresnel, modes
from halfspace_qed.config import DEFAULT_TOLERANCES
from halfspace_qed.energy import second_order_shift
from halfspace_qed.greens import PointPair
from halfspace_qed.kernels import (
    KernelKind,
    assemble_kernel_result,
    kernel_closed_form,
    kz_profile,
    residue_profile,
)
from halfspace_qed.medium import Medium, Polarization, Side, SpectralPoint, vacuum_kz_from_kzd
from halfspace_qed.spectral import QuadratureSpec

SPEC = QuadratureSpec()
# the first upper pair of the kernels suite
UPPER_PAIR = PointPair(np.array([0.4, -0.2, 0.8]), np.array([0.1, 0.3, 0.5]))


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every package module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("halfspace_qed"):
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, replacement)


# ---------------------------------------------------------------------------
# reduced checks: (observed error, tolerance)
# ---------------------------------------------------------------------------

def _kz_integral_vs_residue(z):
    med, kpar, zp = Medium(2.0), 1.3, 0.4
    prof = kz_profile(med, kpar, z, zp, SPEC).value
    target = residue_profile(med, kpar, z, zp)
    err = np.max(np.abs(prof[:4] - target[:4])) / np.max(np.abs(target))
    return float(err), DEFAULT_TOLERANCES["tol.kernels.residue"]


def _assembled_error(kind):
    med = Medium(2.0)
    target = kernel_closed_form(med, kind, UPPER_PAIR)
    kern = assemble_kernel_result(med, kind, UPPER_PAIR, SPEC).tensor
    err = np.max(np.abs(kern - target)) / np.max(np.abs(target))
    return float(err), DEFAULT_TOLERANCES["tol.kernels.assembly"]


def _electrostatic_shift_ratio():
    shift = second_order_shift(1.0, Medium(2.0), 1.0, SPEC)
    return abs(shift.ratio - shift.expected_ratio), DEFAULT_TOLERANCES["tol.energy"]


def _mode_normalisation():
    # each TM mode's surface charge from the E_z jump of its mode function
    # across z = 0 at r_par = 0: g = -(k / (2 kappa)) (E_z(0+) - E_z(0-)),
    # k = sqrt(kappa^2 + k_z^2) with the vacuum k_z and the principal root
    med, kap = Medium(2.0), 1.0
    below = np.array([0.0, 0.0, np.nextafter(0.0, -1.0)])
    worst = 0.0
    # right labels travelling and evanescent, left labels travelling and
    # evanescent on the vacuum side
    for side, label in ((Side.RIGHT, 0.7), (Side.RIGHT, 0.5j), (Side.LEFT, 1.9), (Side.LEFT, 0.4)):
        point = SpectralPoint((kap, 0.0), complex(label), side, Polarization.TM)
        kz = complex(label) if side is Side.RIGHT else vacuum_kz_from_kzd(med, kap, label)
        jump = (modes.carniglia_mandel_mode(med, point, np.zeros(3))[2]
                - modes.carniglia_mandel_mode(med, point, below)[2])
        g = -np.sqrt(kap * kap + kz * kz) / (2.0 * kap) * jump
        target = modes.surface_charge_mode(med, side, kap, complex(label))
        worst = max(worst, abs(g - target) / abs(target))
    return worst, DEFAULT_TOLERANCES["tol.modes.matching"]


CHECKS = {
    "kz_integral_vs_residue": lambda: _kz_integral_vs_residue(0.7),
    # below the interface: the transmitted profile, travelling axis and cut
    "kz_integral_vs_residue_below": lambda: _kz_integral_vs_residue(-0.6),
    "generalized_delta_closed_form": lambda: _assembled_error(KernelKind.GENERALIZED_DELTA),
    "gauge_difference_closed_form": lambda: _assembled_error(KernelKind.GAUGE_DIFFERENCE),
    "electrostatic_shift_ratio": _electrostatic_shift_ratio,
    "mode_normalisation": _mode_normalisation,
}


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------

class _Flipped:
    """A Fresnel set with the named coefficients of the wrong sign."""

    def __init__(self, coef, names):
        self._coef, self._names = coef, names

    def __getattr__(self, name):
        value = getattr(self._coef, name)
        return -value if name in self._names else value


def _flip_tm(monkeypatch, names):
    original = fresnel.fresnel_coefficients

    def faulty(medium, pol, kpar_mag, kz, kzd=None):
        coef = original(medium, pol, kpar_mag, kz, kzd)
        return _Flipped(coef, names) if pol is Polarization.TM else coef

    _patch_everywhere(monkeypatch, original, faulty)


def _right_charge_with_one_minus_r(monkeypatch):
    original = modes.surface_charge_mode

    def faulty(medium, side, kpar_mag, kz_or_kzd, other_kz=None, tm=None):
        if side is Side.LEFT:
            return original(medium, side, kpar_mag, kz_or_kzd, other_kz, tm)
        if tm is None:
            tm = fresnel.fresnel_coefficients(medium, Polarization.TM, kpar_mag, kz_or_kzd,
                                              other_kz)
        return (2.0 * math.pi) ** -1.5 * medium.surface_charge_share * (1.0 - tm.rR)

    _patch_everywhere(monkeypatch, original, faulty)


def _left_charge_without_one_over_n(monkeypatch):
    original = modes.surface_charge_mode

    def faulty(medium, side, kpar_mag, kz_or_kzd, other_kz=None, tm=None):
        g = original(medium, side, kpar_mag, kz_or_kzd, other_kz, tm)
        return g * medium.n if side is Side.LEFT else g

    _patch_everywhere(monkeypatch, original, faulty)


def _left_modes_without_one_over_n(monkeypatch):
    original = modes.carniglia_mandel_mode

    def faulty(medium, point, r):
        f = original(medium, point, r)
        return f * medium.n if point.side is Side.LEFT else f

    _patch_everywhere(monkeypatch, original, faulty)


def _share_with_n2_plus_one(monkeypatch):
    monkeypatch.setattr(Medium, "surface_charge_share",
                        property(lambda m: (m.n * m.n + 1.0) / (2.0 * m.n * m.n)))


FAULTS = {
    # rR, and with it rL = -rR
    "tm_reflection_sign": (lambda mp: _flip_tm(mp, ("rR", "rL")),
                           ("kz_integral_vs_residue", "generalized_delta_closed_form")),
    "tm_transmission_sign": (lambda mp: _flip_tm(mp, ("tR", "tL")),
                             ("kz_integral_vs_residue_below", "mode_normalisation")),
    "right_charge_one_minus_r": (_right_charge_with_one_minus_r, ("electrostatic_shift_ratio",)),
    "left_charge_without_one_over_n": (_left_charge_without_one_over_n,
                                       ("electrostatic_shift_ratio",)),
    "left_modes_without_one_over_n": (_left_modes_without_one_over_n, ("mode_normalisation",)),
    "share_n2_plus_one": (_share_with_n2_plus_one, ("gauge_difference_closed_form",)),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_reduced_check_passes_without_a_fault(check):
    err, tol = CHECKS[check]()
    assert err <= tol


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_turns_its_check_red(monkeypatch, fault):
    inject, checks = FAULTS[fault]
    inject(monkeypatch)
    for check in checks:
        err, tol = CHECKS[check]()
        assert err > tol, f"{check} stays green under {fault}: error {err:.3e}, tol {tol:.1e}"
