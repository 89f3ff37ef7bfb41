"""Verification: seeded, budgeted checks of the analytic identities.

A check family is the set of report rows that share one check name, or the
names computed in one pass.  Each family compares independently assembled
quantities (quadrature, mode sums, finite differences) with closed forms or
invariants, and is one function here that takes its inputs (a medium or n
values, mode labels, points, pairs or heights, and the quadrature spec) and
returns its :class:`CheckReport` rows.  The four suites call the families on
the grids below (``run_suite``, behind ``verify`` and the acceptance tests),
``kernel verify`` on the user's point pairs and the fault-injection tests on
one-point grids.  Every bound is a constant of ``config.DEFAULT_TOLERANCES``,
and no other module builds a report.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .config import DEFAULT_TOLERANCES as _TOL
from .energy import double_commutator_cnumber, gauge_invariance_sum, second_order_shift
from .fresnel import cancellation_residual, fresnel_coefficients
from .greens import (GreenVariant, PointPair, grad_grad_green_tensor, image_grad_grad_tensor,
                     image_potential_ves)
from .kernels import (KernelKind, assemble_kernel_result, curl_annihilation_residual,
                      fd_curl_first_index, kernel_closed_form, kz_profile,
                      perfect_reflector_convergence, poisson_jump_residual, residue_profile)
from .medium import (Medium, Polarization, Side, SpectralPoint, epsilon_profile,
                     evanescent_threshold, mode_frequency)
from .modes import carniglia_mandel_mode
from .report import CheckReport, make_check
from .spectral import QuadratureSpec

__all__ = [
    "run_suite", "SUITE_NAMES", "UPPER_PAIRS", "LOWER_PAIRS", "MIRROR_PAIR", "MIRROR_N",
    "mode_grid", "residue_points", "curl_pairs", "fresnel_checks", "mode_matching_checks",
    "mode_fd_checks", "kz_residue_checks", "closed_form_checks", "kernel_verify_checks",
    "poisson_jump_checks", "curl_checks", "perfect_reflector_slope_checks",
    "shift_ratio_checks", "gauge_energy_checks", "n2_reference_checks",
]

SUITE_NAMES = ("fresnel", "modes", "kernels", "energy", "all")


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000.0))


def _worst_rows(t0: float, params: dict, errors, checks) -> list[CheckReport]:
    """One row per (check name, tolerance key) of ``checks``: the worst of its
    column of ``errors`` (NaN if any is NaN, so that it cannot pass) against 0."""
    ms = _elapsed_ms(t0)
    worst = np.atleast_1d(np.max(errors, axis=0))
    return [make_check(name, params, float(err), 0.0, _TOL[key], "abs", ms)
            for (name, key), err in zip(checks, worst)]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

_KPARS = (0.3, 0.7, 1.2, 2.0, 3.1)
_N_VALUES = (1.5, 2.0, 4.0)  # of the kernel and energy grids

UPPER_PAIRS = tuple(PointPair(np.array(r), np.array(rp)) for r, rp in (
    ((0.4, -0.2, 0.8), (0.1, 0.3, 0.5)),
    ((1.0, 0.0, 0.3), (0.2, -0.1, 1.1)),
    ((-0.3, 0.5, 0.9), (0.4, 0.1, 0.4)),
    ((0.6, 0.4, 0.7), (-0.2, 0.2, 0.7)),  # z = z': oscillatory free-part path
))
LOWER_PAIRS = tuple(PointPair(np.array(r), np.array(rp)) for r, rp in (
    ((0.5, 0.2, -0.6), (0.0, -0.3, 0.7)),
    ((-0.4, -0.3, -0.4), (0.3, 0.2, 0.9)),
    ((0.2, 0.6, -1.0), (-0.1, 0.0, 0.5)),
    ((0.8, -0.5, -0.3), (0.2, 0.3, 1.2)),
))
# the perfect-reflector limit: one upper pair at n far from 1
MIRROR_PAIR = PointPair(np.array([0.3, 0.0, 0.7]), np.array([0.0, 0.2, 0.5]))
MIRROR_N = (10.0, 30.0, 100.0)


def mode_grid(kpars=_KPARS, klongs=(0.25, 0.6, 1.0, 1.7, 2.8)) -> list[SpectralPoint]:
    """Every (|k_par| along x, label, side, polarization) of the two grids."""
    return [SpectralPoint((kp, 0.0), complex(kl), side, pol)
            for kp in kpars for kl in klongs
            for side in (Side.RIGHT, Side.LEFT) for pol in (Polarization.TE, Polarization.TM)]


def residue_points(rng: np.random.Generator, count: int) -> list[tuple[float, float, float]]:
    """``count`` random (|k_par|, z, z'); every third z lies below the interface."""
    pts = []
    for i in range(count):
        kpar = 0.2 + 2.0 * rng.random()
        zp = 0.25 + 1.1 * rng.random()
        z = -(0.25 + 1.0 * rng.random()) if i % 3 == 2 else 0.25 + 1.1 * rng.random()
        pts.append((kpar, z, zp))
    return pts


def curl_pairs(seed: int, count: int) -> list[PointPair]:
    """``count`` random pairs about 1 above the interface, separated by more than 0.1."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.4)])
        pair = PointPair(base + rng.uniform(-0.2, 0.2, size=3), base)
        if pair.separation > 0.1:
            pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# check families
# ---------------------------------------------------------------------------

def fresnel_checks(seed: int, samples: int) -> list[CheckReport]:
    """rL = -rR, tL = (k_zd/k_z) tR and the contour cancellation at ``samples``
    random (n, |k_par|, polarization, k_z), travelling and evanescent in turn."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    errors = []
    for i in range(samples):
        med = Medium(1.0 + 4.0 * rng.random())
        kpar = 0.05 + 4.95 * rng.random()
        pol = Polarization.TE if rng.random() < 0.5 else Polarization.TM
        gamma = evanescent_threshold(med, kpar)
        if i % 2 == 0 or gamma < 1e-6:
            kz = complex(0.02 + 5.0 * rng.random())
        else:
            kz = 1j * gamma * (0.02 + 0.96 * rng.random())
        c = fresnel_coefficients(med, pol, kpar, kz)
        errors.append((abs(c.rL + c.rR), abs(c.tL - c.kzd / kz * c.tR),
                       abs(cancellation_residual(med, pol, kpar, kz))))
    return _worst_rows(t0, {"samples": samples, "seed": seed}, errors, [
        ("fresnel_left_right_reflection", "tol.fresnel"),
        ("fresnel_left_transmission_link", "tol.fresnel"),
        ("fresnel_contour_cancellation", "tol.fresnel")])


def mode_matching_checks(medium: Medium, points: list[SpectralPoint]) -> list[CheckReport]:
    """Continuity of tangential E and of normal D across z = 0 (the mode at
    z = 0 against z = -1e-13), relative to the mode's largest component."""
    t0 = time.perf_counter()
    errors = []
    for point in points:
        above = carniglia_mandel_mode(medium, point, np.array([0.17, -0.05, 0.0]))
        below = carniglia_mandel_mode(medium, point, np.array([0.17, -0.05, -1e-13]))
        scale = max(np.max(np.abs(above)), np.max(np.abs(below)), 1e-300)
        errors.append((float(np.max(np.abs(above[:2] - below[:2]))) / scale,
                       abs(above[2] - medium.eps_inside * below[2]) / scale))
    return _worst_rows(t0, {"n": medium.n, "grid": len(points)}, errors, [
        ("mode_tangential_continuity", "tol.modes.matching"),
        ("mode_displacement_continuity", "tol.modes.matching")])


def mode_fd_checks(medium: Medium, points: list[SpectralPoint]) -> list[CheckReport]:
    """Central-difference generalized-gauge divergence div[eps f] and Helmholtz
    residual of each mode at one probe above and one below the interface."""
    t0 = time.perf_counter()
    errors = []
    for point in points:
        omega = mode_frequency(medium, point)
        kscale = max(point.kpar_mag, abs(point.kz), omega)
        for r in (np.array([0.3, -0.4, 0.6]), np.array([-0.2, 0.5, -0.7])):
            eps = epsilon_profile(medium, float(r[2]))
            f0 = carniglia_mandel_mode(medium, point, r)
            scale = max(float(np.max(np.abs(f0))), 1e-300)

            def mode(axis: int, step: float) -> np.ndarray:
                return carniglia_mandel_mode(medium, point, r + step * np.eye(3)[axis])

            div = sum((mode(a, 1e-5)[a] - mode(a, -1e-5)[a]) / 2e-5 for a in range(3))
            lap = sum((mode(a, 2e-4) - 2.0 * f0 + mode(a, -2e-4)) / (2e-4 * 2e-4)
                      for a in range(3))
            resid = lap + eps * omega * omega * f0
            errors.append((abs(eps * div) / (kscale * scale * eps),
                           float(np.max(np.abs(resid))) / (eps * omega * omega * scale)))
    return _worst_rows(t0, {"n": medium.n, "modes": len(points)}, errors, [
        ("mode_gauge_divergence_fd", "tol.modes.divergence"),
        ("mode_helmholtz_residual_fd", "tol.modes.divergence")])


def kz_residue_checks(medium: Medium, points, spec: QuadratureSpec) -> list[CheckReport]:
    """The k_z quadrature of the interface profile against its residue closed
    form at each (|k_par|, z, z'), and its TE component, which the residue
    form sets to zero, both relative to the closed form's largest TM entry.
    A closed form with an entry that is not finite reads NaN, which fails."""
    t0 = time.perf_counter()
    errors = []
    for kpar, z, zp in points:
        prof = kz_profile(medium, kpar, z, zp, spec).value
        target = residue_profile(medium, kpar, z, zp)
        scale = float(np.max(np.abs(target[:4]))) if np.isfinite(target).all() else math.nan
        errors.append((float(np.max(np.abs(prof[:4] - target[:4]))) / scale, abs(prof[4]) / scale))
    return _worst_rows(t0, {"n": medium.n, "points": len(points)}, errors, [
        ("kz_integral_vs_residue", "tol.kernels.residue"),
        ("te_kernel_suppression", "tol.kernels.te")])


def _closed_form_error(medium: Medium, kind: KernelKind, pair: PointPair,
                       spec: QuadratureSpec) -> tuple[np.ndarray, float]:
    """The assembled kernel at ``pair`` and its max-norm deviation from the
    image-charge closed form, relative to the closed form's largest entry."""
    kern = assemble_kernel_result(medium, kind, pair, spec).tensor
    target = kernel_closed_form(medium, kind, pair)
    return kern, float(np.max(np.abs(kern - target))) / float(np.max(np.abs(target)))


def closed_form_checks(kind: KernelKind, n_values, pairs,
                       spec: QuadratureSpec) -> list[CheckReport]:
    """For each n, the worst deviation over ``pairs`` of the assembled kernel
    from its closed form.  The true-Coulomb kernel, assembled at two n, adds
    the largest relative difference of the two: it must not depend on n."""
    name = ("true_coulomb_free_space_form" if kind is KernelKind.TRUE_COULOMB
            else f"{kind.value}_closed_form")
    reports, tensors = [], []
    for n in n_values:
        t0 = time.perf_counter()
        kerns, errors = zip(*(_closed_form_error(Medium(n), kind, p, spec) for p in pairs))
        tensors.append(kerns)
        reports += _worst_rows(t0, {"n": n, "pairs": len(pairs)}, errors,
                               [(name, "tol.kernels.assembly")])
    if kind is KernelKind.TRUE_COULOMB:
        t0 = time.perf_counter()
        errors = [float(np.max(np.abs(ta - tb))) / float(np.max(np.abs(ta)))
                  for ta, tb in zip(*tensors)]
        reports += _worst_rows(t0, {"n_pair": "/".join(f"{n:g}" for n in n_values),
                                    "pairs": len(pairs)}, errors,
                               [("true_coulomb_n_independence", "tol.kernels.assembly")])
    return reports


def _mirror_deviation(medium: Medium, pair: PointPair, spec: QuadratureSpec) -> float:
    """The finite-n generalized kernel minus the perfect-reflector image form,
    against the deviation it must show, 1 - alpha = 2/(n^2+1) times the unit
    image term; relative to the image form's largest entry."""
    mirror = assemble_kernel_result(medium, KernelKind.PERFECT_REFLECTOR, pair, spec).tensor
    gen = assemble_kernel_result(medium, KernelKind.GENERALIZED_DELTA, pair, spec).tensor
    expected = medium.transmitted_strength * image_grad_grad_tensor(pair, 1.0)
    return float(np.max(np.abs(gen - mirror - expected))) / float(np.max(np.abs(mirror)))


def kernel_verify_checks(medium: Medium, kind: KernelKind, pairs,
                         spec: QuadratureSpec) -> list[CheckReport]:
    """One ``kernel_vs_closed_form`` row per pair: the assembled kernel against
    its closed form or, for the perfect reflector, the mirror deviation."""
    reports = []
    for idx, pair in enumerate(pairs):
        t0 = time.perf_counter()
        err = (_mirror_deviation(medium, pair, spec) if kind is KernelKind.PERFECT_REFLECTOR
               else _closed_form_error(medium, kind, pair, spec)[1])
        params = {"kind": kind.value, "n": medium.n, "pair": idx,
                  "r": list(map(float, pair.r)), "rprime": list(map(float, pair.rprime))}
        reports.append(make_check("kernel_vs_closed_form", params, err, 0.0,
                                  _TOL["tol.kernels.assembly"], "abs", _elapsed_ms(t0)))
    return reports


def poisson_jump_checks(medium: Medium, labels) -> list[CheckReport]:
    """The Poisson jump 2|k_par| chi-dot(0) = sigma of each TM label
    (|k_par|, label, side), and of one label at a near-perfect reflector."""
    t0 = time.perf_counter()
    errors = [poisson_jump_residual(medium, kp, complex(kl), side) for kp, kl, side in labels]
    errors.append(poisson_jump_residual(Medium(1e4), 1.0, 0.7 + 0.0j, Side.RIGHT))
    return _worst_rows(t0, {"n": medium.n, "modes": len(errors)}, errors,
                       [("poisson_jump_identity", "tol.kernels.poisson")])


def curl_checks(medium: Medium, pairs) -> list[CheckReport]:
    """Central-difference curls over the first index: the gauge-difference
    closed form is curl-free, and the generalized and true-Coulomb closed
    forms have the same curl (the physical commutator is gauge independent)."""
    params = {"n": medium.n, "pairs": len(pairs)}
    t0 = time.perf_counter()
    reports = _worst_rows(t0, params, [curl_annihilation_residual(medium, p) for p in pairs],
                          [("gauge_difference_curl_annihilation", "tol.kernels.curl")])
    t0 = time.perf_counter()
    errors = []
    for pair in pairs:
        def kernel(variant: GreenVariant):
            return lambda r: -grad_grad_green_tensor(medium, variant, PointPair(r, pair.rprime))

        step = 1e-3 * pair.separation
        curl_gen, scale_gen = fd_curl_first_index(kernel(GreenVariant.FULL), pair.r, step)
        curl_tc, scale_tc = fd_curl_first_index(kernel(GreenVariant.FREE), pair.r, step)
        errors.append(float(np.max(np.abs(curl_gen - curl_tc))) / max(scale_gen, scale_tc))
    return reports + _worst_rows(t0, params, errors, [("physical_commutator_gauge_independence",
                                                       "tol.kernels.curl")])


def perfect_reflector_slope_checks(pair: PointPair, n_values,
                                   spec: QuadratureSpec) -> list[CheckReport]:
    """The log-log slope over ``n_values`` of the generalized kernel's
    deviation from the perfect-reflector form, which decays like 2/(n^2+1)."""
    t0 = time.perf_counter()
    devs = perfect_reflector_convergence(pair, list(n_values), spec)
    slope = np.polyfit(np.log(n_values), np.log(devs), 1)[0]
    params = {"n_values": "/".join(f"{n:g}" for n in n_values)}
    return [make_check("perfect_reflector_slope", params, float(slope), -2.0,
                       _TOL["tol.kernels.slope"], "abs", _elapsed_ms(t0))]


def shift_ratio_checks(n_values, z0_values, spec: QuadratureSpec) -> list[CheckReport]:
    """The second-order shift over V^es against (n^2-1)/(2n^2) at each (n, z0)."""
    reports = []
    for n in n_values:
        for z0 in z0_values:
            t0 = time.perf_counter()
            shift = second_order_shift(1.0, Medium(n), z0, spec)
            reports.append(make_check("electrostatic_shift_ratio", {"n": n, "z0": z0, "q": 1.0},
                                      shift.ratio, shift.expected_ratio, _TOL["tol.energy"],
                                      "abs", _elapsed_ms(t0)))
    return reports


def gauge_energy_checks(n_values, z0: float, spec: QuadratureSpec) -> list[CheckReport]:
    """At each n: the shift plus the share (n^2+1)/(2n^2) of V^es that the
    Hamiltonian keeps, over V^es, which gauge invariance makes 1; and the
    c-number of the double commutator against minus the shift."""
    sums, cnums = [], []
    for n in n_values:
        med, params = Medium(n), {"n": n, "z0": z0, "q": 1.0}
        t0 = time.perf_counter()
        ratio = gauge_invariance_sum(1.0, med, z0, spec) / image_potential_ves(1.0, med, z0)
        sums.append(make_check("gauge_invariance_energy_sum", params, ratio, 1.0,
                               _TOL["tol.energy"], "abs", _elapsed_ms(t0)))
        t0 = time.perf_counter()
        cnum = double_commutator_cnumber(1.0, med, z0, spec)
        cnums.append(make_check("double_commutator_cnumber", params, cnum,
                                -second_order_shift(1.0, med, z0, spec).delta_e,
                                _TOL["tol.energy"], "rel", _elapsed_ms(t0)))
    return sums + cnums


def n2_reference_checks(spec: QuadratureSpec) -> list[CheckReport]:
    """The quantitative endpoint at n = 2, z0 = 1: the ratio 3/8 and
    V^es = -(1/4 pi)(3/5)(1/4)."""
    t0 = time.perf_counter()
    shift = second_order_shift(1.0, Medium(2.0), 1.0, spec)
    ms = _elapsed_ms(t0)
    params = {"n": 2.0, "z0": 1.0, "q": 1.0}
    return [make_check("shift_ratio_n2_reference", params, shift.ratio, 0.375,
                       _TOL["tol.energy"], "abs", ms),
            make_check("image_potential_n2_reference", params, shift.v_es,
                       -3.0 / (80.0 * math.pi), _TOL["tol.energy.image"], "rel", ms)]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _kernels_suite(spec: QuadratureSpec, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    reports = []
    for n in _N_VALUES:
        reports += kz_residue_checks(Medium(n), residue_points(rng, 51), spec)
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE):
        reports += closed_form_checks(kind, _N_VALUES, UPPER_PAIRS + LOWER_PAIRS, spec)
    reports += closed_form_checks(KernelKind.TRUE_COULOMB, (1.5, 4.0),
                                  UPPER_PAIRS[:2] + LOWER_PAIRS[:2], spec)
    labels = [(kp, kl, side) for kp in _KPARS for kl in (0.7, 1.9)
              for side in (Side.RIGHT, Side.LEFT)]
    return (reports + poisson_jump_checks(Medium(2.0), labels)
            + curl_checks(Medium(2.0), curl_pairs(seed + 1, 10))
            + perfect_reflector_slope_checks(MIRROR_PAIR, MIRROR_N, spec))


_SUITES = {
    "fresnel": lambda spec, seed: fresnel_checks(seed, 1000),
    "modes": lambda spec, seed: (mode_matching_checks(Medium(2.0), mode_grid())
                                 + mode_fd_checks(Medium(2.0), mode_grid()[::7])),
    "kernels": _kernels_suite,
    "energy": lambda spec, seed: (shift_ratio_checks(_N_VALUES, (0.5, 1.0, 2.0), spec)
                                  + gauge_energy_checks(_N_VALUES, 1.0, spec)
                                  + n2_reference_checks(spec)),
}


def run_suite(name: str, spec: QuadratureSpec | None = None,
              seed: int = 42) -> list[CheckReport]:
    """Run one suite (or 'all') at quadrature ``spec`` with RNG ``seed``;
    returns the collected check reports.

    The seed is recorded in every report, including the deterministic
    (non-sampled) checks.
    """
    spec = spec or QuadratureSpec()
    if name == "all":
        reports = []
        for suite in _SUITES:
            reports.extend(run_suite(suite, spec, seed))
        return reports
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    reports = _SUITES[name](spec, seed)
    for r in reports:
        r.params.setdefault("seed", seed)
    return reports
