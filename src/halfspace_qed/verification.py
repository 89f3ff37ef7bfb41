"""Verification suites: seeded, budgeted checks of the analytic identities.

Each suite compares independently assembled quantities (quadrature, mode
sums, finite differences) against closed forms or invariants and emits one
:class:`CheckReport` per criterion.  A suite takes the run's quadrature spec
and RNG seed; every bound is a constant of ``config.DEFAULT_TOLERANCES``.
The same functions back the CLI ``verify`` subcommand and the acceptance
test module.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .config import DEFAULT_TOLERANCES as _TOL
from .energy import (
    double_commutator_cnumber,
    gauge_invariance_sum,
    second_order_shift,
)
from .fresnel import cancellation_residual, fresnel_coefficients
from .greens import GreenVariant, PointPair, grad_grad_green_tensor
from .kernels import (
    KernelKind,
    assemble_kernel_result,
    curl_annihilation_residual,
    fd_curl_first_index,
    kernel_closed_form,
    kz_profile,
    perfect_reflector_convergence,
    poisson_jump_residual,
    residue_profile,
)
from .medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    epsilon_profile,
    evanescent_threshold,
    mode_frequency,
)
from .modes import carniglia_mandel_mode
from .report import CheckReport, make_check
from .spectral import QuadratureSpec

__all__ = ["run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("fresnel", "modes", "kernels", "energy", "all")


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000.0))


# ---------------------------------------------------------------------------
# fresnel suite
# ---------------------------------------------------------------------------

def fresnel_suite(spec: QuadratureSpec, seed: int) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    tol = _TOL["tol.fresnel"]
    worst_rl = worst_tl = worst_cancel = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        n = 1.0 + 4.0 * rng.random()
        med = Medium(n)
        kpar = 0.05 + 4.95 * rng.random()
        pol = Polarization.TE if rng.random() < 0.5 else Polarization.TM
        gamma = evanescent_threshold(med, kpar)
        if i % 2 == 0 or gamma < 1e-6:
            kz = complex(0.02 + 5.0 * rng.random())
        else:
            kz = 1j * gamma * (0.02 + 0.96 * rng.random())
        c = fresnel_coefficients(med, pol, kpar, kz)
        worst_rl = max(worst_rl, abs(c.rL + c.rR))
        worst_tl = max(worst_tl, abs(c.tL - c.kzd / kz * c.tR))
        worst_cancel = max(worst_cancel, abs(cancellation_residual(med, pol, kpar, kz)))
    ms = _elapsed_ms(t0)
    params = {"samples": 1000, "seed": seed}
    return [
        make_check("fresnel_left_right_reflection", params, worst_rl, 0.0, tol, "abs", ms),
        make_check("fresnel_left_transmission_link", params, worst_tl, 0.0, tol, "abs", ms),
        make_check("fresnel_contour_cancellation", params, worst_cancel, 0.0, tol, "abs", ms),
    ]


# ---------------------------------------------------------------------------
# modes suite
# ---------------------------------------------------------------------------

def _mode_grid(n: float) -> list[SpectralPoint]:
    kpars = [0.3, 0.7, 1.2, 2.0, 3.1]
    klongs = [0.25, 0.6, 1.0, 1.7, 2.8]
    points = []
    for kp in kpars:
        for kl in klongs:
            for side in (Side.RIGHT, Side.LEFT):
                for pol in (Polarization.TE, Polarization.TM):
                    points.append(SpectralPoint((kp, 0.0), complex(kl), side, pol))
    return points


def modes_suite(spec: QuadratureSpec, seed: int) -> list[CheckReport]:
    med = Medium(2.0)
    eps_in = med.eps_inside
    t0 = time.perf_counter()
    worst_tan = worst_epsz = 0.0
    dz = 1e-13
    for point in _mode_grid(med.n):
        above = carniglia_mandel_mode(med, point, np.array([0.17, -0.05, 0.0]))
        below = carniglia_mandel_mode(med, point, np.array([0.17, -0.05, -dz]))
        scale = max(np.max(np.abs(above)), np.max(np.abs(below)), 1e-300)
        worst_tan = max(worst_tan, float(np.max(np.abs(above[:2] - below[:2]))) / scale)
        worst_epsz = max(worst_epsz, abs(above[2] - eps_in * below[2]) / scale)
    ms = _elapsed_ms(t0)
    tol_match = _TOL["tol.modes.matching"]
    reports = [
        make_check("mode_tangential_continuity", {"n": med.n, "grid": 100}, worst_tan, 0.0,
                   tol_match, "abs", ms),
        make_check("mode_displacement_continuity", {"n": med.n, "grid": 100}, worst_epsz, 0.0,
                   tol_match, "abs", ms),
    ]

    # finite-difference generalized-gauge divergence and Helmholtz residual
    t0 = time.perf_counter()
    worst_div = worst_helm = 0.0
    probes = [np.array([0.3, -0.4, 0.6]), np.array([-0.2, 0.5, -0.7])]
    subset = _mode_grid(med.n)[::7]
    for point in subset:
        omega = mode_frequency(med, point)
        kscale = max(point.kpar_mag, abs(point.kz), omega)
        for r in probes:
            eps = epsilon_profile(med, float(r[2]))
            f0 = carniglia_mandel_mode(med, point, r)
            scale = max(float(np.max(np.abs(f0))), 1e-300)
            h = 1e-5
            div = 0.0 + 0.0j
            for axis in range(3):
                dr = np.zeros(3)
                dr[axis] = h
                fp = carniglia_mandel_mode(med, point, r + dr)
                fm = carniglia_mandel_mode(med, point, r - dr)
                div += (fp[axis] - fm[axis]) / (2.0 * h)
            worst_div = max(worst_div, abs(eps * div) / (kscale * scale * eps))
            h2 = 2e-4
            lap = np.zeros(3, dtype=complex)
            for axis in range(3):
                dr = np.zeros(3)
                dr[axis] = h2
                lap += (
                    carniglia_mandel_mode(med, point, r + dr)
                    - 2.0 * f0
                    + carniglia_mandel_mode(med, point, r - dr)
                ) / (h2 * h2)
            resid = lap + eps * omega * omega * f0
            worst_helm = max(worst_helm, float(np.max(np.abs(resid))) / (eps * omega * omega * scale))
    ms = _elapsed_ms(t0)
    tol_div = _TOL["tol.modes.divergence"]
    reports.append(
        make_check("mode_gauge_divergence_fd", {"n": med.n, "modes": len(subset)},
                   worst_div, 0.0, tol_div, "abs", ms)
    )
    reports.append(
        make_check("mode_helmholtz_residual_fd", {"n": med.n, "modes": len(subset)},
                   worst_helm, 0.0, tol_div, "abs", ms)
    )
    return reports


# ---------------------------------------------------------------------------
# kernels suite
# ---------------------------------------------------------------------------

_PAIRS_UPPER = [
    ((0.4, -0.2, 0.8), (0.1, 0.3, 0.5)),
    ((1.0, 0.0, 0.3), (0.2, -0.1, 1.1)),
    ((-0.3, 0.5, 0.9), (0.4, 0.1, 0.4)),
    ((0.6, 0.4, 0.7), (-0.2, 0.2, 0.7)),  # z = z': oscillatory free-part path
]
_PAIRS_LOWER = [
    ((0.5, 0.2, -0.6), (0.0, -0.3, 0.7)),
    ((-0.4, -0.3, -0.4), (0.3, 0.2, 0.9)),
    ((0.2, 0.6, -1.0), (-0.1, 0.0, 0.5)),
    ((0.8, -0.5, -0.3), (0.2, 0.3, 1.2)),
]


def _point_pairs() -> list[PointPair]:
    return [PointPair(np.array(r), np.array(rp)) for r, rp in _PAIRS_UPPER + _PAIRS_LOWER]


def _residue_points(rng: np.random.Generator, count: int) -> list[tuple[float, float, float]]:
    pts = []
    for i in range(count):
        kpar = 0.2 + 2.0 * rng.random()
        zp = 0.25 + 1.1 * rng.random()
        if i % 3 == 2:
            z = -(0.25 + 1.0 * rng.random())
        else:
            z = 0.25 + 1.1 * rng.random()
        pts.append((kpar, z, zp))
    return pts


def kernels_suite(spec: QuadratureSpec, seed: int) -> list[CheckReport]:
    reports: list[CheckReport] = []
    rng = np.random.default_rng(seed)

    # residue theorem vs travelling+evanescent quadrature
    tol_res = _TOL["tol.kernels.residue"]
    tol_te = _TOL["tol.kernels.te"]
    for n in (1.5, 2.0, 4.0):
        med = Medium(n)
        t0 = time.perf_counter()
        worst = worst_te = 0.0
        for kpar, z, zp in _residue_points(rng, 51):
            prof = kz_profile(med, kpar, z, zp, spec)
            target = residue_profile(med, kpar, z, zp)
            scale = float(np.max(np.abs(target)))
            worst = max(worst, float(np.max(np.abs(prof.value[:4] - target[:4]))) / scale)
            worst_te = max(worst_te, abs(prof.value[4]) / scale)
        ms = _elapsed_ms(t0)
        params = {"n": n, "points": 51, "seed": seed}
        reports.append(make_check("kz_integral_vs_residue", params, worst, 0.0, tol_res, "abs", ms))
        reports.append(make_check("te_kernel_suppression", params, worst_te, 0.0, tol_te, "abs", ms))

    # assembled kernels vs their image-charge closed forms: the generalized
    # gauge on both halves of the geometry, the gauge-difference mode sum, and
    # the true-Coulomb kernel (free-space form, then n-independence below)
    pairs = _point_pairs()
    tc_pairs = [pairs[0], pairs[1], pairs[4], pairs[5]]
    tol_asm = _TOL["tol.kernels.assembly"]
    assembled: dict[tuple[KernelKind, float], list[np.ndarray]] = {}
    for name, kind, n_values, kind_pairs in (
        ("generalized_delta_closed_form", KernelKind.GENERALIZED_DELTA, (1.5, 2.0, 4.0), pairs),
        ("gauge_difference_closed_form", KernelKind.GAUGE_DIFFERENCE, (1.5, 2.0, 4.0), pairs),
        ("true_coulomb_free_space_form", KernelKind.TRUE_COULOMB, (1.5, 4.0), tc_pairs),
    ):
        for n in n_values:
            med = Medium(n)
            t0 = time.perf_counter()
            kerns = assembled[kind, n] = [assemble_kernel_result(med, kind, p, spec).tensor
                                          for p in kind_pairs]
            worst = 0.0
            for kern, pair in zip(kerns, kind_pairs):
                target = kernel_closed_form(med, kind, pair)
                scale = float(np.max(np.abs(target)))
                worst = max(worst, float(np.max(np.abs(kern - target))) / scale)
            reports.append(
                make_check(name, {"n": n, "pairs": len(kind_pairs)},
                           worst, 0.0, tol_asm, "abs", _elapsed_ms(t0))
            )
    t0 = time.perf_counter()
    worst = 0.0
    tc = KernelKind.TRUE_COULOMB
    for ta, tb in zip(assembled[tc, 1.5], assembled[tc, 4.0]):
        scale = float(np.max(np.abs(ta)))
        worst = max(worst, float(np.max(np.abs(ta - tb))) / scale)
    reports.append(
        make_check("true_coulomb_n_independence", {"n_pair": "1.5/4", "pairs": len(tc_pairs)},
                   worst, 0.0, tol_asm, "abs", _elapsed_ms(t0))
    )

    # per-mode Poisson jump identity
    t0 = time.perf_counter()
    worst = 0.0
    labels = []
    for kp in (0.3, 0.7, 1.2, 2.0, 3.1):
        for kl in (0.7, 1.9):
            labels.append((kp, kl, Side.RIGHT))
            labels.append((kp, kl, Side.LEFT))
    for kp, kl, side in labels:
        worst = max(worst, poisson_jump_residual(Medium(2.0), kp, complex(kl), side))
    worst = max(worst, poisson_jump_residual(Medium(1e4), 1.0, 0.7 + 0.0j, Side.RIGHT))
    reports.append(
        make_check("poisson_jump_identity", {"n": 2.0, "modes": len(labels) + 1},
                   worst, 0.0, _TOL["tol.kernels.poisson"], "abs", _elapsed_ms(t0))
    )

    # FD curl annihilation and gauge independence of the physical commutator
    tol_curl = _TOL["tol.kernels.curl"]
    med = Medium(2.0)
    curl_pairs = []
    rng2 = np.random.default_rng(seed + 1)
    while len(curl_pairs) < 10:
        base = np.array([rng2.uniform(-0.5, 0.5), rng2.uniform(-0.5, 0.5), rng2.uniform(0.8, 1.4)])
        offset = rng2.uniform(-0.2, 0.2, size=3)
        pair = PointPair(base + offset, base)
        if pair.separation > 0.1:
            curl_pairs.append(pair)
    t0 = time.perf_counter()
    worst = 0.0
    for pair in curl_pairs:
        worst = max(worst, curl_annihilation_residual(med, pair))
    reports.append(
        make_check("gauge_difference_curl_annihilation", {"n": med.n, "pairs": 10},
                   worst, 0.0, tol_curl, "abs", _elapsed_ms(t0))
    )
    t0 = time.perf_counter()
    worst = 0.0
    for pair in curl_pairs:
        step = 1e-3 * pair.separation

        def gen_field(r: np.ndarray) -> np.ndarray:
            return -grad_grad_green_tensor(med, GreenVariant.FULL, PointPair(r, pair.rprime))

        def tc_field(r: np.ndarray) -> np.ndarray:
            return -grad_grad_green_tensor(med, GreenVariant.FREE, PointPair(r, pair.rprime))

        curl_gen, scale_gen = fd_curl_first_index(gen_field, pair.r, step)
        curl_tc, scale_tc = fd_curl_first_index(tc_field, pair.r, step)
        scale = max(scale_gen, scale_tc)
        worst = max(worst, float(np.max(np.abs(curl_gen - curl_tc))) / scale)
    reports.append(
        make_check("physical_commutator_gauge_independence", {"n": med.n, "pairs": 10},
                   worst, 0.0, tol_curl, "abs", _elapsed_ms(t0))
    )

    # perfect-reflector limit: deviation scaling with log-log slope -2
    t0 = time.perf_counter()
    pr_pair = PointPair(np.array([0.3, 0.0, 0.7]), np.array([0.0, 0.2, 0.5]))
    n_values = [10.0, 30.0, 100.0]
    devs = perfect_reflector_convergence(pr_pair, n_values, spec)
    slope = np.polyfit(np.log(n_values), np.log(devs), 1)[0]
    reports.append(
        make_check("perfect_reflector_slope", {"n_values": "10/30/100"},
                   float(slope), -2.0, _TOL["tol.kernels.slope"], "abs", _elapsed_ms(t0))
    )
    return reports


# ---------------------------------------------------------------------------
# energy suite
# ---------------------------------------------------------------------------

def energy_suite(spec: QuadratureSpec, seed: int) -> list[CheckReport]:
    reports: list[CheckReport] = []
    tol = _TOL["tol.energy"]
    shifts = {}  # (n, z0) -> shift; the checks below reuse those at z0 = 1
    for n in (1.5, 2.0, 4.0):
        med = Medium(n)
        for z0 in (0.5, 1.0, 2.0):
            t0 = time.perf_counter()
            shift = shifts[n, z0] = second_order_shift(1.0, med, z0, spec)
            reports.append(
                make_check("electrostatic_shift_ratio", {"n": n, "z0": z0, "q": 1.0},
                           shift.ratio, shift.expected_ratio, tol, "abs", _elapsed_ms(t0))
            )
    for n in (1.5, 2.0, 4.0):
        t0 = time.perf_counter()
        total = gauge_invariance_sum(1.0, Medium(n), 1.0, spec)
        reports.append(
            make_check("gauge_invariance_energy_sum", {"n": n, "z0": 1.0, "q": 1.0},
                       total / shifts[n, 1.0].v_es, 1.0, tol, "abs", _elapsed_ms(t0))
        )
    for n in (1.5, 2.0, 4.0):
        t0 = time.perf_counter()
        cnum = double_commutator_cnumber(1.0, Medium(n), 1.0, spec)
        reports.append(
            make_check("double_commutator_cnumber", {"n": n, "z0": 1.0, "q": 1.0},
                       cnum, -shifts[n, 1.0].delta_e, tol, "rel", _elapsed_ms(t0))
        )
    # quantitative endpoint at n = 2: ratio 3/8 and V^es = -(1/4pi)(3/5)(1/4)
    shift = shifts[2.0, 1.0]
    reports.append(
        make_check("shift_ratio_n2_reference", {"n": 2.0, "z0": 1.0, "q": 1.0},
                   shift.ratio, 0.375, tol, "abs")
    )
    reports.append(
        make_check("image_potential_n2_reference", {"n": 2.0, "z0": 1.0, "q": 1.0},
                   shift.v_es, -3.0 / (80.0 * math.pi), _TOL["tol.energy.image"], "rel")
    )
    return reports


_SUITES = {
    "fresnel": fresnel_suite,
    "modes": modes_suite,
    "kernels": kernels_suite,
    "energy": energy_suite,
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
        for suite in ("fresnel", "modes", "kernels", "energy"):
            reports.extend(run_suite(suite, spec, seed))
        return reports
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    reports = _SUITES[name](spec, seed)
    for r in reports:
        r.params.setdefault("seed", seed)
    return reports
