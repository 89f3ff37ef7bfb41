"""Seeded inputs and closed-form checks of the four benchmark workloads.

A workload turns a seed into a fixed-length list of items.  Each item is one
call (or one small batch of calls) into the public functions of
``halfspace_qed``, followed by a comparison of the result with its closed
form at the tolerance ``halfspace_qed.config.DEFAULT_TOLERANCES`` gives that
check family.  Items are stratified: every slot of a workload has a fixed
kernel kind, side of the interface and index band, and the seed only draws the
geometry and the index inside the slot, so two seeds give different inputs of
the same shape and comparable cost.

Every package function is looked up through its module at call time
(``kernels.kz_spectral_kernel``, not a local alias), so the traced run sees
the calls the benchmark makes as well as the calls between modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from halfspace_qed import energy, fresnel, greens, kernels, medium, modes
from halfspace_qed.config import DEFAULT_TOLERANCES
from halfspace_qed.spectral import QuadratureSpec

__all__ = ["WORKLOADS", "Item", "Outcome", "make_items", "run_item"]

WORKLOADS = ("kz-profiles", "kernel-assembly", "energy-sweep", "closed-forms")

# Items per pass over the list; a run repeats the pass while time is left.
ITEMS_PER_PASS = {
    "kz-profiles": 100,
    "kernel-assembly": 4,
    "energy-sweep": 8,
    "closed-forms": 48,
}

# Index bands, log-uniform inside a band.  Near-vacuum n (n - 1 < 1e-3) is
# left out on purpose: one such assembly costs about 14 s.  The k_z bands
# stop at n = 5, the range of the repository's own residue check: beyond it,
# below the interface at kappa (|z| + z') ~ 5, the TM scale drops to ~1e-3
# and the TE check (1e-8 of it) meets the engine's absolute tolerance of
# 1e-12; at n ~ 9-13 such items sit at 0.8 of the TE tolerance.
_N_BANDS = ((1.2, 1.6), (1.6, 2.3), (2.3, 3.3), (3.3, 5.0))
_N_LOW = (1.2, 4.0)
# The range the package's energy callers serve: the verification energy suite
# uses n = 1.5, 2 and 4, and `energy sweep` defaults to --n-grid 1.5:4.
_ENERGY_N_BANDS = ((1.2, 1.5), (1.5, 2.0), (2.0, 2.8), (2.8, 4.0))

_TM = ((0, 0), (0, 2), (2, 0), (2, 2))
_KZ_COMPONENTS = tuple(("TM", i, j) for i, j in _TM) + (("TE", 1, 1),)

# kernel-assembly slots: (kernel kind, geometry, index band).  "same" is a
# pair at equal heights: its free-space part has no damping, so the radial
# layer integrates it with the oscillatory engine over the Bessel zeros, and
# its reflected part takes the damped path.  The 20-50 band is the
# perfect-reflector regime.  The true-Coulomb pair below the interface runs
# the transmitted and the gauge-difference profiles.  Four slots are the
# fewest that reach every profile, so that each item gets several passes per
# run.  The cost of the two dearest slots grows with n (the perfect-reflector
# pair from 92k nodes at n = 10 to 134k at n = 100, the true-Coulomb pair
# 141k up to n = 2 and 166k at n = 4), so their bands are narrow enough that
# the seed moves the cost of a pass by a few per cent only.
_ASSEMBLY_SLOTS = (
    ("generalized_delta", "same", _N_LOW),
    ("generalized_delta", "upper", (20.0, 50.0)),
    ("gauge_difference", "upper", _N_LOW),
    ("true_coulomb", "lower", (1.2, 2.0)),
)

_CLOSED_FORM_KINDS = ("fresnel", "modes", "poisson", "curl")
_FRESNEL_BATCH = 24
_MODES_BATCH = 6
_POISSON_BATCH = 24


@dataclass(frozen=True)
class Item:
    """One unit of work: a check family and the inputs drawn for it."""

    kind: str
    params: dict


@dataclass
class Outcome:
    """Result of one item: the observed error against its check tolerance.

    ``outputs`` are the raw numbers the package returned, for the results
    digest; ``est_over_obs`` is the engine's error estimate over the observed
    error where the package reports an estimate.
    """

    check: str
    err: float
    tol: float
    outputs: list[float]
    est_over_obs: float | None = None

    @property
    def passed(self) -> bool:
        return self.err <= self.tol


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _complex_parts(values) -> list[float]:
    flat = np.asarray(values, dtype=complex).ravel()
    return [float(x) for pair in zip(flat.real, flat.imag) for x in pair]


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _kz_item(rng: np.random.Generator, k: int) -> Item:
    n = _log_uniform(rng, *_N_BANDS[k % len(_N_BANDS)])
    kpar = rng.uniform(0.2, 2.2)
    zp = rng.uniform(0.25, 1.35)
    height = rng.uniform(0.25, 1.25)
    z = -height if k % 3 == 2 else height + 0.1
    pol, i, j = _KZ_COMPONENTS[k % len(_KZ_COMPONENTS)]
    return Item("kz", dict(n=n, kpar=kpar, z=z, zp=zp, pol=pol, i=i, j=j))


def _assembly_item(rng: np.random.Generator, k: int) -> Item:
    kind, geometry, band = _ASSEMBLY_SLOTS[k % len(_ASSEMBLY_SLOTS)]
    n = _log_uniform(rng, *band)
    zp = rng.uniform(0.5, 0.9)
    z = {"upper": rng.uniform(0.5, 0.9), "same": zp, "lower": -rng.uniform(0.5, 0.9)}[geometry]
    rho = rng.uniform(0.3, 0.7)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    xp, yp = rng.uniform(-0.3, 0.3, size=2)
    r = (xp + rho * math.cos(phi), yp + rho * math.sin(phi), z)
    return Item("assembly", dict(kind=kind, n=n, r=r, rp=(xp, yp, zp)))


def _energy_item(rng: np.random.Generator, k: int) -> Item:
    kind = ("shift", "cnumber")[k % 2]
    n = _log_uniform(rng, *_ENERGY_N_BANDS[(k // 2) % len(_ENERGY_N_BANDS)])
    z0 = _log_uniform(rng, 0.4, 3.0)
    q = rng.uniform(0.5, 2.0)
    return Item(kind, dict(n=n, z0=z0, q=q))


def _label(rng: np.random.Generator) -> tuple[float, float, float, str, str]:
    """A real-labelled TE/TM mode of either incidence side: (n, kpar, k, side, pol)."""
    return (
        _log_uniform(rng, 1.1, 5.0),
        rng.uniform(0.2, 3.0),
        rng.uniform(0.2, 3.0),
        ("R", "L")[int(rng.integers(2))],
        ("TE", "TM")[int(rng.integers(2))],
    )


def _closed_form_item(rng: np.random.Generator, k: int) -> Item:
    kind = _CLOSED_FORM_KINDS[k % len(_CLOSED_FORM_KINDS)]
    if kind == "fresnel":
        samples = []
        for s in range(_FRESNEL_BATCH):
            n = 1.0 + 4.0 * rng.random()
            kpar = 0.05 + 4.95 * rng.random()
            pol = ("TE", "TM")[int(rng.integers(2))]
            u = rng.random()
            gamma = kpar * math.sqrt(n * n - 1.0) / n
            # alternate the travelling axis and the evanescent segment
            if s % 2 == 0 or gamma < 1e-6:
                kz = complex(0.02 + 5.0 * u)
            else:
                kz = 1j * gamma * (0.02 + 0.96 * u)
            samples.append((n, kpar, pol, kz))
        return Item(kind, dict(samples=samples))
    if kind == "modes":
        points = [_label(rng) + tuple(rng.uniform(-1.0, 1.0, size=2)) for _ in range(_MODES_BATCH)]
        return Item(kind, dict(points=points))
    if kind == "poisson":
        return Item(kind, dict(labels=[_label(rng) for _ in range(_POISSON_BATCH)]))
    # one pair above and one below the interface, 0.12-0.3 apart for the upper
    base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.4)])
    direction = rng.normal(size=3)
    offset = direction / np.linalg.norm(direction) * rng.uniform(0.12, 0.3)
    lower = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), -rng.uniform(0.6, 1.4)])
    n = _log_uniform(rng, 1.1, 5.0)
    return Item(kind, dict(n=n, rp=tuple(base), r_upper=tuple(base + offset), r_lower=tuple(lower)))


_GENERATORS = {
    "kz-profiles": _kz_item,
    "kernel-assembly": _assembly_item,
    "energy-sweep": _energy_item,
    "closed-forms": _closed_form_item,
}


def make_items(workload: str, seed: int, count: int | None = None) -> list[Item]:
    """The seeded item list of one pass; ``count`` truncates it (for tests)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    size = ITEMS_PER_PASS[workload] if count is None else min(count, ITEMS_PER_PASS[workload])
    return [_GENERATORS[workload](rng, k) for k in range(size)]


# ---------------------------------------------------------------------------
# execution and checks
# ---------------------------------------------------------------------------

def _tol(key: str) -> float:
    return DEFAULT_TOLERANCES[key]


def _run_kz(p: dict, spec: QuadratureSpec) -> Outcome:
    med = medium.Medium(p["n"])
    pol = medium.Polarization(p["pol"])
    args = (p["kpar"], p["z"], p["zp"])
    value = kernels.kz_spectral_kernel(med, pol, p["i"], p["j"], *args, spec)
    scale = max(abs(kernels.residue_closed_form(med, a, b, *args)) for a, b in _TM)
    if pol is medium.Polarization.TE:
        return Outcome("te_kernel_suppression", abs(value) / scale, _tol("tol.kernels.te"),
                       _complex_parts(value))
    target = kernels.residue_closed_form(med, p["i"], p["j"], *args)
    return Outcome("kz_integral_vs_residue", abs(value - target) / scale,
                   _tol("tol.kernels.residue"), _complex_parts(value))


def _assembly_target(kind: kernels.KernelKind, med: medium.Medium, pair: greens.PointPair):
    if kind is kernels.KernelKind.GENERALIZED_DELTA:
        return -greens.grad_grad_green_tensor(med, greens.GreenVariant.FULL, pair)
    if kind is kernels.KernelKind.GAUGE_DIFFERENCE:
        return kernels.gauge_difference_closed_form(med, pair)
    return -greens.grad_grad_green_tensor(med, greens.GreenVariant.FREE, pair)


def _run_assembly(p: dict, spec: QuadratureSpec) -> Outcome:
    kind = kernels.KernelKind(p["kind"])
    med = medium.Medium(p["n"])
    pair = greens.PointPair(np.array(p["r"]), np.array(p["rp"]))
    result = kernels.assemble_kernel_result(med, kind, pair, spec)
    target = _assembly_target(kind, med, pair)
    abs_err = float(np.max(np.abs(result.tensor - target)))
    est = result.error_estimate / abs_err if abs_err > 0.0 else None
    return Outcome(f"{kind.value}_closed_form", abs_err / float(np.max(np.abs(target))),
                   _tol("tol.kernels.assembly"), _complex_parts(result.tensor), est)


def _run_shift(p: dict, spec: QuadratureSpec) -> Outcome:
    med = medium.Medium(p["n"])
    shift = energy.second_order_shift(p["q"], med, p["z0"], spec)
    expected = (p["n"] ** 2 - 1.0) / (2.0 * p["n"] ** 2)
    return Outcome("electrostatic_shift_ratio", abs(shift.ratio - expected), _tol("tol.energy"),
                   [shift.delta_e, shift.left_part, shift.right_part, shift.v_es])


def _run_cnumber(p: dict, spec: QuadratureSpec) -> Outcome:
    med = medium.Medium(p["n"])
    value = energy.double_commutator_cnumber(p["q"], med, p["z0"], spec)
    share = (p["n"] ** 2 - 1.0) / (2.0 * p["n"] ** 2)
    target = -share * greens.image_potential_ves(p["q"], med, p["z0"])
    return Outcome("double_commutator_cnumber", abs(value - target) / abs(target),
                   _tol("tol.energy"), [value])


def _run_fresnel(p: dict, spec: QuadratureSpec) -> Outcome:
    worst = 0.0
    outputs: list[float] = []
    for n, kpar, pol, kz in p["samples"]:
        med = medium.Medium(n)
        pol = medium.Polarization(pol)
        c = fresnel.fresnel_coefficients(med, pol, kpar, kz)
        kzd = medium.refracted_kz(med, kpar, kz)
        worst = max(
            worst,
            abs(c.rL + c.rR),
            abs(c.tL - kzd / kz * c.tR),
            abs(fresnel.cancellation_residual(med, pol, kpar, kz)),
        )
        outputs += _complex_parts([c.rR, c.tR, c.tL])
    return Outcome("fresnel_identities", worst, _tol("tol.fresnel"), outputs)


def _run_modes(p: dict, spec: QuadratureSpec) -> Outcome:
    """Tangential E and normal eps*E continuity of the mode functions at z = 0."""
    worst = 0.0
    outputs: list[float] = []
    for n, kpar, k, side, pol, x, y in p["points"]:
        med = medium.Medium(n)
        point = medium.SpectralPoint((kpar, 0.0), complex(k), medium.Side(side),
                                     medium.Polarization(pol))
        above = modes.carniglia_mandel_mode(med, point, np.array([x, y, 0.0]))
        below = modes.carniglia_mandel_mode(med, point, np.array([x, y, -1e-13]))
        scale = max(float(np.max(np.abs(above))), float(np.max(np.abs(below))), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(above[:2] - below[:2]))) / scale,
            abs(above[2] - med.eps_inside * below[2]) / scale,
        )
        outputs += _complex_parts(above)
    return Outcome("mode_interface_matching", worst, _tol("tol.modes.matching"), outputs)


def _run_poisson(p: dict, spec: QuadratureSpec) -> Outcome:
    residuals = [
        kernels.poisson_jump_residual(medium.Medium(n), kpar, complex(k), medium.Side(side))
        for n, kpar, k, side, _pol in p["labels"]
    ]
    return Outcome("poisson_jump_identity", max(residuals), _tol("tol.kernels.poisson"), residuals)


def _run_curl(p: dict, spec: QuadratureSpec) -> Outcome:
    """FD curl over the first index of -grad grad' G, a pure gradient in r.

    The step is 1e-4 of the separation: at 1e-3 the O(h^2) truncation of the
    free-space 1/|r - r'| term alone is about 5e-6, above the 1e-6 tolerance.
    """
    med = medium.Medium(p["n"])
    rp = np.array(p["rp"])
    worst = 0.0
    outputs: list[float] = []
    for r in (np.array(p["r_upper"]), np.array(p["r_lower"])):

        def field(x: np.ndarray) -> np.ndarray:
            return -greens.grad_grad_green_tensor(med, greens.GreenVariant.FULL,
                                                  greens.PointPair(x, rp))

        step = 1e-4 * float(np.linalg.norm(r - rp))
        curl, scale = kernels.fd_curl_first_index(field, r, step)
        worst = max(worst, float(np.max(np.abs(curl))) / scale)
        outputs += [float(x) for x in curl.ravel()]
    return Outcome("grad_grad_green_curl", worst, _tol("tol.kernels.curl"), outputs)


_RUNNERS = {
    "kz": _run_kz,
    "assembly": _run_assembly,
    "shift": _run_shift,
    "cnumber": _run_cnumber,
    "fresnel": _run_fresnel,
    "modes": _run_modes,
    "poisson": _run_poisson,
    "curl": _run_curl,
}


def run_item(item: Item, spec: QuadratureSpec) -> Outcome:
    """Run one item and compare it with its closed form.

    A ``QuadratureError`` propagates; the harness counts it as a failed item.
    """
    return _RUNNERS[item.kind](item.params, spec)
