"""Quadrature engine for the three spectral integral classes.

1. Semi-infinite oscillatory k_z integrals: the axis is partitioned at the
   oscillation zeros (half-period pi/s segments), each segment is integrated
   by internally adaptive Gauss-Kronrod panels (so sub-oscillation structure
   such as branch features near k = 0 is resolved), and the sequence of
   partial sums is accelerated with a sliding-window Levin u-transformation.
   The first panel of each half-period is evaluated in blocks of consecutive
   half-periods, one integrand call per block, and the two halves of a
   bisected panel share one call, so the integrand must give each 15-node
   panel of a call the values it would give that panel alone; ``nodes_used``
   counts every node evaluated, including those of prefetched half-periods
   that the converged sum never reached.  This converges to the
   Abel-regularised value for bounded non-decaying oscillatory amplitudes,
   which is exactly the value selected by closing the spectral contour; the
   numerical path stays independent of any residue evaluation.

2. Branch-cut (evanescent) segment integrals over t in (0, Gamma) with an
   integrable 1/sqrt(Gamma^2 - t^2) endpoint factor: the segment is always
   mapped by the trigonometric substitution t = Gamma*sin(u), which removes
   the endpoint behaviour, then globally adaptive Gauss-Kronrod 7/15 panels
   finish the job.

3. Exponentially damped half-line transforms int_0^inf f(k) e^{-k a} dk:
   truncation after a configured number of decay decades, with the truncated
   tail bound folded into the error estimate, plus adaptive panels.  (The
   Bessel-weighted radial assembly of the kernels lives in ``kernels``.)

Integrands may return scalars or ndarrays (all components share the node
set); tolerances always apply to the max-norm.  Everything is deterministic:
identical inputs produce bit-identical outputs.  An integral that misses its
tolerance raises :class:`QuadratureError`; a returned result always met it.

Batches: integrands return shape (nodes, *batch, comps), one integral per
batch entry (a panel of |k_par| values), and the tolerance is the max-norm
over the whole batch.  The cut segment and decaying half-line take array
``gamma`` / ``scale`` / ``offset`` and pass nodes of shape (nodes, *batch);
their ``nodes_used`` counts integrand evaluations, nodes x batch size.
"""
from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "QuadratureError",
    "adaptive_panels",
    "halfline_oscillatory_integral",
    "cut_segment_integral",
    "damped_radial_transform",
    "decaying_halfline_integral",
]


class QuadratureError(RuntimeError):
    """Raised when an integral fails to meet its tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, truncation and acceleration parameters."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_oscillation_periods: int = 48
    acceleration_order: int = 12
    damped_truncation_decades: float = 10.0

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "damped_truncation_decades"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name, least in (("max_oscillation_periods", 8), ("acceleration_order", 2)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * scale)


@dataclass
class IntegralResult:
    value: complex | np.ndarray
    error_estimate: float
    nodes_used: int


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15 pair (QUADPACK values); abscissae on [-1, 1].
_K15_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_W = np.zeros(15)
_G7_W[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]

Integrand = Callable[[np.ndarray], np.ndarray]

# Panel caps.  Over `verify --suite all` and the quadrature benchmark
# workloads the globally adaptive layers peak at 23 panels, so the cap only
# bounds the work spent on a non-convergent integrand.
_MAX_PANELS = 800
_SEGMENT_MAX_PANELS = 48
# Half-periods whose first panel shares one integrand call.  Four keeps an
# integrand that vanishes (two quiet half-periods) at 60 nodes.
_HALF_PERIOD_BLOCK = 4


def _rule(vals: np.ndarray, half: float):
    """Kronrod-15 value and |K15-G7| error estimate from the 15 node values
    of a panel of half-width ``half``.  One matmul per rule: a stacked (2, 15)
    rule matrix rounds differently."""
    cols = vals.reshape(15, -1)
    k15 = half * (_K15_W @ cols).reshape(vals.shape[1:])
    g7 = half * (_G7_W @ cols).reshape(vals.shape[1:])
    return k15, float(np.abs(k15 - g7).max())


def _eval_panel(f: Integrand, a: float, b: float):
    """Kronrod-15 value and |K15-G7| error estimate on [a, b]."""
    half = 0.5 * (b - a)
    return _rule(np.asarray(f(half * _K15_X + 0.5 * (a + b))), half)


def _panels(f: Integrand, a: np.ndarray, b: np.ndarray) -> list:
    """``_eval_panel`` on every [a[i], b[i]], from one integrand call on all
    their nodes, panel after panel."""
    half = 0.5 * (b - a)
    vals = np.asarray(f((np.multiply.outer(half, _K15_X) + (0.5 * (a + b))[:, None]).ravel()))
    vals = vals.reshape((len(a), 15) + vals.shape[1:])
    return [_rule(v, hv) for v, hv in zip(vals, half.tolist())]


def _segment_adaptive(
    f: Integrand,
    a: float,
    b: float,
    whole: tuple,
    abs_floor: float,
    rel_seg: float,
    scale_hint: float,
):
    """One oscillation segment, whose whole-segment panel ``whole`` is
    given, bisected until the K15/G7 error is small against the segment's own
    L1 content (cancellation-robust), so that sub-oscillation structure (e.g.
    Fresnel branch features near k = 0) is resolved regardless of the
    partition width.  Returns the nodes of the bisections only."""
    val, err = whole
    panels = [(err, a, b, val, float(np.abs(val).max()))]  # (err, left, right, value, norm)
    nodes = 0
    while len(panels) < _SEGMENT_MAX_PANELS:
        content = sum(p[4] for p in panels)
        tol = max(abs_floor, rel_seg * max(content, 0.1 * scale_hint))
        total_err = sum(p[0] for p in panels)
        if total_err <= tol:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        halves = _panels(f, np.array([pa, mid]), np.array([mid, pb]))
        for (v, e), lo, hi in zip(halves, (pa, mid), (mid, pb)):
            panels.append((e, lo, hi, v, float(np.abs(v).max())))
        nodes += 30
    total = panels[0][3]
    for p in panels[1:]:
        total = total + p[3]
    return total, sum(p[0] for p in panels), nodes


def adaptive_panels(
    f: Integrand,
    breakpoints: np.ndarray,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Globally adaptive K15/G7 integration over the given initial panels;
    raises QuadratureError when the panel cap is reached first."""
    panels = []  # heap of (-err, left, right, value-index)
    values = []
    errors = []
    nodes = 0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _eval_panel(f, float(a), float(b))
        nodes += 15
        values.append(val)
        errors.append(err)
        heapq.heappush(panels, (-err, float(a), float(b), len(values) - 1))
    while True:
        total = np.sum(np.asarray(values), axis=0)
        total_err = float(np.sum(errors))
        if total_err <= spec.tolerance(float(np.abs(total).max())):
            value = total if np.asarray(total).shape else complex(total)
            return IntegralResult(value, total_err, nodes)
        if len(values) >= _MAX_PANELS or panels[0][0] >= 0.0:
            raise QuadratureError(f"adaptive panels stalled at error {total_err:.3e} "
                                  f"after {len(values)} panels")
        _, a, b, idx = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        val_l, err_l = _eval_panel(f, a, mid)
        val_r, err_r = _eval_panel(f, mid, b)
        nodes += 30
        values[idx] = val_l
        errors[idx] = err_l
        heapq.heappush(panels, (-err_l, a, mid, idx))
        values.append(val_r)
        errors.append(err_r)
        heapq.heappush(panels, (-err_r, mid, b, len(values) - 1))


# ---------------------------------------------------------------------------
# Levin u-transformation (sliding diagonal scheme)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _levin_weights(n: int, kmax: int) -> np.ndarray:
    """Recursion weights b_k, k = 1 .. kmax, of the n-th diagonal (beta = 1)."""
    b = np.array([(1.0 + (n - k)) * n ** (k - 2) / (n + 1.0) ** (k - 1)
                  for k in range(1, kmax + 1)])
    b.flags.writeable = False
    return b


class _LevinU:
    """Sequence transformation of partial sums, array-valued, beta = 1."""

    def __init__(self, order: int):
        self.order = order
        self.diag: np.ndarray | None = None  # (k, 2, *shape): [:, 0] numerators, [:, 1] denominators
        self.count = 0

    def add(self, s: np.ndarray, delta: np.ndarray, floor: float) -> np.ndarray:
        """Feed partial sum ``s`` with increment ``delta``; return the estimate."""
        mag = np.abs(delta)
        if not (mag >= floor).all():  # lift increments below the floor, keeping their phase
            tiny = 1e-280  # below this the phase is meaningless (denormal territory)
            phase = np.where(mag > tiny, delta / np.where(mag > tiny, mag, 1.0), 1.0)
            delta = np.where(mag >= floor, delta, phase * floor)
        omega = (self.count + 1.0) * delta  # u-variant remainder estimate
        n = self.count
        first = np.stack([s / omega, 1.0 / omega])[None]
        kmax = min(n, self.order)
        if kmax:
            # entry k is entry k - 1 minus b_k times entry k - 1 of the old diagonal
            b = _levin_weights(n, kmax).reshape((kmax,) + (1,) * (first.ndim - 1))
            first = np.subtract.accumulate(np.concatenate([first, b * self.diag[:kmax]]), axis=0)
        self.diag = first
        self.count += 1
        num, den = first[-1]
        guard = np.abs(den) > 1e-300
        if guard.all():
            return num / den
        return np.where(guard, num / np.where(guard, den, 1.0), s)


def halfline_oscillatory_integral(
    f: Integrand, oscillation_scale: float, spec: QuadratureSpec
) -> IntegralResult:
    """int_0^inf f(k) dk for f oscillating like e^{i k s}, s = oscillation_scale.

    The axis is cut at multiples of pi/s and the partial-sum sequence is
    Levin-accelerated; convergence requires two consecutive stable estimates.
    """
    if not (math.isfinite(oscillation_scale) and oscillation_scale > 0.0):
        raise ValueError(f"oscillation_scale must be positive and finite, got {oscillation_scale}")
    h = math.pi / oscillation_scale
    levin = _LevinU(spec.acceleration_order)
    abs_floor = 0.01 * spec.abs_tol
    rel_seg = 0.002 * spec.rel_tol
    partial = None
    est_prev = None
    err_prev = math.inf
    nodes = 0
    seg_err_total = 0.0
    quiet = 0
    inc_scale = 0.0
    wholes: list = []  # prefetched whole-segment panels of the coming half-periods
    for m in range(spec.max_oscillation_periods):
        if not wholes:
            count = min(_HALF_PERIOD_BLOCK, spec.max_oscillation_periods - m)
            wholes = _panels(f, np.arange(m, m + count) * h, np.arange(m + 1, m + count + 1) * h)
            nodes += 15 * count
        seg, seg_err, seg_nodes = _segment_adaptive(
            f, m * h, (m + 1) * h, wholes.pop(0), abs_floor, rel_seg, inc_scale
        )
        nodes += seg_nodes
        seg_err_total += seg_err
        seg = np.asarray(seg, dtype=complex)
        partial = seg if partial is None else partial + seg
        seg_mag = float(np.abs(seg).max())
        inc_scale = max(inc_scale, seg_mag)
        # raw-sum early exit for integrands that die without oscillating
        raw_err = seg_mag + seg_err_total
        if raw_err <= 0.5 * spec.tolerance(float(np.abs(partial).max())):
            quiet += 1
            if quiet >= 2:
                value = partial if partial.shape else complex(partial)
                return IntegralResult(value, raw_err, nodes)
        else:
            quiet = 0
        est = levin.add(partial, seg, floor=1e-16 * max(inc_scale, 1e-30))
        if m >= 2 and est_prev is not None:
            delta = float(np.abs(est - est_prev).max())
            tol = spec.tolerance(float(np.abs(est).max()))
            err = max(delta, 0.25 * err_prev) + seg_err_total
            if err <= tol and err_prev <= 4.0 * tol:
                value = est if est.shape else complex(est)
                return IntegralResult(value, err, nodes)
            err_prev = delta
        est_prev = est
    raise QuadratureError(
        f"oscillatory integral did not converge within {spec.max_oscillation_periods} "
        f"half-periods (last delta {err_prev:.3e})"
    )


def cut_segment_integral(f: Integrand, gamma: ArrayLike, spec: QuadratureSpec) -> IntegralResult:
    """int_0^Gamma f(t) dt across the evanescent branch-cut segment, for every
    entry of the array ``gamma`` at once (f gets t of shape (nodes, *gamma.shape)).

    With the trigonometric substitution t = Gamma*sin(u) the integrable
    1/sqrt(Gamma^2 - t^2) endpoint factor becomes smooth; panel nodes never
    touch the endpoints, so f is never called at t = 0 or t = Gamma.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma) & (gamma >= 0.0)):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    if not np.any(gamma):
        return IntegralResult(0.0 + 0.0j, 0.0, 0)

    def g(u: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(np.multiply.outer(np.sin(u), gamma)))
        jac = np.multiply.outer(np.cos(u), gamma)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - jac.ndim))

    res = adaptive_panels(g, np.linspace(0.0, 0.5 * math.pi, 5), spec)
    return replace(res, nodes_used=res.nodes_used * gamma.size)


def damped_radial_transform(f: Integrand, damping: float, spec: QuadratureSpec) -> IntegralResult:
    """int_0^inf f(k) e^{-k*damping} dk.

    The integral is truncated once the damping factor has fallen through
    ``spec.damped_truncation_decades`` decades; the truncated tail bound is
    folded into the error estimate.
    """
    if not (math.isfinite(damping) and damping > 0.0):
        raise ValueError(f"damping must be positive and finite, got {damping!r}")
    kmax = spec.damped_truncation_decades * math.log(10.0) / damping

    def g(k: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(k))
        weight = np.exp(-k * damping)
        return vals * weight.reshape((-1,) + (1,) * (vals.ndim - 1))

    res = adaptive_panels(g, np.linspace(0.0, kmax, 9), spec)
    tail = np.asarray(f(np.array([kmax])))[0]
    err = res.error_estimate + float(np.abs(tail).max()) * math.exp(-kmax * damping) / damping
    if err > spec.tolerance(float(np.abs(res.value).max())):
        raise QuadratureError(f"damped radial transform: truncated tail leaves error {err:.3e}")
    return replace(res, error_estimate=err)


def decaying_halfline_integral(
    f: Integrand, scale: ArrayLike, spec: QuadratureSpec, offset: ArrayLike = 0.0
) -> IntegralResult:
    """int_offset^inf f(k) dk for smooth algebraically decaying f (no oscillation).

    Plumbing for the longitudinal mode integrals: the map k = offset + scale*tan(v)
    compactifies the half-line, then adaptive panels finish.  ``scale`` sets
    the k-range over which f varies; ``scale`` and ``offset`` may be arrays,
    one integral per entry (f gets k of shape (nodes, *batch)).
    """
    scale, offset = np.broadcast_arrays(np.asarray(scale, dtype=float), offset)
    if not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not np.all(np.isfinite(offset)):
        raise ValueError(f"offset must be finite, got {offset!r}")

    def g(v: np.ndarray) -> np.ndarray:
        t = np.tan(v)
        vals = np.asarray(f(offset + np.multiply.outer(t, scale)))
        jac = np.multiply.outer(1.0 + t * t, scale)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - jac.ndim))

    res = adaptive_panels(g, np.linspace(0.0, 0.5 * math.pi, 9), spec)
    return replace(res, nodes_used=res.nodes_used * scale.size)
