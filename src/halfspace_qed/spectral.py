"""Quadrature engine for the three spectral integral classes.

1. Semi-infinite oscillatory k_z integrals: the axis is partitioned at the
   oscillation zeros (half-period pi/s segments), each segment is integrated
   by internally adaptive Gauss-Kronrod panels (so sub-oscillation structure
   such as branch features near k = 0 is resolved), and the sequence of
   partial sums is accelerated with a sliding-window Levin u-transformation.
   This converges to the Abel-regularised value for bounded non-decaying
   oscillatory amplitudes, which is exactly the value selected by closing the
   spectral contour; the numerical path stays independent of any residue
   evaluation.

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

import heapq
import math
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
        if self.max_oscillation_periods < 8:
            raise ValueError("max_oscillation_periods must be >= 8")
        if self.acceleration_order < 2:
            raise ValueError("acceleration_order must be >= 2")

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


def _eval_panel(f: Integrand, a: float, b: float):
    """Kronrod-15 value and |K15-G7| error estimate on [a, b]."""
    half = 0.5 * (b - a)
    x = half * _K15_X + 0.5 * (a + b)
    vals = np.asarray(f(x))
    k15 = half * np.tensordot(_K15_W, vals, axes=(0, 0))
    g7 = half * np.tensordot(_G7_W, vals, axes=(0, 0))
    err = float(np.max(np.abs(k15 - g7)))
    return k15, err


def _segment_adaptive(
    f: Integrand,
    a: float,
    b: float,
    abs_floor: float,
    rel_seg: float,
    scale_hint: float,
):
    """One oscillation segment, bisected until the K15/G7 error is small
    against the segment's own L1 content (cancellation-robust), so that
    sub-oscillation structure (e.g. Fresnel branch features near k = 0) is
    resolved regardless of the partition width."""
    val, err = _eval_panel(f, a, b)
    panels = [(err, a, b, val)]
    nodes = 15
    while len(panels) < _SEGMENT_MAX_PANELS:
        content = sum(float(np.max(np.abs(p[3]))) for p in panels)
        tol = max(abs_floor, rel_seg * max(content, 0.1 * scale_hint))
        total_err = sum(p[0] for p in panels)
        if total_err <= tol:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        vl, el = _eval_panel(f, pa, mid)
        vr, er = _eval_panel(f, mid, pb)
        nodes += 30
        panels.append((el, pa, mid, vl))
        panels.append((er, mid, pb, vr))
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
        if total_err <= spec.tolerance(float(np.max(np.abs(total)))):
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

class _LevinU:
    """Sequence transformation of partial sums, array-valued, beta = 1."""

    def __init__(self, order: int):
        self.order = order
        self.num: list[np.ndarray] = []
        self.den: list[np.ndarray] = []
        self.count = 0

    def add(self, s: np.ndarray, delta: np.ndarray, floor: float) -> np.ndarray:
        """Feed partial sum ``s`` with increment ``delta``; return the estimate."""
        mag = np.abs(delta)
        tiny = 1e-280  # below this the phase is meaningless (denormal territory)
        phase = np.where(mag > tiny, delta / np.where(mag > tiny, mag, 1.0), 1.0)
        safe = np.where(mag >= floor, delta, phase * floor)
        omega = (self.count + 1.0) * safe  # u-variant remainder estimate
        n = self.count
        new_num = [s / omega]
        new_den = [1.0 / omega]
        kmax = min(n, self.order)
        for k in range(1, kmax + 1):
            j = n - k  # window start of the new diagonal entry (beta = 1)
            b = (1.0 + j) * (j + k) ** (k - 2) / (j + k + 1.0) ** (k - 1)
            new_num.append(new_num[k - 1] - b * self.num[k - 1])
            new_den.append(new_den[k - 1] - b * self.den[k - 1])
        self.num = new_num
        self.den = new_den
        self.count += 1
        den = self.den[-1]
        guard = np.abs(den) > 1e-300
        return np.where(guard, self.num[-1] / np.where(guard, den, 1.0), s)


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
    for m in range(spec.max_oscillation_periods):
        seg, seg_err, seg_nodes = _segment_adaptive(
            f, m * h, (m + 1) * h, abs_floor, rel_seg, inc_scale
        )
        nodes += seg_nodes
        seg_err_total += seg_err
        seg = np.asarray(seg, dtype=complex)
        partial = seg if partial is None else partial + seg
        seg_mag = float(np.max(np.abs(seg)))
        inc_scale = max(inc_scale, seg_mag)
        # raw-sum early exit for integrands that die without oscillating
        raw_err = seg_mag + seg_err_total
        if raw_err <= 0.5 * spec.tolerance(float(np.max(np.abs(partial)))):
            quiet += 1
            if quiet >= 2:
                value = partial if partial.shape else complex(partial)
                return IntegralResult(value, raw_err, nodes)
        else:
            quiet = 0
        est = levin.add(partial, seg, floor=1e-16 * max(inc_scale, 1e-30))
        if m >= 2 and est_prev is not None:
            delta = float(np.max(np.abs(est - est_prev)))
            tol = spec.tolerance(float(np.max(np.abs(est))))
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
    if damping <= 0.0:
        raise ValueError(f"damping must be positive, got {damping!r}")
    kmax = spec.damped_truncation_decades * math.log(10.0) / damping

    def g(k: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(k))
        weight = np.exp(-k * damping)
        return vals * weight.reshape((-1,) + (1,) * (vals.ndim - 1))

    res = adaptive_panels(g, np.linspace(0.0, kmax, 9), spec)
    tail = np.asarray(f(np.array([kmax])))[0]
    err = res.error_estimate + float(np.max(np.abs(tail))) * math.exp(-kmax * damping) / damping
    if err > spec.tolerance(float(np.max(np.abs(res.value)))):
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
