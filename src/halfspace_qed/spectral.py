"""Quadrature engine for the three spectral integral classes.

Every class refines by one routine: globally adaptive Gauss-Kronrod 7/15
panels with the QUADPACK |K15 - G7| error estimate, refined one whole level
at a time.  All panels of a level are evaluated in one integrand call, and
each level bisects the fewest worst panels whose errors together exceed the
excess over the tolerance (any refinement that splits the worst panel first
splits at least these).  Each panel's rule is summed on its own, so a panel
depends on the other panels of its call only through the integrand.  A panel
whose value or error is not finite raises :class:`QuadratureError` at once,
naming the panel.

1. Semi-infinite oscillatory k_z integrals int_0^inf f(k) dk of a body f
   that goes like e^{i k s}.  Where f is analytic in the open first quadrant
   (every k_z profile: its branch points lie on the imaginary axis, and
   the TM pole of its continuation, n^2 k + k_zd = 0, on the negative real
   axis at k = -kappa/n), Cauchy and Jordan turn the Abel-regularised
   real-axis integral into the integral along the ray k = u e^{i theta},
   theta = pi/4, where f decays like e^{-u s sin theta} (the path
   deformation of Sommerfeld-type integrals).  ``ray_integral`` maps the
   ray by u = l tan(v), l = 1/(s sin theta), so that x = u s sin theta =
   tan(v) and f goes like e^{(i-1) x}, and refines adaptive panels on
   v in (0, pi/2).  Its first panels end at x = 0.3, 0.9, 2, 4, 8, 16 and
   infinity: past x ~ 1 each is twice as wide in x as the one before, so
   each holds about the same share of the damped oscillation, and a lone
   entry mostly converges after one refinement level.  A singularity next
   to the ray's origin (that TM pole, a distance kappa/n away) sets the
   scale on which f varies near k = 0, so an entry given such a scale has
   its first panel split at x_e 2^j below x = 0.3, x_e = (kappa/n) s sin
   theta.  An entry stops once its error is within the batch tolerance of
   its level and is not reopened if that tolerance falls later; the ray
   raises only for an entry that reached the panel cap.  The numerical path
   stays independent of any residue evaluation.  An integrand that is not
   analytic there (the undamped Bessel branch of the radial assembly) stays
   on the real axis: the axis is partitioned at the oscillation zeros
   (half-period pi/s segments), each segment is integrated by internally
   adaptive panels, and the sequence of partial sums is accelerated with a
   sliding-window Levin u-transformation.
   Each half-period is one integrand call, bisected level by level while its
   error is large against its own L1 content, so the integrand never sees a
   node past the half-period where the accelerated sum converged.  This
   converges to the Abel-regularised value for bounded non-decaying
   oscillatory amplitudes, the value that the ray selects.

2. Branch-cut (evanescent) segment integrals over t in (0, Gamma) with an
   integrable 1/sqrt(Gamma^2 - t^2) endpoint factor: the segment is always
   mapped by the trigonometric substitution t = Gamma*sin(u), which removes
   the endpoint behaviour, then adaptive panels finish the job.  They start
   on four equal panels in u; near-singularity scales at either end (for an
   interface body the TM shoulder at t = kappa/n, the scale of that TM
   pole, and the TE pole at t = kappa, just past the branch point, both at
   the same u for every kappa) split the end panels at geometric breaks
   towards them.

3. Exponentially damped half-line transforms int_0^inf f(k) e^{-k a} dk:
   truncation after a configured number of decay decades, with the truncated
   tail bound folded into the error estimate, plus adaptive panels.  The
   first panels (``damped_breakpoints``) end at x = k a = 1.5, 4, 8, 14 and
   the truncation, where a damped radial integral mostly converges.  The
   Bessel-weighted radial assembly of the kernels (in ``kernels``) starts on
   the same panels, each split at the Bessel half-period.

Integrands may return scalars or ndarrays (all components share the node
set); tolerances always apply to the max-norm.  Everything is deterministic:
identical inputs produce bit-identical outputs.  An integral that misses its
tolerance raises :class:`QuadratureError`; a returned result always met it
(on the ray, the tolerance at the level where its entry stopped).

Batches compute one integral per entry (a |k_par| value, say) under one
batch tolerance: max(abs_tol, rel_tol x the max-norm over the whole batch),
so the returned error, the largest over the entries, is within the same
bound as a single call's.  The cut segment and decaying half-line take array
``gamma`` / ``scale``, pass nodes of shape (nodes, *batch) and refine all
entries on shared panels.  The ray gives each entry its own panels, so an
entry that converges stops refining while the others go on: the integrand
is called as f(k, entries), k of shape (nodes, panels) and ``entries`` the
entry of each panel column, and each entry's own error is reported in
``entry_errors``.  ``nodes_used`` counts integrand evaluations: nodes x
batch size on shared panels, nodes on an entry's own panels.
"""
from __future__ import annotations

import functools
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
    "ray_integral",
    "cut_segment_integral",
    "damped_breakpoints",
    "damped_radial_transform",
    "decaying_halfline_integral",
]


class QuadratureError(RuntimeError):
    """Raised when an integral fails to meet its tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the truncation of damped transforms."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    damped_truncation_decades: float = 10.0

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "damped_truncation_decades"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * scale)


@dataclass
class IntegralResult:
    value: complex | np.ndarray
    error_estimate: float
    nodes_used: int
    # the error of each entry of a batch whose entries are refined apart
    # (shape of the batch); None where only the batch-wide bound is known
    entry_errors: np.ndarray | None = None


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
# Gauss-7 weights of the odd Kronrod abscissae _K15_X[1::2].
_G7_W = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

Integrand = Callable[[np.ndarray], np.ndarray]

# Panel caps.  Over `verify --suite all` and the quadrature benchmark
# workloads the globally adaptive layers peak at 23 panels, so the cap only
# bounds the work spent on a non-convergent integrand.
_MAX_PANELS = 800
_SEGMENT_MAX_PANELS = 48
# First panels of each entry of a ray integral, v = atan(x) at x = u s sin(pi/4):
# each holds about the same share of the e^{(i-1)x} decay of the body.
_RAY_BREAKS = np.arctan([0.0, 0.3, 0.9, 2.0, 4.0, 8.0, 16.0, np.inf])
_RAY_PANELS = len(_RAY_BREAKS) - 1
# Graded breaks (ratio 2) that a near-singularity scale adds below the first
# end of a ray or inside the end panels of a cut, at most this many per end:
# a scale below 2^-16 of that end (a kappa = 0 entry, say) starts from there.
_GRADED_MAX = 16
_GRADED_STEPS = 2.0 ** np.arange(_GRADED_MAX)
# First panels of a cut segment in u, t = Gamma sin(u) (see cut_segment_integral).
_CUT_BREAKS = np.linspace(0.0, 0.5 * math.pi, 5)
# First-panel ends of a damped radial transform in x = k * damping, below its
# truncation (see damped_breakpoints).
_DAMPED_BREAKS = (0.0, 1.5, 4.0, 8.0, 14.0)
# Half-periods of a Levin half-line before it raises, and the order of its
# u-transformation.
_MAX_HALF_PERIODS = 64
_ACCELERATION_ORDER = 12


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Kronrod-15 values and max-norm |K15-G7| errors of the panels
    [lo[i], hi[i]] of entries owner[i], from one integrand call
    ``f(x, owner)`` on nodes x of shape (15, panels).  Each rule is summed
    node by node in a fixed order (a cumulative sum), so a panel's value does
    not depend on the panels that share its call.  A panel whose value or
    error is not finite raises QuadratureError naming it."""
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(np.multiply.outer(_K15_X, half) + 0.5 * (lo + hi), owner))
    shape = vals.shape[1:]
    cols = vals.reshape(15, -1)
    half = half.reshape(half.shape + (1,) * (len(shape) - 1))
    terms = _K15_W[:, None] * cols
    k15 = half * np.cumsum(terms, axis=0, out=terms)[-1].reshape(shape)
    terms = _G7_W[:, None] * cols[1::2]
    g7 = half * np.cumsum(terms, axis=0, out=terms)[-1].reshape(shape)
    err = np.abs(k15 - g7).reshape(len(lo), -1).max(axis=1)
    if not np.isfinite(err).all():  # so is it wherever a node value is not finite
        i = int(np.argmin(np.isfinite(err)))
        raise QuadratureError(f"non-finite integrand on the panel [{lo[i]:.6g}, {hi[i]:.6g}]")
    return k15, err


def _refine(f, lo, hi, owner, val, err, tolerance: Callable, cap: int):
    """Level-synchronous K15/G7 refinement of evaluated panels: panel
    [lo[i], hi[i]] with value val[i] and error err[i] belongs to integral
    owner[i], and every integral 0, 1, ... has at least one panel.

    Each level bisects, per integral, the fewest worst panels whose errors
    together exceed its excess over ``tolerance(ids, totals, contents)``,
    where ``ids`` are the integrals still running and ``contents`` their sums
    of panel max-norms.  All new panels of a level are evaluated in one call
    ``f(x, owner)``.  An integral stops when its error sum is within its
    tolerance or it holds ``cap`` panels.  Returns the totals, the error sums
    and the nodes of the new panels."""
    entries = int(owner.max()) + 1
    total = np.zeros((entries,) + val.shape[1:], dtype=val.dtype)
    error = np.zeros(entries)
    ids = np.arange(entries)  # the running entries, which owner numbers 0, 1, ...
    box = np.stack([lo, hi, err], axis=1)  # (left, right, error) of each panel
    nodes = 0
    while True:
        # panels grouped by entry, worst first within each entry
        order = np.lexsort((-box[:, 2], owner))
        box, owner, val = box[order], owner[order], val[order]
        err = box[:, 2]
        count = np.bincount(owner)
        first = np.cumsum(count) - count
        errsum = np.add.reduceat(err, first)
        tot = np.add.reduceat(val, first)
        content = np.add.reduceat(np.abs(val).reshape(len(val), -1).max(axis=1), first)
        excess = errsum - tolerance(ids, tot, content)
        # split a panel while the worse panels of its entry leave an excess
        start = first[owner]
        worse = np.cumsum(err) - err
        worse -= worse[start]
        pick = (worse < excess[owner]) & (np.arange(len(err)) - start < cap - count[owner])
        stop = ~np.logical_or.reduceat(pick, first)
        if stop.any():
            total[ids[stop]] = tot[stop]
            error[ids[stop]] = errsum[stop]
            if stop.all():
                return total, error, nodes
            keep = ~stop[owner]
            ids = ids[~stop]
            box, val, pick = box[keep], val[keep], pick[keep]
            owner = (np.cumsum(~stop) - 1)[owner[keep]]
        split = box[pick]
        mid = 0.5 * (split[:, 0] + split[:, 1])
        new_lo = np.concatenate((split[:, 0], mid))
        new_hi = np.concatenate((mid, split[:, 1]))
        new_owner = np.concatenate((owner[pick], owner[pick]))
        new_val, new_err = _gauss_kronrod(f, new_lo, new_hi, ids[new_owner])
        nodes += 15 * len(new_lo)
        rest = ~pick
        box = np.concatenate((box[rest], np.stack([new_lo, new_hi, new_err], axis=1)))
        owner = np.concatenate((owner[rest], new_owner))
        val = np.concatenate((val[rest], new_val))


def _flat_integrand(f: Integrand):
    """The panel protocol ``g(x, owner)`` for an integrand of 1-D nodes that
    returns (nodes, *shape)."""
    def g(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(x.ravel()))
        return vals.reshape(x.shape + vals.shape[1:])
    return g


def adaptive_panels(
    f: Integrand,
    breakpoints: np.ndarray,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Globally adaptive K15/G7 integration over the given initial panels,
    one integrand call per refinement level; raises QuadratureError when the
    panel cap is reached first."""
    g = _flat_integrand(f)
    lo, hi = np.asarray(breakpoints[:-1], dtype=float), np.asarray(breakpoints[1:], dtype=float)
    owner = np.zeros(len(lo), dtype=int)
    val, err = _gauss_kronrod(g, lo, hi, owner)
    total, error, nodes = _refine(
        g, lo, hi, owner, val, err,
        lambda ids, tot, content: spec.tolerance(float(np.abs(tot).max())), _MAX_PANELS,
    )
    value = total[0]
    if error[0] > spec.tolerance(float(np.abs(value).max())):  # stopped by the cap
        raise QuadratureError(f"adaptive panels stalled at error {error[0]:.3e} "
                              f"after {_MAX_PANELS} panels")
    return IntegralResult(value if value.shape else complex(value), float(error[0]),
                          nodes + 15 * len(lo))


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

    def add(self, s: np.ndarray, delta: np.ndarray, floor) -> np.ndarray:
        """Feed partial sum ``s`` with increment ``delta``; return the estimate.
        ``floor`` is a scalar or broadcasts against ``delta``, one per entry."""
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

    The axis is cut at multiples of pi/s, one half-period per integrand call,
    and the partial-sum sequence is Levin-accelerated; convergence requires
    two consecutive stable estimates within _MAX_HALF_PERIODS half-periods.
    """
    return _levin_halfline(_flat_integrand(f), _oscillation_scale(oscillation_scale), spec)


def _oscillation_scale(value) -> float:
    scale = np.asarray(value, dtype=float)
    if not (scale.ndim == 0 and math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"oscillation_scale must be positive and finite, got {value!r}")
    return float(scale)


def _levin_halfline(f, scale: float, spec: QuadratureSpec) -> IntegralResult:
    """The half-line integral under the panel protocol f(k, owner)."""
    h = math.pi / scale
    levin = _LevinU(_ACCELERATION_ORDER)
    abs_floor = 0.01 * spec.abs_tol
    rel_seg = 0.002 * spec.rel_tol
    owner = np.zeros(1, dtype=int)
    partial = est_prev = None
    err_prev = math.inf
    err_sum = 0.0  # of the half-periods so far
    inc_scale = 0.0  # the largest half-period so far
    nodes = 0
    for m in range(_MAX_HALF_PERIODS):
        lo, hi = np.array([m * h]), np.array([(m + 1) * h])
        val, err = _gauss_kronrod(f, lo, hi, owner)
        nodes += 15
        # the half-period is bisected while its error is large against both
        # its L1 content (cancellation-robust) and the largest half-period
        # before it
        seg_floor = max(abs_floor, 0.1 * rel_seg * inc_scale)
        if err[0] > max(seg_floor, rel_seg * float(np.abs(val).max())):
            val, err, more = _refine(
                f, lo, hi, owner, val, err,
                lambda ids, tot, content: np.maximum(seg_floor, rel_seg * content),
                _SEGMENT_MAX_PANELS,
            )
            nodes += more
        seg = val[0]
        err_sum += err[0]
        inc_scale = max(inc_scale, float(np.abs(seg).max()))
        partial = seg if partial is None else partial + seg
        est = levin.add(partial, seg, floor=1e-16 * max(inc_scale, 1e-30))
        if m >= 2:
            delta = float(np.abs(est - est_prev).max())
            tol = spec.tolerance(float(np.abs(est).max()))
            err = max(delta, 0.25 * err_prev) + err_sum
            if err <= tol and err_prev <= 4.0 * tol:
                est = np.asarray(est)
                return IntegralResult(est if est.shape else complex(est), float(err), nodes)
            err_prev = delta
        est_prev = est
    raise QuadratureError(
        f"oscillatory integral did not converge within {_MAX_HALF_PERIODS} "
        f"half-periods (last delta {err_prev:.3e})"
    )


def _near_scales(near, size: int) -> np.ndarray:
    """``near`` as ``size`` scales, each >= 0; inf (no near-singularity) for
    None."""
    if near is None:
        return np.full(size, np.inf)
    scales = np.asarray(near, dtype=float)
    if not (scales.shape == (size,) and (scales >= 0.0).all()):
        raise ValueError(f"near must be {size} scales >= 0, got {near!r}")
    return scales


def _graded(scale, end: float):
    """Breaks scale x 2^j, j = 0 .. _GRADED_MAX - 1 (one row per scale of an
    array); a scale below end 2^-_GRADED_MAX starts from there.  The caller
    drops the breaks past ``end``."""
    return np.multiply.outer(np.maximum(scale, end * 2.0 ** -_GRADED_MAX), _GRADED_STEPS)


def _ray_panels(near: np.ndarray, scale: float):
    """First panels (lo, hi, owner) in v of each entry of a ray with
    oscillation scale ``scale``: those of _RAY_BREAKS, the first split at
    v = atan(x) for the graded breaks x from x_e = near s sin(pi/4) up."""
    x_near = near * (scale * math.sin(0.25 * math.pi))
    graded = np.arctan(_graded(x_near, math.tan(_RAY_BREAKS[1])))
    rows = np.hstack([np.zeros((len(near), 1)), np.minimum(graded, _RAY_BREAKS[1]),
                      np.broadcast_to(_RAY_BREAKS[1:], (len(near), _RAY_PANELS))])
    lo, hi = rows[:, :-1], rows[:, 1:]
    keep = lo < hi  # a graded break put at the first end leaves an empty panel
    return lo[keep], hi[keep], np.nonzero(keep)[0]


def ray_integral(f: Callable, oscillation_scale: float, entries: int,
                 spec: QuadratureSpec, near: ArrayLike | None = None) -> IntegralResult:
    """int_0^inf f(k) dk for each of ``entries`` integrands f(., entry) that are
    analytic in the open first quadrant and go like e^{i k s} there,
    s = oscillation_scale: the Abel-regularised real-axis integral, taken along
    the ray k = u e^{i pi/4} where f decays like e^{-u s sin(pi/4)}.

    The map u = l tan(v), l = 1/(s sin(pi/4)), compactifies the ray, so that
    k = (1 + i) tan(v)/s.  f is called as f(k, entries), k of shape (nodes,
    panels) and ``entries`` the entry of each panel column, and returns
    (nodes, panels, *comps).  Each entry starts on the panels of _RAY_BREAKS,
    which end at x = tan(v) = 0.3, 0.9, 2, 4, 8, 16 and infinity.  ``near``
    gives, per entry, the distance |k| of a singularity of f next to the
    ray's origin (outside the first quadrant); f varies on that scale near
    k = 0, so the entry's first panel is split at x_e 2^j below x = 0.3,
    from x_e = near s sin(pi/4) up (at most _GRADED_MAX breaks).  Each entry
    refines its panels to the batch tolerance, max(abs_tol, rel_tol x the
    max-norm over all entries), and reports its error in ``entry_errors``.
    The max-norm is taken level by level, and an entry stops for good once
    its error is within the tolerance of that level, even if the tolerance
    falls later as the other entries' norms settle.  So an entry's error is
    bounded by the tolerance it stopped at, not always by the final one, and
    QuadratureError is raised only for an entry that reached the panel cap.
    """
    scale = _oscillation_scale(oscillation_scale)
    step = (1.0 + 1.0j) / scale  # e^{i pi/4} l
    if not (isinstance(entries, numbers.Integral) and entries >= 1):
        raise ValueError(f"entries must be an integer >= 1, got {entries!r}")

    def g(v: np.ndarray, owner: np.ndarray) -> np.ndarray:
        t = np.tan(v)
        vals = np.asarray(f(step * t, owner))
        jac = step * (1.0 + t * t)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - jac.ndim))

    lo, hi, owner = _ray_panels(_near_scales(near, entries), scale)
    val, err = _gauss_kronrod(g, lo, hi, owner)
    norm = np.zeros(entries)  # each entry's max-norm, final once it stops
    bound = np.zeros(entries)  # the batch tolerance each entry saw last

    def tolerance(ids, tot, content):
        norm[ids] = np.abs(tot).reshape(len(ids), -1).max(axis=1)
        bound[ids] = spec.tolerance(float(norm.max()))
        return bound[ids]

    total, error, nodes = _refine(g, lo, hi, owner, val, err, tolerance, _MAX_PANELS)
    capped = error > bound  # stopped by the cap, not within its last tolerance
    if capped.any():
        raise QuadratureError(f"ray integral stalled at error {error[capped].max():.3e} "
                              f"after {_MAX_PANELS} panels")
    return IntegralResult(total, float(error.max()), nodes + 15 * len(lo), error)


def _cut_breaks(near) -> np.ndarray:
    """First panels in u of a cut: _CUT_BREAKS, the end panels split at the
    graded breaks of the near-singularity scales (u from 0, distance from
    pi/2)."""
    low, high = _graded(_near_scales(near, 2), _CUT_BREAKS[1])
    high = _CUT_BREAKS[-1] - high[::-1]
    return np.concatenate([_CUT_BREAKS[:1], low[low < _CUT_BREAKS[1]], _CUT_BREAKS[1:-1],
                           high[high > _CUT_BREAKS[-2]], _CUT_BREAKS[-1:]])


def cut_segment_integral(f: Integrand, gamma: ArrayLike, spec: QuadratureSpec,
                         near: tuple[float, float] | None = None) -> IntegralResult:
    """int_0^Gamma f(t) dt across the evanescent branch-cut segment, for every
    entry of the array ``gamma`` at once (f gets t of shape (nodes, *gamma.shape)).

    With the trigonometric substitution t = Gamma*sin(u) the integrable
    1/sqrt(Gamma^2 - t^2) endpoint factor becomes smooth; panel nodes never
    touch the endpoints, so f is never called at t = 0 or t = Gamma.  The
    first panels are four equal ones in u.  ``near`` = (a, b) gives the
    scales, the same for every entry, on which f(Gamma sin u) varies next to
    u = 0 (a) and to u = pi/2 (b, the distance of a singularity past the
    branch point): the first panel is split at u = a 2^j below pi/8 and the
    last at u = pi/2 - b 2^j above 3 pi/8 (at most _GRADED_MAX breaks each;
    inf adds none).
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma) & (gamma >= 0.0)):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    breaks = _cut_breaks(near)
    if not np.any(gamma):
        return IntegralResult(0.0 + 0.0j, 0.0, 0)

    def g(u: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(np.multiply.outer(np.sin(u), gamma)))
        jac = np.multiply.outer(np.cos(u), gamma)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - jac.ndim))

    res = adaptive_panels(g, breaks, spec)
    return replace(res, nodes_used=res.nodes_used * gamma.size)


def damped_breakpoints(damping: float, spec: QuadratureSpec, rho: float = 0.0) -> np.ndarray:
    """First-panel breakpoints in k of a damped radial transform over
    (0, kmax), kmax the truncation after ``spec.damped_truncation_decades``
    decades of e^{-k*damping}.  In x = k*damping the panels end at 1.5, 4, 8,
    14 (those below x_max) and x_max: narrow where the x^2 e^{-x} weight of a
    radial integrand (measure k times a profile ~ k e^{-x}) peaks, wider down
    its tail.  With rho > 0 a panel wider than the Bessel half-period pi/rho
    is split into equal panels no wider than it."""
    if not (math.isfinite(damping) and damping > 0.0):
        raise ValueError(f"damping must be positive and finite, got {damping!r}")
    x_max = spec.damped_truncation_decades * math.log(10.0)
    x = [b for b in _DAMPED_BREAKS if b < x_max] + [x_max]
    if rho > 0.0:
        half = math.pi * damping / rho  # the half-period in x
        x = np.concatenate([np.linspace(a, b, max(1, math.ceil((b - a) / half)) + 1)[:-1]
                            for a, b in zip(x[:-1], x[1:])] + [[x_max]])
    return np.asarray(x) / damping


def damped_radial_transform(f: Integrand, damping: float, spec: QuadratureSpec) -> IntegralResult:
    """int_0^inf f(k) e^{-k*damping} dk on the first panels of
    ``damped_breakpoints``.

    The integral is truncated once the damping factor has fallen through
    ``spec.damped_truncation_decades`` decades; the truncated tail is bounded
    from the weighted integrand at the largest k evaluated, and that bound is
    folded into the error estimate.
    """
    k_top = tail_rate = 0.0  # the largest k evaluated, the weighted integrand there

    def g(k: np.ndarray) -> np.ndarray:
        nonlocal k_top, tail_rate
        vals = np.asarray(f(k))
        weight = np.exp(-k * damping)
        vals = vals * weight.reshape((-1,) + (1,) * (vals.ndim - 1))
        top = int(np.argmax(k))
        if k[top] > k_top:
            k_top, tail_rate = float(k[top]), float(np.abs(vals[top]).max())
        return vals

    res = adaptive_panels(g, damped_breakpoints(damping, spec), spec)
    # beyond the truncation the integrand decays like e^{-k * damping} (up to powers of k)
    err = res.error_estimate + tail_rate / damping
    if err > spec.tolerance(float(np.abs(res.value).max())):
        raise QuadratureError(f"damped radial transform: truncated tail leaves error {err:.3e}")
    return replace(res, error_estimate=err)


def decaying_halfline_integral(f: Integrand, scale: ArrayLike, spec: QuadratureSpec) -> IntegralResult:
    """int_0^inf f(k) dk for smooth algebraically decaying f (no oscillation).

    Plumbing for the longitudinal mode integrals: the map k = scale*tan(v)
    compactifies the half-line, then adaptive panels finish.  ``scale`` sets
    the k-range over which f varies; it may be an array, one integral per
    entry (f gets k of shape (nodes, *scale.shape)).
    """
    scale = np.asarray(scale, dtype=float)
    if not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")

    def g(v: np.ndarray) -> np.ndarray:
        t = np.tan(v)
        vals = np.asarray(f(np.multiply.outer(t, scale)))
        jac = np.multiply.outer(1.0 + t * t, scale)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - jac.ndim))

    res = adaptive_panels(g, np.linspace(0.0, 0.5 * math.pi, 9), spec)
    return replace(res, nodes_used=res.nodes_used * scale.size)
