"""Quadrature engine for the two spectral integral classes, both taken by
one entry point, ``ray_integral``: a ray and, in the same run, a cut.

Both classes refine by one routine: globally adaptive Gauss-Kronrod 7/15
panels with the QUADPACK |K15 - G7| error estimate, refined one whole level
at a time.  All panels of a level, a ray run's cuts included, are evaluated
in one integrand call, and each level bisects the fewest worst panels whose
errors together exceed the excess over the tolerance (any refinement that
splits the worst panel first splits at least these).  The K15 and G7 sums
of a level are one ``einsum`` pass of both rules' weights over the level's
node block, which sums every panel's column node by node in a fixed order,
so a panel depends on the other panels of its call only through the
integrand, and a real integrand stays real.  A panel whose value or error
is not finite raises :class:`QuadratureError` at once, naming the panel.

1. Semi-infinite k_z integrals int_0^inf f(k) dk of a body f that goes like
   e^{i k s}.  Where f is analytic in the open first quadrant (every k_z
   profile: its branch points lie on the imaginary axis, and the TM pole of
   its continuation, n^2 k + k_zd = 0, on the negative real axis at
   k = -kappa/n), Cauchy and Jordan turn the Abel-regularised real-axis
   integral into the integral along the ray k = u e^{i theta}, theta = pi/4,
   where f decays like e^{-u s sin theta} (the path deformation of
   Sommerfeld-type integrals).  ``ray_integral`` maps the ray by
   u = l tan(v), l = 1/(s sin theta), so that x = u s sin theta = tan(v) and
   f goes like e^{(i-1) x}, and refines adaptive panels on v in (0, pi/2).
   Its first panels end at x = 0.3, 0.9, 2, 4, 8, 16 and infinity: past
   x ~ 1 each is twice as wide in x as the one before, so each holds about the
   same share of the damped oscillation, and a ray mostly converges after
   one refinement level.  A body whose amplitude beside e^{iks} tends
   to a constant at large |k| (the reflected and transmitted profiles) also
   starts on the panels that level adds, at x = 0.56, 5.35, 10.68 and 32.03,
   and mostly converges on them.  A singularity next to the ray's origin
   (for the interface bodies of ``kernels`` the branch point, a distance
   gamma/2 from the start of their s contour) sets the scale on which f
   varies near k = 0, so a ray given such a scale ``near`` has its first
   panel split at x_e 2^j below x = 0.3, x_e = near s sin theta.  The map
   serves a body that decays algebraically along the ray as well, with s
   setting only the map's scale: the kernels' s contour (|k|^-3, whose kappa
   integral is closed, in ``kernels``) and the energy's mode sums (|k|^-2,
   real on the real axis, so that |g|^2 = g^2 there continues into the
   quadrant, in ``energy``).  The numerical path stays independent of any
   residue evaluation.  The same run integrates the ray's branch-cut segment
   (class 2), if it has one, on panels of its own in the same node blocks.

2. Branch-cut (evanescent) segment integrals over t in (0, Gamma) with an
   integrable 1/sqrt(Gamma^2 - t^2) endpoint factor: the segment is always
   mapped by the trigonometric substitution t = Gamma*sin(u), which removes
   the endpoint behaviour, then adaptive panels finish the job.  They start
   on four equal panels in u.  The cut of an s contour rides in its ray
   run on its own panels; there near-singularity scales at either end (for
   an interface body, whose cut runs from gamma/2 up to the branch point,
   the poles at s = i just past that end) split the end panels at geometric
   breaks towards them and halve the panel at each such end, the one a
   second level would split: such a cut mostly converges at its first level.
   The cut columns are the run's own integral, whatever the body makes of
   them: the energy's run takes its evanescent modes there.

Every integrand gets the nodes of a refinement level as one (15, panels)
block, a panel's 15 Kronrod nodes down its column, and returns values of
that shape followed by any components (which share the node set).  A ray
run's body also gets the number of ray columns: they come first, and the
cut's columns follow them.  The ray and the cut are integrals of their own,
so one that converges stops refining while the other goes on, and each
one's error is in ``entry_errors``.  ``nodes_used`` counts the 15 nodes of
every panel evaluated.  Each integral is held to max(abs_tol, rel_tol x its
own max-norm) at each level.  Everything is deterministic: identical inputs
produce bit-identical outputs.  An integral that misses its tolerance
raises :class:`QuadratureError`; a returned result always met it.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "QuadratureError",
    "ray_integral",
    "ray_last_node",
]


class QuadratureError(RuntimeError):
    """Raised when an integral fails to meet its tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of an integral, max(abs_tol, rel_tol x its max-norm);
    rel_tol is at most 1."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")
        if not 0.0 < self.rel_tol <= 1.0:
            raise ValueError(f"rel_tol must be positive and at most 1, got {self.rel_tol!r}")

    def tolerance(self, scale):
        """The tolerance of an integral of max-norm ``scale`` (elementwise)."""
        return np.maximum(self.abs_tol, self.rel_tol * scale)


@dataclass
class IntegralResult:
    value: complex | np.ndarray
    error_estimate: float
    nodes_used: int
    # the errors of a ray run's integrals, [ray, cut] (ray_integral only)
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
# The rows of the one einsum of both rules: K15, and G7 with 0 on the even nodes.
_RULE_W = np.array([_K15_W, np.zeros(15)])
_RULE_W[1, 1::2] = _G7_W

# Panel cap of an integral.  `verify --suite all` passes with a cap of 12
# (10 stalls a kernel's ray), so the cap only bounds the work spent on a
# non-convergent integrand.
_MAX_PANELS = 800
# First panels of a ray integral, v = atan(x) at x = u s sin(pi/4):
# each holds about the same share of the e^{(i-1)x} decay of the body.
_RAY_BREAKS = np.arctan([0.0, 0.3, 0.9, 2.0, 4.0, 8.0, 16.0, np.inf])
# The same with (0.3, 0.9), (4, 8), (8, 16) and (16, inf) halved in v, at
# x = 0.56, 5.35, 10.68 and 32.03, where the first level splits a body whose
# amplitude tends to a constant at large |k|.
_RAY_BREAKS_FLAT = np.sort(np.concatenate(
    [_RAY_BREAKS, 0.5 * (_RAY_BREAKS[[1, 4, 5, 6]] + _RAY_BREAKS[[2, 5, 6, 7]])]))
# Graded breaks (ratio 2) that a near-singularity scale adds below the first
# end of a ray or inside the end panels of a cut, at most this many per end:
# a scale below 2^-16 of that end (the ray of kappa = 0, say) starts from there.
_GRADED_MAX = 16
_GRADED_STEPS = 2.0 ** np.arange(_GRADED_MAX)
# First panels of a cut segment in u, t = Gamma sin(u), as floats (see _cut_breaks).
_CUT_BREAKS = np.linspace(0.0, 0.5 * math.pi, 5).tolist()


def _weighted(vals, w: np.ndarray) -> np.ndarray:
    """Integrand values times a weight w (a Jacobian or a damping factor) on
    their leading (15, columns) node axes, in C order whatever the layout of
    ``vals`` (a component-major body's, say), so that the rule reads it as a
    (15, columns) block without a copy."""
    return np.multiply(vals, w.reshape(w.shape + (1,) * (np.ndim(vals) - w.ndim)), order="C")


def _node_sums(parts: np.ndarray) -> np.ndarray:
    """The K15 and G7 sums (rows) of each column of the real block ``parts``,
    node by node in order, in one einsum pass.  A lone column einsum would
    sum pairwise, so it is summed as the first of two copies."""
    if parts.shape[1] == 1:
        return np.einsum("ki,ij->kj", _RULE_W, np.repeat(parts, 2, axis=1))[:, :1]
    return np.einsum("ki,ij->kj", _RULE_W, parts)


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Kronrod-15 values and max-norm |K15-G7| errors of the panels
    [lo[i], hi[i]] of entries owner[i], from one integrand call
    ``f(x, owner)`` on nodes x of shape (15, panels).  Both rules are one
    ``einsum`` pass over the real parts of the node block (a complex value's
    real and imaginary parts side by side), each summed node by node in a
    fixed order, so a panel's value does not depend on the panels that share
    its call; a real integrand stays real.  A panel whose value or error is
    not finite raises QuadratureError naming it."""
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(np.multiply.outer(_K15_X, half) + 0.5 * (lo + hi), owner))
    shape = vals.shape[1:]
    cols = np.ascontiguousarray(vals, np.result_type(vals, np.float64)).reshape(15, -1)
    parts = cols.view(np.float64)
    half = half.reshape(half.shape + (1,) * (len(shape) - 1))
    k15, g7 = half * _node_sums(parts).view(cols.dtype).reshape((2,) + shape)
    err = np.maximum.reduce(np.abs(k15 - g7).reshape(len(lo), -1), axis=1)
    if not np.isfinite(err).all():  # so is it wherever a node value is not finite
        i = int(np.argmin(np.isfinite(err)))
        raise QuadratureError(f"non-finite integrand on the panel [{lo[i]:.6g}, {hi[i]:.6g}]")
    return k15, err


def _refine(rule: Callable, lo, hi, owner, spec: QuadratureSpec):
    """Level-synchronous K15/G7 refinement: panel [lo[i], hi[i]] belongs to
    integral owner[i], and every integral 0, 1, ... has at least one panel.

    Each level bisects, per integral, the fewest worst panels whose errors
    together exceed its excess over its tolerance, max(abs_tol, rel_tol x
    the max-norm of its total at that level).  Each level, the first
    included, is one call ``rule(lo, hi, owner)`` (the rule of
    ``_gauss_kronrod``) on panels sorted by owner, as the first ones must
    be: a split panel's two halves stay side by side.  An integral stops for
    good at its tolerance or at _MAX_PANELS panels.  A level's test sorts only
    errors, values and owners and returns once all are within theirs; panel
    ends are sorted on a level that splits.  Returns the totals, error sums,
    nodes and which integrals the cap stopped."""
    val, err = rule(lo, hi, owner)
    entries = int(owner.max()) + 1
    total = np.zeros((entries,) + val.shape[1:], dtype=val.dtype)
    error = np.zeros(entries)
    capped = np.zeros(entries, dtype=bool)
    ids = np.arange(entries)  # the running entries, which owner numbers 0, 1, ...
    nodes = 15 * len(lo)
    while True:
        # panels grouped by entry, worst first within each entry
        order = np.lexsort((-err, owner))
        err, owner, val = err[order], owner[order], val[order]
        count = np.bincount(owner)
        first = np.cumsum(count) - count
        errsum = np.add.reduceat(err, first)
        tot = np.add.reduceat(val, first)
        excess = errsum - spec.tolerance(np.maximum.reduce(np.abs(tot).reshape(len(tot), -1), 1))
        if (excess <= 0.0).all():
            total[ids], error[ids] = tot, errsum
            return total, error, nodes, capped
        lo, hi = lo[order], hi[order]
        # split a panel while the worse panels of its entry leave an excess
        start = first[owner]
        worse = np.cumsum(err) - err
        worse -= worse[start]
        pick = (worse < excess[owner]) & (np.arange(len(err)) - start < _MAX_PANELS - count[owner])
        stop = ~np.logical_or.reduceat(pick, first)
        if stop.any():
            total[ids[stop]] = tot[stop]
            error[ids[stop]] = errsum[stop]
            capped[ids[stop]] = excess[stop] > 0.0
            if stop.all():
                return total, error, nodes, capped
            keep = ~stop[owner]
            ids = ids[~stop]
            lo, hi, err, val, pick = lo[keep], hi[keep], err[keep], val[keep], pick[keep]
            owner = (np.cumsum(~stop) - 1)[owner[keep]]
        # the two halves of each split panel side by side, so owners stay sorted
        new_lo, new_hi = np.repeat(lo[pick], 2), np.repeat(hi[pick], 2)
        new_lo[1::2] = new_hi[0::2] = 0.5 * (new_lo[0::2] + new_hi[1::2])
        new_owner = np.repeat(owner[pick], 2)
        new_val, new_err = rule(new_lo, new_hi, ids[new_owner])
        nodes += 15 * len(new_lo)
        rest = ~pick
        lo, hi, err, owner, val = (np.concatenate((old[rest], new)) for old, new in (
            (lo, new_lo), (hi, new_hi), (err, new_err), (owner, new_owner), (val, new_val)))


def _scalar(name: str, value, positive: bool = True) -> float:
    """``value`` as a float if it is a finite real > 0 (>= 0 unless
    ``positive``) and not a bool; otherwise ValueError naming ``name``.  A
    float or int is recognised before the numbers.Real check (about 0.8 us)."""
    real = isinstance(value, (float, int)) or isinstance(value, numbers.Real)
    if (real and not isinstance(value, bool) and math.isfinite(value)
            and (value > 0.0 or (value == 0.0 and not positive))):
        return float(value)
    raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def _graded(scale, end: float):
    """Breaks scale x 2^j, j = 0 .. _GRADED_MAX - 1, from end 2^-_GRADED_MAX
    at least; the caller drops the breaks past ``end``."""
    return np.multiply.outer(np.maximum(scale, end * 2.0 ** -_GRADED_MAX), _GRADED_STEPS)


def _ray_panels(near: float, scale: float, breaks: np.ndarray = _RAY_BREAKS):
    """First panels (lo, hi) in v of a ray with oscillation scale ``scale``:
    those of ``breaks``, the first split at v = atan(x) for the graded
    breaks x from x_e = near s sin(pi/4) up."""
    x_near = near * (scale * math.sin(0.25 * math.pi))
    graded = np.arctan(_graded(x_near, math.tan(breaks[1])))
    row = np.concatenate(([0.0], np.minimum(graded, breaks[1]), breaks[1:]))
    lo, hi = row[:-1], row[1:]
    keep = lo < hi  # a graded break put at the first end leaves an empty panel
    return lo[keep], hi[keep]


def _cut_breaks(near) -> np.ndarray:
    """First panels in u of a cut: _CUT_BREAKS, the end panels split at the
    graded breaks of the near-singularity scales (a, b) (u from 0, distance
    from pi/2; None for neither), then the panel at each finite one halved."""
    try:  # inf, for an end with no near-singularity, or a real >= 0
        a, b = (math.inf if x == math.inf else _scalar("cut_near", x, positive=False)
                for x in ((math.inf, math.inf) if near is None else near))
    except (TypeError, ValueError):
        raise ValueError(f"cut_near must be 2 scales >= 0, got {near!r}") from None
    _, first, mid, last, top = _CUT_BREAKS

    def end(scale: float) -> list:
        # an end's breaks below pi/8 as distances from it, the halved panel's first
        x = max(scale, first * 2.0 ** -_GRADED_MAX)
        out = [0.5 * min(x, first)] if scale < math.inf else []
        while x < first:
            out.append(x)
            x *= 2.0
        return out

    high = [top - d for d in reversed(end(b))]
    return np.array([0.0, *end(a), first, mid, last, *(u for u in high if u > last), top])


def ray_integral(f: Callable, oscillation_scale: float, spec: QuadratureSpec,
                 near: float | None = None, gamma: float | None = None,
                 cut_near: tuple[float, float] | None = None,
                 flat: bool = False) -> IntegralResult:
    """int_0^inf f(k) dk of a body f that is analytic in the open first
    quadrant and goes like e^{i k s} there, s = oscillation_scale: the
    Abel-regularised real-axis integral, taken along the ray k = u e^{i pi/4}
    where f decays like e^{-u s sin(pi/4)} (or f that decays like |k|^-3
    there, on the scale 1/s).  With ``gamma``, the same run also takes
    int_0^Gamma f(i t) dt, the cut.  Integral 0 is the ray and integral 1
    the cut: rows of ``value`` and ``entry_errors``.

    The map u = l tan(v), l = 1/(s sin(pi/4)), compactifies the ray, so that
    k = (1 + i) tan(v)/s.  Each level is one call f(k, rays), k of shape
    (nodes, panels) and ``rays`` the number of its ray columns, which come
    first; f returns (nodes, panels, *comps).  The ray starts on the panels
    of _RAY_BREAKS, which end at x = tan(v) = 0.3, 0.9, 2, 4, 8, 16 and
    infinity, or with ``flat`` (f's amplitude beside e^{iks} tends to a
    constant at large |k|) on _RAY_BREAKS_FLAT, which halves (0.3, 0.9) and
    the last three in v.  ``near`` is the distance |k| of a singularity of f
    next to the ray's origin (outside the first quadrant); f varies on that
    scale near k = 0, so the first panel is split at x_e 2^j below x = 0.3,
    from x_e = near s sin(pi/4) up (at most _GRADED_MAX breaks).

    The cut columns follow the ray columns and carry k = i t, t = Gamma sin(u),
    under the Jacobian Gamma cos(u) (f's value there is the cut's integrand,
    whatever f makes of it).  The cut starts on the four equal panels in u
    of _CUT_BREAKS, the end panels halved and split towards the
    scales ``cut_near`` = (a, b) on which f(i Gamma sin u) varies next to
    u = 0 and to u = pi/2: at u = a 2^j below pi/8 and at pi/2 - b 2^j above
    3 pi/8 (at most _GRADED_MAX breaks each; inf adds none and halves nothing).

    The ray and the cut refine their own panels, level by level, each to
    max(abs_tol, rel_tol x its own max-norm), and report their errors in
    ``entry_errors``; QuadratureError names the one that reached the panel
    cap.
    """
    scale = _scalar("oscillation_scale", oscillation_scale)
    step = (1.0 + 1.0j) / scale  # e^{i pi/4} l
    near = math.inf if near is None else _scalar("near", near, positive=False)
    lo, hi = _ray_panels(near, scale, _RAY_BREAKS_FLAT if flat else _RAY_BREAKS)
    owner = np.zeros(len(lo), dtype=int)
    if gamma is not None:
        gamma = _scalar("gamma", gamma)
        breaks = _cut_breaks(cut_near)
        lo, hi = np.concatenate((lo, breaks[:-1])), np.concatenate((hi, breaks[1:]))
        owner = np.concatenate((owner, np.ones(len(breaks) - 1, dtype=int)))

    def block(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # v on the ray columns, u on the cut columns after them
        rays = int(np.searchsorted(owner, 1))
        t = np.tan(x[:, :rays])
        if rays == len(owner):
            return _weighted(f(step * t, rays), step * (1.0 + t * t))
        k, jac = np.empty(x.shape, dtype=complex), np.empty(x.shape, dtype=complex)
        np.multiply(step, t, out=k[:, :rays])
        np.multiply(step, 1.0 + t * t, out=jac[:, :rays])
        k[:, rays:] = 1j * (gamma * np.sin(x[:, rays:]))
        jac[:, rays:] = gamma * np.cos(x[:, rays:])
        return _weighted(f(k, rays), jac)

    total, error, nodes, capped = _refine(functools.partial(_gauss_kronrod, block), lo, hi,
                                          owner, spec)
    if capped.any():
        raise QuadratureError(f"{'ray' if capped[0] else 'cut'} integral stalled at error "
                              f"{error[capped].max():.3e} after {_MAX_PANELS} panels")
    return IntegralResult(total, float(error.max()), nodes, error)


def ray_last_node(oscillation_scale: float) -> float:
    """The largest |k| at which ``ray_integral`` calls f on its ray while the
    ray's last first panel, v in (atan 16, pi/2), is not split (and ``flat``
    is not set): |k| at that panel's last Kronrod node, computed as the rule
    computes it."""
    scale = _scalar("oscillation_scale", oscillation_scale)
    lo, hi = _RAY_BREAKS[-2:]
    v = np.multiply.outer(_K15_X, [0.5 * (hi - lo)]) + 0.5 * (lo + hi)
    return float(np.abs((1.0 + 1.0j) / scale * np.tan(v)).max())
