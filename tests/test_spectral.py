import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1

from halfspace_qed import spectral
from halfspace_qed.spectral import (
    QuadratureError,
    QuadratureSpec,
    cut_segment_integral,
    damped_breakpoints,
    damped_radial_transform,
    decaying_halfline_integral,
    halfline_oscillatory_integral,
    ray_integral,
)

SPEC = QuadratureSpec()
TIGHT = QuadratureSpec(damped_truncation_decades=13.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    for name in ("abs_tol", "rel_tol", "damped_truncation_decades"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                QuadratureSpec(**{name: bad})


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["abs_tol", "rel_tol", "damped_truncation_decades"]),
    bad=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                  st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
)
def test_spec_rejects_non_finite_or_non_positive_floats(name, bad):
    with pytest.raises(ValueError, match=name):
        QuadratureSpec(**{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_engines_reject_non_finite_geometry(bad):
    with pytest.raises(ValueError, match="oscillation_scale"):
        halfline_oscillatory_integral(np.sin, bad, SPEC)
    for scales in (np.array([1.0, bad]), np.array([])):
        with pytest.raises(ValueError, match="oscillation_scale"):
            halfline_oscillatory_integral(lambda k, entries: np.sin(k), scales, SPEC)
        with pytest.raises(ValueError, match="oscillation_scale"):
            ray_integral(lambda k, entries: np.exp(1j * k), scales, 2, SPEC)
    with pytest.raises(ValueError, match="oscillation_scale"):
        ray_integral(lambda k, entries: np.exp(1j * k), bad, 1, SPEC)
    for entries in (0, 2.0, None):
        with pytest.raises(ValueError, match="entries"):
            ray_integral(lambda k, entries: np.exp(1j * k), 1.0, entries, SPEC)
    with pytest.raises(ValueError, match="gamma"):
        cut_segment_integral(lambda t: t, bad, SPEC)
    with pytest.raises(ValueError, match="gamma"):
        cut_segment_integral(lambda t: t, np.array([1.0, bad]), SPEC)
    with pytest.raises(ValueError, match="scale"):
        decaying_halfline_integral(np.exp, np.array([1.0, bad]), SPEC)


def test_cut_segment_batched_gamma():
    gammas = np.geomspace(1e-3, 50.0, 15)
    abscissae = []

    def integrand(gamma):
        def f(t):
            abscissae.append(len(t))
            return np.stack([1.0 / np.sqrt(gamma * gamma - t * t), t * t * np.exp(-t)], axis=-1)
        return f

    batch = cut_segment_integral(integrand(gammas), gammas, SPEC)
    assert batch.value.shape == (15, 2)
    assert batch.nodes_used == sum(abscissae) * gammas.size
    assert np.allclose(batch.value[:, 0], math.pi / 2, rtol=0.0, atol=1e-12)
    singles = np.array([cut_segment_integral(integrand(g), g, SPEC).value for g in gammas])
    assert np.max(np.abs(batch.value - singles)) <= 1e-10 * np.max(np.abs(batch.value))


def test_decaying_halfline_batched_scale_and_offset():
    # the Lorentzians of each entry are shifted by its offset
    scales = np.geomspace(1e-3, 50.0, 15)
    offsets = np.linspace(0.0, 2.0, 15)
    abscissae = []

    def integrand(scale, offset):
        def f(k):
            abscissae.append(len(k))
            return scale / (scale * scale + (k + offset) ** 2)
        return f

    batch = decaying_halfline_integral(integrand(scales, offsets), scales, SPEC)
    assert batch.value.shape == (15,)
    assert batch.nodes_used == sum(abscissae) * scales.size
    exact = np.pi / 2 - np.arctan(offsets / scales)
    assert np.allclose(batch.value, exact, rtol=1e-9, atol=0.0)
    singles = np.array([
        decaying_halfline_integral(integrand(s, o), s, SPEC).value
        for s, o in zip(scales, offsets)
    ])
    assert np.max(np.abs(batch.value - singles)) <= 1e-10 * np.max(np.abs(batch.value))


def test_oscillatory_sin_over_x():
    res = halfline_oscillatory_integral(lambda x: np.sinc(x / np.pi), 1.0, SPEC)
    assert abs(res.value - math.pi / 2) < 1e-10


def test_oscillatory_cos_lorentzian():
    res = halfline_oscillatory_integral(lambda x: np.cos(x) / (1 + x * x), 1.0, SPEC)
    assert abs(res.value - math.pi / (2 * math.e)) < 1e-10


def test_oscillatory_zero_integrand_minimal_nodes():
    res = halfline_oscillatory_integral(lambda x: np.zeros_like(x), 1.0, SPEC)
    assert res.value == 0.0
    assert res.nodes_used <= 60


def test_oscillatory_abel_values():
    # bounded non-decaying amplitudes converge to the Abel-regularised value
    res = halfline_oscillatory_integral(lambda x: np.exp(1j * x), 1.0, SPEC)
    assert abs(res.value - 1j) < 1e-10
    res = halfline_oscillatory_integral(lambda x: np.sin(2.0 * x), 2.0, SPEC)
    assert abs(res.value - 0.5) < 1e-10


def test_oscillatory_scaled_frequency():
    # int_0^inf sin(5x)/x = pi/2 regardless of the scale
    res = halfline_oscillatory_integral(lambda x: 5.0 * np.sinc(5 * x / np.pi), 5.0, SPEC)
    assert abs(res.value - math.pi / 2) < 1e-10


def test_oscillatory_converged_error_contract():
    for f, s in [(lambda x: np.sinc(x / np.pi), 1.0), (lambda x: np.cos(x) / (1 + x * x), 1.0)]:
        res = halfline_oscillatory_integral(f, s, SPEC)
        assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * abs(res.value))


def test_oscillatory_requires_positive_scale():
    with pytest.raises(ValueError):
        halfline_oscillatory_integral(lambda x: np.sin(x), 0.0, SPEC)


def test_oscillatory_nonconvergence_raises(monkeypatch):
    # amplitude growing too fast for the declared order within few periods
    monkeypatch.setattr(spectral, "_MAX_HALF_PERIODS", 8)
    monkeypatch.setattr(spectral, "_ACCELERATION_ORDER", 2)
    spec = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(QuadratureError, match="within 8 half-periods"):
        halfline_oscillatory_integral(lambda x: x**6 * np.exp(1j * x), 1.0, spec)


@pytest.mark.parametrize("engine, args", [
    (cut_segment_integral, (lambda t: 1.0 / t, 1.0, SPEC)),
    (decaying_halfline_integral, (lambda k: 1.0 / (1.0 + k), 1.0, SPEC)),
    (damped_radial_transform, (lambda k: 1.0 / k, 1.0, SPEC)),
], ids=["cut_segment", "decaying_halfline", "damped_radial"])
def test_divergent_integrals_raise(engine, args):
    # logarithmically divergent integrands exhaust the panel cap
    with pytest.raises(QuadratureError) as err:
        engine(*args)
    assert "nan" not in str(err.value)


def test_cut_segment_examples():
    res = cut_segment_integral(lambda t: 1.0 / np.sqrt(1.0 - t * t), 1.0, SPEC)
    assert abs(res.value - math.pi / 2) < 1e-12
    res = cut_segment_integral(lambda t: t, 2.0, SPEC)
    assert abs(res.value - 2.0) < 1e-13
    res = cut_segment_integral(lambda t: np.zeros_like(t), 1.5, SPEC)
    assert res.value == 0.0
    assert cut_segment_integral(lambda t: t, 0.0, SPEC).value == 0.0


def test_damped_radial_moment():
    res = damped_radial_transform(lambda k: k, 1.3, TIGHT)
    assert abs(res.value - 1.0 / 1.3**2) < 1e-10
    res = damped_radial_transform(lambda k: np.zeros_like(k), 1.0, TIGHT)
    assert res.value == 0.0


def test_damped_radial_rejects_zero_damping():
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="damping"):
            damped_radial_transform(lambda k: np.ones_like(k), bad, SPEC)
        with pytest.raises(ValueError, match="damping"):
            damped_breakpoints(bad, SPEC)


@given(damping=st.floats(0.05, 20.0), rho=st.floats(0.0, 10.0),
       decades=st.floats(2.0, 16.0))
def test_damped_breakpoints_follow_the_decay_and_the_bessel_period(damping, rho, decades):
    spec = QuadratureSpec(damped_truncation_decades=decades)
    kmax = decades * math.log(10.0) / damping
    breaks = damped_breakpoints(damping, spec, rho)
    assert breaks[0] == 0.0 and breaks[-1] == kmax
    assert np.all(np.diff(breaks) > 0.0)
    if rho > 0.0:
        assert np.diff(breaks).max() <= math.pi / rho * (1.0 + 1e-12)
    # splitting adds at most one panel per decay panel to the half-periods
    assert len(breaks) - 1 <= math.ceil(kmax * rho / math.pi) + 5


def test_damped_breakpoints_are_the_decay_breaks_without_bessel_weight():
    x = np.array([0.0, 1.5, 4.0, 8.0, 14.0, 10.0 * math.log(10.0)])
    assert np.array_equal(damped_breakpoints(1.3, SPEC), x / 1.3)
    assert np.array_equal(damped_breakpoints(1.3, SPEC, 0.0), x / 1.3)
    # a truncation below x = 14 ends the layout there
    short = QuadratureSpec(damped_truncation_decades=3.0)
    assert np.array_equal(damped_breakpoints(2.0, short),
                          np.array([0.0, 1.5, 4.0, 3.0 * math.log(10.0)]) / 2.0)
    # at rho = 3 every decay panel is split at the Bessel half-period: 19
    # panels, two more than the 17 half-periods of (0, kmax)
    kmax = 10.0 * math.log(10.0) / 1.3
    breaks = damped_breakpoints(1.3, SPEC, 3.0)
    assert len(breaks) - 1 == 19 <= math.ceil(kmax * 3.0 / math.pi) + 5
    assert np.all(np.isin(x / 1.3, breaks))


def test_decaying_halfline():
    res = decaying_halfline_integral(lambda k: 1.0 / (1.0 + k * k), 1.0, SPEC)
    assert abs(res.value - math.pi / 2) < 1e-12
    res = decaying_halfline_integral(lambda k: np.exp(-(k + 2.0)), 1.0, SPEC)
    assert abs(res.value - math.exp(-2.0)) < 1e-12


def test_vector_valued_integrands():
    res = halfline_oscillatory_integral(
        lambda x: np.stack([np.sinc(x / np.pi), np.cos(x) / (1 + x * x)], axis=-1), 1.0, SPEC
    )
    assert np.allclose(res.value, [math.pi / 2, math.pi / (2 * math.e)], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
def test_linearity_property(alpha, beta):
    f = lambda x: np.sinc(x / np.pi)
    g = lambda x: np.cos(x) / (1 + x * x)
    combo = halfline_oscillatory_integral(lambda x: alpha * f(x) + beta * g(x), 1.0, SPEC)
    fa = halfline_oscillatory_integral(f, 1.0, SPEC)
    gb = halfline_oscillatory_integral(g, 1.0, SPEC)
    expect = alpha * fa.value + beta * gb.value
    budget = combo.error_estimate + abs(alpha) * fa.error_estimate + abs(beta) * gb.error_estimate
    assert abs(combo.value - expect) <= budget + 1e-12


def test_tightening_tolerance_stays_within_estimate():
    loose = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6)
    tight = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-7)
    for f, s in [(lambda x: np.sinc(x / np.pi), 1.0), (lambda x: np.cos(x) / (1 + x * x), 1.0)]:
        r1 = halfline_oscillatory_integral(f, s, loose)
        r2 = halfline_oscillatory_integral(f, s, tight)
        assert abs(r1.value - r2.value) <= r1.error_estimate
    r1 = cut_segment_integral(lambda t: 1 / np.sqrt(4 - t * t), 2.0, loose)
    r2 = cut_segment_integral(lambda t: 1 / np.sqrt(4 - t * t), 2.0, tight)
    assert abs(r1.value - r2.value) <= max(r1.error_estimate, 1e-15)


def test_deterministic_bit_identical():
    f = lambda x: np.cos(0.7 * x) / (1 + x * x)
    widths = np.array([0.1, 1.0, 3.0])
    runs = [
        (halfline_oscillatory_integral, (f, 0.7, SPEC)),
        (ray_integral,
         (lambda k, entries: np.exp(0.7j * k) / (1 + (widths[entries] * k) ** 2), 0.7, 3, SPEC)),
        (cut_segment_integral, (lambda t: t / np.sqrt(2.25 - t * t), 1.5, SPEC)),
        (damped_radial_transform, (lambda k: 1.0 / (1 + k), 0.8, SPEC)),
        (decaying_halfline_integral, (lambda k: widths / (widths ** 2 + k * k), widths, SPEC)),
    ]
    for fn, args in runs:
        a = fn(*args)
        b = fn(*args)
        assert np.array_equal(a.value, b.value)
        assert a.error_estimate == b.error_estimate
        assert a.nodes_used == b.nodes_used


# ---------------------------------------------------------------------------
# bit identity of the engine's vectorised steps against their plain forms
# ---------------------------------------------------------------------------

def _random_values(rng, shape, dtype):
    vals = rng.standard_normal(shape)
    return vals + 1j * rng.standard_normal(shape) if dtype is complex else vals


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(), (5,), (15, 5)])
def test_eval_panel_matches_tensordot_bitwise(shape, dtype):
    # the level rule evaluates several panels from one call; each panel's
    # K15 sum is bitwise the node-by-node sum, and within a few ulp of the
    # BLAS tensordot
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo = np.sort(rng.uniform(-3.0, 3.0, 3))
        hi = lo + rng.uniform(0.1, 2.0, 3)
        vals = _random_values(rng, (15, 3) + shape, dtype)
        k15, err = spectral._gauss_kronrod(lambda x, owner: vals, lo, hi, np.zeros(3, dtype=int))
        assert k15.shape == (3,) + shape and err.shape == (3,)
        for i in range(3):
            half = 0.5 * (hi[i] - lo[i])
            ref = g7 = 0.0
            for node in range(15):
                ref = ref + spectral._K15_W[node] * vals[node, i]
            for node in range(1, 15, 2):
                g7 = g7 + spectral._G7_W[node // 2] * vals[node, i]
            ref, g7 = half * ref, half * g7
            assert np.array_equal(k15[i], ref)
            assert err[i] == float(np.max(np.abs(ref - g7)))
            blas = half * np.tensordot(spectral._K15_W, vals[:, i], axes=(0, 0))
            assert np.max(np.abs(k15[i] - blas)) <= 16 * np.finfo(float).eps * np.max(np.abs(vals))


class _LevinLoop:
    """The u-transformation with one Python step per order, as a reference."""

    def __init__(self, order):
        self.order, self.num, self.den, self.count = order, [], [], 0

    def add(self, s, delta, floor):
        mag = np.abs(delta)
        phase = np.where(mag > 1e-280, delta / np.where(mag > 1e-280, mag, 1.0), 1.0)
        omega = (self.count + 1.0) * np.where(mag >= floor, delta, phase * floor)
        n = self.count
        new_num, new_den = [s / omega], [1.0 / omega]
        for k in range(1, min(n, self.order) + 1):
            j = n - k
            b = (1.0 + j) * (j + k) ** (k - 2) / (j + k + 1.0) ** (k - 1)
            new_num.append(new_num[k - 1] - b * self.num[k - 1])
            new_den.append(new_den[k - 1] - b * self.den[k - 1])
        self.num, self.den, self.count = new_num, new_den, self.count + 1
        guard = np.abs(self.den[-1]) > 1e-300
        return np.where(guard, self.num[-1] / np.where(guard, self.den[-1], 1.0), s)


@pytest.mark.parametrize("floor", [1e-16, 1e-2], ids=["tiny_floor", "terms_below_floor"])
@pytest.mark.parametrize("shape", [(), (15, 5)])
def test_levin_diagonal_matches_per_order_loop_bitwise(shape, floor):
    rng = np.random.default_rng(11)
    amp = _random_values(rng, shape, complex)
    if shape:
        amp[0, :2] = 0.0  # increments that vanish take the floor with a unit phase
    stacked, loop = spectral._LevinU(12), _LevinLoop(12)
    partial = np.zeros(shape, dtype=complex)
    for m in range(30):
        term = amp * (-1.0) ** m / (m + 1.0) ** 1.5  # alternating series
        partial = partial + term
        est = stacked.add(partial, term, floor)
        assert np.array_equal(est, loop.add(partial, term, floor))
    assert not np.array_equal(est, partial)  # the transformation did act


def test_half_period_block_matches_single_panels_bitwise():
    f = spectral._flat_integrand(
        lambda x: np.stack([np.exp(17.3j * x) * x, np.cos(x) / (1 + x * x)], axis=-1))
    h = math.pi / 0.37
    owner = np.zeros(4, dtype=int)
    for first in (0, 3, 44):
        rows = np.arange(first, first + 4)
        vals, errs = spectral._gauss_kronrod(f, rows * h, (rows + 1) * h, owner)
        for m, val, err in zip(rows, vals, errs):
            ref_val, ref_err = spectral._gauss_kronrod(
                f, np.array([m * h]), np.array([(m + 1) * h]), owner[:1])
            assert np.array_equal(val, ref_val[0])
            assert err == ref_err[0]


_HALFLINE_CASES = [
    (lambda x: np.cos(x) / (1 + x * x), 1.0),
    (lambda x: np.exp(1j * x), 1.0),
    (lambda x: np.stack([np.sinc(x / np.pi), np.cos(x) / (1 + x * x)], axis=-1), 1.0),
    (lambda x: np.zeros_like(x), 1.0),
]


@pytest.mark.parametrize("f, scale", _HALFLINE_CASES, ids=["lorentz", "abel", "vector", "zero"])
def test_halfline_nodes_used_counts_every_abscissa(f, scale):
    abscissae = []

    def counted(x):
        abscissae.append(len(x))
        return f(x)

    res = halfline_oscillatory_integral(counted, scale, SPEC)
    assert res.nodes_used == sum(abscissae)


# ---------------------------------------------------------------------------
# the level-synchronous refinement
# ---------------------------------------------------------------------------

def _reference_levels(f, breakpoints, spec):
    """Plain-loop form of the level rule: per level, split the fewest worst
    panels whose errors exceed the excess over the tolerance; every level is
    one integrand call.  Returns (value, error, calls, panels evaluated)."""
    def rule(a, b):
        val, err = spectral._gauss_kronrod(spectral._flat_integrand(f), np.array([a]),
                                           np.array([b]), np.zeros(1, dtype=int))
        return val[0], float(err[0])

    leaves = [(a, b, *rule(a, b)) for a, b in zip(breakpoints[:-1], breakpoints[1:])]
    calls, panels = 1, len(leaves)
    while True:
        total = sum(p[2] for p in leaves)
        excess = sum(p[3] for p in leaves) - spec.tolerance(float(np.max(np.abs(total))))
        if excess <= 0.0:
            return total, sum(p[3] for p in leaves), calls, panels
        leaves.sort(key=lambda p: -p[3])
        worse, picks = 0.0, 0
        while worse < excess:
            worse += leaves[picks][3]
            picks += 1
        children = []
        for a, b, _, _ in leaves[:picks]:
            mid = 0.5 * (a + b)
            children += [(a, mid, *rule(a, mid)), (mid, b, *rule(mid, b))]
        leaves = leaves[picks:] + children
        calls, panels = calls + 1, panels + len(children)


@pytest.mark.parametrize("f, breakpoints", [
    (lambda x: np.sin(40.0 * x) * np.exp(-x), np.linspace(0.0, math.pi, 3)),
    (lambda x: np.sqrt(x) * np.cos(3.0 * x), np.linspace(0.0, 2.0, 5)),
    (lambda x: np.stack([1.0 / (1e-3 + x * x), np.exp(1j * 9.0 * x)], axis=-1),
     np.linspace(-1.0, 1.0, 3)),
], ids=["oscillating", "endpoint_sqrt", "vector_peak"])
def test_adaptive_panels_makes_one_integrand_call_per_level(f, breakpoints):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    res = spectral.adaptive_panels(counted, breakpoints, SPEC)
    ref_value, ref_error, ref_calls, ref_panels = _reference_levels(f, breakpoints, SPEC)
    assert len(calls) == ref_calls > 2
    assert res.nodes_used == sum(calls) == 15 * ref_panels
    # one call per panel pair at most: a level's splits share one call
    assert len(calls) <= 1 + (ref_panels - (len(breakpoints) - 1)) / 2
    assert np.max(np.abs(res.value - ref_value)) <= res.error_estimate + ref_error
    assert res.error_estimate <= SPEC.tolerance(float(np.max(np.abs(res.value))))


def test_adaptive_panels_raises_at_the_panel_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_PANELS", 24)
    evaluated = []

    def divergent(x):
        evaluated.append(len(x) // 15)
        return 1.0 / x

    with pytest.raises(QuadratureError, match="stalled at error .* after 24 panels"):
        spectral.adaptive_panels(divergent, np.linspace(0.0, 1.0, 5), SPEC)
    # every split replaces one panel by two, and the cap bounds the leaves
    assert sum(evaluated) <= 4 + 2 * (24 - 4)


@pytest.mark.parametrize("engine, args", [
    (spectral.adaptive_panels, (np.linspace(0.0, 1.0, 5), SPEC)),
    (halfline_oscillatory_integral, (1.0, SPEC)),
    (ray_integral, (1.0, 2, SPEC)),
    (cut_segment_integral, (np.array([0.5, 1.0]), SPEC)),
    (decaying_halfline_integral, (1.0, SPEC)),
    (damped_radial_transform, (1.0, SPEC)),
], ids=["adaptive_panels", "halfline", "ray", "cut_segment", "decaying_halfline",
        "damped_radial"])
def test_non_finite_panel_raises_after_one_call(engine, args):
    calls = []

    def poisoned(x, *entries):
        calls.append(len(x))
        return np.nan * x

    with pytest.raises(QuadratureError, match=r"non-finite integrand on the panel \[0, "):
        engine(poisoned, *args)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the damped ray
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.3, 1.0, 7.0])
def test_ray_integral_meets_closed_forms(s):
    # int_0^inf e^{iks} dk = i/s (Abel) and int_0^inf e^{iks}/(k + i a) dk =
    # e^{as} E1(as): the pole at k = -i a lies outside the first quadrant
    a = np.array([0.05, 1.0, 20.0])

    def f(k, entries):
        return np.stack([np.exp(1j * k * s), np.exp(1j * k * s) / (k + 1j * a[entries])], axis=-1)

    res = ray_integral(f, s, a.size, SPEC)
    assert res.value.shape == (a.size, 2)
    exact = np.stack([np.full(a.size, 1j / s), np.exp(a * s) * exp1(a * s)], axis=-1)
    observed = np.max(np.abs(res.value - exact), axis=1)
    assert np.all(observed <= res.entry_errors)
    assert res.error_estimate == res.entry_errors.max()
    assert res.error_estimate <= SPEC.tolerance(float(np.max(np.abs(res.value))))


def test_ray_graded_from_a_near_pole_converges_on_its_first_panels():
    # int_0^inf e^{ik}/(k + a) dk = e^{-ia} E1(-ia): the pole at k = -a lies
    # outside the first quadrant, a distance a from the ray's origin.  Graded
    # from that scale every entry converges on its first panels; the fixed
    # panels bisect towards the origin for 13 levels
    a = np.array([1e-4, 1e-2, 0.5])
    exact = np.exp(-1j * a) * exp1(-1j * a)
    for near, levels in ((a, 1), (None, 13)):
        calls = []

        def f(k, entries):
            calls.append(k.shape)
            return np.exp(1j * k) / (k + a[entries])

        res = ray_integral(f, 1.0, a.size, SPEC, near=near)
        assert len(calls) == levels
        assert np.all(np.abs(res.value - exact) <= res.entry_errors)


@pytest.mark.parametrize("near", [[-1.0, 1.0], [math.nan, 1.0], [1.0], [[1.0, 1.0]]])
def test_near_scales_must_be_one_non_negative_number_per_entry(near):
    with pytest.raises(ValueError, match="near must be 2 scales"):
        ray_integral(lambda k, entries: np.exp(1j * k), 1.0, 2, SPEC, near=near)
    with pytest.raises(ValueError, match="near must be 2 scales"):
        cut_segment_integral(lambda t: t, 1.0, SPEC, near=near)


def _two_widths(k, w):
    return np.stack([np.exp(1j * k) / (1.0 + (w * k) ** 2), np.exp(1j * k) * w / (k + 1j * w)],
                    axis=-1)


def test_ray_gives_each_entry_its_own_panels():
    # each entry refines only its own panels, to the batch tolerance from the
    # max-norm over all entries: the last entry, the third scaled by 1e-8,
    # stops at its first panels in the batch but refines further alone
    widths = np.array([0.05, 1.0, 30.0, 30.0])
    amps = np.array([1.0, 1.0, 1.0, 1e-8])
    columns = {}

    def batch(k, entries):
        for entry in entries:
            columns[entry] = columns.get(entry, 0) + 1
        return amps[entries, None] * _two_widths(k, widths[entries])

    res = ray_integral(batch, 1.0, len(widths), SPEC)
    assert res.nodes_used == 15 * sum(columns.values())
    assert res.entry_errors.shape == widths.shape
    assert res.error_estimate == res.entry_errors.max()
    assert len(set(columns.values())) > 2
    assert columns[3] == spectral._RAY_PANELS < columns[2]
    assert res.error_estimate <= SPEC.tolerance(float(np.max(np.abs(res.value))))
    for w, amp, row, err in zip(widths, amps, res.value, res.entry_errors):
        single = ray_integral(lambda k, entries, w=w: amp * _two_widths(k, w), 1.0, 1, SPEC)
        assert single.value.shape == (1, 2)
        assert single.nodes_used > 15 * spectral._RAY_PANELS
        assert np.max(np.abs(row - single.value[0])) <= err + single.error_estimate
        # and the real-axis route agrees
        levin = halfline_oscillatory_integral(lambda k, w=w: amp * _two_widths(k, w), 1.0, SPEC)
        assert np.max(np.abs(row - levin.value)) <= err + levin.error_estimate


def test_ray_entry_within_the_tolerance_it_stopped_at_is_returned(monkeypatch):
    # the batch tolerance follows the max-norm of the running entries.  On
    # four equal first panels in v the narrow peak of entry 0 reads 2.36 in
    # norm, 1.74 once resolved; entry 1 stops on its first panels with an
    # error of 2.05e-9, within the first tolerance 2.36e-9 but above the final
    # 1.74e-9.  It met the tolerance it stopped at, so the ray does not stall
    monkeypatch.setattr(spectral, "_RAY_BREAKS", np.linspace(0.0, 0.5 * math.pi, 5),
                        raising=False)
    monkeypatch.setattr(spectral, "_RAY_PANELS", 4)
    amp = 1.424e-4
    columns = np.zeros(2, dtype=int)

    def peak(k):
        return np.exp(1j * k) / ((k * np.exp(-0.25j * math.pi) - 4.0) ** 2 + 0.1 ** 2)

    def batch(k, entries):
        np.add.at(columns, entries, 1)
        return np.where(entries == 0, peak(k), amp * np.exp(1j * k) / (1.0 + k) ** 2)

    res = ray_integral(batch, 1.0, 2, SPEC)
    assert columns[1] == 4 < columns[0]
    assert SPEC.tolerance(float(np.max(np.abs(res.value)))) < res.entry_errors[1] < 2.1e-9
    # int_0^inf e^{ik}/(1+k)^2 dk = 1 + i e^{-i} E1(-i), by parts
    exact = amp * (1.0 + 1j * np.exp(-1j) * exp1(-1j))
    assert abs(res.value[1] - exact) <= res.entry_errors[1]
    single = ray_integral(lambda k, entries: peak(k), 1.0, 1, SPEC)
    assert abs(res.value[0] - single.value[0]) <= res.entry_errors[0] + single.error_estimate


def test_ray_raises_at_the_panel_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_PANELS", 24)
    with pytest.raises(QuadratureError, match="ray integral stalled at error .* after 24 panels"):
        # a pole at k = 1e-6 (i - 1), off the first quadrant, sits next to the ray's origin
        ray_integral(lambda k, entries: 1.0 / (k - 1e-6 * (1j - 1.0)) + 0.0 * entries,
                     1.0, 2, SPEC)
