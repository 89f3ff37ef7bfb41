import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1

from halfspace_qed import spectral
from halfspace_qed.spectral import (
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    cut_segment_integral,
    decaying_halfline_integral,
    decaying_halfline_last_node,
    ray_integral,
)

SPEC = QuadratureSpec()
TIGHT = QuadratureSpec(rel_tol=1e-13)


def _halfline(f, scale, spec):
    """int_0^inf f(k) dk of a body f analytic in the first quadrant, on the
    ray (a run with no cut)."""
    res = ray_integral(lambda k, rays: f(k), scale, spec)
    return IntegralResult(res.value[0], res.error_estimate, res.nodes_used)


def _damped_radial(f, damping, spec):
    """int_0^inf f(k) e^{-k damping} dk, a damped radial transform, on the
    decaying half-line at the decay length 1/damping."""
    return decaying_halfline_integral(lambda k: f(k) * np.exp(-damping * k), 1.0 / damping,
                                      spec)


def _sin_over_x(s):
    """(e^{iks} - e^{-ks})/k, whose integral is i pi/2 (Frullani): its
    imaginary part is sin(ks)/k, and its real part integrates to 0."""
    return lambda k: (np.exp(1j * k * s) - np.exp(-k * s)) / k


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    for name in ("abs_tol", "rel_tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                QuadratureSpec(**{name: bad})


def test_spec_rejects_a_rel_tol_with_no_decade_to_keep():
    # a relative tolerance above 1 accepts any value
    for bad in (10.0, 1.5, 1.0 + 2.0 ** -52):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=bad)
    assert QuadratureSpec(rel_tol=1.0).rel_tol == 1.0


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["abs_tol", "rel_tol"]),
    bad=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                  st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
)
def test_spec_rejects_non_finite_or_non_positive_floats(name, bad):
    with pytest.raises(ValueError, match=name):
        QuadratureSpec(**{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_engines_reject_non_finite_geometry(bad):
    # a ray run integrates one ray and its cut: its scale, near-singularity
    # distance and cut end are one real value each, rejected by name before
    # any integrand call
    def refuse(k, rays):
        raise AssertionError("integrand called")

    for scale in (np.array([1.0, bad]), np.array([]), bad, 0.0, -1.0):
        with pytest.raises(ValueError, match="oscillation_scale"):
            ray_integral(refuse, scale, SPEC)
    for near in (bad, -1.0, [1.0]):
        with pytest.raises(ValueError, match="near must be finite and >= 0"):
            ray_integral(refuse, 1.0, SPEC, near=near)
    with pytest.raises(ValueError, match="gamma"):
        cut_segment_integral(lambda t: t, bad, SPEC)
    for gamma in (bad, 0.0, -1.0, [1.0], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            ray_integral(refuse, 1.0, SPEC, gamma=gamma)
    with pytest.raises(ValueError, match="scale"):
        decaying_halfline_integral(np.exp, bad, SPEC)


@pytest.mark.parametrize("bad", [True, "1.0", 1j, 1.0 + 0j], ids=["bool", "str", "complex",
                                                                  "complex_real_value"])
def test_engines_reject_values_that_are_not_real_numbers_by_name(bad):
    # a bool is not taken as 1, and a string or complex number gets a
    # ValueError naming its parameter rather than numpy's error, before any
    # integrand call
    def refuse(k, *rays):
        raise AssertionError("integrand called")

    for name, call in (
            ("oscillation_scale", lambda: ray_integral(refuse, bad, SPEC)),
            ("near", lambda: ray_integral(refuse, 1.0, SPEC, near=bad)),
            ("gamma", lambda: ray_integral(refuse, 1.0, SPEC, gamma=bad)),
            ("gamma", lambda: cut_segment_integral(refuse, bad, SPEC)),
            ("scale", lambda: decaying_halfline_integral(refuse, bad, SPEC)),
            ("cut_near", lambda: ray_integral(refuse, 1.0, SPEC, gamma=1.0, cut_near=(bad, 1.0))),
            ("cut_near", lambda: ray_integral(refuse, 1.0, SPEC, gamma=1.0, cut_near=(1.0, bad)))):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got .*{re.escape(repr(bad))}"):
            call()


def test_cut_scales_may_be_infinite_or_integers():
    # inf, for an end with no near-singularity, adds no break; an integer
    # scale is its float
    assert np.array_equal(spectral._cut_breaks((math.inf, math.inf)), spectral._cut_breaks(None))
    assert np.array_equal(spectral._cut_breaks((0, 1)), spectral._cut_breaks((0.0, 1.0)))
    for near in ((math.inf, 0.1), (0.1, math.inf)):
        res = ray_integral(lambda k, rays: np.exp(1j * k), 1.0, SPEC, gamma=1.0, cut_near=near)
        assert abs(res.value[1] - (1.0 - math.exp(-1.0))) <= 1e-12


def test_oscillatory_sin_over_x():
    res = _halfline(_sin_over_x(1.0), 1.0, SPEC)
    assert abs(res.value - 0.5j * math.pi) < 1e-10


def test_oscillatory_cos_lorentzian():
    # the pole of e^{ik}/(1 + k^2) at k = i lies outside the open first
    # quadrant, so the ray holds; the real part is int cos(k)/(1 + k^2)
    res = _halfline(lambda x: np.exp(1j * x) / (1 + x * x), 1.0, SPEC)
    assert abs(res.value.real - math.pi / (2 * math.e)) < 1e-10


def test_oscillatory_zero_integrand_minimal_nodes():
    res = _halfline(lambda x: np.zeros_like(x), 1.0, SPEC)
    assert res.value == 0.0
    assert res.nodes_used == 15 * (len(spectral._RAY_BREAKS) - 1)


def test_oscillatory_abel_values():
    # bounded non-decaying amplitudes converge to the Abel-regularised value
    res = _halfline(lambda x: np.exp(1j * x), 1.0, SPEC)
    assert abs(res.value - 1j) < 1e-10
    res = _halfline(lambda x: np.exp(2j * x), 2.0, SPEC)  # int sin(2x) = 1/2
    assert abs(res.value - 0.5j) < 1e-10


def test_oscillatory_scaled_frequency():
    # int_0^inf sin(5x)/x = pi/2 regardless of the scale
    res = _halfline(_sin_over_x(5.0), 5.0, SPEC)
    assert abs(res.value - 0.5j * math.pi) < 1e-10


def test_oscillatory_converged_error_contract():
    for f, s in [(_sin_over_x(1.0), 1.0), (lambda x: np.exp(1j * x) / (1 + x * x), 1.0)]:
        res = _halfline(f, s, SPEC)
        assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * abs(res.value))


def test_oscillatory_requires_positive_scale():
    with pytest.raises(ValueError):
        _halfline(lambda x: np.exp(1j * x), 0.0, SPEC)


def test_oscillatory_nonconvergence_raises(monkeypatch):
    # amplitude growing too fast for the panels allowed: the ray raises at
    # its cap rather than return an unconverged value
    monkeypatch.setattr(spectral, "_MAX_PANELS", 8)
    spec = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(QuadratureError, match="ray integral stalled at error .* after 8 panels"):
        _halfline(lambda x: x**6 * np.exp(1j * x), 1.0, spec)


@pytest.mark.parametrize("engine, args", [
    (cut_segment_integral, (lambda t: 1.0 / t, 1.0, SPEC)),
    (decaying_halfline_integral, (lambda k: 1.0 / (1.0 + k), 1.0, SPEC)),
    (_halfline, (lambda k: 1.0 / k, 1.0, SPEC)),
    (_damped_radial, (lambda k: 1.0 / k, 1.0, SPEC)),
], ids=["cut_segment", "decaying_halfline", "ray", "damped_radial"])
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
    for gamma in (1e-3, 50.0):
        res = cut_segment_integral(lambda t: 1.0 / np.sqrt(gamma * gamma - t * t), gamma, SPEC)
        assert abs(res.value - math.pi / 2) < 1e-12


def test_damped_radial_moment():
    res = _damped_radial(lambda k: k, 1.3, TIGHT)
    assert abs(res.value - 1.0 / 1.3**2) < 1e-10
    res = _damped_radial(lambda k: np.zeros_like(k), 1.0, TIGHT)
    assert res.value == 0.0


def test_decaying_halfline():
    res = decaying_halfline_integral(lambda k: 1.0 / (1.0 + k * k), 1.0, SPEC)
    assert abs(res.value - math.pi / 2) < 1e-12
    res = decaying_halfline_integral(lambda k: np.exp(-(k + 2.0)), 1.0, SPEC)
    assert abs(res.value - math.exp(-2.0)) < 1e-12
    for scale, offset in ((1e-3, 0.0), (50.0, 2.0)):
        res = decaying_halfline_integral(lambda k: scale / (scale * scale + (k + offset) ** 2),
                                         scale, SPEC)
        assert res.value == pytest.approx(math.pi / 2 - math.atan(offset / scale), rel=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 50.0])
def test_decaying_halfline_last_node_is_the_largest_node_of_an_unsplit_run(scale):
    # 1/(scale^2 + k^2) meets its tolerance at the first level, so the run
    # calls f on exactly the first panels' nodes
    seen = []

    def f(k):
        seen.append(k)
        return scale / (scale * scale + k * k)

    decaying_halfline_integral(f, scale, SPEC)
    assert len(seen) == 1
    assert decaying_halfline_last_node(scale) == seen[0].max()


def test_vector_valued_integrands():
    res = _halfline(
        lambda x: np.stack([_sin_over_x(1.0)(x), np.exp(1j * x) / (1 + x * x)], axis=-1), 1.0, SPEC
    )
    assert np.allclose(res.value.imag[0], math.pi / 2, atol=1e-10)
    assert np.allclose(res.value.real, [0.0, math.pi / (2 * math.e)], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
def test_linearity_property(alpha, beta):
    f = _sin_over_x(1.0)
    g = lambda x: np.exp(1j * x) / (1 + x * x)
    combo = _halfline(lambda x: alpha * f(x) + beta * g(x), 1.0, SPEC)
    fa = _halfline(f, 1.0, SPEC)
    gb = _halfline(g, 1.0, SPEC)
    expect = alpha * fa.value + beta * gb.value
    budget = combo.error_estimate + abs(alpha) * fa.error_estimate + abs(beta) * gb.error_estimate
    assert abs(combo.value - expect) <= budget + 1e-12


def test_tightening_tolerance_stays_within_estimate():
    loose = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6)
    tight = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-7)
    for f, s in [(_sin_over_x(1.0), 1.0), (lambda x: np.exp(1j * x) / (1 + x * x), 1.0)]:
        r1 = _halfline(f, s, loose)
        r2 = _halfline(f, s, tight)
        assert abs(r1.value - r2.value) <= r1.error_estimate
    r1 = cut_segment_integral(lambda t: 1 / np.sqrt(4 - t * t), 2.0, loose)
    r2 = cut_segment_integral(lambda t: 1 / np.sqrt(4 - t * t), 2.0, tight)
    assert abs(r1.value - r2.value) <= max(r1.error_estimate, 1e-15)


def test_deterministic_bit_identical():
    runs = [
        (functools.partial(ray_integral, gamma=1.5),
         (lambda k, rays: np.exp(0.7j * k) / (1 + (0.1 * k) ** 2), 0.7, SPEC)),
        (cut_segment_integral, (lambda t: t / np.sqrt(2.25 - t * t), 1.5, SPEC)),
        (decaying_halfline_integral, (lambda k: 3.0 / (9.0 + k * k), 3.0, SPEC)),
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
    # the level rule evaluates several panels from one call, or one panel
    # (a lone real column, which a one-pass reduction would sum pairwise);
    # each panel's K15 sum is bitwise the node-by-node sum, and within a few
    # ulp of the BLAS tensordot.  A real integrand keeps real values.
    rng = np.random.default_rng(5)
    for panels in 20 * [3] + 20 * [1]:
        lo = np.sort(rng.uniform(-3.0, 3.0, panels))
        hi = lo + rng.uniform(0.1, 2.0, panels)
        vals = _random_values(rng, (15, panels) + shape, dtype)
        k15, err = spectral._gauss_kronrod(lambda x, owner: vals, lo, hi,
                                           np.zeros(panels, dtype=int))
        assert k15.shape == (panels,) + shape and err.shape == (panels,)
        assert k15.dtype == np.dtype(dtype) and err.dtype == np.float64
        for i in range(panels):
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


def _two_node_ordered_passes(parts):
    """The K15 and G7 sums of each column of ``parts`` as two einsum passes,
    the G7 one over the odd nodes alone; a lone column is summed as the
    first of two copies."""
    lone = parts.shape[1] == 1
    block = np.repeat(parts, 2, axis=1) if lone else parts
    k15 = np.einsum("i,ij->j", spectral._K15_W, block)
    g7 = np.einsum("i,ij->j", spectral._G7_W, block[1::2])
    return (k15[:1], g7[:1]) if lone else (k15, g7)


@pytest.mark.parametrize("columns, shape, dtype", [
    (1, (), float), (2, (), float), (1, (), complex), (3, (), complex), (1, (5,), float),
    (4, (5,), complex),
], ids=["lone_column", "two_columns", "complex_lone", "complex", "five_components",
        "complex_five_components"])
def test_one_rule_pass_is_the_two_node_ordered_passes_bit_for_bit(columns, shape, dtype):
    # _node_sums takes the K15 and G7 sums in one einsum pass, the G7 row 0 on
    # the even nodes; on the float view of any block (a complex body's real
    # and imaginary parts side by side, 5 components a panel) both rows are
    # bitwise the two passes
    rng = np.random.default_rng(11)
    for _ in range(30):
        vals = _random_values(rng, (15, columns) + shape, dtype)
        parts = np.ascontiguousarray(vals).reshape(15, -1).view(np.float64)
        sums = spectral._node_sums(parts)
        k15, g7 = _two_node_ordered_passes(parts)
        assert sums.shape == (2, parts.shape[1])
        assert sums[0].tobytes() == k15.tobytes()
        assert np.array_equal(sums[1], g7)


@pytest.mark.parametrize("node", [0, 7, 14])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_node_names_its_panel_whatever_its_g7_weight(node, bad):
    # a non-finite value at a node the G7 row weighs by 0 (an even one) still
    # makes its panel's error non-finite, and the rule names that panel
    vals = np.ones((15, 3, 5), dtype=complex)
    vals[node, 1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
            QuadratureError, match=r"non-finite integrand on the panel \[2, 3\]$"):
        spectral._gauss_kronrod(lambda x, owner: vals, np.array([1.0, 2.0, 3.0]),
                                np.array([2.0, 3.0, 4.0]), np.zeros(3, dtype=int))


def test_half_period_block_matches_single_panels_bitwise():
    def f(x, owner):
        return np.stack([np.exp(17.3j * x) * x, np.cos(x) / (1 + x * x)], axis=-1)

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
    (lambda x: np.exp(1j * x) / (1 + x * x), 1.0),
    (lambda x: np.exp(1j * x), 1.0),
    (lambda x: np.stack([_sin_over_x(1.0)(x), np.exp(1j * x) / (1 + x * x)], axis=-1), 1.0),
    (lambda x: np.zeros_like(x), 1.0),
]


@pytest.mark.parametrize("f, scale", _HALFLINE_CASES, ids=["lorentz", "abel", "vector", "zero"])
def test_halfline_nodes_used_counts_every_abscissa(f, scale):
    abscissae = []

    def counted(x):
        abscissae.append(np.size(x))
        return f(x)

    res = _halfline(counted, scale, SPEC)
    assert res.nodes_used == sum(abscissae)


# ---------------------------------------------------------------------------
# the level-synchronous refinement
# ---------------------------------------------------------------------------

def _reference_levels(f, breakpoints, spec):
    """Plain-loop form of the level rule: per level, split the fewest worst
    panels whose errors exceed the excess over the tolerance; every level is
    one integrand call.  Returns (value, error, calls, panels evaluated)."""
    def rule(a, b):
        val, err = spectral._gauss_kronrod(lambda x, owner: f(x), np.array([a]),
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
        calls.append(np.size(x))
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
        evaluated.append(np.size(x) // 15)
        return 1.0 / x

    with pytest.raises(QuadratureError, match="stalled at error .* after 24 panels"):
        spectral.adaptive_panels(divergent, np.linspace(0.0, 1.0, 5), SPEC)
    # every split replaces one panel by two, and the cap bounds the leaves
    assert sum(evaluated) <= 4 + 2 * (24 - 4)


@pytest.mark.parametrize("engine, args", [
    (spectral.adaptive_panels, (np.linspace(0.0, 1.0, 5), SPEC)),
    (_halfline, (1.0, SPEC)),
    (ray_integral, (1.0, SPEC)),
    (cut_segment_integral, (1.0, SPEC)),
    (decaying_halfline_integral, (1.0, SPEC)),
    (_damped_radial, (1.0, SPEC)),
], ids=["adaptive_panels", "halfline", "ray", "cut_segment", "decaying_halfline",
        "damped_radial"])
def test_non_finite_panel_raises_after_one_call(engine, args):
    calls = []

    def poisoned(x, *rays):
        calls.append(len(x))
        return np.nan * x

    with pytest.raises(QuadratureError, match=r"non-finite integrand on the panel \[0, "):
        engine(poisoned, *args)
    assert len(calls) == 1


def _ray_run(f, spec):
    # a ray and its cut k = i t in one run
    return ray_integral(lambda k, rays: f(k), 1.0, spec, gamma=1.0)


@pytest.mark.parametrize("engine, f, args", [
    (spectral.adaptive_panels, lambda x: 1.0 / (1e-3 + x * x), (np.linspace(-1.0, 1.0, 3), SPEC)),
    (_halfline, lambda x: np.exp(1j * x) / (1.0 + x * x), (1.0, SPEC)),
    # a pole a distance 0.05 from the ray's origin: a run of more than one level
    (_ray_run, lambda x: np.exp(1j * x) / (0.05 + x), (SPEC,)),
    (cut_segment_integral, np.sqrt, (2.0, SPEC)),
    (decaying_halfline_integral, lambda k: np.sqrt(k) / (1.0 + k * k), (3.0, SPEC)),
    (_damped_radial, lambda k: np.sqrt(k), (0.8, SPEC)),
], ids=["adaptive_panels", "halfline", "ray", "cut_segment", "decaying_halfline",
        "damped_radial"])
def test_every_engine_hands_its_integrand_node_blocks(engine, f, args):
    # one node layout: every call, refinement levels included, gets a
    # (15, panels) block, the 15 Kronrod nodes of a panel down its column
    shapes = []

    def block(x):
        shapes.append(np.shape(x))
        return f(x)

    engine(block, *args)
    assert len(shapes) > 1
    assert all(len(s) == 2 and s[0] == 15 for s in shapes)


# ---------------------------------------------------------------------------
# the damped ray
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.3, 1.0, 7.0])
def test_ray_integral_meets_closed_forms(s):
    # int_0^inf e^{iks} dk = i/s (Abel) and int_0^inf e^{iks}/(k + i a) dk =
    # e^{as} E1(as): the pole at k = -i a lies outside the first quadrant
    for a in (0.05, 1.0, 20.0):
        def f(k, rays):
            return np.stack([np.exp(1j * k * s), np.exp(1j * k * s) / (k + 1j * a)], axis=-1)

        res = ray_integral(f, s, SPEC)
        assert res.value.shape == (1, 2) and res.entry_errors.shape == (1,)
        exact = np.array([1j / s, np.exp(a * s) * exp1(a * s)])
        assert np.max(np.abs(res.value[0] - exact)) <= res.entry_errors[0]
        assert res.error_estimate == res.entry_errors[0]
        assert res.error_estimate <= SPEC.tolerance(float(np.max(np.abs(res.value))))


def test_ray_graded_from_a_near_pole_converges_on_its_first_panels():
    # int_0^inf e^{ik}/(k + a) dk = e^{-ia} E1(-ia): the pole at k = -a lies
    # outside the first quadrant, a distance a from the ray's origin.  Graded
    # from that scale every ray converges on its first panels; the fixed
    # panels bisect towards the origin for up to 13 levels
    for a, fixed_levels in ((1e-4, 13), (1e-2, 6), (0.5, 1)):
        exact = np.exp(-1j * a) * exp1(-1j * a)
        for near, levels in ((a, 1), (None, fixed_levels)):
            calls = []

            def f(k, rays):
                calls.append(k.shape)
                return np.exp(1j * k) / (k + a)

            res = ray_integral(f, 1.0, SPEC, near=near)
            assert len(calls) == levels
            assert abs(res.value[0] - exact) <= res.entry_errors[0]


@pytest.mark.parametrize("near", [(-1.0, [-1.0, 1.0]), (math.nan, [math.nan, 1.0]),
                                  (math.inf, [1.0]), ([1.0], [[1.0, 1.0]])])
def test_near_scales_must_be_one_non_negative_number_per_entry(near):
    # the ray takes one distance, finite and >= 0 (None for none), the cut
    # two scales >= 0 (inf for none)
    ray_near, cut_near = near
    with pytest.raises(ValueError, match="near must be finite and >= 0"):
        ray_integral(lambda k, rays: np.exp(1j * k), 1.0, SPEC, near=ray_near)
    with pytest.raises(ValueError, match="cut_near must be 2 scales >= 0"):
        ray_integral(lambda k, rays: np.exp(1j * k), 1.0, SPEC, gamma=1.0, cut_near=cut_near)


def _two_widths(k, w):
    return np.stack([np.exp(1j * k) / (1.0 + (w * k) ** 2), np.exp(1j * k) * w / (k + 1j * w)],
                    axis=-1)


def _peak(t, w):
    return np.stack([np.exp(-t) / (w * w + t * t), t / (w + t)], axis=-1)


def _ray_and_cut(ray, cut, calls=None):
    """A ray run's body from a ray body ray(k) and a cut body cut(t): the
    engine hands one block, its ``rays`` ray columns first and then its cut
    columns k = i t.  Records (ray columns, cut columns) of each call in
    ``calls``."""
    def body(k, rays):
        if calls is not None:
            calls.append((rays, k.shape[1] - rays))
        return np.concatenate([ray(k[:, :rays]), cut(k.imag[:, rays:])], axis=1)
    return body


def test_ray_gives_each_entry_its_own_panels():
    # the ray and its cut are integrals of their own: each refines only its
    # own panels, to the tolerance of its own max-norm.  A narrow ray beside
    # a broad cut, and a broad ray beside a narrow cut: adding the cut leaves
    # the ray's panels and value as they were, and the cut reads the lone
    # cut_segment_integral of its body bit for bit
    for width, peak, gamma in ((0.05, 1.0, 2.0), (30.0, 0.01, 0.5)):
        alone_calls, calls = [], []

        def ray_alone(k, rays, width=width):
            alone_calls.append(rays)
            return _two_widths(k, width)

        alone = ray_integral(ray_alone, 1.0, SPEC)
        both = ray_integral(_ray_and_cut(lambda k: _two_widths(k, width),
                                         lambda t: _peak(t, peak), calls), 1.0, SPEC, gamma=gamma)
        # complex, as the ray's columns make the run's block
        cut = cut_segment_integral(lambda t: _peak(t, peak) + 0j, gamma, SPEC)
        assert both.value.shape == (2, 2) and both.entry_errors.shape == (2,)
        assert [rays for rays, _ in calls if rays] == alone_calls
        assert np.array_equal(both.value[0], alone.value[0])
        assert both.entry_errors[0] == alone.entry_errors[0]
        assert np.array_equal(both.value[1], cut.value) and both.entry_errors[1] == cut.error_estimate
        assert both.nodes_used == alone.nodes_used + cut.nodes_used == 15 * sum(map(sum, calls))
        assert both.error_estimate == both.entry_errors.max()
        levels = [sum(1 for c in calls if c[i]) for i in (0, 1)]
        assert levels[0] != levels[1]  # one of the two stopped while the other refined


def _narrow_ray_and_cut(calls):
    """A body whose ray and cut both refine past their first level,
    recording the (ray columns, cut columns) of each call."""
    return _ray_and_cut(lambda k: _two_widths(k, 0.05), lambda t: _peak(t, 0.01), calls)


def test_each_level_is_one_integrand_call_on_its_rays_and_cuts():
    # the first level holds the ray and the cut; each later level is one call
    # on the integrals still running, ray and cut in the same block, so the
    # calls are as many as the levels of the integral that ran longest
    calls = []
    res = ray_integral(_narrow_ray_and_cut(calls), 1.0, SPEC, gamma=0.5)
    running = [(rays > 0, cuts > 0) for rays, cuts in calls]
    assert running[0] == (True, True)
    assert all(later <= earlier for earlier, later in zip(running, running[1:]))
    assert len(calls) == max(sum(r[0] for r in running), sum(r[1] for r in running))
    assert running[1] == (True, True)
    assert res.nodes_used == 15 * sum(map(sum, calls))


def test_every_level_hands_its_owners_sorted_with_split_halves_side_by_side(monkeypatch):
    # the ray columns of each block are a prefix and the cut columns the rest:
    # every level's panels are sorted by integral, and a split panel's two
    # halves are neighbours
    levels = []
    rule = spectral._gauss_kronrod

    def spy(f, lo, hi, owner):
        levels.append((lo, hi, owner))
        return rule(f, lo, hi, owner)

    monkeypatch.setattr(spectral, "_gauss_kronrod", spy)
    calls = []
    ray_integral(_narrow_ray_and_cut(calls), 1.0, SPEC, gamma=0.5)
    assert len(levels) == len(calls) > 2
    for (lo, hi, owner), (rays, cuts) in zip(levels, calls):
        assert np.all(np.diff(owner) >= 0) and set(owner) <= {0, 1}
        assert np.count_nonzero(owner == 0) == rays and np.count_nonzero(owner == 1) == cuts
    for lo, hi, owner in levels[1:]:
        assert np.array_equal(hi[0::2], lo[1::2]) and np.array_equal(owner[0::2], owner[1::2])


def test_ray_entry_within_the_tolerance_it_stopped_at_is_returned():
    # the ray and the cut are each held to the tolerance of their own
    # max-norm, not of the larger one: a ray 1e-4 the size of its cut returns
    # within its own tolerance, below the cut's, and refines as it does alone
    amp = 1.424e-4

    def ray(k):
        return amp * np.exp(1j * k) / ((k * np.exp(-0.25j * math.pi) - 4.0) ** 2 + 0.1 ** 2)

    res = ray_integral(_ray_and_cut(ray, lambda t: _peak(t, 0.3)[..., 0]), 1.0, SPEC, gamma=2.0)
    ray_norm, cut_norm = np.abs(res.value)
    assert ray_norm < 1e-3 * cut_norm
    assert res.entry_errors[0] <= SPEC.tolerance(ray_norm) < SPEC.tolerance(cut_norm)
    assert res.entry_errors[1] <= SPEC.tolerance(cut_norm)
    alone = ray_integral(lambda k, rays: ray(k), 1.0, SPEC)
    assert np.array_equal(res.value[0], alone.value[0])
    # int_0^inf e^{ik}/(1+k)^2 dk = 1 + i e^{-i} E1(-i), by parts
    smooth = ray_integral(lambda k, rays: amp * np.exp(1j * k) / (1.0 + k) ** 2, 1.0, SPEC)
    exact = amp * (1.0 + 1j * np.exp(-1j) * exp1(-1j))
    assert abs(smooth.value[0] - exact) <= smooth.entry_errors[0] <= SPEC.tolerance(abs(exact))


def _refine_without_early_return():
    """spectral._refine with its early return taken out: every level, the
    last one included, runs the split bookkeeping, and a level that splits
    no panel stops every integral."""
    source = inspect.getsource(spectral._refine)
    general = re.sub(r"\n +if \(excess <= 0\.0\)\.all\(\):[^\n]*(\n[^\n]*){2}", "", source)
    assert general.count("\n") == source.count("\n") - 3
    namespace = dict(vars(spectral))
    exec(general, namespace)
    return namespace["_refine"]


def _smooth_ray(k):
    return np.exp(1j * k) / (1.0 + k) ** 2


@pytest.mark.parametrize("ray, cut, running", [
    (_smooth_ray, np.exp, [(True, True)]),
    (_smooth_ray, lambda t: _peak(t, 0.1)[..., 0], [(True, True)] + 2 * [(False, True)]),
    (lambda k: _two_widths(k, 0.05)[..., 0], np.exp, [(True, True), (True, False)]),
], ids=["both_first_level", "cut_refines", "ray_refines"])
def test_refine_returns_early_with_the_bits_of_the_general_path(ray, cut, running, monkeypatch):
    # once every running integral meets its tolerance _refine returns the
    # totals and errors it has summed, skipping the split bookkeeping: the
    # same bits as the path that runs it and splits nothing.  An integral that
    # converged stops while the other one goes on refining its own panels
    calls = []
    early = ray_integral(_ray_and_cut(ray, cut, calls), 1.0, SPEC, gamma=1.0)
    assert [(rays > 0, cuts > 0) for rays, cuts in calls] == running
    monkeypatch.setattr(spectral, "_refine", _refine_without_early_return())
    general_calls = []
    general = ray_integral(_ray_and_cut(ray, cut, general_calls), 1.0, SPEC, gamma=1.0)
    assert general_calls == calls
    assert np.array_equal(early.value, general.value)
    assert np.array_equal(early.entry_errors, general.entry_errors)
    assert early.nodes_used == general.nodes_used == 15 * sum(map(sum, calls))


def test_ray_run_names_a_ray_that_reaches_the_panel_cap_beside_a_converged_cut(monkeypatch):
    # the cut converges at its first level; the ray, with a pole at
    # k = 1e-6 (i - 1) next to its origin, still refines to the cap alone
    monkeypatch.setattr(spectral, "_MAX_PANELS", 24)
    calls = []
    body = _ray_and_cut(lambda k: 1.0 / (k - 1e-6 * (1j - 1.0)), np.exp, calls)
    with pytest.raises(QuadratureError, match="ray integral stalled at error .* after 24 panels"):
        ray_integral(body, 1.0, SPEC, gamma=1.0)
    assert len(calls) > 2 and all(rays for rays, _ in calls)
    assert not any(cuts for _, cuts in calls[1:])


def test_ray_raises_at_the_panel_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_PANELS", 24)
    with pytest.raises(QuadratureError, match="ray integral stalled at error .* after 24 panels"):
        # a pole at k = 1e-6 (i - 1), off the first quadrant, sits next to the ray's origin
        ray_integral(lambda k, rays: 1.0 / (k - 1e-6 * (1j - 1.0)), 1.0, SPEC)


def test_ray_run_names_a_cut_that_reaches_the_panel_cap(monkeypatch):
    # the ray converges; the cut's 1/t is not integrable at t = 0, so it
    # bisects towards u = 0, alone once the ray stops, until it holds the cap
    monkeypatch.setattr(spectral, "_MAX_PANELS", 24)
    calls = []
    body = _ray_and_cut(lambda k: np.exp(1j * k), lambda t: 1.0 / t, calls)
    with pytest.raises(QuadratureError, match="cut integral stalled at error .* after 24 panels"):
        ray_integral(body, 1.0, SPEC, gamma=1.0)
    assert len(calls) > 2 and all(cuts for _, cuts in calls)
    assert not calls[-1][0]
