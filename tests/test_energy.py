import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from halfspace_qed import energy
from halfspace_qed.config import load_config, spec_from_config
from halfspace_qed.energy import (
    _longitudinal,
    double_commutator_cnumber,
    gauge_invariance_sum,
    redistribution_factors,
    second_order_shift,
)
from halfspace_qed.fresnel import fresnel_coefficients
from halfspace_qed.greens import image_potential_ves
from halfspace_qed.medium import Medium, Polarization, Side, label_wavenumbers
from halfspace_qed.modes import surface_charge_mode
from halfspace_qed.spectral import QuadratureSpec

SPEC = QuadratureSpec()
TIGHT_CFG = spec_from_config(load_config(
    str(Path(__file__).resolve().parent.parent / "scripts" / "tight.cfg")))


def test_redistribution_factors():
    assert redistribution_factors(Medium(1.0)) == (0.0, 1.0)
    surf, ham = redistribution_factors(Medium(math.sqrt(2.0)))
    assert surf == pytest.approx(0.25)
    assert ham == pytest.approx(0.75)
    surf, ham = redistribution_factors(Medium(1e6))
    assert surf == pytest.approx(0.5, abs=1e-12)
    assert ham == pytest.approx(0.5, abs=1e-12)
    for n in (1.0, 1.3, 2.7, 9.0):
        a, b = redistribution_factors(Medium(n))
        assert a + b == 1.0


def test_free_space_shift_vanishes():
    shift = second_order_shift(1.0, Medium(1.0), 1.0, SPEC)
    assert shift.delta_e == 0.0
    assert shift.v_es == 0.0


def test_shift_ratio_reference_value():
    shift = second_order_shift(1.0, Medium(2.0), 1.0, SPEC)
    assert abs(shift.ratio - 0.375) < 1e-4
    assert shift.expected_ratio == pytest.approx(0.375)
    assert shift.delta_e < 0.0
    assert shift.left_part < 0.0 and shift.right_part < 0.0
    assert shift.left_part + shift.right_part == pytest.approx(shift.delta_e)


def test_shift_ratio_independent_of_height():
    med = Medium(1.5)
    r1 = second_order_shift(1.0, med, 0.5, SPEC)
    r2 = second_order_shift(1.0, med, 2.0, SPEC)
    assert abs(r1.ratio - r2.ratio) < 1e-4


def test_shift_scales_inversely_with_height():
    med = Medium(2.0)
    e1 = second_order_shift(1.0, med, 0.7, SPEC).delta_e
    e2 = second_order_shift(1.0, med, 1.4, SPEC).delta_e
    assert abs(e2 / e1 - 0.5) < 1e-4


def test_shift_grows_with_index():
    vals = [abs(second_order_shift(1.0, Medium(n), 1.0, SPEC).delta_e) for n in (1.2, 1.8, 3.0)]
    assert vals[0] < vals[1] < vals[2]


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=50, deadline=None)
@given(q=st.floats(-5.0, 5.0), z0=st.floats(0.01, 10.0),
       bad_z0=st.floats(max_value=0.0) | NON_FINITE, bad_q=NON_FINITE)
def test_shift_rejects_charge_inside(q, z0, bad_z0, bad_q):
    for fn in (second_order_shift, double_commutator_cnumber):
        with pytest.raises(ValueError, match="z0"):
            fn(q, Medium(2.0), bad_z0, SPEC)
        with pytest.raises(ValueError, match="q must be finite"):
            fn(bad_q, Medium(2.0), z0, SPEC)


@pytest.mark.parametrize("n", [1.0005, 2.0, 40.0])
def test_shift_ratio_is_that_of_the_unit_charge(n):
    # q^2 cancels exactly in the ratio: no ZeroDivisionError at q = 0 or where
    # q^2 underflows, and no subnormal energies in it at q = 1e-155
    med = Medium(n)
    unit = second_order_shift(1.0, med, 1.0, SPEC).ratio
    for q in (0.0, 1e-170, 1e-155, 0.5, 2.0, 1e100):
        assert second_order_shift(q, med, 1.0, SPEC).ratio == unit
    assert gauge_invariance_sum(0.0, med, 1.0, SPEC) == 0.0


@pytest.mark.parametrize("q, z0, name", [
    (1e200, 1.0, "q"), (-1e155, 1.0, "q"),
    (1.0, 0.0, "z0"), (1.0, -1e-300, "z0"), (1.0, math.inf, "z0"), (1.0, math.nan, "z0"),
    (1e150, 1e-100, "q and z0"), (1e154, 1e-5, "q and z0"), (1.0, 1e-310, "q and z0"),
])
def test_energies_reject_charges_and_heights_off_the_engine_range(q, z0, name):
    # q^2 must be finite, z0 finite and > 0, and q^2/z0, the scale of every
    # energy, finite: (1e150, 1e-100) read dE = V^es = -inf before
    for fn in (second_order_shift, gauge_invariance_sum, double_commutator_cnumber):
        with pytest.raises(ValueError, match=f"^{name} must"):
            fn(q, Medium(2.0), z0, SPEC)


@pytest.mark.parametrize("n", [1e152, 1e153, 1.3e154, math.nextafter(energy._N_MAX, math.inf)])
def test_energies_reject_an_index_whose_kzd_overflows(n, monkeypatch):
    # from one ulp above energy._N_MAX = 3.5755e150 up to the largest n with
    # a finite n**2, 1.34e154, n^2 k_z^2 overflows k_zd at the longitudinal
    # ray's largest node; each energy names n before any engine call
    def refuse(*args, **kwargs):
        raise AssertionError("engine called")

    monkeypatch.setattr(energy, "ray_integral", refuse)
    for fn in (second_order_shift, gauge_invariance_sum, double_commutator_cnumber):
        with pytest.raises(ValueError, match=r"^n must be at most 3\.5755e\+150, .* got n="):
            fn(1.0, Medium(n), 1.0, SPEC)


@pytest.mark.parametrize("spec", [SPEC, QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16)],
                         ids=["default", "tight"])
@pytest.mark.parametrize("n", [1e150, energy._N_MAX])
def test_energies_meet_their_ratio_up_to_the_largest_index(n, spec):
    # the bound is tight: at energy._N_MAX itself k_zd stays finite, also at
    # the tightest tolerance the energies meet, which leaves the ray's last
    # panel whole
    shift = second_order_shift(1.0, Medium(n), 1.0, spec)
    assert abs(shift.ratio - (n * n - 1.0) / (2.0 * n * n)) < 1e-4
    cnum = double_commutator_cnumber(1.0, Medium(n), 1.0, spec)
    assert cnum == pytest.approx(-shift.delta_e, rel=1e-12)


@pytest.mark.parametrize("n", [1.0005, 2.0, 40.0])
def test_shift_integrates_at_the_height_bounds(n):
    # every energy is exact in 1/z0, so any finite z0 > 0 with a finite q^2/z0
    # is in range, subnormal heights and q^2 included
    med = Medium(n)
    for q, z0 in ((1.0, 1e-100), (1.0, 1e100), (1.0, 1e-300), (1.0, 1e300),
                  (1e-160, 1e-300), (1e-160, 5e-324), (1.0, 1.7e308)):
        shift = second_order_shift(q, med, z0, SPEC)
        assert abs(shift.ratio - shift.expected_ratio) < 1e-4
        # the energies keep their ratio where q^2, q^2/z0 or 4 z0 leave the normal floats
        assert abs(shift.delta_e / shift.v_es - shift.expected_ratio) < 1e-4
        cnum = double_commutator_cnumber(q, med, z0, SPEC)
        assert cnum == pytest.approx(-shift.delta_e, rel=1e-12)


def test_gauge_invariance_sum():
    for n in (1.5, 2.0):
        med = Medium(n)
        total = gauge_invariance_sum(1.0, med, 1.0, SPEC)
        ves = image_potential_ves(1.0, med, 1.0)
        assert abs(total / ves - 1.0) < 1e-4
    # n = 2 closed value: V^es = -(1/4pi)(3/5)(1/4)
    total = gauge_invariance_sum(1.0, Medium(2.0), 1.0, SPEC)
    assert total == pytest.approx(-3.0 / (80.0 * math.pi), rel=1e-4)


def test_gauge_invariance_perfect_reflector_asymptote():
    total = gauge_invariance_sum(1.0, Medium(1e3), 1.0, SPEC)
    n2 = 1e6
    expected = -1.0 / (16.0 * math.pi) * (1.0 - 2.0 / (n2 + 1.0))
    assert total == pytest.approx(expected, rel=1e-4)


def test_double_commutator_is_minus_shift():
    assert double_commutator_cnumber(1.0, Medium(1.0), 1.0, SPEC) == 0.0
    for n in (1.5, 4.0):
        cnum = double_commutator_cnumber(1.0, Medium(n), 1.0, SPEC)
        shift = second_order_shift(1.0, Medium(n), 1.0, SPEC)
        assert cnum == pytest.approx(-shift.delta_e, rel=1e-6)
    cnum = double_commutator_cnumber(1.0, Medium(2.0), 1.0, SPEC)
    assert cnum == pytest.approx(3.0 / 8.0 * 3.0 / (80.0 * math.pi), rel=1e-4)


def test_charge_scaling():
    med = Medium(2.0)
    e1 = second_order_shift(1.0, med, 1.0, SPEC).delta_e
    e2 = second_order_shift(2.0, med, 1.0, SPEC).delta_e
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0, 200.0])
def test_shift_ratio_is_the_same_at_every_height(n):
    # the radial integral is closed, so z0 enters dE and V^es only as 1/z0:
    # no truncation floor and no abs_tol stop in the inner integrals, whose
    # values at |k_par| = 1 do not depend on z0
    med = Medium(n)
    ratios = [second_order_shift(1.0, med, z0, SPEC).ratio for z0 in (1e-100, 1e-11, 1.0, 1e100)]
    assert max(ratios) - min(ratios) <= 1e-14
    assert abs(ratios[2] - redistribution_factors(med)[0]) < 1e-13


@pytest.mark.parametrize("spec", [SPEC, TIGHT_CFG], ids=["default", "tight_cfg"])
@pytest.mark.parametrize("n", [1.00001, 1.0001, 1.0005, 1.001])
def test_near_vacuum_shift_meets_its_ratio(n, spec):
    # next to k_z = 0 the travelling body varies on the scale gamma =
    # sqrt(n^2-1)/n of its branch point at i gamma: a layout blind to it met
    # its tolerance far from the ratio (4.3e-6 relative at n = 1.00001,
    # 9.6e-12 at n = 1.001)
    shift = second_order_shift(1.0, Medium(n), 1.0, spec)
    assert abs(shift.ratio - shift.expected_ratio) <= 1e-12 * shift.expected_ratio


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("kap", [1e-3, 1.0, 50.0])
def test_travelling_left_part_on_the_vacuum_axis_matches_kzd_form(monkeypatch, n, kap):
    # the travelling left-incident modes integrated by dk_z at |k_par| = 1,
    # with the Jacobian n^2 k_z/k_zd, as g^2 continued onto the ray (the run's
    # ray row), against kap times int_{gamma_d}^inf dk_zd |g^L|^2 n^2/(kap^2 +
    # k_zd^2) at |k_par| = kap by scipy on the real k_zd axis: the k_zd form,
    # the continuation and the 1/kap scaling of the module docstring
    quad = pytest.importorskip("scipy.integrate").quad
    runs = []
    ray = energy.ray_integral

    def capture(*args, **kwargs):
        runs.append(ray(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(energy, "ray_integral", capture)
    med = Medium(n)
    _longitudinal(med, SPEC)
    (res,) = runs
    left = res.value[0, 0].real

    def kzd_form(kzd):
        tm = fresnel_coefficients(med, Polarization.TM, kap,
                                  *label_wavenumbers(med, Side.LEFT, kap, kzd))
        g = surface_charge_mode(med, Side.LEFT, tm)
        return abs(g) ** 2 * n * n / (kap * kap + kzd * kzd)

    gamma_d = kap * math.sqrt(n * n - 1.0)
    # the sqrt endpoint at gamma_d on a finite panel, then the tail
    near = quad(kzd_form, gamma_d, gamma_d + kap, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    tail = quad(kzd_form, gamma_d + kap, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert kap * (near + tail) == pytest.approx(left, rel=1e-10)


def test_each_energy_sum_integrates_one_halfline_and_one_cut_at_unit_kappa(monkeypatch):
    # the radial integral is closed: a shift or a c-number integrates L and R
    # once, at |k_par| = 1, in one ray_integral run, its ray mapped by
    # |k_z| = tan(v) (scale sqrt 2) and its cut at gamma_d = sqrt(n^2 - 1),
    # whatever the height
    calls = []
    ray = energy.ray_integral

    def counted(f, scale, spec, **kwargs):
        calls.append((scale, kwargs["gamma"]))
        return ray(f, scale, spec, **kwargs)

    monkeypatch.setattr(energy, "ray_integral", counted)
    for n in (1.5, 2.0, 4.0):
        expected = [(math.sqrt(2.0), math.sqrt(n * n - 1.0))]
        for z0 in (1e-100, 0.37, 1.0, 2.9, 1e100):
            for fn in (second_order_shift, double_commutator_cnumber):
                calls.clear()
                fn(1.0, Medium(n), z0, SPEC)
                assert calls == expected


def test_inner_integrals_converge_at_their_first_level(monkeypatch):
    # the ray's first panels graded from the nearer of the branch point
    # i gamma and the TM pole -1/n, the cut's from the poles a distance
    # asinh(1/gamma_d) from its ends: both stop at their initial panels in
    # one integrand call, so a singularity that forces bisection cannot come
    # back unseen
    calls = []
    ray = energy.ray_integral

    def counted(f, *args, **kwargs):
        def body(k, rays):
            calls.append((rays, k.shape[1] - rays))
            return f(k, rays)

        return ray(body, *args, **kwargs)

    monkeypatch.setattr(energy, "ray_integral", counted)
    for n in (1.5, 2.0, 4.0):
        calls.clear()
        shift = second_order_shift(1.0, Medium(n), 1.0, SPEC)
        assert abs(shift.ratio - shift.expected_ratio) < 1e-9
        assert len(calls) == 1 and all(calls[0])
