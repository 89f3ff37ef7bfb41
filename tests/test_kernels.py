import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from halfspace_qed.config import DEFAULT_TOLERANCES
from halfspace_qed.fresnel import fresnel_coefficients
from halfspace_qed.greens import (
    GreenVariant,
    PointPair,
    grad_grad_green_tensor,
    image_grad_grad_tensor,
)
from halfspace_qed import kernels, modes, spectral
from halfspace_qed.kernels import (
    KernelKind,
    _free_profile,
    _gauge_difference_profile,
    _reflected_profile,
    _transmitted_profile,
    assemble_kernel,
    assemble_kernel_result,
    curl_annihilation_residual,
    gauge_difference_closed_form,
    kernel_closed_form,
    kz_profile,
    kz_spectral_kernel,
    perfect_reflector_convergence,
    poisson_jump_residual,
    residue_closed_form,
    residue_profile,
)
from halfspace_qed.medium import Medium, Polarization, Side
from halfspace_qed.spectral import IntegralResult, QuadratureSpec
from halfspace_qed.verification import _PAIRS_LOWER, _point_pairs, _residue_points

SPEC = QuadratureSpec()
# one radial panel's worth of |k_par| values, from near 0 to deep in the damped tail
KAPPA_PANEL = np.geomspace(1e-3, 50.0, 15)


def pair(r, rp):
    return PointPair(np.array(r, dtype=float), np.array(rp, dtype=float))


def test_kz_kernel_matches_residue_form():
    med = Medium(2.0)
    for kpar, z, zp in [(1.3, 0.7, 0.4), (0.6, -0.8, 0.6)]:
        scale = max(
            abs(residue_closed_form(med, i, j, kpar, z, zp)) for i in range(3) for j in range(3)
        )
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]:
            quad = kz_spectral_kernel(med, Polarization.TM, i, j, kpar, z, zp, SPEC)
            closed = residue_closed_form(med, i, j, kpar, z, zp)
            assert abs(quad - closed) < 1e-6 * scale


def test_kz_kernel_te_suppressed():
    med = Medium(2.0)
    kpar, z, zp = 1.1, 0.5, 0.5
    scale = abs(residue_closed_form(med, 2, 2, kpar, z, zp))
    for i in range(3):
        for j in range(3):
            te = kz_spectral_kernel(med, Polarization.TE, i, j, kpar, z, zp, SPEC)
            assert abs(te) < 1e-8 * scale


def test_kz_kernel_free_space_zero():
    med = Medium(1.0)
    val = kz_spectral_kernel(med, Polarization.TM, 2, 2, 0.9, 0.6, 0.4, SPEC)
    assert abs(val) < 1e-12
    assert residue_closed_form(med, 2, 2, 0.9, 0.6, 0.4) == 0.0


def test_kz_kernel_rejects_source_inside():
    with pytest.raises(ValueError):
        kz_spectral_kernel(Medium(2.0), Polarization.TM, 0, 0, 1.0, 0.5, -0.5, SPEC)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kz_kernel_and_residue_reject_non_finite_heights(bad):
    med = Medium(2.0)
    for z, zp, name in ((bad, 0.5, "z must"), (0.5, bad, "z' must")):
        with pytest.raises(ValueError, match=name):
            kz_spectral_kernel(med, Polarization.TM, 0, 0, 1.0, z, zp, SPEC)
        with pytest.raises(ValueError, match=name):
            residue_closed_form(med, 0, 0, 1.0, z, zp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_profiles_reject_bad_kappa_before_any_engine_call(bad, monkeypatch):
    def engine(*args):
        raise AssertionError("engine called")

    for name in ("halfline_oscillatory_integral", "ray_integral", "cut_segment_integral"):
        monkeypatch.setattr(kernels, name, engine)
    med = Medium(2.0)
    for z in (0.7, -0.3):
        with pytest.raises(ValueError, match="kpar_mag"):
            kz_profile(med, np.array([0.5, bad, 1.0]), z, 0.5, SPEC)
        with pytest.raises(ValueError, match="kpar_mag"):
            kz_spectral_kernel(med, Polarization.TM, 0, 0, bad, z, 0.5, SPEC)
        with pytest.raises(ValueError, match="kpar_mag"):
            residue_profile(med, bad, z, 0.5)


@pytest.mark.parametrize("i, j, name", [(5, 0, "i"), (0, 3, "j"), (-1, 0, "i"), (0, 1.0, "j")])
def test_kz_kernel_and_residue_reject_bad_tensor_indices(i, j, name):
    med = Medium(2.0)
    with pytest.raises(ValueError, match=f"{name} must"):
        kz_spectral_kernel(med, Polarization.TM, i, j, 1.0, 0.7, 0.5, SPEC)
    with pytest.raises(ValueError, match=f"{name} must"):
        residue_closed_form(med, i, j, 1.0, 0.7, 0.5)


def test_residue_form_assembles_to_reflected_green_tensor():
    # the radial Bessel assembly of the closed spectral profile reproduces
    # -grad grad' GR in every component (J0, J1 and J2 weights), and the
    # truncated kappa tail is inside the assembly's error estimate
    med = Medium(2.0)
    z, zp, rho = 0.8, 0.5, 0.7
    p = pair((rho, 0.0, z), (0.0, 0.0, zp))
    target = -grad_grad_green_tensor(med, GreenVariant.REFLECTED, p)

    def profile(kap):
        comps = np.array([residue_profile(med, float(k), z, zp) for k in kap])
        return IntegralResult(comps, 0.0, 0, np.zeros(kap.shape))

    res = kernels._radial_assemble(profile, rho, z + zp, SPEC)
    observed = np.max(np.abs(res.value - target))
    assert observed < 1e-6 * np.max(np.abs(target))
    assert observed <= res.error_estimate


def test_radial_assemble_lipschitz():
    # int_0^inf e^{-kappa a} J0(kappa rho) dkappa = 1/sqrt(a^2 + rho^2),
    # through the zz weight 2 pi kappa J0
    a, rho = 2.0, 1.5

    def profile(kap):
        comps = np.zeros(kap.shape + (5,), dtype=complex)
        comps[..., 3] = np.exp(-kap * a) / (2.0 * math.pi * kap)
        return IntegralResult(comps, 0.0, 0, np.zeros(kap.shape))

    res = kernels._radial_assemble(profile, rho, a, QuadratureSpec(damped_truncation_decades=13.0))
    observed = abs((2.0 * math.pi) ** 3 * res.value[2, 2] - 1.0 / math.hypot(a, rho))
    assert observed < 1e-10
    assert observed <= (2.0 * math.pi) ** 3 * res.error_estimate


def test_assembled_generalized_delta_both_regions():
    med = Medium(2.0)
    for p in (pair((0.4, -0.2, 0.8), (0.1, 0.3, 0.5)), pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))):
        res = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
        target = -grad_grad_green_tensor(med, GreenVariant.FULL, p)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(res.tensor - target)) < 1e-4 * scale
        # assembled kernels are real up to the quadrature error estimate
        assert np.max(np.abs(res.tensor.imag)) <= max(res.error_estimate, 1e-13 * scale)


def test_assembled_kernel_equal_heights_path():
    # z = z' sends the free-space part through the Bessel-oscillation route
    med = Medium(1.5)
    p = pair((0.6, 0.4, 0.7), (-0.2, 0.2, 0.7))
    kern = assemble_kernel(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    target = -grad_grad_green_tensor(med, GreenVariant.FULL, p)
    assert np.max(np.abs(kern - target)) < 1e-4 * np.max(np.abs(target))


@pytest.mark.parametrize("r, rp, calls", [
    ((1.0, 0.0, 0.01), (0.0, 0.0, 0.01), 13),
    ((2.0, 0.0, 0.1), (0.0, 0.0, 0.2), 12),
], ids=["z0.01_rho1", "z0.1_rho2"])
def test_near_interface_assembly_evaluates_only_the_half_periods_it_sums(r, rp, calls,
                                                                        monkeypatch):
    # |z| + z' this small sends the interface profile through the Bessel-
    # oscillation route.  Each profile call holds the 15 kappa of the next
    # half-period [m pi/rho, (m+1) pi/rho], so the inner-error and tail bounds,
    # taken over every kappa evaluated, count no kappa past the one where the
    # accelerated sum converged
    seen = []
    profile = kernels.kz_profile

    def counted(medium, kap, *args):
        seen.append(np.array(kap, dtype=float))
        return profile(medium, kap, *args)

    monkeypatch.setattr(kernels, "kz_profile", counted)
    med, p = Medium(2.0), pair(r, rp)
    res = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    half = math.pi / math.hypot(r[0] - rp[0], r[1] - rp[1])
    assert len(seen) == calls
    for m, kap in enumerate(seen):
        assert kap.size == 15
        assert (m * half < kap).all() and (kap < (m + 1) * half).all()
    target = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
    observed = np.max(np.abs(res.tensor - target))
    assert observed < 1e-6 * np.max(np.abs(target))
    assert observed <= res.error_estimate


def test_gauge_difference_profile_matches_residue_profile_pointwise():
    # at fixed k_par the surface-mode bilinear sum reproduces the reflected
    # residue profile exactly (not only after assembly), including complex
    # off-diagonal structure; the z < 0 branch follows by the profile's
    # z-dependence, so check both signs
    med = Medium(2.0)
    for kap, z, zp in [(1.3, 0.7, 0.4), (0.5, 1.1, 0.8), (0.9, -0.6, 0.5)]:
        prof = _gauge_difference_profile(med, kap, z, zp, SPEC)
        if z >= 0.0:
            target = residue_profile(med, kap, z, zp)
        else:
            al = med.image_strength
            pref = math.pi * al * kap * math.exp(kap * (z - zp))
            target = pref * np.array([1.0, -1j, -1j, -1.0, 0.0])
        scale = np.max(np.abs(target))
        assert np.max(np.abs(prof.value - target)) < 1e-8 * scale


def test_assembled_gauge_difference_matches_closed_form():
    med = Medium(2.0)
    for p in (pair((0.4, -0.2, 0.8), (0.1, 0.3, 0.5)), pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))):
        res = assemble_kernel_result(med, KernelKind.GAUGE_DIFFERENCE, p, SPEC)
        target = gauge_difference_closed_form(med, p)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(res.tensor - target)) < 1e-4 * scale
        assert np.max(np.abs(res.tensor.imag)) <= max(res.error_estimate, 1e-13 * scale)


def test_true_coulomb_reduces_to_free_transverse_kernel():
    p = pair((0.4, -0.2, 0.8), (0.1, 0.3, 0.5))
    results = {}
    for n in (1.5, 4.0):
        kern = assemble_kernel(Medium(n), KernelKind.TRUE_COULOMB, p, SPEC)
        target = -grad_grad_green_tensor(Medium(n), GreenVariant.FREE, p)
        assert np.max(np.abs(kern - target)) < 1e-4 * np.max(np.abs(target))
        results[n] = kern
    assert np.max(np.abs(results[1.5] - results[4.0])) < 1e-4 * np.max(np.abs(results[1.5]))


def test_transmitted_sum_rule():
    # transmitted tensor plus gauge-difference tensor equals the free tensor
    # (the prefactors 2/(n^2+1) and (n^2-1)/(n^2+1) sum to 1)
    med = Medium(2.0)
    p = pair((0.2, 0.6, -1.0), (-0.1, 0.0, 0.5))
    gen = assemble_kernel(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    gauge = assemble_kernel(med, KernelKind.GAUGE_DIFFERENCE, p, SPEC)
    free = -grad_grad_green_tensor(med, GreenVariant.FREE, p)
    assert np.max(np.abs(gen - gauge - free)) < 1e-4 * np.max(np.abs(free))


def test_gauge_difference_closed_form_branches():
    med = Medium(math.sqrt(3.0))  # alpha = 1/2
    assert np.allclose(gauge_difference_closed_form(Medium(1.0), pair((0.3, 0, 0.4), (0, 0, 0.8))), 0.0)
    p_up = pair((0.3, 0.0, 0.4), (0.0, 0.0, 0.8))
    up = gauge_difference_closed_form(med, p_up)
    assert_allclose(up, -grad_grad_green_tensor(med, GreenVariant.REFLECTED, p_up), rtol=1e-14)
    p_down = pair((0.3, 0.0, -0.4), (0.0, 0.0, 0.8))
    down = gauge_difference_closed_form(med, p_down)
    assert_allclose(down, 0.5 * grad_grad_green_tensor(med, GreenVariant.FREE, p_down), rtol=1e-14)


def test_rotation_invariance_about_z():
    med = Medium(2.0)
    p = pair((0.5, -0.3, 0.8), (0.1, 0.2, 0.5))
    kern = assemble_kernel(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    p_rot = PointPair(rot @ p.r, rot @ p.rprime)
    kern_rot = assemble_kernel(med, KernelKind.GENERALIZED_DELTA, p_rot, SPEC)
    assert np.max(np.abs(kern_rot - rot @ kern @ rot.T)) < 1e-7 * np.max(np.abs(kern))


def test_coincident_points_rejected():
    p = PointPair(np.array([0.1, 0.2, 0.5]), np.array([0.1, 0.2, 0.5]))
    with pytest.raises(ValueError):
        assemble_kernel(Medium(2.0), KernelKind.GENERALIZED_DELTA, p, SPEC)


def test_curl_annihilation():
    assert curl_annihilation_residual(Medium(1.0), pair((0.2, 0, 1.0), (0, 0, 1.2))) == 0.0
    resid = curl_annihilation_residual(Medium(2.0), pair((0.1, 0.05, 1.0), (0.0, 0.0, 1.2)))
    assert resid < 1e-6


def test_poisson_jump_identity():
    assert poisson_jump_residual(Medium(1.0), 1.0, 0.7, Side.RIGHT) == 0.0
    assert poisson_jump_residual(Medium(2.0), 1.0, 0.7, Side.RIGHT) < 1e-12
    assert poisson_jump_residual(Medium(2.0), 1.0, 1.9, Side.LEFT) < 1e-12
    assert poisson_jump_residual(Medium(1e4), 1.0, 0.7, Side.RIGHT) < 1e-12


def test_perfect_reflector_deviation_scaling():
    p = pair((0.3, 0.0, 0.7), (0.0, 0.2, 0.5))
    devs = perfect_reflector_convergence(p, [10.0, 30.0, 100.0], SPEC)
    assert devs[0] > devs[1] > devs[2]
    slope = np.polyfit(np.log([10.0, 30.0, 100.0]), np.log(devs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)
    # deviation magnitude is (1 - alpha(n)) = 2/(n^2+1) of the unit image term
    image_scale = np.max(np.abs(image_grad_grad_tensor(p, 1.0)))
    for n, dev in zip([10.0, 30.0, 100.0], devs):
        assert dev == pytest.approx(2.0 / (n * n + 1.0) * image_scale, rel=2e-2)
    # n = 1 deviation equals the full image-term magnitude
    pr = assemble_kernel(Medium(1.0), KernelKind.PERFECT_REFLECTOR, p, SPEC)
    free = -grad_grad_green_tensor(Medium(1.0), GreenVariant.FREE, p)
    dev_n1 = perfect_reflector_convergence(p, [1.0], SPEC)[0]
    assert dev_n1 == pytest.approx(np.max(np.abs(pr - free)), rel=1e-6)


def test_perfect_reflector_kernel_is_image_form():
    p = pair((0.3, 0.0, 0.7), (0.0, 0.2, 0.5))
    pr = assemble_kernel(Medium(2.0), KernelKind.PERFECT_REFLECTOR, p, SPEC)
    free = grad_grad_green_tensor(Medium(2.0), GreenVariant.FREE, p)
    # image term with unit strength: reflected tensor scaled by 1/alpha
    med = Medium(2.0)
    image = grad_grad_green_tensor(med, GreenVariant.REFLECTED, p) / med.image_strength
    assert_allclose(pr, -(free + image), rtol=1e-12)
    assert_allclose(image, image_grad_grad_tensor(p, 1.0), rtol=1e-12)


def test_kernel_closed_form_table():
    med = Medium(2.0)
    upper, lower = pair((0.3, 0.0, 0.7), (0.0, 0.2, 0.5)), pair((0.3, 0.0, -0.7), (0.0, 0.2, 0.5))
    for p in (upper, lower):
        assert_allclose(kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p),
                        -grad_grad_green_tensor(med, GreenVariant.FULL, p), rtol=1e-15)
        assert_allclose(kernel_closed_form(med, KernelKind.GAUGE_DIFFERENCE, p),
                        gauge_difference_closed_form(med, p), rtol=1e-15)
        assert_allclose(kernel_closed_form(med, KernelKind.TRUE_COULOMB, p),
                        -grad_grad_green_tensor(med, GreenVariant.FREE, p), rtol=1e-15)
    # the mirror form does not depend on n and exists only above the interface
    mirror = kernel_closed_form(Medium(1.0), KernelKind.PERFECT_REFLECTOR, upper)
    assert_allclose(kernel_closed_form(med, KernelKind.PERFECT_REFLECTOR, upper), mirror)
    with pytest.raises(ValueError, match="perfect-reflector"):
        kernel_closed_form(med, KernelKind.PERFECT_REFLECTOR, lower)
    with pytest.raises(ValueError, match="perfect-reflector"):
        assemble_kernel(med, KernelKind.PERFECT_REFLECTOR, lower, SPEC)


def test_kz_profile_dispatches_on_the_side_of_z():
    med = Medium(2.0)
    for z, build in ((0.7, _reflected_profile), (0.0, _reflected_profile),
                     (-0.3, _transmitted_profile)):
        assert np.array_equal(kz_profile(med, KAPPA_PANEL[:3], z, 0.5, SPEC).value,
                              build(med, KAPPA_PANEL[:3], z, 0.5, SPEC).value)
    with pytest.raises(ValueError, match="z' > 0"):
        kz_profile(med, 1.0, 0.7, 0.0, SPEC)


@pytest.mark.parametrize("r, rp, batches", [
    ((0.4, -0.2, 0.8), (0.1, 0.3, 0.5), [90]),
    ((2.0, 0.0, 0.1), (0.0, 0.0, 0.2), 12 * [15]),
], ids=["damped", "bessel_oscillation"])
def test_assembly_calls_the_profile_once_per_level(r, rp, batches, monkeypatch):
    # the damped branch's first level (the five decay panels, the last split
    # at the Bessel half-period: 6 panels, 90 kappa) converges in one call
    # where one call per 15-node radial panel would make 6; the Bessel-
    # oscillation branch takes one half-period (one panel) per call, none
    # of them bisected.
    seen = []
    profile = kernels.kz_profile

    def counted(medium, kap, *args):
        seen.append(np.size(kap))
        return profile(medium, kap, *args)

    monkeypatch.setattr(kernels, "kz_profile", counted)
    p = pair(r, rp)
    res = assemble_kernel_result(Medium(2.0), KernelKind.GENERALIZED_DELTA, p, SPEC)
    assert seen == batches
    target = kernel_closed_form(Medium(2.0), KernelKind.GENERALIZED_DELTA, p)
    assert np.max(np.abs(res.tensor - target)) <= res.error_estimate


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_batched_profiles_match_scalar_calls(n, z, zp):
    med = Medium(n)
    builders = [
        lambda k: _gauge_difference_profile(med, k, z, zp, SPEC),
        lambda k: _free_profile(k, z, zp),
    ]
    if z > 0.0:
        builders.append(lambda k: _reflected_profile(med, k, z, zp, SPEC))
    for build in builders:
        batch = build(KAPPA_PANEL)
        assert batch.value.shape == (len(KAPPA_PANEL), 5)
        singles = np.array([build(k).value for k in KAPPA_PANEL])
        assert singles.shape == batch.value.shape
        assert np.max(np.abs(batch.value - singles)) <= 1e-10 * np.max(np.abs(batch.value))


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_profile_entry_errors_bound_each_kappa(z, zp, n):
    # each kappa's error comes from its own half-line entries and the shared
    # cut, so it bounds that kappa's distance to the residue profile
    med = Medium(n)
    prof = kz_profile(med, KAPPA_PANEL, z, zp, SPEC)
    assert prof.entry_errors.shape == KAPPA_PANEL.shape
    assert prof.error_estimate == prof.entry_errors.max()
    assert prof.entry_errors.min() < prof.error_estimate
    for kap, row, err in zip(KAPPA_PANEL, prof.value, prof.entry_errors):
        target = residue_profile(med, float(kap), z, zp)
        assert np.max(np.abs(row[:4] - target[:4])) <= err
        assert abs(row[4]) <= err


def test_large_n_assembly_below_the_interface_converges():
    # at n = 40 below the interface the radial layer integrates the profiles
    # at their own tolerance; the observed errors of the ray integrals sit far
    # below their batch tolerance, so a profile is smooth in kappa and the
    # radial K15/G7 estimate does not chase per-kappa stopping noise to the
    # panel cap
    med = Medium(40.0)
    p = pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))
    res = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    target = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
    observed = np.max(np.abs(res.tensor - target))
    assert observed < 1e-6 * np.max(np.abs(target))
    assert observed <= res.error_estimate


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
def test_batched_transmitted_profile_within_error_estimates(n):
    # below the interface the travelling and evanescent parts cancel down to
    # the e^{-kappa (z' - z)} residue profile; in the tail a scalar call's own
    # error (up to ~1e-10 absolute) is above 1e-10 of the batch max-norm, so
    # each entry is held to the two error estimates and to the closed form
    med, z, zp = Medium(n), -0.3, 0.5
    batch = _transmitted_profile(med, KAPPA_PANEL, z, zp, SPEC)
    for kap, row in zip(KAPPA_PANEL, batch.value):
        single = _transmitted_profile(med, kap, z, zp, SPEC)
        assert np.max(np.abs(row - single.value)) <= batch.error_estimate + single.error_estimate
        target = residue_profile(med, float(kap), z, zp)
        assert np.max(np.abs(row[:4] - target[:4])) <= batch.error_estimate
        assert abs(row[4]) <= batch.error_estimate


def test_batched_profile_counts_every_kappa_evaluation(monkeypatch):
    # nodes_used counts integrand evaluations: the cut segment gets each node
    # once per kappa of the batch (t of shape (nodes, kappa)), the ray once
    # per panel, each panel a single kappa's (k of shape (nodes, panels))
    evaluations = []

    def counting(engine):
        def wrapped(f, *args, **kwargs):
            def g(x, *entries):
                evaluations.append(x.size)
                return f(x, *entries)
            return engine(g, *args, **kwargs)
        return wrapped

    for name in ("ray_integral", "cut_segment_integral"):
        monkeypatch.setattr(kernels, name, counting(getattr(kernels, name)))
    med = Medium(2.0)
    for build in (
        lambda k: _reflected_profile(med, k, 0.7, 0.4, SPEC),
        lambda k: _transmitted_profile(med, k, -0.3, 0.5, SPEC),
        lambda k: _gauge_difference_profile(med, k, 0.7, 0.4, SPEC),
    ):
        evaluations.clear()
        prof = build(KAPPA_PANEL)
        assert prof.nodes_used == sum(evaluations)
        evaluations.clear()
        assert build(KAPPA_PANEL[3]).nodes_used == sum(evaluations)


def _captured_bodies(monkeypatch) -> list:
    """Record (kappa, scale, travelling body, evanescent body) of every
    interface profile."""
    seen = []
    original = kernels._interface_profile

    def capture(medium, kap, scale, travelling, spec, evanescent=None):
        seen.append((kap, scale, travelling, evanescent))
        return original(medium, kap, scale, travelling, spec, evanescent)

    monkeypatch.setattr(kernels, "_interface_profile", capture)
    return seen


def _body(body, medium, kap, sign=1.0):
    """The travelling body at sign * k_z, under the ray's protocol f(k, entries)."""
    gap2 = (medium.n ** 2 - 1.0) * kap * kap

    def f(k, entries):
        kzd = np.sqrt(medium.n ** 2 * k * k + gap2[entries])
        return body(sign * k, sign * kzd, kap[entries], kap[entries] ** 2 + k * k)

    return f


def _halfline(f, kap, scale):
    """int_0^inf f(k, kappa entry) dk on the real axis (the Levin route), one
    call per kappa: the values and the errors."""
    runs = [spectral.halfline_oscillatory_integral(
        lambda k, entry=entry: f(k, np.full(k.shape, entry)), scale, SPEC)
        for entry in range(kap.size)]
    return np.array([r.value for r in runs]), np.array([r.error_estimate for r in runs])


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_negative_kz_half_axis_is_the_parity_mirror(n, z, zp, monkeypatch):
    # the reflected and transmitted bodies integrated on k_z < 0 give the
    # conjugate of their k_z > 0 integral with the odd dyads uz, zu flipped
    seen = _captured_bodies(monkeypatch)
    med = Medium(n)
    kz_profile(med, KAPPA_PANEL, z, zp, SPEC)
    (kap, scale, body, evanescent), = seen
    assert evanescent is None
    upper, _ = _halfline(_body(body, med, kap), kap, scale)
    lower, _ = _halfline(_body(body, med, kap, sign=-1.0), kap, scale)
    gap = np.max(np.abs(lower - kernels._PARITY * np.conj(upper)))
    assert gap <= 1e-15 * np.max(np.abs(upper))


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
def test_gauge_profile_body_is_its_right_and_left_modes(n, monkeypatch):
    # the one travelling body of the gauge-difference profile integrates on the
    # ray to its right- and left-incident modes integrated apart; each family
    # is the body with the other family's surface charge switched off
    seen = _captured_bodies(monkeypatch)
    med = Medium(n)
    _gauge_difference_profile(med, KAPPA_PANEL, 0.7, 0.4, SPEC)
    (kap, scale, body, evanescent), = seen
    assert evanescent is not None and scale == 0.4
    joint = spectral.ray_integral(_body(body, med, kap), scale, kap.size, SPEC)
    charge = kernels.surface_charge_mode
    apart = []
    for side in Side:
        monkeypatch.setattr(kernels, "surface_charge_mode",
                            lambda medium, s, *args, side=side:
                            charge(medium, s, *args) if s is side else 0.0)
        apart.append(spectral.ray_integral(_body(body, med, kap), scale, kap.size, SPEC))
    gap = np.max(np.abs(joint.value - apart[0].value - apart[1].value), axis=-1)
    assert np.all(gap <= joint.entry_errors + apart[0].entry_errors + apart[1].entry_errors)
    assert np.max(np.abs(apart[0].value)) > 0.0 and np.max(np.abs(apart[1].value)) > 0.0


def _gauge_real_axis_body(medium, zp):
    """The gauge-difference body [ju, jz] on the real k_z > 0 axis, written
    with both of its exponentials e^{+-i k_z z'}."""
    n = medium.n

    def body(k, kzd, kap, kmag2):
        kmag = np.sqrt(kmag2)
        tm = fresnel_coefficients(medium, Polarization.TM, kap, k, kzd)
        right = kernels.surface_charge_mode(medium, Side.RIGHT, kap, k, kzd) / kmag
        left = kernels.surface_charge_mode(medium, Side.LEFT, kap, kzd, k) * n * tm.tR / kmag
        ep, em = np.exp(1j * k * zp), np.exp(-1j * k * zp)
        ju = (k / kmag) * (right * (tm.rR * em - ep) + left * em)
        jz = (-kap / kmag) * (right * (ep + tm.rR * em) + left * em)
        return np.stack([ju, jz], axis=-1)

    return body


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("profile", ["reflected", "transmitted", "gauge_difference"])
def test_ray_route_matches_the_levin_real_axis(profile, n, monkeypatch):
    # with the cut switched off an interface profile is its travelling part:
    # the ray integral of the body, mirrored by parity (reflected,
    # transmitted) or with the Schwarz partners conjugated (gauge difference).
    # The same body integrated on the real axis by the Levin route, and the
    # gauge-difference body written with e^{-ik z'} itself, agree with it
    # within the summed estimates
    seen = _captured_bodies(monkeypatch)
    monkeypatch.setattr(kernels, "cut_segment_integral",
                        lambda f, gamma, spec, near=None: IntegralResult(0.0, 0.0, 0))
    med = Medium(n)
    z, zp = {"reflected": (0.7, 0.4), "transmitted": (-0.3, 0.5),
             "gauge_difference": (0.7, 0.4)}[profile]
    if profile == "gauge_difference":
        _gauge_difference_profile(med, KAPPA_PANEL, z, zp, SPEC)
    else:
        kz_profile(med, KAPPA_PANEL, z, zp, SPEC)
    (kap, scale, body, evanescent), = seen
    ray = kernels._interface_profile(med, kap, scale, body, SPEC, evanescent)
    if evanescent is None:
        upper, err = _halfline(_body(body, med, kap), kap, scale)
        levin, err = upper + kernels._PARITY * np.conj(upper), 2.0 * err
    else:
        levin, err = _halfline(_body(_gauge_real_axis_body(med, zp), med, kap), kap, scale)
    gap = np.max(np.abs(ray.value - levin), axis=-1)
    assert np.all(gap <= ray.entry_errors + err)
    assert np.max(np.abs(ray.value)) > 1e3 * np.max(ray.entry_errors + err)


def test_lone_kappa_rays_converge_after_one_level(monkeypatch):
    # the ray's first panels each hold about the same share of the
    # e^{(i-1)x} decay, so a lone-kappa profile at a verify residue point
    # converges after one refinement level: two integrand calls, at most four
    calls = []
    ray = kernels.ray_integral

    def counted(f, scale, entries, spec, near=None):
        def g(k, owner):
            calls[-1] += 1
            return f(k, owner)
        calls.append(0)
        return ray(g, scale, entries, spec, near=near)

    monkeypatch.setattr(kernels, "ray_integral", counted)
    rng = np.random.default_rng(42)  # the verify seed
    for n in (1.5, 2.0, 4.0):
        for kap, z, zp in _residue_points(rng, 51):
            kz_profile(Medium(n), kap, z, zp, SPEC)
    assert len(calls) == 153
    assert np.median(calls) == 2
    assert max(calls) <= 4


def test_damped_assemblies_converge_at_their_first_level(monkeypatch):
    # the first radial panels follow the e^{-kappa d} decay, split at the
    # Bessel half-period, so every damped radial integral of the verify pairs
    # converges on them: one profile call.  A coarser layout bisects, and its
    # next level is a second call.
    calls = []  # [profile calls, damped] per radial integral
    assemble, levin = kernels._radial_assemble, kernels.halfline_oscillatory_integral

    def counted(profile_fn, rho, damping, spec):
        record = [0, True]
        calls.append(record)

        def fn(kap):
            record[0] += 1
            return profile_fn(kap)
        return assemble(fn, rho, damping, spec)

    def undamped(*args):
        calls[-1][1] = False
        return levin(*args)

    monkeypatch.setattr(kernels, "_radial_assemble", counted)
    monkeypatch.setattr(kernels, "halfline_oscillatory_integral", undamped)
    for n in (1.5, 2.0, 4.0, 40.0):
        for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                     KernelKind.TRUE_COULOMB):
            for p in _point_pairs():
                assemble_kernel_result(Medium(n), kind, p, SPEC)
    assert [count for count, damped in calls if damped] == [1] * 152


@pytest.mark.parametrize("z, zp, kap", [(-0.6, 0.5, 50.0), (-1.0, 1.0, 23.0), (-1.0, 1.0, 50.0)])
def test_large_n_transmitted_profile_converges_deep_in_kappa(z, zp, kap):
    # at n = 40 the transmitted phase n|z| sqrt(k_z^2 + kappa^2) chirps for
    # kappa >> k_z; a real-axis partition at pi/(n|z| + z') never reached its
    # linear regime there and raised after 48 half-periods
    med = Medium(40.0)
    prof = kz_profile(med, kap, z, zp, SPEC)
    assert np.max(np.abs(prof.value - residue_profile(med, kap, z, zp))) <= prof.error_estimate


def test_thin_margin_gauge_difference_pair_within_its_estimate():
    # the thinnest estimate/observed margin of a random sweep of assemblies
    # (rho ~ 0.05 below the interface); it read 1.37 once
    med = Medium(2.179)
    p = pair((-0.369, -0.367, -0.811), (-0.369, -0.419, 0.262))
    res = assemble_kernel_result(med, KernelKind.GAUGE_DIFFERENCE, p, SPEC)
    observed = np.max(np.abs(res.tensor - kernel_closed_form(med, KernelKind.GAUGE_DIFFERENCE, p)))
    assert observed <= res.error_estimate


def test_profiles_never_call_the_levin_halfline(monkeypatch):
    # every k_z profile integrates its travelling body on the damped ray
    def refuse(*args, **kwargs):
        raise AssertionError("Levin half-line called")

    monkeypatch.setattr(kernels, "halfline_oscillatory_integral", refuse)
    monkeypatch.setattr(spectral, "halfline_oscillatory_integral", refuse)
    monkeypatch.setattr(spectral, "_levin_halfline", refuse)
    med = Medium(2.0)
    for kap, z, zp in [(1.3, 0.7, 0.4), (0.6, -0.8, 0.6)]:
        prof = kz_profile(med, kap, z, zp, SPEC)
        assert np.max(np.abs(prof.value - residue_profile(med, kap, z, zp))) <= prof.error_estimate
    prof = _gauge_difference_profile(med, KAPPA_PANEL, 0.7, 0.4, SPEC)
    assert prof.value.shape == (len(KAPPA_PANEL), 5)
    p = pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE):
        res = assemble_kernel_result(med, kind, p, SPEC)
        assert np.max(np.abs(res.tensor - kernel_closed_form(med, kind, p))) <= res.error_estimate


@pytest.mark.parametrize("kind", [KernelKind.GENERALIZED_DELTA, KernelKind.TRUE_COULOMB])
@pytest.mark.parametrize("r, rp", _PAIRS_LOWER, ids=[f"lower{i}" for i in range(4)])
def test_large_n_lower_pair_meets_its_closed_form(r, rp, kind):
    # at n = 40 on every lower verify pair; on (0.2, 0.6, -1)/(-0.1, 0, 0.5),
    # per-kappa stopping noise of the transmitted profiles at the 1e-11 level
    # once drove the radial layer to its panel cap
    med = Medium(40.0)
    p = pair(r, rp)
    res = assemble_kernel_result(med, kind, p, SPEC)
    target = kernel_closed_form(med, kind, p)
    observed = np.max(np.abs(res.tensor - target))
    assert observed <= DEFAULT_TOLERANCES["tol.kernels.assembly"] * np.max(np.abs(target))
    assert observed <= res.error_estimate


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.6, 0.4)])
def test_cut_is_the_travelling_body_jump(n, z, zp, monkeypatch):
    # on the cut k_z = i t the reflected and transmitted profiles integrate
    # -i [f(it, kzd) - f(it, -kzd)] of their travelling body; its TE dyad is
    # the closed jump 2 Im rR e^{-t s} above the interface and
    # i tR* e^{-t z'} (e^{i kzd z} + rL e^{-i kzd z}) below it, up to the
    # branch point Gamma where kzd = 0
    seen = []
    cut = kernels.cut_segment_integral

    def capture(f, gamma, spec, near=None):
        seen.append((f, gamma))
        return cut(f, gamma, spec, near=near)

    monkeypatch.setattr(kernels, "cut_segment_integral", capture)
    med, kappa = Medium(n), np.array([0.3, 1.3, 7.0])
    kz_profile(med, kappa, z, zp, SPEC)
    (segment, gamma), = seen
    frac = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    t = np.multiply.outer(frac, gamma)
    vv = segment(t)[..., 4]
    for ti, kap, value in zip(t.ravel(), np.tile(kappa, len(frac)), vv.ravel()):
        te = fresnel_coefficients(med, Polarization.TE, float(kap), 1j * ti)
        if z >= 0.0:
            target = 2.0 * te.rR.imag * math.exp(-ti * (z + zp))
        else:
            target = (1j * np.conj(te.tR) * math.exp(-ti * zp)
                      * (np.exp(1j * te.kzd * z) + te.rL * np.exp(-1j * te.kzd * z)))
        assert abs(value - target) <= 1e-10 * abs(target)


# ---------------------------------------------------------------------------
# the first panels graded from each profile's near-singularity scales
# ---------------------------------------------------------------------------

RAY_X = np.array([0.0, 0.3, 0.9, 2.0, 4.0, 8.0, 16.0, np.inf])


def _entry_breaks(near, scale):
    """Each entry's first ray breaks in v, as ray_integral lays them out."""
    lo, hi, owner = spectral._ray_panels(np.asarray(near, dtype=float), scale)
    assert np.array_equal(owner, np.sort(owner))
    rows = []
    for entry in range(len(near)):
        mine = owner == entry
        assert np.array_equal(hi[mine][:-1], lo[mine][1:])  # panels tile the ray
        rows.append(np.append(lo[mine], hi[mine][-1]))
    return rows


def test_ray_layout_is_graded_from_the_tm_pole():
    # kappa/n = 0.05 at s = 1: x_e = 0.05 sin(pi/4) = 0.0354, so the first
    # panel splits at x_e, 2 x_e, 4 x_e and 8 x_e = 0.283 below x = 0.3; a
    # scale at or past 0.3 keeps the old breaks, and kappa = 0 starts at
    # 0.3 / 2^16
    x_e = 0.05 * math.sin(0.25 * math.pi)
    graded, far, at_end, zero = _entry_breaks([0.05, 2.0, 0.3 / math.sin(0.25 * math.pi), 0.0],
                                              1.0)
    assert np.array_equal(graded, np.arctan(np.concatenate(
        [[0.0], x_e * np.array([1.0, 2.0, 4.0, 8.0]), RAY_X[1:]])))
    assert np.array_equal(far, spectral._RAY_BREAKS)
    assert np.array_equal(at_end, spectral._RAY_BREAKS)
    assert np.array_equal(zero, np.arctan(np.concatenate(
        [[0.0], 0.3 * 2.0 ** np.arange(-16, 0), RAY_X[1:]])))


def test_cut_layout_is_graded_from_the_tm_shoulder_and_the_te_pole():
    # at n = 40 the TM shoulder t = kappa/n sits at u_lo = asin(1/sqrt(1599))
    # = 0.0250 and the TE pole t = kappa at u_hi = acosh(40/sqrt(1599)) =
    # 0.0250 from pi/2: four graded breaks at each end (8 u < pi/8 < 16 u)
    n = 40.0
    u_lo, u_hi = math.asin(1.0 / math.sqrt(n * n - 1.0)), math.acosh(n / math.sqrt(n * n - 1.0))
    assert kernels._cut_scales(n) == (u_lo, u_hi)
    steps = np.array([1.0, 2.0, 4.0, 8.0])
    base = np.linspace(0.0, 0.5 * math.pi, 5)
    expected = np.concatenate([[0.0], u_lo * steps, base[1:-1], base[-1] - u_hi * steps[::-1],
                               [base[-1]]])
    assert np.array_equal(spectral._cut_breaks(kernels._cut_scales(n)), expected)
    # below n = 2.68 both scales are wider than pi/8: the four equal panels
    for n in (1.0, 1.01, math.sqrt(2.0), 2.0):
        assert np.array_equal(spectral._cut_breaks(kernels._cut_scales(n)), base)
    assert np.array_equal(spectral._cut_breaks(None), base)


def _doubling(start, end, inside):
    """The loop the graded layouts replace: start, 2 start, ... while
    ``inside``, at most _GRADED_MAX breaks, from end 2^-_GRADED_MAX at least."""
    x, out = max(start, end * 2.0 ** -spectral._GRADED_MAX), []
    while inside(x) and len(out) < spectral._GRADED_MAX:
        out.append(x)
        x *= 2.0
    return out


def _reference_layouts(near, s, n):
    ray = np.arctan([0.0] + _doubling(near * (s * math.sin(0.25 * math.pi)), 0.3,
                                      lambda x: x < 0.3) + list(RAY_X[1:]))
    low, high = kernels._cut_scales(n)
    end = math.pi / 8.0
    cut = ([0.0] + _doubling(low, end, lambda u: u < end) + [end, 2.0 * end, 3.0 * end]
           + [4.0 * end - d for d in _doubling(high, end, lambda d: 4.0 * end - d > 3.0 * end)][::-1]
           + [4.0 * end])
    return np.unique(ray), np.array(cut)


@settings(max_examples=200, deadline=None)
@given(kap=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]),
                     st.floats(0.0, 1e4, allow_subnormal=True)),
       n=st.one_of(st.sampled_from([1.0, 1.01, math.sqrt(2.0), 100.0]), st.floats(1.0, 100.0)),
       s=st.floats(1e-3, 1e3))
def test_graded_layouts_keep_the_old_breaks_and_stay_finite(kap, n, s):
    breaks, = _entry_breaks([kap / n], s)
    assert np.all(np.isfinite(breaks)) and np.all(np.diff(breaks) > 0.0)
    assert breaks[0] == 0.0 and breaks[-1] == 0.5 * math.pi
    assert np.all(np.isin(spectral._RAY_BREAKS, breaks))
    assert len(breaks) - 1 <= spectral._RAY_PANELS + spectral._GRADED_MAX
    cut = spectral._cut_breaks(kernels._cut_scales(n))
    base = np.linspace(0.0, 0.5 * math.pi, 5)
    assert np.all(np.isfinite(cut)) and np.all(np.diff(cut) > 0.0)
    assert cut[0] == 0.0 and cut[-1] == 0.5 * math.pi
    assert np.all(np.isin(base, cut))
    assert len(cut) - 1 <= 4 + 2 * spectral._GRADED_MAX
    if n <= math.sqrt(2.0):
        assert np.array_equal(cut, base)
    ray_loop, cut_loop = _reference_layouts(kap / n, s, n)
    assert np.array_equal(breaks, ray_loop)
    assert np.array_equal(cut, cut_loop)


def test_profiles_pass_their_near_singularity_scales(monkeypatch):
    # the ray gets kappa/n for each kappa, the cut the scales of n
    seen = []
    ray, cut = kernels.ray_integral, kernels.cut_segment_integral

    def ray_spy(f, scale, entries, spec, near=None):
        seen.append(("ray", near))
        return ray(f, scale, entries, spec, near=near)

    def cut_spy(f, gamma, spec, near=None):
        seen.append(("cut", near))
        return cut(f, gamma, spec, near=near)

    monkeypatch.setattr(kernels, "ray_integral", ray_spy)
    monkeypatch.setattr(kernels, "cut_segment_integral", cut_spy)
    med = Medium(40.0)
    for build in (lambda: kz_profile(med, KAPPA_PANEL, 0.7, 0.4, SPEC),
                  lambda: kz_profile(med, KAPPA_PANEL, -0.3, 0.5, SPEC),
                  lambda: _gauge_difference_profile(med, KAPPA_PANEL, 0.7, 0.4, SPEC)):
        seen.clear()
        build()
        (_, near_ray), (_, near_cut) = seen
        assert np.array_equal(near_ray, KAPPA_PANEL / 40.0)
        assert near_cut == kernels._cut_scales(40.0)


# the kernel-assembly benchmark items of seed 1: (kind, n, r, r')
_ASSEMBLY_SEED_1 = [
    (KernelKind.GENERALIZED_DELTA, 1.789411672255598, (0.363273208694115, 0.035949992214662926,
     0.7447583894582634), (-0.2539783026395787, -0.03755447608462009, 0.7447583894582634)),
    (KernelKind.GENERALIZED_DELTA, 47.89670684800342, (-0.3871849532543724, 0.07307781045750666,
     0.6139729425091325), (-0.2827132708938959, -0.2967889395549715, 0.8257728007553409)),
    (KernelKind.GAUGE_DIFFERENCE, 3.0705647628795205, (0.5849367114994716, -0.1688509101652481,
     0.8914678331400407), (0.16672890659358242, -0.22941134504794508, 0.8458700848415759)),
    (KernelKind.TRUE_COULOMB, 1.7286290088918899, (0.355564398335639, 0.025730028336893085,
     -0.6948836897477573), (-0.08091693664650787, 0.24275861713483587, 0.7837476956615708)),
]


def test_graded_rays_and_cuts_converge_in_few_levels(monkeypatch):
    # with the first panels graded from the near-singularity scales, every
    # ray of these assemblies finishes after at most two refinement levels
    # (three integrand calls) and the cut of the perfect-reflector pair
    # (n = 47.9) after at most one; fixed first panels took up to 11 and 6
    counts = []  # (engine, n, integrand calls)

    def counted(name, n):
        engine = getattr(kernels, name)

        def wrapped(f, *args, **kwargs):
            record = [name, n, 0]
            counts.append(record)

            def g(x, *rest):
                record[2] += 1
                return f(x, *rest)
            return engine(g, *args, **kwargs)
        return wrapped

    for kind, n, r, rp in _ASSEMBLY_SEED_1:
        with monkeypatch.context() as mp:
            for name in ("ray_integral", "cut_segment_integral"):
                mp.setattr(kernels, name, counted(name, n))
            p = pair(r, rp)
            res = assemble_kernel_result(Medium(n), kind, p, SPEC)
        target = kernel_closed_form(Medium(n), kind, p)
        assert np.max(np.abs(res.tensor - target)) <= res.error_estimate
    rays = [calls for name, _, calls in counts if name == "ray_integral"]
    assert len(rays) == 5 and max(rays) <= 3
    cuts = [calls for name, n, calls in counts if name == "cut_segment_integral" and n > 20.0]
    assert len(cuts) == 1 and cuts[0] <= 2


def test_gauge_bodies_evaluate_the_tm_fresnel_set_once(monkeypatch):
    # the travelling and the evanescent body of the gauge-difference profile
    # each take one TM Fresnel set per call and hand it to both surface charges
    seen = _captured_bodies(monkeypatch)
    med = Medium(2.0)
    _gauge_difference_profile(med, KAPPA_PANEL, 0.7, 0.4, SPEC)
    (kap, scale, travelling, evanescent), = seen
    calls = []
    original = fresnel_coefficients

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(kernels, "fresnel_coefficients", counting)
    monkeypatch.setattr(modes, "fresnel_coefficients", counting)
    k = np.array([[0.3 + 0.3j, 2.0 + 2.0j]])
    kzd = np.sqrt(4.0 * k * k + 3.0 * kap[:2] ** 2)
    travelling(k, kzd, kap[:2], kap[:2] ** 2 + k * k)
    assert calls == [Polarization.TM]
    calls.clear()
    t = 0.5 * kap[:2] * math.sqrt(3.0) / 2.0
    evanescent(t, np.sqrt(3.0 * kap[:2] ** 2 - 4.0 * t * t), kap[:2], kap[:2] ** 2 - t * t)
    assert calls == [Polarization.TM]


def test_curl_residual_rejects_a_bad_fd_step():
    p = pair((0.1, 0.05, 1.0), (0.0, 0.0, 1.2))
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="fd_step"):
            curl_annihilation_residual(Medium(2.0), p, fd_step=bad)


def test_poisson_jump_residual_rejects_non_finite_labels():
    med = Medium(2.0)
    with pytest.raises(ValueError, match="kpar_mag"):
        poisson_jump_residual(med, math.nan, 0.7, Side.RIGHT)
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="kz_or_kzd"):
            poisson_jump_residual(med, 1.0, bad, Side.RIGHT)
