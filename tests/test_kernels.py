import functools
import math
import os
import subprocess
import sys
from pathlib import Path

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
from halfspace_qed import kernels, modes, spectral, verification
from halfspace_qed.kernels import (
    KernelKind,
    _gauge_difference_profile,
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
from halfspace_qed.medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    evanescent_threshold,
    label_frequency,
    label_wavenumbers,
)
from halfspace_qed.spectral import QuadratureSpec
from halfspace_qed.verification import LOWER_PAIRS, UPPER_PAIRS, residue_points

SPEC = QuadratureSpec()
# 15 |k_par| values, from near 0 to deep in the damped tail, one a profile
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
    # a profile integrates one kappa: a bad scalar, and any array of kappa,
    # good or bad, is rejected by name before the engine runs
    def engine(*args, **kwargs):
        raise AssertionError("engine called")

    monkeypatch.setattr(kernels, "ray_integral", engine)
    med = Medium(2.0)
    for z in (0.7, -0.3):
        for profile in (kz_profile, _gauge_difference_profile):
            for kap in (bad, np.array([0.5, bad, 1.0]), np.array([0.5, 1.0]), [1.0]):
                with pytest.raises(ValueError, match="kpar_mag"):
                    profile(med, kap, z, 0.5, SPEC)
        with pytest.raises(ValueError, match="kpar_mag"):
            kz_spectral_kernel(med, Polarization.TM, 0, 0, bad, z, 0.5, SPEC)
        with pytest.raises(ValueError, match="kpar_mag"):
            residue_profile(med, bad, z, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e-101])
def test_scalar_and_array_kappa_are_rejected_in_the_same_words(bad):
    # every real scalar form of a bad kappa (a float, an np.float64, an
    # np.float32 where it holds the value, a 0-d array) reads one error; an
    # array of any values, or a value that is not real, reads one error of
    # its dtype and shape, its values unread
    def messages(kaps):
        seen = set()
        for kap in kaps:
            for check in (lambda k: kernels._check_point(k, 0.5, 0.4),
                          lambda k: kz_profile(Medium(2.0), k, 0.5, 0.4, SPEC),
                          lambda k: _gauge_difference_profile(Medium(2.0), k, 0.5, 0.4, SPEC)):
                with pytest.raises(ValueError, match="kpar_mag") as info:
                    check(kap)
                seen.add(str(info.value))
        return seen

    scalars = [bad, np.float64(bad), np.array(bad)] + ([np.float32(bad)] if bad != 1e-101 else [])
    assert messages(scalars) == {f"kpar_mag must be 0 or a finite value >= 1e-100, got {bad!r}"}
    assert messages([np.array([bad]), np.array([1.0]), [1.0]]) == {
        "kpar_mag must be one real value, got float64 of shape (1,)"}
    assert messages([1j, np.complex128(1.0), "1.0", np.array(True)]) == {
        f"kpar_mag must be one real value, got {dtype} of shape ()"
        for dtype in ("complex128", "<U3", "bool")}
    assert kernels._check_point(np.float32(0.5), 0.5, 0.4) == 0.5
    assert type(kernels._check_point(np.array(1.5), 0.5, 0.4)) is float


@pytest.mark.parametrize("profile", [kz_profile, _gauge_difference_profile],
                         ids=["kz_profile", "gauge_difference"])
@pytest.mark.parametrize("z", [0.5, -0.5])
def test_profiles_near_kappa_zero_integrate_or_fail_at_the_boundary(profile, z, monkeypatch):
    # kappa = 0 is every profile's limit, 0, with no engine run; a kappa > 0
    # below _KAPPA_MIN, whose ray's far nodes would square past the float
    # range, is rejected by name before any engine call
    med = Medium(2.0)
    ray = kernels.ray_integral
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "ray_integral", lambda *args, **kwargs: pytest.fail("engine called"))
        for zero in (0.0, np.float64(0.0), np.array(0.0)):
            res = profile(med, zero, z, 0.4, SPEC)
            assert np.array_equal(res.value, np.zeros(5))
            assert (res.error_estimate, res.nodes_used, res.entry_errors) == (0.0, 0, None)
        for kap in (5e-324, 1e-300, 1e-160):
            with pytest.raises(ValueError, match="kpar_mag"):
                profile(med, kap, z, 0.4, SPEC)
    assert kernels.ray_integral is ray
    # the least kappa accepted integrates, to about its limit
    least = profile(med, kernels._KAPPA_MIN, z, 0.4, SPEC)
    assert least.nodes_used > 0
    assert np.abs(least.value).max() <= 2.0 * math.pi * kernels._KAPPA_MIN + least.error_estimate


@pytest.mark.parametrize("spec", [QuadratureSpec(rel_tol=1.0), QuadratureSpec(abs_tol=1e308),
                                  QuadratureSpec(abs_tol=1e308, rel_tol=0.5)],
                         ids=["rel_tol=1", "abs_tol=1e308", "both"])
def test_loosest_specs_assemble_without_a_value_error(spec):
    # the loosest tolerances a spec accepts end every s contour at its first
    # level, still finite
    med = Medium(2.0)
    for p in (pair((0.6, 0.4, 0.7), (-0.2, 0.2, 0.7)), pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))):
        for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                     KernelKind.TRUE_COULOMB):
            assert np.isfinite(assemble_kernel_result(med, kind, p, spec).tensor).all()


@pytest.mark.parametrize("i, j, name", [(5, 0, "i"), (0, 3, "j"), (-1, 0, "i"), (0, 1.0, "j")])
def test_kz_kernel_and_residue_reject_bad_tensor_indices(i, j, name):
    med = Medium(2.0)
    with pytest.raises(ValueError, match=f"{name} must"):
        kz_spectral_kernel(med, Polarization.TM, i, j, 1.0, 0.7, 0.5, SPEC)
    with pytest.raises(ValueError, match=f"{name} must"):
        residue_closed_form(med, i, j, 1.0, 0.7, 0.5)


@pytest.mark.parametrize("i, j, name", [(True, False, "i"), (0, True, "j"), (False, 0, "i"),
                                        (np.bool_(True), 0, "i")])
def test_kz_kernel_and_residue_reject_bool_tensor_indices(i, j, name):
    # True and False are Integrals equal to 1 and 0: (True, False) once read
    # the (1, 0) entry, 0j, where a misspelt call deserves an error
    med = Medium(2.0)
    with pytest.raises(ValueError, match=f"^{name} must be a tensor index 0, 1 or 2, got "):
        kz_spectral_kernel(med, Polarization.TM, i, j, 1.0, 0.7, 0.5, SPEC)
    with pytest.raises(ValueError, match=f"^{name} must be a tensor index 0, 1 or 2, got "):
        residue_closed_form(med, i, j, 1.0, 0.7, 0.5)
    # numpy integers are tensor indices
    assert residue_closed_form(med, np.int64(0), np.int32(2), 1.0, 0.7, 0.5) == \
        residue_closed_form(med, 0, 2, 1.0, 0.7, 0.5)


def test_residue_form_assembles_to_reflected_green_tensor():
    # the closed kappa and azimuth weights of the residue profile
    # pi alpha kappa e^{-kappa (z + z')} [1, -i, i, 1, 0] reproduce -grad grad'
    # GR in every component (all four weights), at a = i (z + z')
    med = Medium(2.0)
    z, zp, rho = 0.8, 0.5, 0.7
    p = pair((rho, 0.0, z), (0.0, 0.0, zp))
    target = -grad_grad_green_tensor(med, GreenVariant.REFLECTED, p)
    dyads = math.pi * med.image_strength * np.array([1.0, -1j, 1j, 1.0, 0.0])
    xx, yy, zz, xz, zx = kernels._aligned(kernels._weights(1j * (z + zp), rho), *dyads)
    tensor = np.array([[xx, 0.0, xz], [0.0, yy, 0.0], [zx, 0.0, zz]]) / (2.0 * math.pi) ** 3
    assert np.max(np.abs(tensor - target)) < 1e-14 * np.max(np.abs(target))


def test_radial_assemble_lipschitz():
    # int_0^inf e^{-kappa a} J0(kappa rho) dkappa = 1/sqrt(a^2 + rho^2); two
    # a-derivatives give the zz weight W_1 at i a:
    # int_0^inf kappa^2 e^{-kappa a} 2 pi J0(kappa rho) dkappa
    #     = 2 pi (2 a^2 - rho^2)/(a^2 + rho^2)^{5/2}
    for a, rho in ((2.0, 1.5), (0.3, 0.0), (1e-3, 4.0), (7.0, 1e-9)):
        one = kernels._weights(1j * a + 0j, rho)[0]
        exact = 2.0 * math.pi * (2.0 * a * a - rho * rho) / (a * a + rho * rho) ** 2.5
        assert abs(one - exact) <= 1e-14 * abs(exact)


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
    # at z = z' the free part's weights are taken at a = 0, where w = i rho
    med = Medium(1.5)
    p = pair((0.6, 0.4, 0.7), (-0.2, 0.2, 0.7))
    kern = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC).tensor
    target = -grad_grad_green_tensor(med, GreenVariant.FULL, p)
    assert np.max(np.abs(kern - target)) < 1e-4 * np.max(np.abs(target))


@pytest.mark.parametrize("r, rp", [
    ((1.0, 0.0, 0.01), (0.0, 0.0, 0.01)),
    ((2.0, 0.0, 0.1), (0.0, 0.0, 0.2)),
], ids=["z0.01_rho1", "z0.1_rho2"])
def test_near_interface_pairs_meet_their_closed_forms(r, rp):
    # |z| + z' far below rho: the weights vary on the scale rho/(|z| + z')
    # along the ray, which the refinement follows
    med, p = Medium(2.0), pair(r, rp)
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE):
        res = assemble_kernel_result(med, kind, p, SPEC)
        target = kernel_closed_form(med, kind, p)
        observed = np.max(np.abs(res.tensor - target))
        assert observed < 1e-12 * np.max(np.abs(target))
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
        kern = assemble_kernel_result(Medium(n), KernelKind.TRUE_COULOMB, p, SPEC).tensor
        target = -grad_grad_green_tensor(Medium(n), GreenVariant.FREE, p)
        assert np.max(np.abs(kern - target)) < 1e-4 * np.max(np.abs(target))
        results[n] = kern
    assert np.max(np.abs(results[1.5] - results[4.0])) < 1e-4 * np.max(np.abs(results[1.5]))


def test_transmitted_sum_rule():
    # transmitted tensor plus gauge-difference tensor equals the free tensor
    # (the prefactors 2/(n^2+1) and (n^2-1)/(n^2+1) sum to 1)
    med = Medium(2.0)
    p = pair((0.2, 0.6, -1.0), (-0.1, 0.0, 0.5))
    gen = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC).tensor
    gauge = assemble_kernel_result(med, KernelKind.GAUGE_DIFFERENCE, p, SPEC).tensor
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
    kern = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC).tensor
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    p_rot = PointPair(rot @ p.r, rot @ p.rprime)
    kern_rot = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p_rot, SPEC).tensor
    assert np.max(np.abs(kern_rot - rot @ kern @ rot.T)) < 1e-7 * np.max(np.abs(kern))


def test_coincident_points_rejected():
    p = PointPair(np.array([0.1, 0.2, 0.5]), np.array([0.1, 0.2, 0.5]))
    with pytest.raises(ValueError):
        assemble_kernel_result(Medium(2.0), KernelKind.GENERALIZED_DELTA, p, SPEC).tensor


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
    pr = assemble_kernel_result(Medium(1.0), KernelKind.PERFECT_REFLECTOR, p, SPEC).tensor
    free = -grad_grad_green_tensor(Medium(1.0), GreenVariant.FREE, p)
    dev_n1 = perfect_reflector_convergence(p, [1.0], SPEC)[0]
    assert dev_n1 == pytest.approx(np.max(np.abs(pr - free)), rel=1e-6)


def test_perfect_reflector_kernel_is_image_form():
    p = pair((0.3, 0.0, 0.7), (0.0, 0.2, 0.5))
    pr = assemble_kernel_result(Medium(2.0), KernelKind.PERFECT_REFLECTOR, p, SPEC).tensor
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
        assemble_kernel_result(med, KernelKind.PERFECT_REFLECTOR, lower, SPEC).tensor


def _spelled_out_kz_body(med, kap, z, zp):
    """kz_profile's body at unit kappa with each dyad spelled out: the
    reflected body for z >= 0, the transmitted one below, times
    kappa e^{i a(s)} at the heights kappa z, kappa z' (kz_profile writes
    both as one)."""
    n = med.n
    height, depth = kap * zp, kap * z

    def body(s, kzd, kmag2):
        tm = fresnel_coefficients(med, Polarization.TM, 1.0, s, kzd)
        te = fresnel_coefficients(med, Polarization.TE, 1.0, s, kzd)
        if z >= 0.0:
            phase = kap * np.exp(1j * s * (depth + height))
            uu = tm.rR * (-s * s / kmag2) * phase
            uz = tm.rR * (-s / kmag2) * phase
            zu = tm.rR * (s / kmag2) * phase
            zz = tm.rR * (1.0 / kmag2) * phase
            return np.stack([uu, uz, zu, zz, te.rR * phase], axis=-1)
        phase = kap * np.exp(1j * (-kzd * depth + s * height))
        uu = tm.tR * (kzd * s / (n * kmag2)) * phase
        uz = tm.tR * (kzd / (n * kmag2)) * phase
        zu = tm.tR * (s / (n * kmag2)) * phase
        zz = tm.tR * (1.0 / (n * kmag2)) * phase
        return np.stack([uu, uz, zu, zz, te.tR * phase], axis=-1)

    return body


def _substitute_bodies(monkeypatch, body, jump=None):
    """Run every s contour on ``body`` (and ``jump``, where it has a cut body
    of its own) in place of its own bodies."""
    original = kernels._contour_part

    def run(medium, scale, spec, own_body, mirror, own_jump=None, **kwargs):
        return original(medium, scale, spec, body, mirror,
                        None if own_jump is None else jump, **kwargs)

    monkeypatch.setattr(kernels, "_contour_part", run)


def test_kz_profile_dispatches_on_the_side_of_z(monkeypatch):
    # kz_profile's one body forms ctm phase/scale once and multiplies each
    # dyad onto it: reassociated against the spelled-out bodies, it may move
    # the last bits only
    for n in (1.01, 2.0, 4.0, 40.0):
        med = Medium(n)
        for z in (0.7, 0.0, -0.3):
            for kap in KAPPA_PANEL[:3]:
                got = kz_profile(med, kap, z, 0.5, SPEC).value
                with monkeypatch.context() as mp:
                    _substitute_bodies(mp, _spelled_out_kz_body(med, kap, z, 0.5))
                    ref = kz_profile(med, kap, z, 0.5, SPEC).value
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="z' > 0"):
        kz_profile(Medium(2.0), 1.0, 0.7, 0.0, SPEC)


def _gauge_reference_bodies(med, kap, zp):
    """The gauge-difference bodies at unit kappa and the height kappa z'
    spelled out term by term: the travelling [ju, jz] of the e^{+ik z'}
    terms and of the partners of the e^{-ik z'} terms, and the evanescent
    left-incident [ju, jz] on the cut."""
    n = med.n
    height = kap * zp

    def travelling(s, kzd, kmag2):
        kmag = np.sqrt(kmag2)
        tm = fresnel_coefficients(med, Polarization.TM, 1.0, s, kzd)
        phase = np.exp(1j * height * s)
        right = modes.surface_charge_mode(med, Side.RIGHT, tm) / kmag
        left = modes.surface_charge_mode(med, Side.LEFT, tm) * n * tm.tR / kmag
        back = right * tm.rR + left
        return np.stack([-s * right * phase / kmag, -right * phase / kmag,
                         s * back * phase / kmag, -back * phase / kmag], axis=-1)

    def evanescent(t, kzd, kmag2):
        kmag = np.sqrt(kmag2)
        tm = fresnel_coefficients(med, Polarization.TM, 1.0, 1j * t, kzd)
        g = modes.surface_charge_mode(med, Side.LEFT, tm)
        coef = g * 1j * n * np.conj(tm.tR) / kmag * np.exp(-height * t)
        return np.stack([coef * (-1j * t / kmag), coef * (-1.0 / kmag)], axis=-1)

    return travelling, evanescent


@pytest.mark.parametrize("n", [1.01, 2.0, 4.0, 40.0])
@pytest.mark.parametrize("z", [0.7, -0.3])
def test_gauge_difference_bodies_match_their_spelled_out_reference(n, z, monkeypatch):
    # the gauge-difference bodies form e^{i kappa s z'}/|k|^2 (on the cut
    # i n tR* e^{-kappa t z'}/|k|^2) once and multiply each term onto it:
    # reassociated against the spelled-out bodies, the profile may move the
    # last bits only
    med, zp = Medium(n), 0.5
    for kap in KAPPA_PANEL[:3]:
        value = _gauge_difference_profile(med, kap, z, zp, SPEC).value
        with monkeypatch.context() as mp:
            _substitute_bodies(mp, *_gauge_reference_bodies(med, kap, zp))
            ref = _gauge_difference_profile(med, kap, z, zp, SPEC).value
        assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_batched_profiles_match_scalar_calls(n, z, zp):
    # a panel of kappa is profiled one kappa a run, so a sweep of the panel
    # in either order gives each kappa the same bits; the kernel of one
    # tensor entry reads its profile's entry, and the residue checks over the
    # panel report the worst error of the lone profiles
    med = Medium(n)
    sweeps = {}
    for name, build in (("gauge", lambda k: _gauge_difference_profile(med, k, z, zp, SPEC)),
                        ("kz", lambda k: kz_profile(med, k, z, zp, SPEC))):
        forward = np.array([build(k).value for k in KAPPA_PANEL])
        backward = np.array([build(k).value for k in KAPPA_PANEL[::-1]])[::-1]
        assert forward.shape == (len(KAPPA_PANEL), 5)
        assert np.array_equal(forward, backward)
        sweeps[name] = forward
    errors = []
    for kap, row in zip(KAPPA_PANEL, sweeps["kz"]):
        for pol, i, j, dyad in ((Polarization.TM, 2, 0, 2), (Polarization.TE, 1, 1, 4)):
            assert kz_spectral_kernel(med, pol, i, j, kap, z, zp, SPEC) == complex(row[dyad])
        target = residue_profile(med, float(kap), z, zp)
        scale = float(np.max(np.abs(target[:4])))
        errors.append(float(np.max(np.abs(row[:4] - target[:4]))) / scale)
    points = [(float(kap), z, zp) for kap in KAPPA_PANEL]
    residue, _ = verification.kz_residue_checks(med, points, SPEC)
    assert residue.check_name == "kz_integral_vs_residue" and residue.lhs == max(errors)


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_profile_entry_errors_bound_each_kappa(z, zp, n, monkeypatch):
    # each kappa's profile is one engine run; its error, 2 ray + cut from the
    # run's entry errors, bounds its distance to the residue profile, and its
    # nodes are the run's
    runs = []
    ray = kernels.ray_integral

    def capture(*args, **kwargs):
        runs.append(ray(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(kernels, "ray_integral", capture)
    med = Medium(n)
    errors = []
    for kap in KAPPA_PANEL:
        runs.clear()
        prof = kz_profile(med, kap, z, zp, SPEC)
        (run,) = runs
        ray_err, cut_err = run.entry_errors
        assert prof.value.shape == (5,) and prof.entry_errors is None
        assert prof.error_estimate == 2.0 * ray_err + cut_err
        assert prof.nodes_used == run.nodes_used
        target = residue_profile(med, float(kap), z, zp)
        assert np.max(np.abs(prof.value[:4] - target[:4])) <= prof.error_estimate
        assert abs(prof.value[4]) <= prof.error_estimate
        errors.append(prof.error_estimate)
    assert min(errors) < max(errors)


def test_large_n_assembly_below_the_interface_converges():
    # at n = 40 below the interface the transmitted phase a(s) = k_zd |z| + s z'
    # grows like n |z| s along the ray, and the s contour follows it
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
    # the e^{-kappa (z' - z)} residue profile; across the kappa panel, one
    # kappa a run, every float form of a kappa gives the same bits, within
    # its error estimate of the closed form
    med, z, zp = Medium(n), -0.3, 0.5
    for kap in KAPPA_PANEL:
        prof = kz_profile(med, kap, z, zp, SPEC)
        for same in (float(kap), np.array(kap)):
            assert np.array_equal(kz_profile(med, same, z, zp, SPEC).value, prof.value)
        target = residue_profile(med, float(kap), z, zp)
        assert np.max(np.abs(prof.value[:4] - target[:4])) <= prof.error_estimate
        assert abs(prof.value[4]) <= prof.error_estimate


def _counting_run(monkeypatch, record):
    """Wrap the profile's one engine run so that each call of its body, one
    per refinement level, calls ``record(rays, cuts)`` with the nodes of its
    ray columns and of its cut columns."""
    ray = kernels.ray_integral

    def run(f, *args, **kwargs):
        def g(k, rays):
            record(k.shape[0] * rays, k.shape[0] * (k.shape[1] - rays))
            return f(k, rays)
        return ray(g, *args, **kwargs)

    monkeypatch.setattr(kernels, "ray_integral", run)


def test_batched_profile_counts_every_kappa_evaluation(monkeypatch):
    # nodes_used counts integrand evaluations: across a kappa panel each
    # profile's one engine run gets each node of its ray and cut panels once
    # (k of shape (nodes, panels), the cut columns k = i t), and the sweep's
    # nodes are every evaluation its runs made
    evaluations = {"ray": [], "cut": []}

    def record(rays, cuts):
        evaluations["ray"].append(rays)
        evaluations["cut"].append(cuts)

    _counting_run(monkeypatch, record)
    med = Medium(2.0)
    for build in (
        lambda k: kz_profile(med, k, 0.7, 0.4, SPEC),
        lambda k: kz_profile(med, k, -0.3, 0.5, SPEC),
        lambda k: _gauge_difference_profile(med, k, 0.7, 0.4, SPEC),
    ):
        for seen in evaluations.values():
            seen.clear()
        sweep = 0
        for kap in KAPPA_PANEL:
            before = sum(map(sum, evaluations.values()))
            prof = build(kap)
            assert all(map(sum, evaluations.values()))
            assert prof.nodes_used == sum(map(sum, evaluations.values())) - before
            sweep += prof.nodes_used
        assert sweep == sum(map(sum, evaluations.values()))


def _captured_parts(monkeypatch) -> list:
    """Record (map scale, body, mirror, cut body) of every s contour."""
    seen = []
    original = kernels._contour_part

    def capture(medium, scale, spec, body, mirror, jump=None, **kwargs):
        seen.append((scale, body, mirror, jump))
        return original(medium, scale, spec, body, mirror, jump, **kwargs)

    monkeypatch.setattr(kernels, "_contour_part", capture)
    return seen


def _body(body, medium, sign=1.0):
    """A unit-kappa body at sign * s, under the ray's protocol f(k, rays)."""
    n = medium.n

    def f(k, rays):
        kzd = np.sqrt(n * n * k * k + (n * n - 1.0))
        return body(sign * k, sign * kzd, 1.0 + k * k)

    return f


_AXIS_END = 40.0  # K s: where the real-axis route leaves the axis


def _panels(f, breakpoints):
    """int f over the panels of ``breakpoints`` by the engine's level rule
    alone (spectral._refine over spectral._gauss_kronrod), one call f(x) a
    level."""
    lo, hi = np.asarray(breakpoints[:-1], float), np.asarray(breakpoints[1:], float)
    total, error, nodes, capped = spectral._refine(
        functools.partial(spectral._gauss_kronrod, lambda x, owner: f(x)), lo, hi,
        np.zeros(len(lo), dtype=int), SPEC)
    assert not capped[0]
    return spectral.IntegralResult(total[0], float(error[0]), nodes)


def _real_axis(f, scale):
    """int_0^K f(k, rays) dk on the real axis, K = _AXIS_END/scale, by panels:
    the value and the error."""
    res = _panels(lambda k: f(k, k.shape[1]), np.linspace(0.0, _AXIS_END / scale, 41))
    return res.value, res.error_estimate


def _tail(f, scale):
    """int_K^inf f(k, rays) dk of a body in e^{+ik s} along the ray
    k = K + u e^{i pi/4}, where it decays: the value and the error."""
    res = spectral.ray_integral(lambda k, rays: f(_AXIS_END / scale + k, rays), scale, SPEC)
    return res.value[0], res.entry_errors[0]


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
def test_negative_kz_half_axis_is_the_parity_mirror(n, z, zp, monkeypatch):
    # the reflected and transmitted bodies on k_z < 0 are the conjugate of
    # their values on k_z > 0 with the odd dyads uz, zu flipped, node by
    # node, so their k_z < 0 integral is the parity conjugate as well
    seen = _captured_parts(monkeypatch)
    med = Medium(n)
    for kappa in KAPPA_PANEL:
        seen.clear()
        kz_profile(med, kappa, z, zp, SPEC)
        (scale, body, mirror, jump), = seen
        assert jump is None and np.array_equal(mirror, kernels._PARITY)
        k = (np.geomspace(1e-6, 1e3, 400) / scale)[:, None]
        upper = _body(body, med)(k, 1)
        lower = _body(body, med, sign=-1.0)(k, 1)
        gap = np.max(np.abs(lower - kernels._PARITY * np.conj(upper)))
        assert gap <= 1e-15 * np.max(np.abs(upper))


@pytest.mark.parametrize("n", [1.2, 2.0, 40.0])
def test_gauge_profile_body_is_its_right_and_left_modes(n, monkeypatch):
    # the one travelling body of the gauge-difference profile integrates on the
    # ray to its right- and left-incident modes integrated apart; each family
    # is the body with the other family's surface charge switched off
    seen = _captured_parts(monkeypatch)
    med = Medium(n)
    charge = kernels.surface_charge_mode
    for kappa in KAPPA_PANEL:
        seen.clear()
        _gauge_difference_profile(med, kappa, 0.7, 0.4, SPEC)
        (scale, body, mirror, jump), = seen
        assert jump is not None and mirror == 1.0 and scale == kappa * 0.4
        joint = spectral.ray_integral(_body(body, med), scale, SPEC)
        apart = []
        for side in Side:
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "surface_charge_mode",
                           lambda medium, s, *args, side=side:
                           charge(medium, s, *args) if s is side else 0.0)
                apart.append(spectral.ray_integral(_body(body, med), scale, SPEC))
        gap = np.max(np.abs(joint.value - apart[0].value - apart[1].value))
        assert gap <= joint.error_estimate + apart[0].error_estimate + apart[1].error_estimate
        assert np.max(np.abs(apart[0].value)) > 0.0 and np.max(np.abs(apart[1].value)) > 0.0


def _gauge_real_axis_body(medium, kap, zp, part="both"):
    """The gauge-difference body [ju, jz] at unit kappa on the real s > 0
    axis, written with both of its exponentials e^{+-i kappa s z'}: its
    terms in e^{+ik z'} alone for part "ep", the Schwarz partners of its
    terms in e^{-ik z'} alone (e^{+ik z'} in place of e^{-ik z'}) for
    "partner"."""
    n = medium.n

    def body(s, kzd, kmag2):
        kmag = np.sqrt(kmag2)
        tm = fresnel_coefficients(medium, Polarization.TM, 1.0, s, kzd)
        right = kernels.surface_charge_mode(medium, Side.RIGHT, tm) / kmag
        left = kernels.surface_charge_mode(medium, Side.LEFT, tm) * n * tm.tR / kmag
        ep = np.exp(1j * kap * s * zp)
        if part == "both":
            em = np.exp(-1j * kap * s * zp)
        else:  # on the ray past K, where e^{-ik z'} grows
            ep, em = (ep, 0.0) if part == "ep" else (0.0, ep)
        ju = (s / kmag) * (right * (tm.rR * em - ep) + left * em)
        jz = (-1.0 / kmag) * (right * (ep + tm.rR * em) + left * em)
        return np.stack([ju, jz], axis=-1)

    return body


def _whole_cut(f, n):
    """int_0^gamma f(t, kzd, |k|^2) dt over the whole cut s = i t of a
    unit-kappa body, kzd >= 0, by panels on t = gamma sin(u): the value and
    the error."""
    gamma = math.sqrt(n * n - 1.0) / n

    def on_u(u):
        t = gamma * np.sin(u)
        kzd = np.sqrt(np.maximum(n * n - 1.0 - n * n * t * t, 0.0))
        return f(t, kzd, 1.0 - t * t) * (gamma * np.cos(u))[..., None]

    res = _panels(on_u, np.linspace(0.0, 0.5 * math.pi, 9))
    return res.value, res.error_estimate


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("profile", ["reflected", "transmitted", "gauge_difference"])
def test_ray_route_matches_the_levin_real_axis(profile, n):
    # a whole interface profile, its s contour from i gamma/2, equals its
    # spelled-out body integrated by an independent route: along the real
    # s axis (panels up to K, then the ray from K on), mirrored by parity
    # (reflected, transmitted) or, for the gauge difference, written with
    # e^{-ik z'} itself (whose e^{-ik z'} tail past K lies on the conjugate
    # ray, the conjugate of its partner's), plus the cut over all of
    # (0, gamma): the body's jump across it, or the evanescent modes.  The
    # two agree within the summed estimates at every kappa of the panel, and
    # the profile stands far above them up to kappa (|z| + z') of about 5
    med = Medium(n)
    z, zp = {"reflected": (0.7, 0.4), "transmitted": (-0.3, 0.5),
             "gauge_difference": (0.7, 0.4)}[profile]
    resolved = []
    for kappa in KAPPA_PANEL:
        if profile == "gauge_difference":
            prof = _gauge_difference_profile(med, kappa, z, zp, SPEC)
            _, evanescent = _gauge_reference_bodies(med, kappa, zp)
            scale = kappa * zp
            axis, axis_err = _real_axis(_body(_gauge_real_axis_body(med, kappa, zp), med), scale)
            up, up_err = _tail(_body(_gauge_real_axis_body(med, kappa, zp, "ep"), med), scale)
            down, down_err = _tail(_body(_gauge_real_axis_body(med, kappa, zp, "partner"), med),
                                   scale)
            cut, cut_err = _whole_cut(evanescent, n)
            ju, jz = axis + up + np.conj(down) + cut
            front = 1j * kappa * (2.0 * math.pi) ** 1.5 * math.exp(-kappa * abs(z))
            real = front * np.array([ju, jz, 1j * ju, 1j * jz, 0.0])
            err = abs(front) * (axis_err + up_err + down_err + cut_err)
        else:
            prof = kz_profile(med, kappa, z, zp, SPEC)
            body = _spelled_out_kz_body(med, kappa, z, zp)
            scale = kappa * (z + zp if z >= 0.0 else n * abs(z) + zp)
            f = _body(body, med)
            (axis, axis_err), (tail, tail_err) = _real_axis(f, scale), _tail(f, scale)
            upper = axis + tail
            cut, cut_err = _whole_cut(
                lambda t, kzd, kmag2: -1j * (body(1j * t, kzd, kmag2) - body(1j * t, -kzd, kmag2)),
                n)
            real = upper + kernels._PARITY * np.conj(upper) + cut
            err = 2.0 * (axis_err + tail_err) + cut_err
        assert np.max(np.abs(prof.value - real)) <= prof.error_estimate + err
        resolved.append(np.max(np.abs(prof.value)) > 1e3 * (prof.error_estimate + err))
    assert all(resolved[:12])


def _lone_residue_runs(monkeypatch, **overrides) -> np.ndarray:
    """(calls with ray columns, calls with cut columns, integrand calls) of
    the one engine run of each lone-kappa profile at the 153 verify residue
    points, with ``overrides`` passed to the run."""
    runs = []

    def record(rays, cuts):
        runs[-1] += np.array([rays > 0, cuts > 0, 1])

    _counting_run(monkeypatch, record)
    counting = kernels.ray_integral

    def run(*args, **kwargs):
        runs.append(np.zeros(3, dtype=int))
        return counting(*args, **{**kwargs, **overrides})

    monkeypatch.setattr(kernels, "ray_integral", run)
    rng = np.random.default_rng(42)  # the verify seed
    for n in (1.5, 2.0, 4.0):
        for kap, z, zp in residue_points(rng, 51):
            kz_profile(Medium(n), kap, z, zp, SPEC)
    return np.array(runs)


def test_lone_kappa_rays_converge_after_one_level(monkeypatch):
    # the ray's first panels _RAY_BREAKS each hold about the same share of the
    # e^{(i-1)x} decay, so on them a lone-kappa profile at a verify residue
    # point converges after one refinement level: two levels with ray
    # columns, at most four
    calls = _lone_residue_runs(monkeypatch, flat=False)[:, 0]
    assert len(calls) == 153
    assert np.median(calls) == 2
    assert max(calls) <= 4


def test_mirrored_lone_kappa_profiles_converge_at_their_first_level(monkeypatch):
    # the reflected and transmitted bodies start on _RAY_BREAKS_FLAT, which
    # holds the panels the first level split on _RAY_BREAKS, and their cut,
    # on its own panels in the same run, on end panels halved next to the TM
    # shoulder and the TE pole, the ones its second level split: every
    # lone-kappa ray and cut at a verify residue point converges on them, so
    # each profile is one integrand call, on the ray and the cut alike
    calls = _lone_residue_runs(monkeypatch)
    assert len(calls) == 153
    assert np.all(calls == 1)


def test_damped_assemblies_converge_at_their_first_level(monkeypatch):
    # along the s contour Im a(s) > 0 damps every weight like |s|^-3, and the
    # first ray panels (the finer layout) follow that decay: of the 288
    # interface parts of the verify assemblies, 270 rays and 264 cuts
    # converge on their first panels, one level each, and none takes more
    # than two levels with ray columns, three with cut columns or 360
    # nodes.  Each level is one integrand call on the ray and the cut alike
    calls = []  # [levels with ray columns, with cut columns, nodes, levels] per part
    ray = kernels.ray_integral

    def counted(f, *args, **kwargs):
        record = [0, 0, 0, 0]
        calls.append(record)

        def on_block(k, rays):
            record[0] += rays > 0
            record[1] += rays < k.shape[1]
            record[3] += 1
            return f(k, rays)

        res = ray(on_block, *args, **kwargs)
        record[2] = res.nodes_used
        return res

    monkeypatch.setattr(kernels, "ray_integral", counted)
    for n in (1.5, 2.0, 4.0):
        for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                     KernelKind.TRUE_COULOMB):
            for p in UPPER_PAIRS + LOWER_PAIRS:
                assemble_kernel_result(Medium(n), kind, p, SPEC)
    calls = np.array(calls)
    assert len(calls) == 3 * (8 + 8 + 8 + 8)
    assert np.mean(calls[:, 0] == 1) >= 0.9 and calls[:, 0].max() <= 2
    assert np.mean(calls[:, 1] == 1) >= 0.9 and calls[:, 1].max() <= 3
    assert calls[:, 2].max() <= 360
    assert np.array_equal(calls[:, 3], np.maximum(calls[:, 0], calls[:, 1]))


@pytest.mark.parametrize("z, zp, kap", [(-0.6, 0.5, 50.0), (-1.0, 1.0, 23.0), (-1.0, 1.0, 50.0)])
def test_large_n_transmitted_profile_converges_deep_in_kappa(z, zp, kap):
    # at n = 40 the transmitted phase n|z| sqrt(k_z^2 + kappa^2) chirps for
    # kappa >> k_z; a real-axis partition at pi/(n|z| + z') never reached its
    # linear regime there and raised after 48 half-periods
    med = Medium(40.0)
    prof = kz_profile(med, kap, z, zp, SPEC)
    assert np.max(np.abs(prof.value - residue_profile(med, kap, z, zp))) <= prof.error_estimate


@pytest.mark.parametrize("n", [2.0, 40.0])
def test_profile_deep_in_kappa_meets_the_residue_profile(n):
    # at kappa = 50 the reflected profile is pi alpha kappa e^{-45}, some
    # 1e-18: a contour from k_z = 0 summed ray pieces of O(1) down to it
    # (relative error 61 at n = 2), while on the s contour from i gamma/2
    # every piece is already damped by e^{-kappa gamma (z + z')/2}
    med = Medium(n)
    prof = kz_profile(med, 50.0, 0.5, 0.4, SPEC)
    target = residue_profile(med, 50.0, 0.5, 0.4)
    assert np.max(np.abs(prof.value - target)) <= 1e-4 * np.max(np.abs(target))


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z", [0.5, -0.3])
def test_profiles_across_kappa_stay_within_their_estimates(n, z):
    # from kappa = 1e-3 to 50 on either side of the interface every profile
    # the s contour returns is within its error estimate of its closed form:
    # the residue profile, and for the gauge difference below the interface
    # pi alpha kappa e^{kappa (z - z')} [1, -i, -i, -1, 0]
    med, zp = Medium(n), 0.4
    for kap in (1e-3, 0.3, 1.0, 5.0, 50.0):
        residue = residue_profile(med, kap, z, zp)
        image = (residue if z >= 0.0 else math.pi * med.image_strength * kap
                 * math.exp(kap * (z - zp)) * np.array([1.0, -1j, -1j, -1.0, 0.0]))
        for prof, target in ((kz_profile(med, kap, z, zp, SPEC), residue),
                             (_gauge_difference_profile(med, kap, z, zp, SPEC), image)):
            assert np.max(np.abs(prof.value - target)) <= prof.error_estimate


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1e8, 1e150])
def test_large_n_upper_pair_meets_its_closed_form(n):
    # once gamma = sqrt(n^2 - 1)/n rounds to 1 (n > 7e7) the cut's end
    # meets the poles at s = i, where 1 - t^2 cancelled to 0; formed as
    # 1/n^2 + (gamma - t)(gamma + t), with gamma - t from the map, it stays
    # positive.  On the ray kzd = n sqrt(s^2 + gamma^2) has no n^2 s^2 to
    # overflow at a small kappa's far nodes.  The assemblies and the
    # profiles on the upper pair meet their closed forms within their
    # estimates, with no numpy warning
    med, p = Medium(n), pair((0.3, 0.1, 0.6), (0.0, 0.0, 0.7))
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                 KernelKind.TRUE_COULOMB):
        res = assemble_kernel_result(med, kind, p, SPEC)
        target = kernel_closed_form(med, kind, p)
        observed = np.max(np.abs(res.tensor - target))
        assert observed <= DEFAULT_TOLERANCES["tol.kernels.assembly"] * np.max(np.abs(target))
        assert observed <= res.error_estimate
    for kap in (1e-3, 1.0):
        prof = kz_profile(med, kap, 0.6, 0.7, SPEC)
        target = residue_profile(med, kap, 0.6, 0.7)
        assert np.max(np.abs(prof.value - target)) <= prof.error_estimate


def test_thin_margin_gauge_difference_pair_within_its_estimate():
    # the thinnest estimate/observed margin of a random sweep of assemblies
    # (rho ~ 0.05 below the interface); it read 1.37 once
    med = Medium(2.179)
    p = pair((-0.369, -0.367, -0.811), (-0.369, -0.419, 0.262))
    res = assemble_kernel_result(med, KernelKind.GAUGE_DIFFERENCE, p, SPEC)
    observed = np.max(np.abs(res.tensor - kernel_closed_form(med, KernelKind.GAUGE_DIFFERENCE, p)))
    assert observed <= res.error_estimate


def test_profiles_never_call_the_levin_halfline():
    # spectral has no Levin half-line and no engine but the ray: every k_z
    # profile integrates its travelling body on the damped ray, and every
    # assembly its s contour, and each meets its reference
    for name in ("halfline_oscillatory_integral", "adaptive_panels", "cut_segment_integral",
                 "decaying_halfline_integral"):
        assert not hasattr(spectral, name) and not hasattr(kernels, name)
    med = Medium(2.0)
    for kap, z, zp in [(1.3, 0.7, 0.4), (0.6, -0.8, 0.6)]:
        prof = kz_profile(med, kap, z, zp, SPEC)
        assert np.max(np.abs(prof.value - residue_profile(med, kap, z, zp))) <= prof.error_estimate
    prof = _gauge_difference_profile(med, 1.3, 0.7, 0.4, SPEC)
    assert np.max(np.abs(prof.value - residue_profile(med, 1.3, 0.7, 0.4))) < 1e-8
    p = pair((0.5, 0.2, -0.6), (0.0, -0.3, 0.7))
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE):
        res = assemble_kernel_result(med, kind, p, SPEC)
        assert np.max(np.abs(res.tensor - kernel_closed_form(med, kind, p))) <= res.error_estimate


@pytest.mark.parametrize("kind", [KernelKind.GENERALIZED_DELTA, KernelKind.TRUE_COULOMB])
@pytest.mark.parametrize("p", LOWER_PAIRS, ids=[f"lower{i}" for i in range(4)])
def test_large_n_lower_pair_meets_its_closed_form(p, kind):
    # at n = 40 on every lower verify pair; on (0.2, 0.6, -1)/(-0.1, 0, 0.5),
    # per-kappa stopping noise of the transmitted profiles at the 1e-11 level
    # once drove a radial kappa quadrature to its panel cap
    med = Medium(40.0)
    res = assemble_kernel_result(med, kind, p, SPEC)
    target = kernel_closed_form(med, kind, p)
    observed = np.max(np.abs(res.tensor - target))
    assert observed <= DEFAULT_TOLERANCES["tol.kernels.assembly"] * np.max(np.abs(target))
    assert observed <= res.error_estimate


def _captured_runs(monkeypatch) -> list:
    """Record (body, gamma) of every engine run of the profiles."""
    seen = []
    ray = kernels.ray_integral

    def capture(f, *args, gamma=None, **kwargs):
        seen.append((f, gamma))
        return ray(f, *args, gamma=gamma, **kwargs)

    monkeypatch.setattr(kernels, "ray_integral", capture)
    return seen


def _cut_columns(f, x: np.ndarray) -> np.ndarray:
    """A run's body on the cut columns k = i x, x of shape (nodes, columns),
    handed to it after one ray column as the engine lays a block out."""
    ray = np.full((x.shape[0], 1), 0.3 + 0.3j)
    return f(np.concatenate([ray, 1j * x], axis=1), 1)[:, 1:]


def _upper_cut(n, half, x):
    """(t, kzd, |k|^2) at the cut nodes k = i x of a run whose engine cut is
    (0, gamma/2), ``half`` = gamma/2: t = gamma/2 + x, and gamma^2 - t^2
    formed as (gamma - t)(gamma + t), gamma - t = gamma/2 - x."""
    t = half + x
    gap = (half - x) * (2.0 * half + t)
    return t, n * np.sqrt(gap), 1.0 / (n * n) + gap


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.6, 0.4)])
def test_cut_is_the_travelling_body_jump(n, z, zp, monkeypatch):
    # on the cut s = i t the reflected and transmitted profiles integrate
    # -i [f(it, kzd) - f(it, -kzd)] of their travelling body at unit kappa,
    # over gamma/2 < t < gamma (the engine's cut (0, gamma/2) shifted up by
    # gamma/2); its TE dyad is kappa times the closed jump 2 Im rR
    # e^{-kappa t s} above the interface and i tR* e^{-kappa t z'}
    # (e^{i kappa kzd z} + rL e^{-i kappa kzd z}) below it, up to the branch
    # point gamma where kzd = 0, each at the node's own t and kzd
    seen = _captured_runs(monkeypatch)
    med = Medium(n)
    frac = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    for kap in (0.3, 1.3, 7.0):
        seen.clear()
        kz_profile(med, kap, z, zp, SPEC)
        (body, half), = seen
        assert half == 0.5 * evanescent_threshold(med, 1.0)
        x = frac[:, None] * half
        vv = _cut_columns(body, x)[:, 0, 4]
        t, kzd, _ = _upper_cut(n, half, x[:, 0])
        for ti, kzdi, value in zip(t, kzd, vv):
            te = fresnel_coefficients(med, Polarization.TE, 1.0, 1j * ti, kzdi)
            if z >= 0.0:
                target = 2.0 * kap * te.rR.imag * math.exp(-kap * ti * (z + zp))
            else:
                target = (1j * kap * np.conj(te.tR) * math.exp(-kap * ti * zp)
                          * (np.exp(1j * kap * te.kzd * z) + te.rL * np.exp(-1j * kap * te.kzd * z)))
            assert abs(value - target) <= 1e-10 * abs(target)


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.6, 0.4)])
def test_cut_mirror_is_the_parity_conjugate_bit_for_bit(n, z, zp, monkeypatch):
    # on the cut s = i t, with kzd real, the travelling body at -kzd is
    # _PARITY times the conjugate of the body at kzd, bit for bit, above and
    # below the interface; so the jump -i [f(it, kzd) - f(it, -kzd)] is
    # -i [F - _PARITY conj F] of the one body value F, which the run's body
    # takes from the call that serves its rays
    parts = _captured_parts(monkeypatch)
    runs = _captured_runs(monkeypatch)
    med = Medium(n)
    frac = np.concatenate([[1e-9, 1e-6], np.linspace(1e-3, 1.0 - 1e-3, 300),
                           [1.0 - 1e-6, 1.0 - 1e-9]])
    for kappa in (0.3, 1.3, 7.0):
        parts.clear()
        runs.clear()
        kz_profile(med, kappa, z, zp, SPEC)
        (_, body, _, _), = parts
        (f, half), = runs
        x = frac[:, None] * half
        t, kzd, kmag2 = _upper_cut(n, half, x)
        up = body(1j * t, kzd, kmag2)
        down = body(1j * t, -kzd, kmag2)
        assert np.array_equal(down, kernels._PARITY * np.conj(up))
        assert np.array_equal(_cut_columns(f, x), -1j * (up - down))


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.6, 0.4)])
def test_run_cut_columns_are_the_stacked_kzd_jump_bit_for_bit(n, z, zp, monkeypatch):
    # at the nodes the engine picks, every level's one body call gives its
    # cut columns the jump of the travelling body evaluated on the stacked
    # +-kzd, -i [f(it, kzd) - f(it, -kzd)], bit for bit
    parts = _captured_parts(monkeypatch)
    blocks = []
    ray = kernels.ray_integral

    def capture(f, *args, gamma=None, **kwargs):
        def g(k, rays):
            value = f(k, rays)
            blocks.append((k, rays, gamma, np.array(value)))
            return value
        return ray(g, *args, gamma=gamma, **kwargs)

    monkeypatch.setattr(kernels, "ray_integral", capture)
    med = Medium(n)
    cut_levels = 0
    for kappa in KAPPA_PANEL:
        parts.clear()
        blocks.clear()
        kz_profile(med, kappa, z, zp, SPEC)
        (_, body, _, _), = parts
        for k, rays, half, value in blocks:
            t, kzd, kmag2 = _upper_cut(n, half, k.imag[:, rays:])
            both = body(1j * t, np.stack([kzd, -kzd]), kmag2)
            assert np.array_equal(value[:, rays:], -1j * (both[0] - both[1]))
            cut_levels += rays < k.shape[1]
    assert cut_levels >= len(KAPPA_PANEL)


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
def test_bodies_give_the_moveaxis_bits_through_their_transpose_views(n, monkeypatch):
    # an interface body returns its component-first terms as a component-last
    # transpose view: the bits, shape and strides of np.moveaxis, on a
    # level's 2-D node block and on the 3-D stack of +-kzd (or of two cuts)
    parts = _captured_parts(monkeypatch)
    med, kap = Medium(n), 0.7
    kz_profile(med, kap, 0.7, 0.4, SPEC)
    kz_profile(med, kap, -0.3, 0.5, SPEC)
    _gauge_difference_profile(med, kap, 0.7, 0.4, SPEC)
    rng = np.random.default_rng(3)
    s = (1.0 + 1.0j) * rng.uniform(0.0, 5.0, (15, 4))
    kzd = np.sqrt(n * n * s * s + (n * n - 1.0))
    t = evanescent_threshold(med, 1.0) * rng.uniform(0.5, 1.0, (15, 3))
    t_kzd = np.sqrt(np.maximum(n * n - 1.0 - n * n * t * t, 0.0))
    calls = []
    for _, travelling, _, evanescent in parts:
        calls += [(travelling, (s, kzd, 1.0 + s * s)),
                  (travelling, (1j * t, np.stack([t_kzd, -t_kzd]), 1.0 - t * t))]
        if evanescent is not None:
            two = np.stack([t, 0.5 * t])
            two_kzd = np.sqrt(np.maximum(n * n - 1.0 - n * n * two * two, 0.0))
            calls += [(evanescent, (t, t_kzd, 1.0 - t * t)),
                      (evanescent, (two, two_kzd, 1.0 - two * two))]
    assert len(calls) == 8
    views = [body(*args) for body, args in calls]
    monkeypatch.setattr(kernels, "_components_last", lambda terms: np.moveaxis(terms, 0, -1))
    for (body, args), view in zip(calls, views):
        moved = body(*args)
        assert view.shape == moved.shape and view.strides == moved.strides
        assert view.shape[:-1] == np.shape(args[1])
        assert view.tobytes() == moved.tobytes()


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
@pytest.mark.parametrize("z, zp", [(0.7, 0.4), (-0.3, 0.5)])
@pytest.mark.parametrize("profile", [kz_profile, _gauge_difference_profile],
                         ids=["kz_profile", "gauge_difference"])
def test_batch_cuts_equal_lone_kappa_cuts_bit_for_bit(profile, z, zp, n, monkeypatch):
    # a profile's run takes its ray and its cut in one node block a level,
    # but the cut refines its own panels to its own tolerance: across the
    # kappa panel, each run's cut is the lone cut, the run's body on the same
    # first panels by the level rule alone, bit for bit
    runs = []
    ray = kernels.ray_integral

    def capture(f, *args, gamma=None, cut_near=None, **kwargs):
        res = ray(f, *args, gamma=gamma, cut_near=cut_near, **kwargs)
        runs.append((f, gamma, cut_near, res))
        return res

    monkeypatch.setattr(kernels, "ray_integral", capture)
    med = Medium(n)
    for kap in KAPPA_PANEL:
        runs.clear()
        profile(med, kap, z, zp, SPEC)
        (f, gamma, cut_near, res), = runs

        def cut(u, f=f, gamma=gamma):
            return spectral._weighted(f(1j * (gamma * np.sin(u)), 0), gamma * np.cos(u))

        lone = _panels(cut, spectral._cut_breaks(cut_near))
        assert res.value.shape[0] == 2 and lone.nodes_used > 0
        assert np.array_equal(res.value[1], lone.value)
        assert res.entry_errors[1] == lone.error_estimate


@pytest.mark.parametrize("r, rp, parent_nodes, parent_error", [
    ((0.5, 0.2, -0.6), (0.0, -0.3, 0.7), 559_365, 1.178e-8),
    ((0.2, 0.6, -1.0), (-0.1, 0.0, 0.5), 890_265, 9.653e-9),
], ids=["first", "third"])
def test_large_n_lower_pairs_take_fewer_nodes_at_the_same_error(r, rp, parent_nodes,
                                                                parent_error):
    # the lower pairs of the large-n interior at n = 100: with the transmitted
    # cut on panels shared by each radial panel's kappa they took 559k and
    # 890k nodes at the damped truncation's floor (the parent errors); on the
    # s contour at most 0.6 of that, at no worse an error
    med = Medium(100.0)
    p = pair(r, rp)
    res = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    target = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
    observed = np.max(np.abs(res.tensor - target))
    assert res.nodes_used <= 0.6 * parent_nodes
    assert observed / np.max(np.abs(target)) <= parent_error
    assert observed <= res.error_estimate


# ---------------------------------------------------------------------------
# the first panels graded from near-singularity scales
# ---------------------------------------------------------------------------

RAY_X = np.array([0.0, 0.3, 0.9, 2.0, 4.0, 8.0, 16.0, np.inf])


def _entry_breaks(near, scale, breaks=spectral._RAY_BREAKS):
    """The first ray breaks in v for each near-singularity distance of
    ``near``, as ray_integral lays them out."""
    rows = []
    for distance in near:
        lo, hi = spectral._ray_panels(distance, scale, breaks)
        assert np.array_equal(hi[:-1], lo[1:])  # panels tile the ray
        rows.append(np.append(lo, hi[-1]))
    return rows


def test_ray_layout_is_graded_from_the_tm_pole():
    # a singularity 0.05 from the ray's origin at s = 1: x_e = 0.05 sin(pi/4)
    # = 0.0354, so the first panel splits at x_e, 2 x_e, 4 x_e and
    # 8 x_e = 0.283 below x = 0.3; a scale at or past 0.3 keeps the old
    # breaks, and a scale of 0 starts at 0.3 / 2^16
    x_e = 0.05 * math.sin(0.25 * math.pi)
    graded, far, at_end, zero = _entry_breaks([0.05, 2.0, 0.3 / math.sin(0.25 * math.pi), 0.0],
                                              1.0)
    assert np.array_equal(graded, np.arctan(np.concatenate(
        [[0.0], x_e * np.array([1.0, 2.0, 4.0, 8.0]), RAY_X[1:]])))
    assert np.array_equal(far, spectral._RAY_BREAKS)
    assert np.array_equal(at_end, spectral._RAY_BREAKS)
    assert np.array_equal(zero, np.arctan(np.concatenate(
        [[0.0], 0.3 * 2.0 ** np.arange(-16, 0), RAY_X[1:]])))
    # the mirrored bodies' layout adds the v-midpoints of (0.3, 0.9), (4, 8),
    # (8, 16) and (16, inf), graded the same way
    graded_flat, far_flat = _entry_breaks([0.05, 2.0], 1.0, spectral._RAY_BREAKS_FLAT)
    x_mid = np.tan(spectral._RAY_BREAKS_FLAT[[2, 6, 8, 10]])
    assert np.array_equal(np.round(x_mid, 2), [0.56, 5.35, 10.68, 32.03])
    assert np.array_equal(far_flat, spectral._RAY_BREAKS_FLAT)
    assert np.array_equal(graded_flat, np.sort(np.concatenate([graded, far_flat[[2, 6, 8, 10]]])))


def test_cut_layout_is_graded_from_the_tm_shoulder_and_the_te_pole():
    # the scales of a cut body's TM shoulder at n = 40, u_lo =
    # asin(1/sqrt(1599)) = 0.0250, and of its TE pole, u_hi =
    # acosh(40/sqrt(1599)) = 0.0250 from pi/2: four graded breaks at each
    # end (8 u < pi/8 < 16 u), and the end panel next to each halved, at
    # u_lo/2 and pi/2 - u_hi/2
    u_lo, u_hi = 0.025010423507840152, 0.02500521028732767
    steps = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    base = np.linspace(0.0, 0.5 * math.pi, 5)
    expected = np.concatenate([[0.0], u_lo * steps, base[1:-1], base[-1] - u_hi * steps[::-1],
                               [base[-1]]])
    assert np.array_equal(spectral._cut_breaks((u_lo, u_hi)), expected)
    # scales wider than pi/8 (those of n = 1, 1.01, sqrt 2 and 2) add no
    # break: the four equal panels, with the end panel halved at each end
    # that has a finite scale (a shoulder just below u = pi/2 included)
    first, last = 0.5 * base[1], base[-1] - 0.5 * base[1]
    for near, halves in (((math.inf, math.inf), []),
                         ((math.inf, 2.651652454029538), [last]),
                         ((1.5707963057214724, 0.8813735870195429), [first, last]),
                         ((0.6154797086703875, 0.5493061443340551), [first, last])):
        assert np.array_equal(spectral._cut_breaks(near), np.sort(np.concatenate([base, halves])))
    assert np.array_equal(spectral._cut_breaks(None), base)


def _shoulder_and_pole(n):
    """Cut scales that move with n over the whole range of _cut_breaks: the
    TM shoulder asin(1/sqrt(n^2 - 1)) (inf for n^2 <= 2) and the TE pole
    acosh(n/sqrt(n^2 - 1)) (inf at n = 1) of a cut t = Gamma sin(u)."""
    gap = math.sqrt(n * n - 1.0)
    return (math.asin(1.0 / gap) if gap > 1.0 else math.inf,
            math.acosh(n / gap) if gap > 0.0 else math.inf)


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
    return np.unique(ray), _reference_cut(*_shoulder_and_pole(n))


def _reference_cut(low, high):
    """The cut layout of the scales (low, high) by the doubling loop."""
    end = math.pi / 8.0
    ends = []
    for scale in (low, high):
        # the distances of an end's breaks from it, the first panel halved
        # when the scale is finite
        graded = _doubling(scale, end, lambda d: d < end)
        if scale < math.inf:
            graded.insert(0, 0.5 * min(graded + [end]))
        ends.append(graded)
    return np.array([0.0] + ends[0] + [end, 2.0 * end, 3.0 * end]
                    + [4.0 * end - d for d in ends[1]][::-1] + [4.0 * end])


def _numpy_cut(near):
    """The cut layout spelled in numpy: both ends' graded breaks as the rows
    of one array, each headed by its halved panel's break, masked to the end
    panels."""
    base = np.linspace(0.0, 0.5 * math.pi, 5)
    scales = np.full(2, np.inf) if near is None else np.asarray(near, dtype=float)
    graded = np.multiply.outer(np.maximum(scales, base[1] * 2.0 ** -spectral._GRADED_MAX),
                               2.0 ** np.arange(spectral._GRADED_MAX))
    half = np.where(scales < np.inf, 0.5 * np.minimum(graded[:, 0], base[1]), np.inf)
    low, high = np.concatenate((half[:, None], graded), axis=1)
    high = base[-1] - high[::-1]
    return np.concatenate([base[:1], low[low < base[1]], base[1:-1], high[high > base[-2]],
                           base[-1:]])


def test_scalar_cut_layout_is_the_numpy_layout_bit_for_bit():
    # _cut_breaks builds its layout from its two scales with math: the bits of
    # the numpy spelling and of the doubling loop, for scales that move with
    # n over [1, 1e8], the s contour's (inf, acosh(2/gamma - 1)), and no scales
    rng = np.random.default_rng(1)
    ns = [1.0, math.sqrt(2.0), 2.68, 40.0, 1e8] + list(10.0 ** rng.uniform(0.0, 8.0, 300))
    pairs = [None]
    for n in ns:
        pairs.append(_shoulder_and_pole(n))
        if n > 1.0:
            gamma = math.sqrt(n * n - 1.0) / n
            pairs.append((math.inf, math.acosh(2.0 / gamma - 1.0)))
    for near in pairs:
        cut = spectral._cut_breaks(near)
        assert cut.dtype == np.float64 and np.all(np.diff(cut) > 0.0)
        assert cut.tobytes() == _numpy_cut(near).tobytes()
        assert cut.tobytes() == _reference_cut(*(near or (math.inf, math.inf))).tobytes()
    # a last graded break a rounding below pi/8 from pi/2 lands on 3 pi/8, and
    # the layout drops it, as the numpy spelling does (the loop keeps it)
    end = np.linspace(0.0, 0.5 * math.pi, 5)[1]
    below = math.nextafter(end, 0.0)
    for near in ((below, below), (below / 8.0, below / 8.0), (end, end), (end / 4.0, 0.0)):
        cut = spectral._cut_breaks(near)
        assert np.all(np.diff(cut) > 0.0) and cut.tobytes() == _numpy_cut(near).tobytes()


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
    assert len(breaks) - 1 <= len(spectral._RAY_BREAKS) - 1 + spectral._GRADED_MAX
    flat, = _entry_breaks([kap / n], s, spectral._RAY_BREAKS_FLAT)
    assert np.all(np.isfinite(flat)) and np.all(np.diff(flat) > 0.0)
    assert np.array_equal(np.setdiff1d(flat, breaks), spectral._RAY_BREAKS_FLAT[[2, 6, 8, 10]])
    cut = spectral._cut_breaks(_shoulder_and_pole(n))
    base = np.linspace(0.0, 0.5 * math.pi, 5)
    assert np.all(np.isfinite(cut)) and np.all(np.diff(cut) > 0.0)
    assert cut[0] == 0.0 and cut[-1] == 0.5 * math.pi
    assert np.all(np.isin(base, cut))
    assert len(cut) - 1 <= 4 + 2 * spectral._GRADED_MAX + 2
    if n <= math.sqrt(2.0):
        halves = np.array([0.5 * base[1], base[-1] - 0.5 * base[1]])
        halves = halves[np.isfinite(_shoulder_and_pole(n))]
        assert np.array_equal(cut, np.sort(np.concatenate([base, halves])))
    ray_loop, cut_loop = _reference_layouts(kap / n, s, n)
    assert np.array_equal(breaks, ray_loop)
    assert np.array_equal(cut, cut_loop)


def test_profiles_pass_their_near_singularity_scales(monkeypatch):
    # each kappa's engine run is an s contour's, the same for every kappa:
    # the finer ray layout, its first panel graded from gamma/4, half the
    # distance gamma/2 of the branch point that the kernels' rays are
    # graded from, and the cut (gamma/2, gamma) with its last panel graded
    # from the poles at s = i
    seen = []
    ray = kernels.ray_integral

    def spy(*args, near=None, gamma=None, cut_near=None, flat=False, **kwargs):
        seen.append((near, gamma, cut_near, flat))
        return ray(*args, near=near, gamma=gamma, cut_near=cut_near, flat=flat, **kwargs)

    monkeypatch.setattr(kernels, "ray_integral", spy)
    med = Medium(40.0)
    gamma = math.sqrt(1599.0) / 40.0
    cut = (math.inf, math.acosh(2.0 / gamma - 1.0))
    for kap in KAPPA_PANEL:
        for build in (lambda: kz_profile(med, kap, 0.7, 0.4, SPEC),
                      lambda: kz_profile(med, kap, -0.3, 0.5, SPEC),
                      lambda: _gauge_difference_profile(med, kap, 0.7, 0.4, SPEC)):
            seen.clear()
            build()
            assert seen == [(0.25 * gamma, 0.5 * gamma, cut, True)]
    seen.clear()
    assemble_kernel_result(med, KernelKind.GAUGE_DIFFERENCE, pair((0.3, 0.0, 0.7), (0.0, 0.0, 0.4)),
                           SPEC)
    assert seen == [(0.5 * gamma, 0.5 * gamma, cut, True)]


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
    # (n = 47.9) after at most one; fixed first panels took up to 11 and 6.
    # Each interface part is one engine run, one integrand call per level,
    # whose ray and cut columns are counted apart
    counts = []  # [n, levels with ray columns, with cut columns, levels] of each run

    def record(rays, cuts):
        counts[-1][1:] += np.array([rays > 0, cuts > 0, 1])

    for kind, n, r, rp in _ASSEMBLY_SEED_1:
        with monkeypatch.context() as mp:
            _counting_run(mp, record)
            counting = kernels.ray_integral

            def run(*args, n=n, **kwargs):
                counts.append(np.array([n, 0, 0, 0]))
                return counting(*args, **kwargs)

            mp.setattr(kernels, "ray_integral", run)
            p = pair(r, rp)
            res = assemble_kernel_result(Medium(n), kind, p, SPEC)
        target = kernel_closed_form(Medium(n), kind, p)
        assert np.max(np.abs(res.tensor - target)) <= res.error_estimate
    counts = np.array(counts)
    assert len(counts) == 5 and counts[:, 1].max() <= 3
    assert np.array_equal(counts[:, 3], counts[:, 1:3].max(axis=1))
    cuts = counts[counts[:, 0] > 20.0, 2]
    assert len(cuts) == 1 and 1 <= cuts[0] <= 2


def test_gauge_bodies_evaluate_the_tm_fresnel_set_once(monkeypatch):
    # the travelling and the evanescent body of the gauge-difference profile
    # each take one TM Fresnel set per call and hand it to both surface charges
    seen = _captured_parts(monkeypatch)
    med = Medium(2.0)
    _gauge_difference_profile(med, 1.3, 0.7, 0.4, SPEC)
    (_, travelling, _, evanescent), = seen
    calls = []
    original = fresnel_coefficients

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(kernels, "fresnel_coefficients", counting)
    monkeypatch.setattr(modes, "fresnel_coefficients", counting)
    s = np.array([[0.3 + 0.3j, 2.0 + 2.0j]])
    travelling(s, np.sqrt(4.0 * s * s + 3.0), 1.0 + s * s)
    assert calls == [Polarization.TM]
    calls.clear()
    t = np.array([[0.6, 0.8]]) * math.sqrt(3.0) / 2.0
    evanescent(t, np.sqrt(3.0 - 4.0 * t * t), 1.0 - t * t)
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


@pytest.mark.parametrize("n", [2.0, 40.0])
def test_on_axis_generalized_delta_meets_its_closed_form(n):
    # rho = 0, where the weights are those of w = a; above the interface
    # a(0) = 0, which the contour's start at i gamma/2 avoids
    med, p = Medium(n), pair((0.0, 0.0, 0.5), (0.0, 0.0, 0.9))
    result = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
    target = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
    assert np.max(np.abs(result.tensor - target)) / np.max(np.abs(target)) < 1e-6


def test_assembly_and_verify_leave_scipy_unloaded():
    # scipy is a test dependency only: no package path imports it
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import halfspace_qed\n"
        "from halfspace_qed import cli\n"
        "halfspace_qed.assemble_kernel_result(\n"
        "    halfspace_qed.Medium(2.0), halfspace_qed.KernelKind.GENERALIZED_DELTA,\n"
        "    halfspace_qed.PointPair(np.array([0.3, 0.0, 0.5]), np.array([0.0, 0.0, 0.9])),\n"
        "    halfspace_qed.QuadratureSpec())\n"
        "assert 'scipy' not in sys.modules, 'assembly'\n"
        "assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify'\n"
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def _bad_enum_calls():
    med, spec = Medium(2.0), SPEC
    tm = fresnel_coefficients(med, Polarization.TM, 0.7, 0.6)
    p = pair((0.3, 0.0, 0.5), (0.0, 0.0, 0.9))
    return {
        "kz_kernel_te_str": ("pol", lambda: kz_spectral_kernel(med, "TE", 0, 0, 0.8, 0.7, 0.6, spec)),
        "kz_kernel_xx": ("pol", lambda: kz_spectral_kernel(med, "XX", 0, 0, 0.8, 0.7, 0.6, spec)),
        "fresnel_te_str": ("pol", lambda: fresnel_coefficients(med, "TE", 0.8, 0.6)),
        "polarization_vector": ("pol", lambda: modes.polarization_vector("TM", np.array([0.7, 0.0, 0.6]))),
        "surface_charge_r_str": ("side", lambda: modes.surface_charge_mode(med, "R", tm)),
        "label_wavenumbers_l_str": ("side", lambda: label_wavenumbers(med, "L", 0.7, 1.9)),
        "label_frequency_r_str": ("side", lambda: label_frequency(med, "R", 0.7, 0.6, 1.0)),
        "chi_r_str": ("side", lambda: modes.chi_mode_coefficient(med, "R", 0.7, 0.6, z=0.1)),
        "sigma_l_str": ("side", lambda: modes.sigma_mode_coefficient(med, "L", 0.7, 1.9)),
        "mode_side_str": ("side", lambda: modes.carniglia_mandel_mode(
            med, SpectralPoint((0.7, 0.0), 0.6, "R", Polarization.TM), np.zeros(3))),
        "mode_pol_str": ("pol", lambda: modes.carniglia_mandel_mode(
            med, SpectralPoint((0.7, 0.0), 0.6, Side.RIGHT, "TE"), np.zeros(3))),
        "closed_form_str": ("kind", lambda: kernel_closed_form(med, "gauge_difference", p)),
        "assembly_str": ("kind", lambda: assemble_kernel_result(med, "gauge_difference", p, spec)),
    }


@pytest.mark.parametrize("case", list(_bad_enum_calls()))
def test_enum_parameters_reject_anything_but_their_members(case):
    # a string or other stand-in for a member once fell through to the last
    # branch of an `is` chain and returned another member's value
    name, call = _bad_enum_calls()[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


# ---------------------------------------------------------------------------
# the closed kappa and azimuth weights and the s contour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, rho", [
    (0.3j, 0.0), (2.0 + 0.5j, 1.0), (-1.0 + 0.1j, 0.7), (0.05j, 1.0), (3.0 + 4.0j, 0.2),
    (0.4 + 1e-3j, 1e-9),
])
def test_weights_match_brute_force_quadrature(a, rho):
    # (W_1, W_c, W_cc, W_ss) = -2i int dphi {1, cos, cos^2, sin^2}/(a + rho cos phi)^3,
    # by the trapezoid rule (spectrally accurate for a periodic integrand)
    phi = np.linspace(0.0, 2.0 * math.pi, 20001)[:-1]
    amp = -2j / (a + rho * np.cos(phi)) ** 3 * (2.0 * math.pi / phi.size)
    brute = [amp.sum(), (amp * np.cos(phi)).sum(), (amp * np.cos(phi) ** 2).sum(),
             (amp * np.sin(phi) ** 2).sum()]
    weights = kernels._weights(a, rho)
    scale = max(abs(b) for b in brute)
    assert_allclose(weights, brute, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("big_a", [0.3j, 1.0 + 0.5j, -2.0 + 0.4j])
def test_kappa_integral_behind_the_weights(big_a):
    # int_0^inf kappa^2 e^{i kappa A} dkappa = -2i/A^3 for Im A > 0
    quad = pytest.importorskip("scipy.integrate").quad
    re, im = (quad(lambda k, part=part: part(k * k * np.exp(1j * k * big_a)), 0.0, np.inf,
                   epsabs=0.0, epsrel=1e-10, limit=400)[0] for part in (np.real, np.imag))
    assert abs(re + 1j * im - (-2j / big_a ** 3)) <= 1e-8 * abs(2.0 / big_a ** 3)


def test_weights_at_a_zero_are_the_limit_from_above():
    # at a = 0, w = i rho: W = -2 pi/rho^3 (1, 0, 2, -1) for (W_1, W_c, W_cc, W_ss),
    # the limit of the weights at a = i eps
    rho = 0.8
    exact = -2.0 * math.pi / rho ** 3 * np.array([1.0, 0.0, 2.0, -1.0])
    assert_allclose(kernels._weights(0j, rho), exact, rtol=1e-14, atol=0.0)
    assert_allclose(kernels._weights(1e-9j, rho), exact, rtol=1e-8, atol=1e-6)


@pytest.mark.parametrize("n", [1.5, 10.0])
@pytest.mark.parametrize("rho", ["zero", "branch"])
def test_lower_pairs_where_a_contour_from_zero_diverges(n, rho):
    # below the interface a(0) = sqrt(n^2 - 1)|z|: at rho = 0 and at
    # rho = a(0), where w(0) = 0, the contour from s = 0 diverges; from
    # i gamma/2 it meets the closed form
    z, zp = -0.5, 0.9
    dx = 0.0 if rho == "zero" else math.sqrt(n * n - 1.0) * abs(z)
    p, med = pair((dx, 0.0, z), (0.0, 0.0, zp)), Medium(n)
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                 KernelKind.TRUE_COULOMB):
        res = assemble_kernel_result(med, kind, p, SPEC)
        target = kernel_closed_form(med, kind, p)
        observed = np.max(np.abs(res.tensor - target))
        assert observed <= 1e-12 * np.max(np.abs(target))
        assert observed <= res.error_estimate


def test_n200_lower_pair_meets_its_closed_form():
    # (0.3, 0.2, -0.747)/(0, 0, 0.129) raised at n = 200 through the radial
    # quadrature; on the s contour it reads below 1e-10, in at most twice the
    # nodes of n = 10
    p = pair((0.3, 0.2, -0.747), (0.0, 0.0, 0.129))
    nodes = {}
    for n in (10.0, 200.0):
        med = Medium(n)
        res = assemble_kernel_result(med, KernelKind.GENERALIZED_DELTA, p, SPEC)
        target = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
        observed = np.max(np.abs(res.tensor - target))
        assert observed <= 1e-10 * np.max(np.abs(target))
        assert observed <= res.error_estimate
        nodes[n] = res.nodes_used
    assert nodes[200.0] <= 2 * nodes[10.0]


@pytest.mark.parametrize("n", [1.0, 1.001])
@pytest.mark.parametrize("r", [(0.0, 0.0, 0.5), (0.5, 0.0, 0.5), (0.0, 0.0, -0.5),
                               (0.5, 0.0, -0.5), (0.0, 0.0, 0.0)],
                         ids=["above_axis", "above", "below_axis", "below", "interface_axis"])
def test_near_vacuum_kernels_meet_their_closed_forms(n, r):
    # gamma -> 0: the contour starts at i gamma/2 next to the branch point,
    # with the cut only [gamma/2, gamma]; at n = 1 there is no cut and the
    # ray starts at i/2.  Errors are relative to the whole kernel
    p, med = pair(r, (0.0, 0.0, 0.9)), Medium(n)
    for kind in (KernelKind.GENERALIZED_DELTA, KernelKind.GAUGE_DIFFERENCE,
                 KernelKind.TRUE_COULOMB):
        res = assemble_kernel_result(med, kind, p, SPEC)
        target = kernel_closed_form(med, kind, p)
        full = kernel_closed_form(med, KernelKind.GENERALIZED_DELTA, p)
        observed = np.max(np.abs(res.tensor - target))
        assert observed <= 1e-12 * np.max(np.abs(full))
        assert observed <= max(res.error_estimate, 1e-15 * np.max(np.abs(full)))


@pytest.mark.parametrize("n", [1.01, 2.0, 40.0])
def test_gauge_cut_is_the_travelling_body_jump(n):
    # the evanescent left-incident modes on the cut s = i t equal the jump
    # -i [h_R(i t) - h_L(i t)] of the gauge-difference travelling body: its
    # right terms at k_zd and its e^{-ik z'} terms continued through k_z < 0,
    # which read the partner terms at -k_zd.  So the assembled gauge kernel
    # runs on the same contour as the reflected and transmitted parts
    med, zp = Medium(n), 0.4
    gamma = math.sqrt(n * n - 1.0) / n
    t = gamma * np.array([1e-6, 0.05, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-9])
    kzd = np.sqrt(np.maximum(n * n - 1.0 - n * n * t * t, 0.0))
    damp = np.exp(-t * zp) / (1.0 - t * t)
    right = kernels._gauge_terms(med, 1j * t, kzd, damp)[:2]
    left = kernels._gauge_terms(med, 1j * t, -kzd, damp)[2:]
    left *= np.array([-1.0, 1.0])[:, None]  # the u-row's k_z changes sign on k_z < 0
    evanescent = kernels._gauge_evanescent_terms(med, t, kzd, damp)
    scale = max(np.abs(right).max(), np.abs(left).max())  # the jump cancels down from this
    assert_allclose(-1j * (right - left), evanescent, rtol=0.0, atol=1e-14 * scale)
