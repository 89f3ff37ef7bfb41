import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfspace_qed.fresnel import fresnel_coefficients
from halfspace_qed.kernels import poisson_jump_residual
from halfspace_qed.medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    evanescent_threshold,
    label_wavenumbers,
    mode_frequency,
    vacuum_kz_from_kzd,
)
from halfspace_qed.modes import (
    carniglia_mandel_mode,
    chi_mode_coefficient,
    polarization_vector,
    sigma_mode_coefficient,
    surface_charge_mode,
)

NORM = (2 * math.pi) ** (-1.5)


def _charge(med, side, kpar, label):
    # g of one label, from the TM set of its resolved wavenumbers
    kz, kzd = label_wavenumbers(med, side, kpar, label)
    tm = fresnel_coefficients(med, Polarization.TM, kpar, kz, kzd)
    return surface_charge_mode(med, side, tm)


def test_polarization_vector_examples():
    te = polarization_vector(Polarization.TE, np.array([1.0, 0.0, 5.0]))
    assert_allclose(te, [0.0, -1.0, 0.0], atol=1e-15)
    tm = polarization_vector(Polarization.TM, np.array([1.0, 0.0, 1.0]))
    assert_allclose(tm, np.array([1.0, 0.0, -1.0]) / math.sqrt(2), atol=1e-15)


def test_polarization_transverse_under_plain_dot():
    for kz in (0.7, 2.0, 0.4j, 1.5j):
        k = np.array([0.9, -0.4, kz], dtype=complex)
        for pol in Polarization:
            e = polarization_vector(pol, k)
            assert abs(k @ e) < 1e-15
    # TE never has a z-component
    assert polarization_vector(Polarization.TE, np.array([1.0, 2.0, 3.0]))[2] == 0.0


def test_polarization_degenerate_rejected():
    for pol in Polarization:
        with pytest.raises(ValueError, match="degenerate at k_par = 0"):
            polarization_vector(pol, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="singular at k.k = 0"):
        polarization_vector(Polarization.TM, np.array([1.0, 0.0, 1.0j]))
    with pytest.raises(ValueError, match="pol must be Polarization.TE or Polarization.TM"):
        polarization_vector("TM", np.array([1.0, 0.0, 1.0]))


def test_mode_free_space_limit():
    # n = 1: a single plane wave with the incident wavevector everywhere
    med = Medium(1.0)
    point = SpectralPoint((0.8, 0.3), 1.1, Side.RIGHT, Polarization.TM)
    kminus = np.array([0.8, 0.3, -1.1])
    for r in (np.array([0.2, -0.5, 0.7]), np.array([0.1, 0.4, -0.9])):
        f = carniglia_mandel_mode(med, point, r)
        expect = NORM * polarization_vector(Polarization.TM, kminus) * np.exp(1j * kminus @ r)
        assert_allclose(f, expect, atol=1e-15)


def test_mode_value_near_normal_incidence():
    # TE right mode at the origin: (1 + rR) e_TE; at grazing-parallel kpar -> 0
    # the reflection coefficient approaches its normal-incidence value -0.2
    med = Medium(1.5)
    point = SpectralPoint((1e-6, 0.0), 1.0, Side.RIGHT, Polarization.TE)
    f = carniglia_mandel_mode(med, point, np.zeros(3))
    assert_allclose(f, [0.0, -0.8 * NORM, 0.0], atol=1e-6)
    assert f[1].real == pytest.approx(-0.05080, abs=5e-5)


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
@pytest.mark.parametrize("pol", [Polarization.TE, Polarization.TM])
def test_mode_matching_travelling_and_evanescent(side, pol):
    med = Medium(2.0)
    labels = [complex(kl) for kl in (0.4, 1.3)]
    if side is Side.LEFT:
        # below the total-internal-reflection threshold the transmitted wave
        # is evanescent; these labels exist only on the left
        labels.append(complex(0.3 * evanescent_threshold(med, 1.0) * med.n))
    for kl in labels:
        point = SpectralPoint((1.0, 0.0), kl, side, pol)
        above = carniglia_mandel_mode(med, point, np.array([0.3, 0.1, 0.0]))
        below = carniglia_mandel_mode(med, point, np.array([0.3, 0.1, -1e-13]))
        scale = max(np.max(np.abs(above)), np.max(np.abs(below)))
        assert np.max(np.abs(above[:2] - below[:2])) < 1e-11 * scale
        assert abs(above[2] - med.eps_inside * below[2]) < 1e-11 * scale


def test_mode_plane_wave_pieces_satisfy_helmholtz():
    # each side of the interface carries |k|^2 = eps(z) omega^2 exactly
    med = Medium(2.0)
    point = SpectralPoint((0.9, 0.0), 0.7, Side.RIGHT, Polarization.TM)
    omega = mode_frequency(med, point)
    h = 2e-4
    for r in (np.array([0.2, 0.0, 0.5]), np.array([0.2, 0.0, -0.5])):
        eps = med.eps_inside if r[2] < 0 else 1.0
        f0 = carniglia_mandel_mode(med, point, r)
        lap = np.zeros(3, dtype=complex)
        for axis in range(3):
            dr = np.zeros(3)
            dr[axis] = h
            lap += (
                carniglia_mandel_mode(med, point, r + dr)
                - 2 * f0
                + carniglia_mandel_mode(med, point, r - dr)
            ) / h**2
        resid = lap + eps * omega**2 * f0
        assert np.max(np.abs(resid)) < 1e-6 * eps * omega**2 * np.max(np.abs(f0))


@pytest.mark.parametrize("kz", [5j, -0.5, 0.9j, 0.0])
def test_right_labels_off_the_label_set_raise(kz):
    # right-incident labels are kz > 0 or i t with 0 < t <= Gamma = sqrt(3)/2
    # at n = 2, |k_par| = 1; 5j once gave |E_x| ~ 1427 at z = 2, and the mode
    # data once took negative and past-Gamma labels (at kz = -1, chi = 0.01205
    # and sigma = -0.0341j, with a Poisson residual of 0)
    med = Medium(2.0)
    bad = SpectralPoint((1.0, 0.0), kz, Side.RIGHT, Polarization.TM)
    for call in (lambda: carniglia_mandel_mode(med, bad, np.array([0.0, 0.0, 2.0])),
                 lambda: chi_mode_coefficient(med, Side.RIGHT, 1.0, kz, 0.5),
                 lambda: sigma_mode_coefficient(med, Side.RIGHT, 1.0, kz),
                 lambda: poisson_jump_residual(med, 1.0, kz, Side.RIGHT),
                 lambda: mode_frequency(med, bad)):
        with pytest.raises(ValueError, match="right-incident label kz = .*Gamma"):
            call()


def test_left_labels_reject_imaginary_kzd():
    med = Medium(2.0)
    bad = SpectralPoint((1.0, 0.0), 0.5j, Side.LEFT, Polarization.TM)
    with pytest.raises(ValueError):
        carniglia_mandel_mode(med, bad, np.zeros(3))
    with pytest.raises(ValueError):
        sigma_mode_coefficient(med, Side.LEFT, 1.0, 0.5j)


def test_left_label_at_the_total_internal_reflection_threshold_raises():
    # at n = 1.25, |k_par| = 1 the threshold k_zd = |k_par| sqrt(n^2 - 1) = 0.75
    # is exact, so the vacuum k_z is exactly 0 and tL = (kzd/kz) tR is singular
    point = SpectralPoint((1.0, 0.0), 0.75, Side.LEFT, Polarization.TM)
    with pytest.raises(ValueError, match="kz = 0"):
        carniglia_mandel_mode(Medium(1.25), point, np.array([0.0, 0.0, 0.5]))


@pytest.mark.parametrize("kzd", [1e-6, 1e-9, 0.0])
def test_left_labels_keep_kzd_exact_down_to_zero(kzd):
    # a left label is the k_zd of the mode, not a round trip through the
    # vacuum k_z, which returned 1e-6 off by 4.4e-5 relative, 1e-9 as 2.1e-8
    # and gave the k_zd = 0 mode |f| = 1.4e-9 at z = 0.1 (exactly 0: tL = 0)
    med, n = Medium(2.0), 2.0
    kz = 1j * math.sqrt(3.0 - kzd * kzd) / n
    assert label_wavenumbers(med, Side.LEFT, 1.0, kzd) == (kz, kzd)
    rL = -(n * n * kz - kzd) / (n * n * kz + kzd)
    tL = 2.0 * n * kzd / (n * n * kz + kzd)
    point = SpectralPoint((1.0, 0.0), kzd, Side.LEFT, Polarization.TM)
    for z in (-0.7, 0.1):

        def wave(k):
            kvec = np.array([1.0, 0.0, k], dtype=complex)
            return polarization_vector(Polarization.TM, kvec) * np.exp(1j * k * z)

        ref = NORM / n * (wave(kzd) + rL * wave(-kzd) if z < 0.0 else tL * wave(kz))
        got = carniglia_mandel_mode(med, point, np.array([0.0, 0.0, z]))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        if kzd == 0.0:
            assert not got.any()


def test_te_modes_have_no_z_component():
    med = Medium(2.0)
    for side, kl in ((Side.RIGHT, 0.8 + 0.0j), (Side.RIGHT, 0.5j), (Side.LEFT, 1.7 + 0.0j)):
        point = SpectralPoint((1.0, 0.4), kl, side, Polarization.TE)
        for r in (np.array([0.2, -0.1, 0.6]), np.array([-0.3, 0.5, -0.8])):
            assert carniglia_mandel_mode(med, point, r)[2] == 0.0


def test_surface_charge_mode_values():
    assert _charge(Medium(1.0), Side.RIGHT, 0.7, 1.0) == 0.0
    assert _charge(Medium(1.0), Side.LEFT, 0.7, 1.0) == 0.0
    # perfect-reflector limit: prefactor -> 1/2 and 1 + rR -> 2
    g = _charge(Medium(1e6), Side.RIGHT, 0.5, 1.0)
    assert g.real == pytest.approx(NORM, rel=1e-5)
    # near-normal right incidence at n = 1.5: (1.25/4.5) * (1 + 0.2) * (2 pi)^{-3/2}
    g = _charge(Medium(1.5), Side.RIGHT, 1e-8, 1.0)
    assert g.real == pytest.approx(1.25 / 4.5 * 1.2 * NORM, rel=1e-9)
    assert g.real == pytest.approx(0.021166, abs=2e-6)


def test_surface_charge_vanishes_like_n_squared_minus_one():
    kpar, kz = 0.8, 0.9
    vals = []
    for n in (1.001, 1.0001):
        g = _charge(Medium(n), Side.RIGHT, kpar, kz)
        vals.append(abs(g) / (n * n - 1.0))
    # the ratio converges with an O(n^2 - 1) correction
    assert vals[0] == pytest.approx(vals[1], rel=5e-3)


def test_left_mode_coefficient_uses_refraction():
    med = Medium(2.0)
    kpar, kzd = 0.9, 1.7
    kz = vacuum_kz_from_kzd(med, kpar, kzd)
    g_direct = _charge(med, Side.LEFT, kpar, kzd)
    c = fresnel_coefficients(med, Polarization.TM, kpar, kz)
    chat = (med.n**2 - 1) / (2 * med.n**2)
    assert g_direct == pytest.approx(NORM * chat * c.tL / med.n)


def test_chi_coefficient_properties():
    med = Medium(2.0)
    assert chi_mode_coefficient(Medium(1.0), Side.RIGHT, 0.7, 1.0, 0.5) == 0.0
    for side, kl in ((Side.RIGHT, 0.8 + 0.0j), (Side.LEFT, 1.9 + 0.0j)):
        for z in (0.0, 0.4, 1.3):
            up = chi_mode_coefficient(med, side, 0.7, kl, z)
            down = chi_mode_coefficient(med, side, 0.7, kl, -z)
            assert up == pytest.approx(down, abs=1e-15)  # symmetric about the interface
            dot = chi_mode_coefficient(med, side, 0.7, kl, z, time_derivative=True)
            omega = mode_frequency(med, SpectralPoint((0.7, 0.0), kl, side, Polarization.TM))
            assert dot / up == pytest.approx(-1j * omega, rel=1e-13)


def test_sigma_coefficient_te_free_cases():
    assert sigma_mode_coefficient(Medium(1.0), Side.RIGHT, 0.7, 1.0) == 0.0
    s = sigma_mode_coefficient(Medium(2.0), Side.RIGHT, 0.7, 1.0)
    assert s != 0.0
    assert s.real == pytest.approx(0.0, abs=1e-15)  # -2i kpar g / sqrt(2 omega), g real here


@pytest.mark.parametrize("side, label", [(Side.RIGHT, 0.7), (Side.LEFT, 1.9)])
def test_sigma_coefficient_rejects_non_finite_inputs(side, label):
    med = Medium(2.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="kpar_mag"):
            sigma_mode_coefficient(med, side, bad, label)
    for bad in (math.nan, complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="kz_or_kzd"):
            sigma_mode_coefficient(med, side, 1.0, bad)


@pytest.mark.parametrize("side, label", [(Side.RIGHT, 0.7), (Side.LEFT, 1.9)])
def test_chi_coefficient_rejects_non_finite_inputs(side, label):
    med = Medium(2.0)
    with pytest.raises(ValueError, match="kpar_mag"):
        chi_mode_coefficient(med, side, math.nan, label, 0.5)
    with pytest.raises(ValueError, match="kz_or_kzd"):
        chi_mode_coefficient(med, side, 1.0, math.nan, 0.5)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="z must be finite"):
            chi_mode_coefficient(med, side, 1.0, label, bad, time_derivative=True)


def test_left_surface_charge_rejects_a_non_finite_kzd():
    with pytest.raises(ValueError, match="^kzd must be finite"):
        label_wavenumbers(Medium(2.0), Side.LEFT, 1.0, math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mode_function_rejects_a_non_finite_position(bad):
    point = SpectralPoint((0.6, 0.0), 0.8, Side.RIGHT, Polarization.TM)
    for axis in range(3):
        r = np.array([0.1, -0.2, 0.3])
        r[axis] = bad
        with pytest.raises(ValueError, match="^r must be finite"):
            carniglia_mandel_mode(Medium(2.0), point, r)


def _plane_wave_sum(med, point, r):
    # the mode as its plane waves, each from polarization_vector and np.exp of
    # the whole phase k.r, with the Fresnel coefficients written out here
    kx, ky = point.kpar
    kz, kzd = label_wavenumbers(med, point.side, point.kpar_mag, point.kz)
    n = med.n
    a, b = (n * n, n) if point.pol is Polarization.TM else (1.0, 1.0)
    den = a * kz + kzd
    r_right, t_right, t_left = (a * kz - kzd) / den, 2 * b * kz / den, 2 * b * kzd / den

    def wave(k_z):
        k = np.array([kx, ky, k_z], dtype=complex)
        return polarization_vector(point.pol, k) * np.exp(1j * (k @ r))

    if point.side is Side.RIGHT:
        f = wave(-kz) + r_right * wave(kz) if r[2] >= 0.0 else t_right * wave(-kzd)
    else:
        f = (wave(kzd) - r_right * wave(-kzd) if r[2] < 0.0 else t_left * wave(kz)) / n
    return NORM * f


@pytest.mark.parametrize("kpar", [(0.6, -0.8), (-0.3, 1.1)])
@pytest.mark.parametrize("pol", [Polarization.TE, Polarization.TM])
def test_mode_matches_its_plane_wave_sum_off_axis(kpar, pol):
    # k_y != 0 (every verify mode has k_par along x): travelling and
    # evanescent labels of both sides, evaluated above and below the interface
    med = Medium(1.7)
    kp = math.hypot(*kpar)
    gamma = evanescent_threshold(med, kp)
    gamma_d = kp * math.sqrt(med.n**2 - 1.0)  # the left labels' total-internal-reflection edge
    labels = [(Side.RIGHT, 0.9 + 0.0j), (Side.RIGHT, 0.4j * gamma), (Side.RIGHT, 1j * gamma),
              (Side.LEFT, gamma_d + 0.8), (Side.LEFT, 0.5 * gamma_d)]
    for side, label in labels:
        point = SpectralPoint(kpar, complex(label), side, pol)
        for r in ([0.3, -0.7, 0.45], [-0.4, 0.2, 1.3], [0.5, 0.6, -0.35], [-0.1, -0.9, -1.2]):
            r = np.array(r)
            got, ref = carniglia_mandel_mode(med, point, r), _plane_wave_sum(med, point, r)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (side, label, r)


def test_mode_at_zero_k_par_names_the_degenerate_basis():
    point = SpectralPoint((0.0, 0.0), 0.8, Side.RIGHT, Polarization.TE)
    with pytest.raises(ValueError, match="degenerate at k_par = 0"):
        carniglia_mandel_mode(Medium(2.0), point, np.array([0.1, 0.2, 0.3]))
