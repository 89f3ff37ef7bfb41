import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfspace_qed.fresnel import fresnel_coefficients
from halfspace_qed.medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    evanescent_threshold,
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
    with pytest.raises(ValueError):
        polarization_vector(Polarization.TM, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        polarization_vector(Polarization.TM, np.array([1.0, 0.0, 1.0j]))


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
    # at n = 2, |k_par| = 1; 5j once gave |E_x| ~ 1427 at z = 2
    med = Medium(2.0)
    bad = SpectralPoint((1.0, 0.0), kz, Side.RIGHT, Polarization.TM)
    with pytest.raises(ValueError, match="right-incident label kz = .*Gamma"):
        carniglia_mandel_mode(med, bad, np.array([0.0, 0.0, 2.0]))


def test_left_labels_reject_imaginary_kzd():
    med = Medium(2.0)
    bad = SpectralPoint((1.0, 0.0), 0.5j, Side.LEFT, Polarization.TM)
    with pytest.raises(ValueError):
        carniglia_mandel_mode(med, bad, np.zeros(3))
    with pytest.raises(ValueError):
        surface_charge_mode(med, Side.LEFT, 1.0, 0.5j)


def test_te_modes_have_no_z_component():
    med = Medium(2.0)
    for side, kl in ((Side.RIGHT, 0.8 + 0.0j), (Side.RIGHT, 0.5j), (Side.LEFT, 1.7 + 0.0j)):
        point = SpectralPoint((1.0, 0.4), kl, side, Polarization.TE)
        for r in (np.array([0.2, -0.1, 0.6]), np.array([-0.3, 0.5, -0.8])):
            assert carniglia_mandel_mode(med, point, r)[2] == 0.0


def test_surface_charge_mode_values():
    assert surface_charge_mode(Medium(1.0), Side.RIGHT, 0.7, 1.0) == 0.0
    assert surface_charge_mode(Medium(1.0), Side.LEFT, 0.7, 1.0) == 0.0
    # perfect-reflector limit: prefactor -> 1/2 and 1 + rR -> 2
    g = surface_charge_mode(Medium(1e6), Side.RIGHT, 0.5, 1.0)
    assert g.real == pytest.approx(NORM, rel=1e-5)
    # near-normal right incidence at n = 1.5: (1.25/4.5) * (1 + 0.2) * (2 pi)^{-3/2}
    g = surface_charge_mode(Medium(1.5), Side.RIGHT, 1e-8, 1.0)
    assert g.real == pytest.approx(1.25 / 4.5 * 1.2 * NORM, rel=1e-9)
    assert g.real == pytest.approx(0.021166, abs=2e-6)


def test_surface_charge_vanishes_like_n_squared_minus_one():
    kpar, kz = 0.8, 0.9
    vals = []
    for n in (1.001, 1.0001):
        g = surface_charge_mode(Medium(n), Side.RIGHT, kpar, kz)
        vals.append(abs(g) / (n * n - 1.0))
    # the ratio converges with an O(n^2 - 1) correction
    assert vals[0] == pytest.approx(vals[1], rel=5e-3)


def test_left_mode_coefficient_uses_refraction():
    med = Medium(2.0)
    kpar, kzd = 0.9, 1.7
    kz = vacuum_kz_from_kzd(med, kpar, kzd)
    g_direct = surface_charge_mode(med, Side.LEFT, kpar, kzd)
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
