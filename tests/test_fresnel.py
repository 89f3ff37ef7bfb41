import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfspace_qed.fresnel import cancellation_residual, fresnel_coefficients
from halfspace_qed.medium import (
    Medium,
    Polarization,
    Side,
    evanescent_threshold,
    label_wavenumbers,
    refracted_kz,
    vacuum_kz_from_kzd,
)
from halfspace_qed.modes import surface_charge_mode


def test_free_space_is_trivial():
    c = fresnel_coefficients(Medium(1.0), Polarization.TE, 0.7, 0.9)
    assert c.rR == 0 and c.rL == 0
    assert c.tR == pytest.approx(1.0) and c.tL == pytest.approx(1.0)


def test_normal_incidence_values():
    med = Medium(1.5)
    te = fresnel_coefficients(med, Polarization.TE, 0.0, 1.0)
    assert te.rR == pytest.approx(-0.2)
    assert te.tR == pytest.approx(0.8)
    tm = fresnel_coefficients(med, Polarization.TM, 0.0, 1.0)
    assert tm.rR == pytest.approx(0.2)
    assert tm.tR == pytest.approx(0.8)


def test_tm_normal_incidence_closed_form():
    # rR_TM at kpar = 0 simplifies to (n-1)/(n+1)
    for n in (1.2, 2.0, 3.7):
        c = fresnel_coefficients(Medium(n), Polarization.TM, 0.0, 1.3)
        assert abs(c.rR - (n - 1) / (n + 1)) < 1e-14


def test_perfect_reflector_limit():
    med = Medium(1e4)
    tm = fresnel_coefficients(med, Polarization.TM, 0.3, 1.0)
    te = fresnel_coefficients(med, Polarization.TE, 0.3, 1.0)
    assert abs(tm.rR - 1.0) < 3e-4
    assert abs(te.rR + 1.0) < 3e-4


def test_kz_zero_rejected():
    with pytest.raises(ValueError):
        fresnel_coefficients(Medium(2.0), Polarization.TE, 1.0, 0.0)


def test_cancellation_examples():
    assert abs(cancellation_residual(Medium(2.0), Polarization.TM, 1.0, 0.7)) < 1e-14
    assert abs(cancellation_residual(Medium(2.0), Polarization.TE, 1.0, 0.3j)) < 1e-14
    assert cancellation_residual(Medium(1.0), Polarization.TM, 0.4, 0.9) == 0.0


def test_travelling_coefficients_real_and_bounded():
    med = Medium(2.4)
    for kz in (0.2, 0.9, 3.0):
        for pol in Polarization:
            c = fresnel_coefficients(med, pol, 1.1, kz)
            for v in (c.rR, c.tR, c.rL, c.tL):
                assert v.imag == 0.0
            assert abs(c.rR) <= 1.0


def test_evanescent_conjugation_rule():
    # Schwarz reflection on the segment: conjugating a purely imaginary kz
    # (kz* = -kz, kzd real) conjugates the left transmission coefficient
    med = Medium(2.0)
    kpar = 1.0
    gamma = evanescent_threshold(med, kpar)
    for pol in Polarization:
        for frac in (0.2, 0.6, 0.9):
            kz = 1j * frac * gamma
            mirrored = fresnel_coefficients(med, pol, kpar, kz.conjugate()).tL
            assert mirrored == pytest.approx(fresnel_coefficients(med, pol, kpar, kz).tL.conjugate())


@settings(max_examples=150, deadline=None)
@given(
    n=st.floats(1.0, 5.0),
    kpar=st.floats(0.05, 4.0),
    u=st.floats(0.02, 0.98),
    travelling=st.booleans(),
    pol=st.sampled_from(list(Polarization)),
)
def test_identities_property(n, kpar, u, travelling, pol):
    med = Medium(n)
    gamma = evanescent_threshold(med, kpar)
    if travelling or gamma < 1e-9:
        kz = complex(0.05 + 4.0 * u)
    else:
        kz = 1j * u * gamma
    c = fresnel_coefficients(med, pol, kpar, kz)
    kzd = refracted_kz(med, kpar, kz)
    assert abs(c.rL + c.rR) == 0.0
    # tL = 2 b kzd/den and (kzd/kz) tR are two formulas: they agree to rounding
    assert abs(c.tL - kzd / kz * c.tR) <= 4.0 * math.ulp(abs(c.tL))
    assert abs(cancellation_residual(med, pol, kpar, kz)) < 1e-13


def _assert_within_ulps(array_values, scalar_values, scale=None, ulps=2.0):
    # real and imaginary parts within ``ulps`` ulp of |value|, or of a bound
    # on it where a sum like 1 + rR may cancel
    for a, s in zip(np.ravel(array_values), scalar_values):
        bound = ulps * math.ulp(abs(s) if scale is None else scale)
        assert abs((a - s).real) <= bound and abs((a - s).imag) <= bound


@settings(max_examples=100, deadline=None)
@given(
    n=st.floats(1.0, 5.0),
    kpar=st.floats(0.05, 4.0),
    us=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6),
    travelling=st.booleans(),
)
def test_array_calls_match_scalar_calls(n, kpar, us, travelling):
    # integrands pass the kzd they already have and get coefficients and
    # surface charges elementwise; each entry is the scalar call's value
    med = Medium(n)
    gamma = evanescent_threshold(med, kpar)
    cut = not travelling and gamma > 1e-9
    kz = [1j * u * gamma if cut else complex(0.05 + 4.0 * u) for u in us]
    kzd = [refracted_kz(med, kpar, k) for k in kz]
    kz_arr = np.array(kz) if cut else np.real(kz)
    kzd_arr = np.real(kzd)
    for pol in Polarization:
        arr = fresnel_coefficients(med, pol, kpar, kz_arr, kzd_arr)
        singles = [fresnel_coefficients(med, pol, kpar, k) for k in kz]
        for name in ("rR", "tR", "rL", "tL"):
            _assert_within_ulps(getattr(arr, name), [getattr(c, name) for c in singles])
    # |1 + rR| <= 2 and |tL/n| <= 2 bound |g| by twice the normalised share
    g_max = 2.0 * (2.0 * math.pi) ** -1.5 * med.surface_charge_share
    right = fresnel_coefficients(med, Polarization.TM, kpar, kz_arr, kzd_arr)
    _assert_within_ulps(np.broadcast_to(surface_charge_mode(med, Side.RIGHT, right), kz_arr.shape),
                        [_label_charge(med, Side.RIGHT, kpar, k) for k in kz], g_max)
    # left labels are dielectric-side k_zd, below the total internal reflection
    # threshold on the cut and above it travelling
    gamma_d = kpar * math.sqrt(n * n - 1.0)
    labels = [u * gamma_d if cut else gamma_d + 0.05 + 4.0 * u for u in us]
    partners = np.array([vacuum_kz_from_kzd(med, kpar, k) for k in labels])
    left = fresnel_coefficients(med, Polarization.TM, kpar, partners, np.array(labels))
    _assert_within_ulps(np.broadcast_to(surface_charge_mode(med, Side.LEFT, left), partners.shape),
                        [_label_charge(med, Side.LEFT, kpar, k) for k in labels], g_max)


def _label_charge(med, side, kpar, label):
    # g of one label, from the TM set of its resolved wavenumbers
    kz, kzd = label_wavenumbers(med, side, kpar, label)
    tm = fresnel_coefficients(med, Polarization.TM, kpar, kz, kzd)
    return surface_charge_mode(med, side, tm)


def test_interface_matching_built_in():
    # 1 + rR equals the right transmission for TE, and n-weighted for TM
    med = Medium(1.9)
    te = fresnel_coefficients(med, Polarization.TE, 0.8, 1.2)
    assert 1 + te.rR == pytest.approx(te.tR)
    tm = fresnel_coefficients(med, Polarization.TM, 0.8, 1.2)
    assert 1 + tm.rR == pytest.approx(med.n * tm.tR)


@pytest.mark.parametrize("kpar, kz, name", [(math.nan, 0.7, "kpar_mag"),
                                            (1.0, complex(math.nan, 0.0), "kz")])
def test_scalar_coefficients_reject_non_finite_labels(kpar, kz, name):
    med = Medium(2.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        fresnel_coefficients(med, Polarization.TM, kpar, kz)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cancellation_residual(med, Polarization.TE, kpar, kz)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        label_wavenumbers(med, Side.RIGHT, kpar, kz)
