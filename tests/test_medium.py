import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from halfspace_qed import medium
from halfspace_qed.medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    epsilon_profile,
    evanescent_threshold,
    label_frequency,
    label_wavenumbers,
    mode_frequency,
    refracted_kz,
    vacuum_kz_from_kzd,
)


def test_epsilon_profile_values():
    med = Medium(2.0)
    assert epsilon_profile(med, 1.0) == 1.0
    assert epsilon_profile(med, -1.0) == 4.0
    # interface value is the midpoint convention
    assert epsilon_profile(med, 0.0) == 2.5


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_epsilon_profile_rejects_non_finite_z(z):
    # NaN is neither above nor below the interface, and once read the midpoint
    with pytest.raises(ValueError, match="z must be finite"):
        epsilon_profile(Medium(2.0), z)


def test_medium_rejects_bad_index():
    with pytest.raises(ValueError):
        Medium(0.5)
    with pytest.raises(ValueError):
        Medium(float("nan"))


@pytest.mark.parametrize("n", [1e200, 1.4e154, math.inf])
def test_medium_rejects_an_index_whose_square_overflows(n):
    # a finite n with n**2 = inf read NaN image strengths and shares before
    with pytest.raises(ValueError, match=re.escape(f"finite n**2, got n={n}")):
        Medium(n)


def test_shares_are_exact_up_to_the_largest_index():
    med = Medium(1.3e154)  # n**2 finite, 2 n**2 not
    assert med.image_strength == 1.0
    assert med.surface_charge_share == 0.5


def test_refracted_kz_examples():
    assert refracted_kz(Medium(1.0), 0.7, 0.3 + 0.2j) == pytest.approx(0.3 + 0.2j)
    assert refracted_kz(Medium(2.0), 0.0, 1.0) == pytest.approx(2.0)
    med = Medium(math.sqrt(2.0))
    # the branch-point value is the square root of rounding noise
    assert abs(refracted_kz(med, 1.0, 1j / math.sqrt(2.0))) < 1e-7


def test_refracted_kz_sign_rule_and_quadratic_identity():
    med = Medium(1.7)
    for kz in (0.3, 1.1, 2.9):
        plus = refracted_kz(med, 0.8, kz)
        minus = refracted_kz(med, 0.8, -kz)
        assert plus.real > 0 and minus.real < 0
        assert minus == pytest.approx(-plus)
        lhs = plus**2 - med.n**2 * kz**2
        assert lhs == pytest.approx((med.n**2 - 1) * 0.8**2, abs=1e-14)


def test_refracted_kz_real_on_evanescent_segment():
    med = Medium(2.0)
    gamma = evanescent_threshold(med, 1.3)
    for frac in (0.1, 0.5, 0.99):
        val = refracted_kz(med, 1.3, 1j * frac * gamma)
        assert val.imag == 0.0
        assert val.real >= 0.0
    # continuous limit to zero at the branch point
    assert abs(refracted_kz(med, 1.3, 1j * gamma)) < 1e-7


def test_evanescent_threshold_values():
    assert evanescent_threshold(Medium(math.sqrt(2.0)), 1.0) == pytest.approx(1 / math.sqrt(2))
    assert evanescent_threshold(Medium(1.0), 3.0) == 0.0
    assert evanescent_threshold(Medium(1e6), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert evanescent_threshold(Medium(2.0), 1.0) < 1.0
    kpar = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(evanescent_threshold(Medium(2.0), kpar),
                          [evanescent_threshold(Medium(2.0), k) for k in kpar])
    assert evanescent_threshold(Medium(2.0), 2) == evanescent_threshold(Medium(2.0), 2.0)
    for bad in (-1.0, math.nan, math.inf, np.array([1.0, math.nan]), "1.5", True, 1j,
                np.array([1.0, 2.0 + 0j])):
        with pytest.raises(ValueError, match="kpar_mag"):
            evanescent_threshold(Medium(2.0), bad)


def test_mode_frequency_examples():
    right = SpectralPoint((0.0, 0.0), 1.0, Side.RIGHT, Polarization.TM)
    assert mode_frequency(Medium(2.0), right) == pytest.approx(1.0)
    left = SpectralPoint((0.0, 0.0), 2.0, Side.LEFT, Polarization.TM)
    assert mode_frequency(Medium(2.0), left) == pytest.approx(1.0)
    evan = SpectralPoint((1.0, 0.0), 0.5j, Side.RIGHT, Polarization.TM)
    assert mode_frequency(Medium(2.0), evan) == pytest.approx(math.sqrt(0.75))


def test_mode_frequency_rejects_nonreal():
    bad = SpectralPoint((1.0, 0.0), 2.0j, Side.RIGHT, Polarization.TE)
    with pytest.raises(ValueError):
        mode_frequency(Medium(2.0), bad)


def _labels(rng, med):
    """Right and left labels on and off the label set at random |k_par|:
    travelling and evanescent k_z (t = Gamma included), k_zd above and below
    the total internal reflection threshold, and each way to miss the set."""
    for kp in np.concatenate([[0.0], rng.uniform(0.01, 5.0, 6)]):
        kp = float(kp)
        gamma = float(evanescent_threshold(med, kp))
        t, kz, kzd = (float(x) for x in rng.uniform(0.01, 1.0, 3) * [gamma, 6.0, 8.0])
        threshold = kp * math.sqrt(med.n * med.n - 1.0)
        yield from ((kp, Side.RIGHT, label) for label in (
            kz, 1j * t, 1j * gamma, -kz, 0.0, 1j * (gamma + 1.0), kz + 0.5j, -0.5j,
            math.nan, complex(0.0, math.inf)))
        yield from ((kp, Side.LEFT, label) for label in (
            kzd + threshold, 0.99 * threshold, threshold, -kzd, kzd + 1j, math.inf))
    yield math.nan, Side.RIGHT, 1.0
    yield 1.0, "R", 1.0


@pytest.mark.parametrize("n", [1.0, 1.01, 1.5, 2.0, 4.0, 40.0])
def test_mode_frequency_is_the_label_rule_without_its_refraction_root(n, monkeypatch):
    # a right label's omega reads k_z alone: mode_frequency resolves a label
    # behind the checks of label_wavenumbers with no refracted_kz call, and
    # gives the bits of label_frequency(*label_wavenumbers(...)) or raises
    # the same ValueError
    refracted = []
    monkeypatch.setattr(medium, "refracted_kz",
                        lambda *args: refracted.append(args) or refracted_kz(*args))
    med = Medium(n)
    valid = {Side.RIGHT: 0, Side.LEFT: 0}
    for kp, side, label in _labels(np.random.default_rng(29), med):
        point = SpectralPoint((kp, 0.0), label, side, Polarization.TM)
        try:
            expected = label_frequency(med, side, kp, *label_wavenumbers(med, side, kp, label))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                mode_frequency(med, point)
            assert str(got.value) == str(exc)
            continue
        refracted.clear()
        omega = mode_frequency(med, point)
        assert omega == expected and type(omega) is type(expected)
        assert not refracted
        valid[side] += 1
    # travelling k_z at each |k_par|, and i t, i Gamma at each one > 0 for
    # n > 1; k_zd above the threshold at each |k_par|, and below it at each
    # one > 0 (rounding decides whether the threshold itself is on the set)
    assert valid[Side.RIGHT] == 7 + 2 * 6 * (n > 1.0)
    assert valid[Side.LEFT] >= 7 + 6 * (n > 1.0)


def test_frequency_matching_across_interface():
    # a left label built by refraction of a travelling right label has the
    # same frequency
    med = Medium(1.8)
    kpar, kz = 0.9, 0.6
    kzd = refracted_kz(med, kpar, kz)
    right = SpectralPoint((kpar, 0.0), kz, Side.RIGHT, Polarization.TM)
    left = SpectralPoint((kpar, 0.0), kzd.real, Side.LEFT, Polarization.TM)
    assert mode_frequency(med, right) == pytest.approx(mode_frequency(med, left), rel=1e-13)


@given(
    n=st.floats(1.0, 6.0),
    kpar=st.floats(0.01, 5.0),
    kzd=st.floats(0.01, 8.0),
)
def test_vacuum_kz_roundtrip(n, kpar, kzd):
    med = Medium(n)
    kz = vacuum_kz_from_kzd(med, kpar, kzd)
    back = refracted_kz(med, kpar, kz)
    assert back == pytest.approx(kzd, rel=1e-9, abs=1e-9)


@given(n=st.floats(1.0, 6.0), kpar=st.floats(0.0, 5.0), kz=st.floats(0.001, 6.0))
def test_refraction_quadratic_identity_property(n, kpar, kz):
    med = Medium(n)
    kzd = refracted_kz(med, kpar, kz)
    lhs = kzd.real**2 - n * n * kz * kz
    assert np.isclose(lhs, (n * n - 1.0) * kpar * kpar, atol=1e-10 * max(1.0, kzd.real**2))


def _point(kpar, label, side):
    return SpectralPoint((kpar, 0.0), label, side, Polarization.TM)


@pytest.mark.parametrize("call, name", [
    (lambda: refracted_kz(Medium(2.0), math.nan, 1.0), "kpar_mag"),
    (lambda: refracted_kz(Medium(2.0), 1.0, complex(math.nan, 0.0)), "kz"),
    (lambda: vacuum_kz_from_kzd(Medium(2.0), math.inf, 1.0), "kpar_mag"),
    (lambda: vacuum_kz_from_kzd(Medium(2.0), 1.0, math.nan), "kzd"),
    (lambda: mode_frequency(Medium(2.0), _point(math.nan, 1.0, Side.RIGHT)), "kpar_mag"),
    (lambda: mode_frequency(Medium(2.0), _point(1.0, complex(0.0, math.inf), Side.RIGHT)), "kz"),
    (lambda: mode_frequency(Medium(2.0), _point(1.0, math.nan, Side.LEFT)), "kzd"),
    (lambda: label_wavenumbers(Medium(2.0), Side.LEFT, 1.0, math.inf, "kz_or_kzd"), "kz_or_kzd"),
], ids=["refracted_kpar", "refracted_kz", "vacuum_kpar", "vacuum_kzd", "frequency_kpar",
        "frequency_kz", "frequency_kzd", "resolver_named"])
def test_label_kinematics_reject_non_finite_labels(call, name):
    # a non-finite label fails fast, naming the parameter, not as a NaN result
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()
