import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from halfspace_qed.greens import (
    GreenVariant,
    PointPair,
    electrostatic_green,
    grad_grad_green_tensor,
    image_potential_ves,
)
from halfspace_qed.medium import Medium


def pair(r, rp):
    return PointPair(np.array(r, dtype=float), np.array(rp, dtype=float))


def test_source_must_be_outside():
    with pytest.raises(ValueError):
        pair((0, 0, 1.0), (0, 0, -0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coord", range(6))
@settings(max_examples=20, deadline=None)
@given(coords=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_point_pair_rejects_non_finite_coordinates(coord, bad, coords):
    # one non-finite coordinate among any finite ones, whatever side z' is on
    coords[coord] = bad
    with pytest.raises(ValueError, match="finite"):
        PointPair(np.array(coords[:3]), np.array(coords[3:]))


def test_free_space_reduction():
    p = pair((0.3, -0.2, 0.8), (0.0, 0.1, 0.4))
    full = electrostatic_green(Medium(1.0), GreenVariant.FULL, p)
    free = electrostatic_green(Medium(1.0), GreenVariant.FREE, p)
    assert full == pytest.approx(free)
    assert free == pytest.approx(1.0 / (4 * math.pi * p.separation))


def test_reflected_value_at_unit_image_distance():
    # alpha = 1/2 for n = sqrt(3); |r - rbar'| = 1
    p = pair((0.0, 0.0, 0.6), (0.0, 0.0, 0.4))
    val = electrostatic_green(Medium(math.sqrt(3.0)), GreenVariant.REFLECTED, p)
    assert val == pytest.approx(-0.5 / (4 * math.pi))


def test_region_mismatch_rejected():
    p_below = pair((0.0, 0.5, -0.3), (0.0, 0.0, 0.4))
    with pytest.raises(ValueError):
        electrostatic_green(Medium(2.0), GreenVariant.REFLECTED, p_below)
    p_above = pair((0.0, 0.5, 0.3), (0.0, 0.0, 0.4))
    with pytest.raises(ValueError):
        electrostatic_green(Medium(2.0), GreenVariant.TRANSMITTED, p_above)


def test_full_green_continuous_at_interface():
    med = Medium(1.8)
    rp = (0.1, -0.2, 0.7)
    above = electrostatic_green(med, GreenVariant.FULL, pair((0.4, 0.3, 1e-12), rp))
    below = electrostatic_green(med, GreenVariant.FULL, pair((0.4, 0.3, -1e-12), rp))
    assert above == pytest.approx(below, rel=1e-9)
    expected = (2.0 / (med.n**2 + 1)) / (4 * math.pi * pair((0.4, 0.3, 0.0), rp).separation)
    assert above == pytest.approx(expected, rel=1e-9)


def test_displacement_matching_at_interface():
    # eps(z) d/dz G continuous across z = 0; second-order one-sided stencils
    med = Medium(2.2)
    rp = np.array([0.0, 0.0, 0.9])
    h = 1e-5

    def g(z):
        return electrostatic_green(med, GreenVariant.FULL, pair((0.5, 0.1, z), rp))

    dz_above = (-3 * g(0.0) + 4 * g(h) - g(2 * h)) / (2 * h)
    dz_below = (3 * g(0.0) - 4 * g(-h) + g(-2 * h)) / (2 * h)
    assert abs(med.eps_inside * dz_below - dz_above) < 1e-8 * abs(dz_above)


def _fd_grad_grad(med, variant, p, h=None):
    # oracle step: 1e-4 x the pair separation, central differences
    h = h if h is not None else 1e-4 * p.separation
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            di, dj = np.zeros(3), np.zeros(3)
            di[i] = h
            dj[j] = h
            vals = []
            for si in (+1, -1):
                for sj in (+1, -1):
                    q = PointPair(p.r + si * di, p.rprime + sj * dj)
                    vals.append(si * sj * electrostatic_green(med, variant, q))
            out[i, j] = sum(vals) / (4 * h * h)
    return out


@pytest.mark.parametrize("variant,r", [
    (GreenVariant.FREE, (0.4, -0.3, 0.9)),
    (GreenVariant.REFLECTED, (0.4, -0.3, 0.9)),
    (GreenVariant.FULL, (0.4, -0.3, 0.9)),
    (GreenVariant.TRANSMITTED, (0.2, 0.5, -0.6)),
    (GreenVariant.FULL, (0.2, 0.5, -0.6)),
])
def test_grad_grad_matches_finite_differences(variant, r):
    med = Medium(2.0)
    p = pair(r, (0.0, 0.1, 0.5))
    analytic = grad_grad_green_tensor(med, variant, p)
    fd = _fd_grad_grad(med, variant, p)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - fd)) < 1e-6 * scale


def test_free_tensor_trace_harmonic():
    p = pair((0.4, -0.3, 0.9), (0.0, 0.1, 0.5))
    t = grad_grad_green_tensor(Medium(2.0), GreenVariant.FREE, p)
    assert abs(np.trace(t)) < 1e-12 * np.max(np.abs(t))


def test_free_tensor_exchange_symmetry():
    # swapping (i, r) <-> (j, r') leaves the free tensor invariant
    med = Medium(1.0)
    a, b = (0.4, -0.3, 0.9), (0.0, 0.1, 0.5)
    t1 = grad_grad_green_tensor(med, GreenVariant.FREE, pair(a, b))
    t2 = grad_grad_green_tensor(med, GreenVariant.FREE, pair(b, a))
    assert_allclose(t1, t2.T, rtol=1e-13)


def test_reflected_zz_on_axis():
    # magnitude 2 alpha / (4 pi (z+z')^3) at zero lateral separation
    med = Medium(2.0)
    z, zp = 0.8, 0.5
    p = pair((0.0, 0.0, z), (0.0, 0.0, zp))
    t = grad_grad_green_tensor(med, GreenVariant.REFLECTED, p)
    expected_mag = 2 * med.image_strength / (4 * math.pi * (z + zp) ** 3)
    assert abs(t[2, 2]) == pytest.approx(expected_mag, rel=1e-13)
    # sign fixed by the finite-difference oracle
    fd = _fd_grad_grad(med, GreenVariant.REFLECTED, p)
    assert np.sign(t[2, 2]) == np.sign(fd[2, 2])


def test_laplacian_of_full_green_vanishes():
    med = Medium(1.7)
    rp = np.array([0.0, 0.0, 0.8])
    for r in (np.array([0.3, 0.2, 1.1]), np.array([0.4, -0.1, -0.7])):
        h = 1e-4
        lap = 0.0
        g0 = electrostatic_green(med, GreenVariant.FULL, PointPair(r, rp))
        for axis in range(3):
            dr = np.zeros(3)
            dr[axis] = h
            lap += (
                electrostatic_green(med, GreenVariant.FULL, PointPair(r + dr, rp))
                - 2 * g0
                + electrostatic_green(med, GreenVariant.FULL, PointPair(r - dr, rp))
            ) / h**2
        # residual relative to the curvature scale G/s^2
        sep = np.linalg.norm(r - rp)
        assert abs(lap) < 1e-6 * abs(g0) / sep**2


def test_image_potential_values():
    assert image_potential_ves(1.0, Medium(1.0), 1.0) == 0.0
    assert image_potential_ves(1.0, Medium(1e6), 1.0) == pytest.approx(-1 / (16 * math.pi), abs=1e-12)
    assert image_potential_ves(1.0, Medium(math.sqrt(2.0)), 1.0) == pytest.approx(-1 / (48 * math.pi))


def test_image_potential_scaling_and_domain():
    med = Medium(2.3)
    v1 = image_potential_ves(1.0, med, 0.7)
    v2 = image_potential_ves(1.0, med, 1.4)
    assert v2 == pytest.approx(v1 / 2, rel=1e-14)
    assert image_potential_ves(2.0, med, 0.7) == pytest.approx(4 * v1, rel=1e-14)
    with pytest.raises(ValueError):
        image_potential_ves(1.0, med, 0.0)


def test_coincident_points_rejected():
    p = pair((0.1, 0.2, 0.5), (0.1, 0.2, 0.5))
    with pytest.raises(ValueError):
        grad_grad_green_tensor(Medium(2.0), GreenVariant.FREE, p)


def test_image_potential_rejects_non_finite_inputs():
    med = Medium(2.3)
    for bad in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="z0"):
            image_potential_ves(1.0, med, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q must be finite"):
            image_potential_ves(bad, med, 0.7)
