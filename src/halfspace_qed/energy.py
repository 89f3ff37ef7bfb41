"""Electrostatic energy bookkeeping across gauges.

In the generalized gauge the whole charge-surface interaction sits in the
c-number image potential V^es.  Transforming to the everywhere-transverse
gauge redistributes it: the Hamiltonian keeps the share (n^2+1)/(2n^2) V^es
while the remaining (n^2-1)/(2n^2) V^es is recovered as the second-order
perturbative shift of the fluctuating surface-charge coupling,

    dE = -(q^2/2) int d^2k_par e^{-2 |k_par| z0} [L(|k_par|) + R(|k_par|)],
    L(kap) = int_0^inf dk_zd |g^L|^2/omega^2,  R(kap) = int_0^inf dk_z |g^R|^2/omega^2

(natural units, no-recoil approximation: particle kinetic denominators are
replaced by the photon frequency, so mass and momentum drop out).  The
particle self-energy is an r0-independent constant and is dropped throughout.
Left- and right-incident contributions are reported separately.

The radial integral is exact.  g depends on (kap, k_z) only through k_z/kap
(the Fresnel coefficients do), omega^2 = kap^2 + k_z^2 has degree 2 and dk_z
(or dk_zd) degree 1, so with k_z = kap s both longitudinal integrals scale as
L(kap) = L(1)/kap.  Then, with d^2k_par = 2 pi kap dkap,

    int d^2k_par e^{-2 kap z0} L(kap) = 2 pi L(1) int_0^inf dkap e^{-2 kap z0}
                                      = pi L(1)/z0,

and dE = -pi q^2 [L(1) + R(1)]/(2 z0): only L(1) and R(1) are integrated.

The right-incident and the travelling left-incident modes are one body on the
vacuum k_z > 0 axis, the left ones by dk_zd = (n^2 k_z/k_zd) dk_z: on the k_zd
axis k_z = sqrt(k_zd^2 - gamma_d^2)/n has a square-root endpoint at
gamma_d = sqrt(n^2-1) (at |k_par| = 1).  g is real on the k_z axis, so there
|g|^2 = g^2, and g^2 (...)/(1 + k_z^2) is analytic in the open first quadrant
(branch points of k_zd at +-i gamma_d/n, poles at +-i and the TM pole
n^2 k_z + k_zd = 0 at k_z = -1/n) and decays like |k_z|^-2: one
``ray_integral`` run takes it along k_z = e^{i pi/4} tan(v), its first panel
graded from the nearer of i gamma_d/n and -1/n.  The evanescent left-incident
modes, 0 < k_zd < gamma_d, where g is complex, ride in the same run as its
cut columns k = i k_zd, integrated by dk_zd.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fresnel import fresnel_coefficients
from .greens import check_charge, image_potential_ves
from .medium import Medium, Polarization, Side
from .modes import surface_charge_mode
from .spectral import QuadratureSpec, ray_integral, ray_last_node

__all__ = [
    "ShiftResult",
    "redistribution_factors",
    "second_order_shift",
    "gauge_invariance_sum",
    "double_commutator_cnumber",
]


@dataclass(frozen=True)
class ShiftResult:
    delta_e: float
    v_es: float
    ratio: float
    expected_ratio: float
    left_part: float
    right_part: float
    n: float
    z0: float
    q: float


# The travelling body runs on the ray k_z = e^{i pi/4} tan(v), where n^2 k_z^2
# is about i n^2 |k_z|^2: k_zd = sqrt(n^2 k_z^2 + n^2 - 1) is finite at every
# ray node while n^2 |k_z|^2 <= DBL_MAX at its largest node |k_z| = 3749.91,
# up to n = 3.5755e150 (n one ulp above overflows k_zd there).  For n from
# 1.00001 up that node's panel stayed whole in each run that met its tolerance
# (tried down to abs_tol = rel_tol = 1e-16).
_RAY_SCALE = math.sqrt(2.0)  # |k_z| = tan(v) on the ray
_KZ_LAST = ray_last_node(_RAY_SCALE)
_N_MAX = math.sqrt(sys.float_info.max) / _KZ_LAST


def _check_index(medium: Medium) -> None:
    """Reject n whose k_zd overflows on the longitudinal ray (above)."""
    if medium.n > _N_MAX:
        raise ValueError(f"n must be at most {_N_MAX:.5g}, where k_zd on the longitudinal "
                         f"ray stays finite, got n={medium.n!r}")


def redistribution_factors(medium: Medium) -> tuple[float, float]:
    """((n^2-1)/2n^2, (n^2+1)/2n^2); the two shares sum to exactly 1."""
    return medium.surface_charge_share, 0.5 * (medium.n**2 + 1.0) / medium.n**2


def _longitudinal(medium: Medium, spec: QuadratureSpec) -> tuple[float, float]:
    """(L(1), R(1)) = (int_0^inf dk_zd |g^L|^2/omega^2, int_0^inf dk_z
    |g^R|^2/omega^2) at |k_par| = 1, omega^2 = 1 + k_z^2, in one ray run: the
    travelling modes as one body g^2 on the ray in k_z, the evanescent
    left-incident ones on its cut columns (the module docstring)."""
    n = medium.n
    n2 = n * n
    gamma_d = math.sqrt(n2 - 1.0)

    def body(k: np.ndarray, rays: int) -> np.ndarray:
        out = np.empty(k.shape + (2,), dtype=complex)
        if rays:  # travelling: g is real on the k_z axis, so |g|^2 = g^2 continues
            kz = k[:, :rays]
            kzd = np.sqrt(n2 * kz * kz + gamma_d * gamma_d)
            tm = fresnel_coefficients(medium, Polarization.TM, 1.0, kz, kzd)
            left = surface_charge_mode(medium, Side.LEFT, tm)
            right = surface_charge_mode(medium, Side.RIGHT, tm)
            omega2 = 1.0 + kz * kz
            out[:, :rays, 0] = left ** 2 * (n2 * kz / kzd) / omega2
            out[:, :rays, 1] = right ** 2 / omega2
        if rays < k.shape[1]:  # evanescent: k_zd = t on the cut columns k = i t
            kzd = k[:, rays:].imag
            kz = np.sqrt(kzd * kzd - gamma_d * gamma_d + 0j) / n
            tm = fresnel_coefficients(medium, Polarization.TM, 1.0, kz, kzd)
            out[:, rays:, 0] = (np.abs(surface_charge_mode(medium, Side.LEFT, tm)) ** 2
                                * n2 / (1.0 + kzd * kzd))
            out[:, rays:, 1] = 0.0
        return out

    # the ray's first panel is graded from the nearer of the branch point
    # i gamma_d/n and the TM pole -1/n; the poles of the cut body, of
    # 1/(1 + t^2) at t = i and of |g^L|^2 ~ 1/(n^2 - t^2) at t = n, lie the
    # same distance asinh(1/gamma_d) from its two ends in u, t = gamma_d sin u
    end = math.asinh(1.0 / gamma_d)
    ray, cut = ray_integral(body, _RAY_SCALE, spec, near=min(gamma_d, 1.0) / n,
                            gamma=gamma_d, cut_near=(end, end)).value.real
    return float(cut[0] + ray[0]), float(ray[1])


def _unit_parts(medium: Medium, spec: QuadratureSpec) -> list[float]:
    """The left- and right-incident parts of -dE at q = 1, z0 = 1:
    pi (L(1), R(1))/2 (the module docstring)."""
    return [math.pi * part / 2.0 for part in _longitudinal(medium, spec)]


def _at_charge(q: float, z0: float, part: float) -> float:
    """q^2 part/z0 from the mantissas of q and z0, their binary exponents
    applied last: bitwise the plain product wherever its steps are normal
    floats, and with no subnormal q^2 or part/z0 step elsewhere (part < 1)."""
    (mq, eq), (mz, ez) = math.frexp(q), math.frexp(z0)
    return math.ldexp(mq * mq * (part / mz), 2 * eq - ez)


def second_order_shift(
    q: float, medium: Medium, z0: float, spec: QuadratureSpec
) -> ShiftResult:
    """Numerical second-order shift of the surface-charge coupling, with the
    image potential and the ratio dE/V^es (analytic target (n^2-1)/2n^2)."""
    check_charge(q, z0)
    _check_index(medium)
    n = medium.n
    expected = redistribution_factors(medium)[0]
    v_es = image_potential_ves(q, medium, z0)
    if n == 1.0:
        return ShiftResult(0.0, v_es, 0.0, expected, 0.0, 0.0, n, z0, q)
    parts = _unit_parts(medium, spec)
    left, right = (-_at_charge(q, z0, part) for part in parts)
    # the ratio of the unit-charge energies at the mantissa of z0, in which q^2
    # and z0's binary exponent cancel exactly: bitwise the ratio at z0 itself
    # wherever that one's steps are normal floats
    mant = math.frexp(z0)[0]
    ratio = -sum(part / mant for part in parts) / image_potential_ves(1.0, medium, mant)
    return ShiftResult(left + right, v_es, ratio, expected, left, right, n, z0, q)


def gauge_invariance_sum(q: float, medium: Medium, z0: float, spec: QuadratureSpec) -> float:
    """dE + ((n^2+1)/2n^2) V^es; gauge invariance demands this equal V^es."""
    shift = second_order_shift(q, medium, z0, spec)
    return shift.delta_e + redistribution_factors(medium)[1] * shift.v_es


def double_commutator_cnumber(
    q: float, medium: Medium, z0: float, spec: QuadratureSpec
) -> float:
    """c-number (1/2)(i/hbar)^2 [S,[S,H_field]] of the gauge transformation at
    particle height z0, as the mode integral q^2 sum_k omega_k |chi_k(z0)|^2.

    The generating-function coefficient is chi_k = g_k e^{-|k_par| z0} /
    sqrt(2 omega^3), so omega |chi_k|^2 = |g_k|^2 e^{-2 |k_par| z0}/(2 omega^2)
    and the sum collapses onto the same longitudinal integrals as the
    second-order shift with the opposite sign: pi q^2 [L(1) + R(1)]/(2 z0).
    """
    check_charge(q, z0)
    _check_index(medium)
    if medium.n == 1.0:
        return 0.0
    return sum(_at_charge(q, z0, part) for part in _unit_parts(medium, spec))
