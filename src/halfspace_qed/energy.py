"""Electrostatic energy bookkeeping across gauges.

In the generalized gauge the whole charge-surface interaction sits in the
c-number image potential V^es.  Transforming to the everywhere-transverse
gauge redistributes it: the Hamiltonian keeps the share (n^2+1)/(2n^2) V^es
while the remaining (n^2-1)/(2n^2) V^es is recovered as the second-order
perturbative shift of the fluctuating surface-charge coupling,

    dE = -(q^2/2) int d^2k_par e^{-2 |k_par| z0}
         [ int_0^inf dk_zd |g^L|^2/omega^2 + int_0^inf dk_z |g^R|^2/omega^2 ]

(natural units, no-recoil approximation: particle kinetic denominators are
replaced by the photon frequency, so mass and momentum drop out).  The
particle self-energy is an r0-independent constant and is dropped throughout.
Left- and right-incident contributions are reported separately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greens import image_potential_ves
from .medium import Medium, Side
from .modes import surface_charge_mode
from .spectral import (
    QuadratureSpec,
    cut_segment_integral,
    damped_radial_transform,
    decaying_halfline_integral,
)

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


def redistribution_factors(medium: Medium) -> tuple[float, float]:
    """((n^2-1)/2n^2, (n^2+1)/2n^2); the two shares sum to exactly 1."""
    return medium.surface_charge_share, (medium.n**2 + 1.0) / (2.0 * medium.n**2)


def _check_charge(q: float, z0: float) -> None:
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ValueError(f"z0 must be finite and > 0 (charge outside the dielectric), got {z0!r}")


def _right_longitudinal(medium: Medium, kap: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """int_0^inf dk_z |g^R|^2/omega^2, omega^2 = kap^2 + k_z^2, for each entry of ``kap``."""
    n = medium.n

    def f(kz: np.ndarray) -> np.ndarray:
        kzd = np.sqrt(n * n * kz * kz + (n * n - 1.0) * kap * kap)
        g = surface_charge_mode(medium, Side.RIGHT, kap, kz, kzd)
        return np.abs(g) ** 2 / (kap * kap + kz * kz)

    return np.real(decaying_halfline_integral(f, np.maximum(kap, 1e-12), spec).value)


def _left_longitudinal(medium: Medium, kap: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """int_0^inf dk_zd |g^L|^2/omega^2, omega^2 = (kap^2 + k_zd^2)/n^2, per entry
    of kap.  The vacuum k_z = sqrt(k_zd^2 - gamma_d^2)/n turns imaginary below
    the total internal reflection threshold gamma_d, where the range is split."""
    n = medium.n
    gamma_d = kap * math.sqrt(n * n - 1.0)

    def f(kzd: np.ndarray) -> np.ndarray:
        kz = np.sqrt(kzd * kzd - gamma_d * gamma_d + 0j) / n
        g = surface_charge_mode(medium, Side.LEFT, kap, kzd, kz)
        return np.abs(g) ** 2 * (n * n) / (kap * kap + kzd * kzd)

    ev = cut_segment_integral(f, gamma_d, spec)
    scale = np.maximum(np.maximum(kap, gamma_d), 1e-12)
    tr = decaying_halfline_integral(f, scale, spec, offset=gamma_d)
    return np.real(ev.value) + np.real(tr.value)


def second_order_shift(
    q: float, medium: Medium, z0: float, spec: QuadratureSpec
) -> ShiftResult:
    """Numerical second-order shift of the surface-charge coupling, with the
    image potential and the ratio dE/V^es (analytic target (n^2-1)/2n^2)."""
    _check_charge(q, z0)
    n = medium.n
    expected = redistribution_factors(medium)[0]
    v_es = image_potential_ves(q, medium, z0)
    if n == 1.0:
        return ShiftResult(0.0, v_es, 0.0, expected, 0.0, 0.0, n, z0, q)
    pref = -math.pi * q * q  # -(q^2/2) times the 2 pi of d^2k_par = 2 pi kap dkap

    def radial(kap: np.ndarray) -> np.ndarray:
        left, right = _left_longitudinal(medium, kap, spec), _right_longitudinal(medium, kap, spec)
        return np.stack([kap * left, kap * right], axis=-1)

    parts = damped_radial_transform(radial, 2.0 * z0, spec)
    left = pref * float(np.real(parts.value[0]))
    right = pref * float(np.real(parts.value[1]))
    delta_e = left + right
    return ShiftResult(delta_e, v_es, delta_e / v_es, expected, left, right, n, z0, q)


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
    second-order shift with the opposite sign.
    """
    _check_charge(q, z0)
    if medium.n == 1.0:
        return 0.0
    pref = math.pi * q * q

    def radial(kap: np.ndarray) -> np.ndarray:
        left, right = _left_longitudinal(medium, kap, spec), _right_longitudinal(medium, kap, spec)
        return kap * (left + right)

    total = damped_radial_transform(radial, 2.0 * z0, spec)
    return pref * float(np.real(total.value))
