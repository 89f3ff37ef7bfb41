"""Electrostatic Green's functions of the half-space and the image potential.

For a unit source at r' with z' > 0 the Poisson Green's function is

    G(r, r') = G0(r - r') + GR(r, r')   for z > 0
    G(r, r') = GT(r - r')               for z < 0

with G0 = 1/(4 pi |r - r'|), the reflected part GR = -alpha/(4 pi |r - rbar'|)
built on the image point rbar' = (x', y', -z'), alpha = (n^2-1)/(n^2+1), and
the transmitted part GT = (2/(n^2+1)) * 1/(4 pi |r - r'|).

Second-derivative tensors grad_i grad'_j G are hand-derived closed forms; the
test-suite keeps an independent central finite-difference oracle against them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .medium import Medium

__all__ = [
    "GreenVariant",
    "PointPair",
    "electrostatic_green",
    "grad_grad_green_tensor",
    "image_grad_grad_tensor",
    "image_potential_ves",
]

_FOUR_PI = 4.0 * np.pi


class GreenVariant(Enum):
    FREE = "free"
    REFLECTED = "reflected"
    TRANSMITTED = "transmitted"
    FULL = "full"


@dataclass(frozen=True)
class PointPair:
    """Field point r and source point r' with z' > 0 strictly."""

    r: np.ndarray
    rprime: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        rp = np.asarray(self.rprime, dtype=float)
        if r.shape != (3,) or rp.shape != (3,):
            raise ValueError("points must be 3-vectors")
        if not all(map(math.isfinite, r.tolist() + rp.tolist())):
            raise ValueError(f"points must be finite, got r={r.tolist()}, r'={rp.tolist()}")
        if rp[2] <= 0.0:
            raise ValueError("the source point must lie outside the dielectric (z' > 0)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rprime", rp)

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.r - self.rprime))

    @property
    def image_point(self) -> np.ndarray:
        return self.rprime * np.array([1.0, 1.0, -1.0])


def _check_region(variant: GreenVariant, z: float) -> None:
    if variant is GreenVariant.REFLECTED and z < 0.0:
        raise ValueError("reflected variant is defined for z >= 0 only")
    if variant is GreenVariant.TRANSMITTED and z > 0.0:
        raise ValueError("transmitted variant is defined for z <= 0 only")


def electrostatic_green(medium: Medium, variant: GreenVariant, pair: PointPair) -> float:
    al = medium.image_strength
    z = pair.r[2]
    _check_region(variant, z)
    d = pair.separation
    if variant is GreenVariant.FULL:
        if z < 0.0:
            variant = GreenVariant.TRANSMITTED
        else:
            dbar = float(np.linalg.norm(pair.r - pair.image_point))
            return 1.0 / (_FOUR_PI * d) - al / (_FOUR_PI * dbar)
    if variant is GreenVariant.FREE:
        return 1.0 / (_FOUR_PI * d)
    if variant is GreenVariant.TRANSMITTED:
        return (1.0 - al) / (_FOUR_PI * d)
    dbar = float(np.linalg.norm(pair.r - pair.image_point))
    return -al / (_FOUR_PI * dbar)


def _grad_grad_inverse_distance(d: np.ndarray) -> np.ndarray:
    """grad_i grad'_j (1/|r - r'|) = delta_ij/s^3 - 3 d_i d_j / s^5, d = r - r'."""
    s2 = float(d @ d)
    if s2 == 0.0:
        raise ValueError("coincident points: tensor is singular")
    s = np.sqrt(s2)
    return np.eye(3) / s**3 - 3.0 * np.outer(d, d) / s**5


_MIRROR = np.diag([1.0, 1.0, -1.0])


def image_grad_grad_tensor(pair: PointPair, strength: float) -> np.ndarray:
    """grad_i grad'_j of the image term -strength/(4 pi |r - rbar'|): alpha for
    the dielectric, 1 for a perfect mirror.  The primed derivative acts through
    the image map z' -> -z', which puts the mirror matrix on the second index."""
    dbar = pair.r - pair.image_point
    if float(dbar @ dbar) == 0.0:
        raise ValueError("field point coincides with the image point")
    return -strength / _FOUR_PI * (_grad_grad_inverse_distance(dbar) @ _MIRROR)


def grad_grad_green_tensor(
    medium: Medium, variant: GreenVariant, pair: PointPair
) -> np.ndarray:
    """Closed-form grad_i grad'_j of the chosen variant (3x3 real)."""
    al = medium.image_strength
    z = pair.r[2]
    _check_region(variant, z)
    if variant is GreenVariant.FULL:
        if z < 0.0:
            variant = GreenVariant.TRANSMITTED
        else:
            return grad_grad_green_tensor(
                medium, GreenVariant.FREE, pair
            ) + grad_grad_green_tensor(medium, GreenVariant.REFLECTED, pair)
    if variant is GreenVariant.FREE:
        return _grad_grad_inverse_distance(pair.r - pair.rprime) / _FOUR_PI
    if variant is GreenVariant.TRANSMITTED:
        return (1.0 - al) * _grad_grad_inverse_distance(pair.r - pair.rprime) / _FOUR_PI
    return image_grad_grad_tensor(pair, al)  # REFLECTED


def image_potential_ves(q: float, medium: Medium, z0: float) -> float:
    """Charge-surface interaction energy V^es = -(q^2/4 pi) alpha/(4 z0).

    Half the charge-image Coulomb energy: the image is not an independent
    charge but is induced by q itself.
    """
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ValueError(f"z0 must be finite and > 0 (charge outside the dielectric), got {z0!r}")
    return -(q * q) / _FOUR_PI * medium.image_strength / (4.0 * z0)
