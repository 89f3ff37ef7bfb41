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
from typing import Callable

import numpy as np

from .medium import Medium

__all__ = [
    "GreenVariant",
    "PointPair",
    "check_charge",
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


# (direct, image) strengths of each variant, from alpha and whether z >= 0
_STRENGTHS = {
    GreenVariant.FREE: lambda al, above: (1.0, None),
    GreenVariant.REFLECTED: lambda al, above: (None, al),
    GreenVariant.TRANSMITTED: lambda al, above: (1.0 - al, None),
    GreenVariant.FULL: lambda al, above: (1.0, al) if above else (1.0 - al, None),
}


def _combine(medium: Medium, variant: GreenVariant, pair: PointPair,
             direct_term: Callable, image_term: Callable):
    """direct_term(direct) + image_term(image) for the ``_STRENGTHS`` of
    ``variant``, which is direct/(4 pi |r - r'|) - image/(4 pi |r - rbar'|).
    A term of strength None is skipped, not weighted by zero: REFLECTED keeps
    its -0.0 at n = 1, and FULL below the interface never builds the image
    term, which is singular at the image point."""
    z = pair.r[2]
    if variant is GreenVariant.REFLECTED and z < 0.0:
        raise ValueError("reflected variant is defined for z >= 0 only")
    if variant is GreenVariant.TRANSMITTED and z > 0.0:
        raise ValueError("transmitted variant is defined for z <= 0 only")
    direct, image = _STRENGTHS[variant](medium.image_strength, z >= 0.0)
    if image is None:
        return direct_term(direct)
    if direct is None:
        return image_term(image)
    return direct_term(direct) + image_term(image)


def electrostatic_green(medium: Medium, variant: GreenVariant, pair: PointPair) -> float:
    return _combine(medium, variant, pair, lambda s: s / (_FOUR_PI * pair.separation),
                    lambda s: -s / (_FOUR_PI * float(np.linalg.norm(pair.r - pair.image_point))))


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


def grad_grad_green_tensor(medium: Medium, variant: GreenVariant, pair: PointPair) -> np.ndarray:
    """Closed-form grad_i grad'_j of the chosen variant (3x3 real)."""
    return _combine(medium, variant, pair,
                    lambda s: s * _grad_grad_inverse_distance(pair.r - pair.rprime) / _FOUR_PI,
                    lambda s: image_grad_grad_tensor(pair, s))


def check_charge(q: float, z0: float) -> None:
    """Reject a charge q whose q**2 is not finite, a height z0 that is not
    finite and > 0 (a charge outside the dielectric) and a pair whose q**2/z0,
    the scale of V^es and of every energy sum, overflows, naming the parameters.
    Every energy is exact in 1/z0, so no other height is out of range."""
    if not math.isfinite(q * q):
        raise ValueError(f"q must be finite with a finite q**2, got {q!r}")
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ValueError(f"z0 must be finite and > 0 (charge outside the dielectric), "
                         f"got {z0!r}")
    if not math.isfinite(q * q / z0):
        raise ValueError(f"q and z0 must give a finite q**2/z0, got q={q!r}, z0={z0!r}")


def image_potential_ves(q: float, medium: Medium, z0: float) -> float:
    """Charge-surface interaction energy V^es = -(q^2/4 pi) alpha/(4 z0).

    Half the charge-image Coulomb energy: the image is not an independent
    charge but is induced by q itself.
    """
    check_charge(q, z0)
    # from the mantissas of q and z0, their binary exponents applied last:
    # bitwise the plain formula wherever its steps are normal floats, with no
    # subnormal q^2 or overflowing 4 z0 elsewhere
    (mq, eq), (mz, ez) = math.frexp(q), math.frexp(z0)
    return math.ldexp(-(mq * mq) / _FOUR_PI * medium.image_strength / (4.0 * mz), 2 * eq - ez)
