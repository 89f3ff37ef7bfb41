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
        coords = r.tolist() + rp.tolist()
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"points must be finite, got r={r.tolist()}, r'={rp.tolist()}")
        if coords[5] <= 0.0:
            raise ValueError("the source point must lie outside the dielectric (z' > 0)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rprime", rp)

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.r - self.rprime))

    @property
    def image_point(self) -> np.ndarray:
        return self.rprime * np.array([1.0, 1.0, -1.0])


# (direct, image) strengths of each variant, from the medium and whether z >= 0;
# the transmitted strength is 2/(n^2+1), not 1 - alpha, which cancels at large n
_STRENGTHS = {
    GreenVariant.FREE: lambda m, above: (1.0, None),
    GreenVariant.REFLECTED: lambda m, above: (None, m.image_strength),
    GreenVariant.TRANSMITTED: lambda m, above: (m.transmitted_strength, None),
    GreenVariant.FULL: lambda m, above: ((1.0, m.image_strength) if above
                                         else (m.transmitted_strength, None)),
}


def _strengths(medium: Medium, variant: GreenVariant, z: float):
    """The ``_STRENGTHS`` of ``variant`` at a field point of height z, the
    direct one weighting 1/(4 pi |r - r'|) and the image one -1/(4 pi |r - rbar'|).
    A term of strength None is skipped, not weighted by zero: REFLECTED keeps
    its -0.0 at n = 1, and FULL below the interface never builds the image
    term, which is singular at the image point."""
    if variant is GreenVariant.REFLECTED and z < 0.0:
        raise ValueError("reflected variant is defined for z >= 0 only")
    if variant is GreenVariant.TRANSMITTED and z > 0.0:
        raise ValueError("transmitted variant is defined for z <= 0 only")
    return _STRENGTHS[variant](medium, z >= 0.0)


def electrostatic_green(medium: Medium, variant: GreenVariant, pair: PointPair) -> float:
    direct, image = _strengths(medium, variant, float(pair.r[2]))
    if image is None:
        return direct / (_FOUR_PI * pair.separation)
    reflected = -image / (_FOUR_PI * float(np.linalg.norm(pair.r - pair.image_point)))
    return reflected if direct is None else direct / (_FOUR_PI * pair.separation) + reflected


def _grad_grad_inverse_distance(w: float, dx: float, dy: float, dz: float,
                                image: bool = False) -> list[float]:
    """w grad_i grad'_j (1/|d|) = w (delta_ij/s^3 - 3 d_i d_j/s^5) for d = r - r',
    row-major.  For the ``image`` term d = r - rbar', and the primed derivative
    acts through the image map z' -> -z', which puts the mirror matrix
    diag(1, 1, -1) on the second index."""
    xx, yy, zz = dx * dx, dy * dy, dz * dz
    s2 = xx + yy + zz
    if s2 == 0.0:
        raise ValueError("field point coincides with the image point" if image
                         else "coincident points: tensor is singular")
    a = w / (s2 * math.sqrt(s2))
    b = -3.0 * a / s2
    xy, xz, yz = b * (dx * dy), b * (dx * dz), b * (dy * dz)
    m = -1.0 if image else 1.0
    return [a + b * xx, xy, m * xz,
            xy, a + b * yy, m * yz,
            xz, yz, m * (a + b * zz)]


def image_grad_grad_tensor(pair: PointPair, strength: float) -> np.ndarray:
    """grad_i grad'_j of the image term -strength/(4 pi |r - rbar'|): alpha for
    the dielectric, 1 for a perfect mirror (3x3 real)."""
    (x, y, z), (xp, yp, zp) = pair.r.tolist(), pair.rprime.tolist()
    return np.array(_grad_grad_inverse_distance(-strength / _FOUR_PI, x - xp, y - yp, z + zp,
                                                image=True)).reshape(3, 3)


def grad_grad_green_tensor(medium: Medium, variant: GreenVariant, pair: PointPair) -> np.ndarray:
    """Closed-form grad_i grad'_j of the chosen variant (3x3 real), evaluated
    on Python floats: each term is a list of its nine entries."""
    (x, y, z), (xp, yp, zp) = pair.r.tolist(), pair.rprime.tolist()
    direct, image = _strengths(medium, variant, z)
    dx, dy = x - xp, y - yp
    if direct is not None:
        terms = _grad_grad_inverse_distance(direct / _FOUR_PI, dx, dy, z - zp)
    if image is not None:
        reflected = _grad_grad_inverse_distance(-image / _FOUR_PI, dx, dy, z + zp, image=True)
        terms = reflected if direct is None else [a + b for a, b in zip(terms, reflected)]
    return np.array(terms).reshape(3, 3)


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
