"""Dielectric half-space geometry, refraction kinematics and unit conventions.

The dielectric occupies z < 0 and is described by a single real refractive
index n >= 1, so eps(z) = 1 for z > 0 and eps(z) = n**2 for z < 0.  All
quantities are expressed in natural units (hbar = c = eps0 = 1); the single
free parameter is the test charge q carried by the energy routines.

Mode labels are spectral points (k_parallel, k_z): right-incident modes are
labelled by the vacuum-side longitudinal wavenumber k_z (real positive when
travelling, i*t with 0 < t <= Gamma on the evanescent segment), left-incident
modes by the dielectric-side wavenumber k_zd (real, >= 0).  The two are linked
by the refraction law k_zd = sqrt(n^2 k_z^2 + (n^2-1) |k_par|^2) with the
branch fixed by sgn(Re k_zd) = sgn(Re k_z) on the real axis.
``label_wavenumbers`` is the one label rule: it rejects any other label and
returns the (k_z, k_zd) of a valid one, keeping the labelling side's
wavenumber exact, and ``label_frequency`` takes omega from that side.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "Medium",
    "Side",
    "Polarization",
    "SpectralPoint",
    "check_label",
    "epsilon_profile",
    "refracted_kz",
    "vacuum_kz_from_kzd",
    "evanescent_threshold",
    "label_wavenumbers",
    "label_frequency",
    "mode_frequency",
]


class Side(Enum):
    """Incidence side of a mode: left (from the dielectric) or right (vacuum)."""

    LEFT = "L"
    RIGHT = "R"


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class Medium:
    """Non-dispersive dielectric half-space at z < 0 with refractive index n."""

    n: float

    def __post_init__(self) -> None:
        if not (self.n >= 1.0) or not math.isfinite(self.n * self.n):
            raise ValueError(f"refractive index must satisfy n >= 1 with a finite n**2, "
                             f"got n={self.n}")

    @property
    def eps_inside(self) -> float:
        return self.n * self.n

    @property
    def image_strength(self) -> float:
        """Image-charge strength (n^2-1)/(n^2+1); 0 in free space, 1 for a mirror."""
        return (self.n * self.n - 1.0) / (self.n * self.n + 1.0)

    @property
    def transmitted_strength(self) -> float:
        """Transmitted strength 2/(n^2+1) = 1 - alpha, free of that cancellation."""
        return 2.0 / (self.n * self.n + 1.0)

    @property
    def surface_charge_share(self) -> float:
        """Share (n^2-1)/(2n^2) of V^es carried by the fluctuating surface charge."""
        return 0.5 * (self.n * self.n - 1.0) / (self.n * self.n)  # 2n^2 may overflow


@dataclass(frozen=True)
class SpectralPoint:
    """One mode label.

    ``kz`` is the longitudinal wavenumber on the labelling side: the vacuum
    k_z for RIGHT modes (complex on the evanescent segment), the dielectric
    k_zd for LEFT modes (real positive).
    """

    kpar: tuple[float, float]
    kz: complex
    side: Side
    pol: Polarization

    @property
    def kpar_mag(self) -> float:
        return math.hypot(self.kpar[0], self.kpar[1])


def epsilon_profile(medium: Medium, z: float) -> float:
    """Piecewise dielectric profile; the z = 0 value is the midpoint average.
    A non-finite z raises ValueError naming it."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if z > 0.0:
        return 1.0
    if z < 0.0:
        return medium.eps_inside
    return 0.5 * (1.0 + medium.eps_inside)


def evanescent_threshold(medium: Medium, kpar_mag: ArrayLike) -> float | np.ndarray:
    """Branch point Gamma = |k_par| sqrt(n^2-1)/n of the refracted wavenumber,
    elementwise for an array of |k_par|.  A float |k_par| (np.float64
    included) is checked with math, anything else with numpy, which rejects
    values that are not real numbers (strings, booleans, complex)."""
    if isinstance(kpar_mag, float):
        ok = math.isfinite(kpar_mag) and kpar_mag >= 0.0
    else:
        kpar_mag = np.asarray(kpar_mag)
        ok = kpar_mag.dtype.kind in "iuf" and np.all(np.isfinite(kpar_mag) & (kpar_mag >= 0.0))
    if not ok:
        raise ValueError(f"kpar_mag must be finite and >= 0, got {kpar_mag!r}")
    n = medium.n
    return kpar_mag * math.sqrt(n * n - 1.0) / n


def check_label(kpar_mag: float, name: str, kz: complex) -> None:
    """Reject a non-finite or negative |k_par| and a non-finite wavenumber
    ``name`` (kz, kzd or kz_or_kzd), naming the parameter."""
    if not (math.isfinite(kpar_mag) and kpar_mag >= 0.0):
        raise ValueError(f"kpar_mag must be finite and >= 0, got {kpar_mag!r}")
    if not cmath.isfinite(kz):
        raise ValueError(f"{name} must be finite, got {kz!r}")


def refracted_kz(medium: Medium, kpar_mag: float, kz: complex) -> complex:
    """Dielectric-side wavenumber k_zd = sqrt(n^2 kz^2 + (n^2-1) kpar^2).

    Principal square root with the sign fixed so that sgn(Re k_zd) equals
    sgn(Re k_z) on the real axis; on the evanescent segment kz = i*t,
    0 < t <= Gamma, the value is real non-negative (zero at the branch point).
    """
    check_label(kpar_mag, "kz", kz)
    n = medium.n
    kz = complex(kz)
    val = cmath.sqrt(n * n * kz * kz + (n * n - 1.0) * kpar_mag * kpar_mag)
    # the principal root has Re >= 0, so only k_z with Re < 0 flips it
    return -val if kz.real < 0.0 and val.real > 0.0 else val


def vacuum_kz_from_kzd(medium: Medium, kpar_mag: float, kzd: float) -> complex:
    """Invert the refraction law for a left-incident label.

    Returns the vacuum-side k_z: real non-negative for k_zd above the total
    internal reflection threshold |k_par| sqrt(n^2-1), else i*t with
    0 < t <= Gamma (the transmitted wave is evanescent in the vacuum).
    """
    check_label(kpar_mag, "kzd", kzd)
    if kzd < 0.0:
        raise ValueError("left-incident labels require kzd >= 0")
    n = medium.n
    disc = kzd * kzd - (n * n - 1.0) * kpar_mag * kpar_mag
    if disc >= 0.0:
        return complex(math.sqrt(disc) / n)
    return 1j * math.sqrt(-disc) / n


def label_wavenumbers(medium: Medium, side: Side, kpar_mag: float, label: complex,
                      name: str | None = None) -> tuple[complex, complex]:
    """(k_z, k_zd) of a mode label, the labelling side's wavenumber as given.

    A right-incident label is a travelling k_z > 0 or i t on the evanescent
    segment 0 < t <= Gamma, and k_zd follows by refraction; a left-incident
    one is a real k_zd >= 0, and the vacuum k_z follows by inverting it.  Any
    other label raises ValueError, as does a left label at the total internal
    reflection threshold (k_z = 0, where tL = (kzd/kz) tR is singular).  A
    non-finite label names ``name`` (default kz or kzd by side).
    """
    kz, kzd = _checked_label(medium, side, kpar_mag, label, name)
    return kz, refracted_kz(medium, kpar_mag, kz) if kzd is None else kzd


def _checked_label(medium: Medium, side: Side, kpar_mag: float, label: complex, name=None):
    """``label_wavenumbers`` with no refraction root: k_zd is None for a right label."""
    right = side is Side.RIGHT
    if not right and side is not Side.LEFT:
        raise ValueError(f"side must be Side.LEFT or Side.RIGHT, got {side!r}")
    check_label(kpar_mag, name or ("kz" if right else "kzd"), label)
    label = complex(label)
    if not right:
        if label.imag != 0.0:
            raise ValueError("left-incident labels require real kzd (evanescence lives in kz)")
        kz = vacuum_kz_from_kzd(medium, kpar_mag, label.real)
        if kz == 0:
            raise ValueError("kz = 0 is excluded (tL = (kzd/kz) tR is singular): the left "
                             f"label kzd = {label.real!r} sits at the total internal "
                             "reflection threshold")
        return kz, label
    if not (label.imag == 0.0 and label.real > 0.0):
        gamma = evanescent_threshold(medium, kpar_mag)
        if not (label.real == 0.0 and 0.0 < label.imag <= gamma):
            raise ValueError(f"right-incident label kz = {label!r} is neither kz > 0 nor "
                             f"i t with 0 < t <= Gamma = {gamma:.6g}")
    return label, None


def label_frequency(medium: Medium, side: Side, kpar_mag: float, kz: complex,
                    kzd: complex) -> float:
    """Mode frequency (c = 1) of the wavenumbers ``label_wavenumbers``
    returns, from the labelling side's one: omega = |k| in vacuum for a
    right label, |k_d|/n in the dielectric for a left one."""
    if side is Side.RIGHT:
        return math.sqrt((kpar_mag * kpar_mag + kz * kz).real)
    if side is Side.LEFT:
        return math.sqrt(kpar_mag * kpar_mag + kzd.real * kzd.real) / medium.n
    raise ValueError(f"side must be Side.LEFT or Side.RIGHT, got {side!r}")


def mode_frequency(medium: Medium, point: SpectralPoint) -> float:
    """Mode frequency of a label; a label off the label set raises ValueError
    (``label_wavenumbers``)."""
    kp = point.kpar_mag
    return label_frequency(medium, point.side, kp,
                           *_checked_label(medium, point.side, kp, point.kz))
