"""Carniglia-Mandel mode functions and the gauge-transformation mode data.

A right-incident mode (vacuum side) is the triad

    f^R(r) = (2 pi)^{-3/2} [ e(k-) e^{i k- . r} + rR e(k+) e^{i k+ . r} ]   z >= 0
           = (2 pi)^{-3/2}   tR e(kd-) e^{i kd- . r}                        z < 0

and a left-incident mode carries the extra 1/n,

    f^L(r) = (2 pi)^{-3/2}/n [ e(kd+) e^{i kd+ . r} + rL e(kd-) e^{i kd- . r} ]  z < 0
           = (2 pi)^{-3/2}/n   tL e(k+) e^{i k+ . r}                             z >= 0

where k+- = (k_par, +-k_z), kd+- = (k_par, +-k_zd) and each plane wave gets
the polarization vector of its own wavevector (the differential shorthand for
the polarization operator acts per exponential, never on the step function).
Values exactly at z = 0 use the vacuum-side representation.

The gauge transformation to the everywhere-transverse gauge is generated by a
scalar whose TM-only surface mode data are the surface-charge coefficients g
(the share (n^2-1)/(2n^2) times 1 + rR, or times tL/n with the direct tL of
:mod:`halfspace_qed.fresnel`; elementwise over arrays like the Fresnel set),
the generating-function coefficients and the surface charge density.  Their
signs make the generating function solve the Poisson equation sourced by the
surface charge and leave the free-space transverse commutator once its
gradient is subtracted; the test-suite checks both numerically.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .fresnel import FresnelSet, fresnel_coefficients
from .medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    evanescent_threshold,
    mode_frequency,
    refracted_kz,
    vacuum_kz_from_kzd,
)

__all__ = [
    "polarization_vector",
    "label_kz",
    "carniglia_mandel_mode",
    "surface_charge_mode",
    "sigma_mode_coefficient",
    "chi_mode_coefficient",
]

_NORM = (2.0 * math.pi) ** (-1.5)


def polarization_vector(pol: Polarization, k: np.ndarray) -> np.ndarray:
    """Unit polarization vector of a single plane wave with wavevector k.

    TE: (k_y, -k_x, 0)/|k_par|; TM: (k_x k_z, k_y k_z, -|k_par|^2) normalised
    by |k_par| sqrt(k.k) with the principal square root (real positive on the
    evanescent segment).  Orthogonal to k under the unconjugated dot product.
    """
    kx, ky, kz = complex(k[0]), complex(k[1]), complex(k[2])
    kpar2 = kx * kx + ky * ky
    kpar = np.sqrt(kpar2)
    if kpar == 0:
        raise ValueError("polarization basis is degenerate at k_par = 0")
    if pol is Polarization.TE:
        return np.array([ky, -kx, 0.0], dtype=complex) / kpar
    k2 = kpar2 + kz * kz
    if k2 == 0:
        raise ValueError("TM normalisation singular at k.k = 0")
    norm = kpar * np.sqrt(k2)
    return np.array([kx * kz, ky * kz, -kpar2], dtype=complex) / norm


def _real_kzd(kz_or_kzd: complex) -> float:
    kzd = complex(kz_or_kzd)
    if kzd.imag != 0.0:
        raise ValueError("left-incident labels require real kzd (evanescence lives in kz)")
    return kzd.real


def label_kz(medium: Medium, point: SpectralPoint) -> complex:
    """Vacuum-side k_z of a label (inverting refraction for left incidence).
    A right-incident label is a travelling k_z > 0 or i t on the evanescent
    segment 0 < t <= Gamma, a left-incident one a real k_zd >= 0; any other
    label raises ValueError naming it."""
    if point.side is Side.LEFT:
        return vacuum_kz_from_kzd(medium, point.kpar_mag, _real_kzd(point.kz))
    kz = complex(point.kz)
    if kz.real > 0.0 and kz.imag == 0.0:
        return kz
    gamma = float(evanescent_threshold(medium, point.kpar_mag))
    if kz.real == 0.0 and 0.0 < kz.imag <= gamma:
        return kz
    raise ValueError(f"right-incident label kz = {kz!r} is neither kz > 0 nor i t with "
                     f"0 < t <= Gamma = {gamma:.6g}")


def carniglia_mandel_mode(medium: Medium, point: SpectralPoint, r: np.ndarray) -> np.ndarray:
    """Evaluate the mode function of ``point`` at position r (complex 3-vector)."""
    r = np.asarray(r, dtype=float)
    kx, ky = point.kpar
    kz = label_kz(medium, point)
    kzd = refracted_kz(medium, point.kpar_mag, kz)
    coef = fresnel_coefficients(medium, point.pol, point.kpar_mag, kz)
    phase_par = np.exp(1j * (kx * r[0] + ky * r[1]))
    z = r[2]

    def wave(kz_piece: complex) -> np.ndarray:
        kvec = np.array([kx, ky, kz_piece], dtype=complex)
        return polarization_vector(point.pol, kvec) * np.exp(1j * kz_piece * z)

    if point.side is Side.RIGHT:
        if z >= 0.0:
            val = wave(-kz) + coef.rR * wave(kz)
        else:
            val = coef.tR * wave(-kzd)
        return _NORM * phase_par * val
    if z < 0.0:
        val = wave(kzd) + coef.rL * wave(-kzd)
    else:
        val = coef.tL * wave(kz)
    return _NORM / medium.n * phase_par * val


def surface_charge_mode(
    medium: Medium, side: Side, kpar_mag: float, kz_or_kzd, other_kz=None,
    tm: FresnelSet | None = None,
):
    """Surface-charge mode coefficient g at r_par = 0 (TM only by construction).

    g^R = (2 pi)^{-3/2} (n^2-1)/(2 n^2) (1 + rR_TM)
    g^L = (2 pi)^{-3/2} (n^2-1)/(2 n^2) tL_TM / n

    A scalar label takes the other side's wavenumber from the refraction law.
    A caller that has it passes it as ``other_kz`` (k_zd for a right label,
    the vacuum k_z for a left one); then g is elementwise over arrays.  A
    caller that already holds the TM Fresnel set at these wavenumbers passes
    it as ``tm``, and g is computed from it.
    """
    if medium.n == 1.0:
        return 0.0
    if tm is None:
        if side is Side.LEFT and other_kz is None:
            other_kz = vacuum_kz_from_kzd(medium, kpar_mag, _real_kzd(kz_or_kzd))
        kz, kzd = (kz_or_kzd, other_kz) if side is Side.RIGHT else (other_kz, kz_or_kzd)
        tm = fresnel_coefficients(medium, Polarization.TM, kpar_mag, kz, kzd)
    pref = _NORM * medium.surface_charge_share
    if side is Side.RIGHT:
        return pref * (1.0 + tm.rR)
    return pref / medium.n * tm.tL


def _check_mode_point(kpar_mag: float, kz_or_kzd: complex) -> None:
    if not (math.isfinite(kpar_mag) and kpar_mag >= 0.0):
        raise ValueError(f"kpar_mag must be finite and >= 0, got {kpar_mag!r}")
    if not cmath.isfinite(kz_or_kzd):
        raise ValueError(f"kz_or_kzd must be finite, got {kz_or_kzd!r}")


def _label_frequency(medium: Medium, side: Side, kpar_mag: float, kz_or_kzd: complex) -> float:
    point = SpectralPoint(
        kpar=(kpar_mag, 0.0), kz=complex(kz_or_kzd), side=side, pol=Polarization.TM
    )
    return mode_frequency(medium, point)


def sigma_mode_coefficient(
    medium: Medium, side: Side, kpar_mag: float, kz_or_kzd: complex
) -> complex:
    """Coefficient of the annihilation operator in the surface charge density,
    at r_par = 0: sigma_k = -2i |k_par| sqrt(1/2 omega) g_k (natural units).
    Raises ValueError for a non-finite or negative kpar_mag or a non-finite
    label."""
    _check_mode_point(kpar_mag, kz_or_kzd)
    g = surface_charge_mode(medium, side, kpar_mag, kz_or_kzd)
    if g == 0.0:
        return 0.0
    omega = _label_frequency(medium, side, kpar_mag, kz_or_kzd)
    return -2j * kpar_mag * g / math.sqrt(2.0 * omega)


def chi_mode_coefficient(
    medium: Medium,
    side: Side,
    kpar_mag: float,
    kz_or_kzd: complex,
    z: float,
    time_derivative: bool = False,
) -> complex:
    """Coefficient of the annihilation operator in the gauge generating
    function (or its time derivative), at r_par = 0 and height z.

    chi:      + sqrt(1/(2 omega^3)) g e^{-|k_par| |z|}
    chi-dot:  - i sqrt(1/(2 omega)) g e^{-|k_par| |z|}

    Symmetric in z; the ratio chi-dot/chi is -i*omega (harmonic time
    dependence).  The overall sign is the one consistent with the surface
    charge density and the Poisson equation, see the module docstring.
    Raises ValueError for a non-finite or negative kpar_mag, or a non-finite
    label or z.
    """
    _check_mode_point(kpar_mag, kz_or_kzd)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    g = surface_charge_mode(medium, side, kpar_mag, kz_or_kzd)
    if g == 0.0:
        return 0.0
    omega = _label_frequency(medium, side, kpar_mag, kz_or_kzd)
    profile = math.exp(-kpar_mag * abs(z))
    if time_derivative:
        return -1j * g * profile / math.sqrt(2.0 * omega)
    return g * profile / math.sqrt(2.0 * omega**3)
