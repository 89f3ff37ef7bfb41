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

Every function here takes its labels' wavenumbers from
:func:`halfspace_qed.medium.label_wavenumbers`, the one label rule, and
applies the refraction law at most once.

The gauge transformation to the everywhere-transverse gauge is generated by a
scalar whose TM-only surface mode data are the surface-charge coefficients g
(the share (n^2-1)/(2n^2) times 1 + rR, or times tL/n with the direct tL of
:mod:`halfspace_qed.fresnel`, read from the TM Fresnel set the caller holds,
so elementwise over arrays like it), the generating-function coefficients and
the surface charge density.  Their signs make the generating function solve
the Poisson equation sourced by the surface charge and leave the free-space
transverse commutator once its gradient is subtracted; the test-suite checks
both numerically.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .fresnel import FresnelSet, fresnel_coefficients
from .medium import Medium, Polarization, Side, SpectralPoint, label_frequency, label_wavenumbers

__all__ = [
    "polarization_vector",
    "carniglia_mandel_mode",
    "surface_charge_mode",
    "sigma_mode_coefficient",
    "chi_mode_coefficient",
]

_NORM = (2.0 * math.pi) ** (-1.5)


def _polarization(pol: Polarization, kx, ky, kz) -> tuple[complex, complex, complex]:
    """The components of ``polarization_vector`` for k = (kx, ky, kz)."""
    kpar2 = kx * kx + ky * ky
    kpar = cmath.sqrt(kpar2)
    if kpar == 0:
        raise ValueError("polarization basis is degenerate at k_par = 0")
    if pol is Polarization.TE:
        return ky / kpar, -kx / kpar, 0j
    if pol is not Polarization.TM:
        raise ValueError(f"pol must be Polarization.TE or Polarization.TM, got {pol!r}")
    k2 = kpar2 + kz * kz
    if k2 == 0:
        raise ValueError("TM normalisation singular at k.k = 0")
    norm = kpar * cmath.sqrt(k2)
    return kx * kz / norm, ky * kz / norm, -kpar2 / norm


def polarization_vector(pol: Polarization, k: np.ndarray) -> np.ndarray:
    """Unit polarization vector of a single plane wave with wavevector k.

    TE: (k_y, -k_x, 0)/|k_par|; TM: (k_x k_z, k_y k_z, -|k_par|^2) normalised
    by |k_par| sqrt(k.k) with the principal square root (real positive on the
    evanescent segment).  Orthogonal to k under the unconjugated dot product.
    """
    return np.array(_polarization(pol, complex(k[0]), complex(k[1]), complex(k[2])))


def carniglia_mandel_mode(medium: Medium, point: SpectralPoint, r: np.ndarray) -> np.ndarray:
    """Evaluate the mode function of ``point`` at position r (complex 3-vector)."""
    r = np.asarray(r, dtype=float)
    x, y, z = r.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"r must be finite, got {r!r}")
    kx, ky = point.kpar
    pol, side = point.pol, point.side
    kz, kzd = label_wavenumbers(medium, side, point.kpar_mag, point.kz)
    coef = fresnel_coefficients(medium, pol, point.kpar_mag, kz, kzd)

    def wave(amp: complex, kz_piece: complex) -> list[complex]:
        # amp e(k) e^{i k_z z}, the plane wave without its parallel phase
        phase = cmath.exp(1j * kz_piece * z)
        return [amp * (e * phase) for e in _polarization(pol, kx, ky, kz_piece)]

    if side is Side.RIGHT:
        front = _NORM
        if z >= 0.0:
            val = [a + b for a, b in zip(wave(1.0, -kz), wave(coef.rR, kz))]
        else:
            val = wave(coef.tR, -kzd)
    else:
        front = _NORM / medium.n
        if z < 0.0:
            val = [a + b for a, b in zip(wave(1.0, kzd), wave(coef.rL, -kzd))]
        else:
            val = wave(coef.tL, kz)
    front = front * cmath.exp(1j * (kx * x + ky * y))
    return np.array([front * v for v in val])


def surface_charge_mode(medium: Medium, side: Side, tm: FresnelSet):
    """Surface-charge mode coefficient g at r_par = 0 (TM only by construction)
    from the TM Fresnel set ``tm`` of the mode's (k_z, k_zd), elementwise
    over arrays like it:

    g^R = (2 pi)^{-3/2} (n^2-1)/(2 n^2) (1 + rR_TM)
    g^L = (2 pi)^{-3/2} (n^2-1)/(2 n^2) tL_TM / n
    """
    pref = _NORM * medium.surface_charge_share
    if side is Side.RIGHT:
        return 0.0 if medium.n == 1.0 else pref * (1.0 + tm.rR)
    if side is Side.LEFT:
        return 0.0 if medium.n == 1.0 else pref / medium.n * tm.tL
    raise ValueError(f"side must be Side.LEFT or Side.RIGHT, got {side!r}")


def _charge_and_frequency(medium: Medium, side: Side, kpar_mag: float,
                          kz_or_kzd: complex) -> tuple[complex, float]:
    """(g, omega) of one TM mode label, resolved once."""
    kz, kzd = label_wavenumbers(medium, side, kpar_mag, kz_or_kzd, "kz_or_kzd")
    tm = fresnel_coefficients(medium, Polarization.TM, kpar_mag, kz, kzd)
    return surface_charge_mode(medium, side, tm), label_frequency(medium, side, kpar_mag, kz, kzd)


def sigma_mode_coefficient(
    medium: Medium, side: Side, kpar_mag: float, kz_or_kzd: complex
) -> complex:
    """Coefficient of the annihilation operator in the surface charge density,
    at r_par = 0: sigma_k = -2i |k_par| sqrt(1/2 omega) g_k (natural units).
    Raises ValueError for a non-finite or negative kpar_mag or a label off
    the label set."""
    g, omega = _charge_and_frequency(medium, side, kpar_mag, kz_or_kzd)
    if g == 0.0:
        return 0.0
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
    Raises ValueError for a non-finite or negative kpar_mag, a label off the
    label set or a non-finite z.
    """
    g, omega = _charge_and_frequency(medium, side, kpar_mag, kz_or_kzd)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if g == 0.0:
        return 0.0
    profile = math.exp(-kpar_mag * abs(z))
    if time_derivative:
        return -1j * g * profile / math.sqrt(2.0 * omega)
    return g * profile / math.sqrt(2.0 * omega**3)
