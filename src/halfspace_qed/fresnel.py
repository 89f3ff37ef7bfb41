"""Fresnel reflection/transmission coefficients for the half-space interface.

One elementwise formula serves both polarizations.  With (a, b) = (1, 1) for
TE and (n^2, n) for TM, and den = a kz + kzd,

    rR = (a kz - kzd)/den    tR = 2 b kz/den    rL = -rR    tL = 2 b kzd/den,

so tL = (kzd/kz) tR is an identity, not a definition.  kz is real (nonzero,
travelling) or i*t on the evanescent segment 0 < t < Gamma.  A scalar kz
takes kzd from the refraction law of :mod:`halfspace_qed.medium` and kz = 0
is rejected; a caller that has kzd passes it, and then kz and kzd may be
arrays, unchecked.  Each coefficient is computed when it is read, so an
integrand pays only for the ones it uses.
"""
from __future__ import annotations

from .medium import Medium, Polarization, refracted_kz

__all__ = ["FresnelSet", "fresnel_coefficients", "cancellation_residual"]


class FresnelSet:
    """The four coefficients of one polarization at one (kz, kzd), or
    elementwise over arrays of them."""

    __slots__ = ("_akz", "kz", "kzd", "_b", "_den")

    def __init__(self, akz, kz, kzd, b: float) -> None:
        self._akz, self.kz, self.kzd, self._b = akz, kz, kzd, b
        self._den = akz + kzd

    rR = property(lambda c: (c._akz - c.kzd) / c._den)
    rL = property(lambda c: -c.rR)
    tR = property(lambda c: 2.0 * c._b * c.kz / c._den)
    tL = property(lambda c: 2.0 * c._b * c.kzd / c._den)


def fresnel_coefficients(
    medium: Medium, pol: Polarization, kpar_mag: float, kz, kzd=None
) -> FresnelSet:
    if kzd is None:
        kz = complex(kz)
        if kz == 0:
            raise ValueError("kz = 0 is excluded (tL = (kzd/kz) tR is singular); "
                             "quadrature rules must not sample it")
        kzd = refracted_kz(medium, kpar_mag, kz)
    if pol is Polarization.TM:  # first: the surface-charge and energy bodies are TM only
        n = medium.n
        return FresnelSet(n * n * kz, kz, kzd, n)
    if pol is Polarization.TE:
        return FresnelSet(kz, kz, kzd, 1.0)
    raise ValueError(f"pol must be Polarization.TE or Polarization.TM, got {pol!r}")


def cancellation_residual(
    medium: Medium, pol: Polarization, kpar_mag: float, kz: complex
) -> complex:
    """(kz/kzd) tL rL + rR tR; vanishes identically and kills the cross terms
    that would otherwise obstruct closing the spectral contour."""
    c = fresnel_coefficients(medium, pol, kpar_mag, kz)
    if c.kzd == 0:
        raise ValueError("branch point kz = i*Gamma is excluded from the residual")
    if medium.n == 1.0:
        return 0.0
    r = c.rR  # rL = -rR exactly, so each coefficient is formed once
    return (c.kz / c.kzd) * c.tL * -r + r * c.tR
