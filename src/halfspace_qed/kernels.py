"""Two-point commutator kernels of the half-space problem.

Every kernel K reported here is the real tensor multiplying -i*hbar in the
equal-time commutator [A_i(r), eps0 E_j(r')] = -i*hbar K_ij(r, r'), and the
delta^3 / transverse-delta distributional parts are never evaluated: at
separated points the generalized-gauge kernel equals -grad_i grad'_j G
entirely.  In this convention

    GeneralizedDelta = -grad grad' (G0 + GR)   (z > 0)   |  -grad grad' GT  (z < 0)
    GaugeDifference  = -grad grad' GR          (z > 0)   |  +alpha grad grad' G0  (z < 0)
    TrueCoulomb      = GeneralizedDelta - GaugeDifference = -grad grad' G0 everywhere
    PerfectReflector = the n -> infinity image form of GeneralizedDelta.

Fixed-k_par spectral profiles take k_par along +x; writing uhat for that
direction and vhat = uhat x zhat, every kernel is a combination of the five
dyads uu, uz, zu, zz (TM) and vv (TE).  Profiles are normalised so that

    K_ij(r, r') = (2 pi)^{-3} int d^2 k_par  e^{i k_par . (r_par - r'_par)} P_ij(kpar; z, z')

The azimuthal integral reduces to Bessel kernels of orders 0-2: with
Delta r_par = rho * uhat and arguments kappa*rho,

    uu -> pi (J0 - J2)  into xx   (and pi (J0 + J2) into yy)
    vv -> pi (J0 + J2)  into xx   (and pi (J0 - J2) into yy)
    uz, zu -> 2 pi i J1 into xz, zx
    zz -> 2 pi J0       into zz,

after which the tensor is rotated about z to restore the actual azimuth.
The weights come from J0 and J1/x alone: by the recurrence J0 + J2 =
2 J1/x (Abramowitz & Stegun 9.1.27), J0 - J2 = 2 (J0 - J1/x), and
J1(x)/x -> 1/2 at x = 0.
The two sides of the interface share one travelling k_z body (``kz_profile``):
the side only picks its coefficients, rR or tR, the lead of the TM u-row,
the scale of the TM dyads and the plane-wave phase.  The inner k_z
quadrature (the travelling axis along the damped ray k_z = u e^{i pi/4}, the
evanescent segment through the cut rule, both in one run of
``spectral.ray_integral`` with each kappa's ray and cut on panels of their
own) is the numerical path that the residue-theorem closed forms are
verified against.  The bodies' branch points lie on the imaginary
k_z axis; continued with the principal root of kzd, the TM denominator
n^2 k_z + kzd vanishes at k_z = -kappa/n, on the negative real axis.  That
pole is outside the first quadrant, so the ray holds, but it sets the scale
of each kappa's body next to k_z = 0.  Each kappa's first ray panel is
graded from it, and the cut's end panels from it and from the TE pole at
k_z = i kappa, just past the branch point (``_interface_profile``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .fresnel import fresnel_coefficients
from .greens import GreenVariant, PointPair, grad_grad_green_tensor, image_grad_grad_tensor
from .medium import Medium, Polarization, Side, evanescent_threshold
from .modes import chi_mode_coefficient, sigma_mode_coefficient, surface_charge_mode
from .spectral import (
    IntegralResult,
    QuadratureSpec,
    adaptive_panels,
    damped_breakpoints,
    halfline_oscillatory_integral,
    ray_integral,
)

__all__ = [
    "KernelKind",
    "KernelAssembly",
    "kz_profile",
    "kz_spectral_kernel",
    "residue_profile",
    "residue_closed_form",
    "kernel_closed_form",
    "assemble_kernel_result",
    "gauge_difference_closed_form",
    "curl_annihilation_residual",
    "poisson_jump_residual",
    "perfect_reflector_convergence",
]

_TWO_PI_CUBED = (2.0 * math.pi) ** 3
# Radial panels (15 kappa each) per profile call.  The first level of a damped
# radial integral holds the five decay panels of spectral.damped_breakpoints,
# split at the Bessel half-period: at most 16 on the verify pairs, so each of
# them is one call.  Near the radial panel cap a level holds hundreds of
# panels; one call for all of them peaked at 4.4 GB resident on an n = 40
# assembly that this bound keeps at 203 MB.
_PROFILE_PANELS = 16
# The least kappa > 0 of a profile.  Below about 1e-150 kappa^2 and the cut's
# kappa^2 - t^2 underflow; from 1e-140 up the profiles integrate (n <= 1e4).
_KAPPA_MIN = 1e-100
# Below this kappa*rho the radial weight J1(x)/x is its series 1/2 - x^2/16,
# whose next term x^4/384 is under half an ulp of 1/2 there.
_SERIES_X = 1e-4


class KernelKind(Enum):
    GENERALIZED_DELTA = "generalized_delta"
    GAUGE_DIFFERENCE = "gauge_difference"
    TRUE_COULOMB = "true_coulomb"
    PERFECT_REFLECTOR = "perfect_reflector"


@dataclass
class KernelAssembly:
    tensor: np.ndarray
    error_estimate: float
    nodes_used: int


# ---------------------------------------------------------------------------
# fixed-k_par profiles: complex arrays [uu, uz, zu, zz, vv]
# ---------------------------------------------------------------------------

# Every profile takes kappa = |k_par| of any shape (one value per entry, one
# engine call for all of them) and returns an IntegralResult whose value has
# shape kappa.shape + (5,), whose error bounds every entry's and whose
# entry_errors bound each entry's on its own.

# On the travelling axis the Fresnel coefficients are real and even under
# (k_z, k_zd) -> (-k_z, -k_zd) and the plane-wave phases go to their
# conjugates, so the k_z < 0 half of a reflected or transmitted profile is the
# conjugate of its k_z > 0 half, with a sign on the odd dyads uz and zu.
_PARITY = np.array([1.0, -1.0, -1.0, 1.0, 1.0])


def _cut_scales(n: float) -> tuple[float, float]:
    """Where the cut t = Gamma sin(u) of an interface body varies fastest, the
    same u for every kappa: the TM shoulder t = kappa/n at u = asin(1/sqrt(n^2-1))
    (inside the cut for n > sqrt 2), and the TE pole t = kappa just past the
    branch point, at distance acosh(n/sqrt(n^2-1)) from u = pi/2."""
    gap = math.sqrt(n * n - 1.0)
    low = math.asin(1.0 / gap) if gap > 1.0 else math.inf
    return low, (math.acosh(n / gap) if gap > 0.0 else math.inf)


def _interface_profile(medium: Medium, kap: np.ndarray, scale: float, travelling: Callable,
                       spec: QuadratureSpec, evanescent: Callable | None = None) -> IntegralResult:
    """Travelling axis plus evanescent segment of an interface profile, in
    one engine run: each kappa's ray and its cut k_z = i t, 0 < t < Gamma,
    are integrals of their own, refined level by level on their own panels.
    ``travelling`` gets (kz, kzd, kappa, kmag2) for k_z > 0 and its
    continuation into the first quadrant, where it goes like e^{i k_z scale};
    its k_z > 0 integral is taken on the damped ray.  Without ``evanescent``
    the profile integrates ``travelling`` over the whole real k_z axis: the
    k_z < 0 half adds _PARITY times the conjugate of the k_z > 0 integral,
    and the cut holds the body's jump across it, -i [f(it, kzd) - f(it, -kzd)],
    from one body call on the stacked +-kzd.  Such a body is O(1) at large
    |k_z|, so its rays start on the finer layout (``flat``).  With
    ``evanescent``, which gets (t, kzd, kappa, kmag2) on the cut, the profile
    is the k_z > 0 integral plus the cut integral of that body: no mirror, no
    jump.  Its travelling body then returns [the terms in e^{+i k_z z'}, the
    Schwarz partners of the terms in e^{-i k_z z'}]: a partner has
    e^{+i k_z z'} in place of e^{-i k_z z'}, and as the coefficients are real
    on the travelling axis, a term's k_z > 0 integral is the conjugate of its
    partner's.  Either way each kappa's ray error doubles, and its error is
    2 ray + cut.

    Continued with the principal root of kzd, every interface body has the TM
    pole n^2 k_z + kzd = 0 at k_z = -kappa/n: outside the first quadrant, so
    the ray holds, but a distance kappa/n from its origin, so each kappa's
    first ray panel is graded from that scale (``near``).  The cut gets the
    graded first and last panels of ``_cut_scales``."""
    n = medium.n
    live = kap.ravel() > 0.0  # a kappa = 0 entry holds every profile's limit, 0
    flat = kap.ravel()[live]
    kap2, gap2 = flat * flat, (n * n - 1.0) * flat * flat  # once, not per panel

    def body(k: np.ndarray, entries: np.ndarray) -> np.ndarray:
        return travelling(k, np.sqrt(n * n * k * k + gap2[entries]), flat[entries],
                          kap2[entries] + k * k)

    def segment(t: np.ndarray, entries: np.ndarray) -> np.ndarray:
        kzd = np.sqrt(np.maximum(gap2[entries] - n * n * t * t, 0.0))
        if evanescent is not None:
            return evanescent(t, kzd, flat[entries], kap2[entries] - t * t)
        # -i [F - _PARITY conj F] from F alone is bitwise the same jump, but with
        # the cut's arrays halved the heap was trimmed and refaulted between
        # assemblies (3.5 times the page faults on a batch of them)
        both = travelling(1j * t, np.stack([kzd, -kzd]), flat[entries], kap2[entries] - t * t)
        return -1j * (both[0] - both[1])

    m = flat.size
    res = ray_integral(body, scale, m, spec, near=flat / n, cut=segment if n > 1.0 else None,
                       gamma=evanescent_threshold(medium, flat), cut_near=_cut_scales(n),
                       flat=evanescent is None)
    ray, err = res.value[:m], 2.0 * res.entry_errors[:m]
    if evanescent is None:
        value = ray + _PARITY * np.conj(ray)
    else:
        half = ray.shape[-1] // 2
        value = ray[:, :half] + np.conj(ray[:, half:])
    if len(res.value) > m:
        value, err = value + res.value[m:, :value.shape[-1]], err + res.entry_errors[m:]
    out, errs = np.zeros(live.shape + value.shape[1:], dtype=complex), np.zeros(live.shape)
    out[live], errs[live] = value, err
    return IntegralResult(out.reshape(kap.shape + (-1,)), float(err.max()), res.nodes_used,
                          errs.reshape(kap.shape))


def _free_profile(kap: ArrayLike, z: float, zp: float) -> IntegralResult:
    """Analytic fixed-k_par profile of -grad grad' G0 (smooth part of the
    transverse delta); standard 2-D Fourier representation of 1/|r - r'|."""
    dz = z - zp
    kap = np.asarray(kap, dtype=float)
    damp = np.exp(-kap * abs(dz))
    sgn = 1.0 if dz >= 0.0 else -1.0
    comps = np.multiply.outer(-math.pi * kap * damp, [1.0, sgn * 1j, sgn * 1j, -1.0, 0.0])
    return IntegralResult(comps, 0.0, 0, np.zeros(kap.shape))


def _gauge_difference_profile(medium: Medium, kap: ArrayLike, z: float, zp: float,
                              spec: QuadratureSpec) -> IntegralResult:
    """Mode-sum profile of the gauge-difference kernel: each TM mode's surface
    charge g times its vacuum amplitude at z' over omega, by dk_z or dk_zd.
    The right-incident and the travelling left-incident modes share the vacuum
    k_z > 0 axis as one body, which has no mirror half; its e^{-ik_z z'} terms
    go on the ray as their Schwarz partners.  The cut holds the evanescent
    left-incident modes, not that body's jump."""
    _check_point(kap, z, zp)
    n = medium.n
    kap = np.asarray(kap, dtype=float)
    if n == 1.0 or not kap.any():
        return IntegralResult(np.zeros(kap.shape + (5,), dtype=complex), 0.0, 0,
                              np.zeros(kap.shape))

    def travelling(k: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                   kmag2: np.ndarray) -> np.ndarray:
        # the right-incident modes plus the travelling left-incident ones, by
        # dk_z: n^2 (k/kzd) tL/n = n tR; [ju, jz] of the e^{+ik z'} terms, then
        # of the partners of the e^{-ik z'} terms.  One common factor
        # e^{ik z'}/|k|^2, then each term in one pass into its component
        tm = fresnel_coefficients(medium, Polarization.TM, kap, k, kzd)
        common = np.exp(1j * zp * k)
        common /= kmag2
        right = surface_charge_mode(medium, Side.RIGHT, tm)
        back = surface_charge_mode(medium, Side.LEFT, tm) * (n * tm.tR)
        back += right * tm.rR
        back *= common
        right *= common
        out = np.empty((4,) + back.shape, dtype=complex)
        for i, (term, factor) in enumerate(((right, -k), (right, -kap), (back, k), (back, -kap))):
            np.multiply(term, factor, out=out[i])
        return np.moveaxis(out, 0, -1)

    def left_evanescent(t: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                        kmag2: np.ndarray) -> np.ndarray:
        # on the cut n^2 (t/kzd) tL*/n = i n tR*, free of 1/kzd: one common
        # factor g tR* e^{-t z'}/|k|^2, the i n folded into each term's factor
        tm = fresnel_coefficients(medium, Polarization.TM, kap, 1j * t, kzd)
        common = surface_charge_mode(medium, Side.LEFT, tm)
        common *= np.conj(tm.tR)
        common *= np.exp(-zp * t) / kmag2
        out = np.empty((2,) + common.shape, dtype=complex)
        np.multiply(common, n * t, out=out[0])  # i n (-i t)
        np.multiply(common, -1j * n * kap, out=out[1])  # i n (-kappa)
        return np.moveaxis(out, 0, -1)

    j = _interface_profile(medium, kap, zp, travelling, spec, left_evanescent)
    ju, jz = np.moveaxis(j.value, -1, 0)
    sgn = 1.0 if z >= 0.0 else -1.0
    # (2 pi)^{3/2} undoes g's mode normalisation; the profile measure has the (2 pi)^{-3}
    front = 1j * kap * math.sqrt(_TWO_PI_CUBED) * np.exp(-kap * abs(z))
    parts = [ju, jz, 1j * sgn * ju, 1j * sgn * jz, np.zeros_like(ju)]
    comps = front[..., None] * np.stack(parts, axis=-1)
    err = np.abs(front) * j.entry_errors
    return IntegralResult(comps, float(err.max()), j.nodes_used, err)


def _check_point(kap: ArrayLike, z: float, zp: float) -> None:
    """Reject, before any engine call, kappa that is neither 0 nor a finite
    value >= _KAPPA_MIN, non-finite heights and z' <= 0."""
    k = np.asarray(kap, dtype=float)
    bad = ~(np.isfinite(k) & ((k == 0.0) | (k >= _KAPPA_MIN)))
    if bad.any():
        raise ValueError(f"kpar_mag must be 0 or a finite value >= {_KAPPA_MIN:g}, "
                         f"got {float(k[bad][0])!r}")
    for name, value in (("z", z), ("z'", zp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if zp <= 0.0:
        raise ValueError("the primed point must lie outside the dielectric (z' > 0)")


def kz_profile(medium: Medium, kap: ArrayLike, z: float, zp: float,
               spec: QuadratureSpec) -> IntegralResult:
    """The k_z-integrated kernel profile at fixed kappa: reflected for z >= 0,
    transmitted below.  One travelling body serves both; the side picks its
    amplitudes, TM u-row lead, TM dyad scale and phase: (rR, -k_z, |k|^2,
    e^{i k_z (z + z')}) for z >= 0, (tR, k_zd, n |k|^2, e^{-i k_zd z + i k_z z'}) below."""
    _check_point(kap, z, zp)
    n = medium.n
    kap = np.asarray(kap, dtype=float)
    above = z >= 0.0
    if (above and n == 1.0) or not kap.any():
        return IntegralResult(np.zeros(kap.shape + (5,), dtype=complex), 0.0, 0,
                              np.zeros(kap.shape))
    s = z + zp if above else n * abs(z) + zp

    def travelling(kz: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                   kmag2: np.ndarray) -> np.ndarray:
        tm = fresnel_coefficients(medium, Polarization.TM, kap, kz, kzd)
        te = fresnel_coefficients(medium, Polarization.TE, kap, kz, kzd)
        if above:
            ctm, cte, lead, scale, phase = tm.rR, te.rR, -kz, kmag2, np.exp(1j * kz * s)
        else:
            ctm, cte, lead, scale = tm.tR, te.tR, kzd, n * kmag2
            phase = np.exp(-1j * kzd * z + 1j * kz * zp)
        # one common factor ctm phase/scale, then each dyad in one pass straight
        # into its component of the output, every factor freed once used: the
        # call peaks at about 2.1 times its output
        del tm, te
        common = ctm * phase
        common /= scale
        out = np.empty((5,) + np.broadcast(common, kap).shape, dtype=complex)
        np.multiply(cte, phase, out=out[4])
        del ctm, cte, phase
        for i, row in ((0, lead), (2, kap)):  # [uu, uz], then [zu, zz]
            head = common * row
            np.multiply(head, kz, out=out[i])
            np.multiply(head, kap, out=out[i + 1])
            del head
        return np.moveaxis(out, 0, -1)

    return _interface_profile(medium, kap, s, travelling, spec)


def residue_profile(medium: Medium, kap: float, z: float, zp: float) -> np.ndarray:
    """Closed-form profile from the TM pole at k_z = i|k_par| (TE vanishes)."""
    _check_point(kap, z, zp)
    n = medium.n
    if z >= 0.0:
        al = medium.image_strength
        pref = math.pi * al * kap * math.exp(-kap * (z + zp))
        return pref * np.array([1.0, -1j, 1j, 1.0, 0.0])
    pref = -2.0 * math.pi * kap / (n * n + 1.0) * math.exp(kap * (z - zp))
    return pref * np.array([1.0, -1j, -1j, -1.0, 0.0])


# tensor entry (i, j), k_par along +x -> its dyad in [uu, uz, zu, zz, vv]
_DYADS = {(0, 0): 0, (0, 2): 1, (2, 0): 2, (2, 2): 3, (1, 1): 4}


def _dyad(pol: Polarization | None, i: int, j: int) -> int | None:
    """The dyad of tensor entry (i, j) in polarization ``pol`` (None for both),
    or None where that entry vanishes; rejects indices other than 0, 1, 2."""
    for name, index in (("i", i), ("j", j)):
        if not (isinstance(index, numbers.Integral) and 0 <= index <= 2):
            raise ValueError(f"{name} must be a tensor index 0, 1 or 2, got {index!r}")
    dyad = _DYADS.get((i, j))
    if pol is Polarization.TM:
        return None if dyad == 4 else dyad
    if pol is Polarization.TE:
        return dyad if dyad == 4 else None
    if pol is None:
        return dyad
    raise ValueError(f"pol must be Polarization.TE or Polarization.TM, got {pol!r}")


def kz_spectral_kernel(medium: Medium, pol: Polarization, i: int, j: int, kpar_mag: float,
                       z: float, zprime: float, spec: QuadratureSpec) -> complex:
    """Numerically assembled k_z integral at fixed k_par for one polarization
    and tensor component: the reflected kernel for z > 0, the transmitted one
    for z < 0.  k_par points along +x; the (2 pi)^{-3} measure and the
    parallel plane-wave factor of the full assembly are not included.
    """
    dyad = _dyad(pol, i, j)
    prof = kz_profile(medium, kpar_mag, z, zprime, spec)
    return 0j if dyad is None else complex(prof.value[dyad])


def residue_closed_form(medium: Medium, i: int, j: int, kpar_mag: float, z: float,
                        zprime: float) -> complex:
    """Residue-theorem value of the same k_z integral (TM pole only; the TE
    integrand is entire in the upper half-plane and integrates to zero)."""
    dyad = _dyad(None, i, j)
    comps = residue_profile(medium, kpar_mag, z, zprime)
    return 0j if dyad is None else complex(comps[dyad])


# ---------------------------------------------------------------------------
# radial assembly
# ---------------------------------------------------------------------------

def _bessel_combination(comps: np.ndarray, kap: np.ndarray, rho: float) -> np.ndarray:
    """Map profile components to the radial integrand of the aligned tensor,
    returning [xx, yy, zz, xz, zx] along the last axis, including the kappa
    measure factor, from J0, J1 and J1/x (the module docstring).  scipy.special
    is imported here, at the first assembly, not with the package."""
    from scipy.special import j0, j1

    uu, uz, zu, zz, vv = np.moveaxis(comps, -1, 0)
    x = kap * rho
    bessel1 = j1(x)
    # J1(x)/x from its series below _SERIES_X: j1(x)/x is 0/0 at x = 0 (rho = 0
    # pairs) and reads 0, not 1/2, at the least subnormal x
    half = np.divide(bessel1, x, out=0.5 - 0.0625 * x * x, where=x >= _SERIES_X)
    # each real weight once, the measure kappa folded in, then each component
    # in one pass straight into the output
    two_pik = 2.0 * math.pi * kap
    even = two_pik * j0(x)  # 2 pi kappa J0
    plus = two_pik * half  # pi kappa (J0 + J2)
    minus = even - plus  # pi kappa (J0 - J2)
    odd = 1j * two_pik * bessel1  # 2 pi i kappa J1
    out = np.empty(comps.shape, dtype=complex)
    np.add(minus * uu, plus * vv, out=out[..., 0])
    np.add(plus * uu, minus * vv, out=out[..., 1])
    np.multiply(even, zz, out=out[..., 2])
    np.multiply(odd, uz, out=out[..., 3])
    np.multiply(odd, zu, out=out[..., 4])
    return out


def _radial_assemble(
    profile_fn: Callable[[np.ndarray], IntegralResult],
    rho: float,
    damping: float,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integrate the profile against the Bessel weights over kappa in (0, inf)
    into the aligned 3x3 tensor.

    Exponentially damped profiles are truncated at the kappa_max of
    ``spectral.damped_breakpoints`` (e^{-kappa*damping} one decade below
    rel_tol), and the truncated tail is bounded from the profile at the
    largest kappa evaluated.  They start on the panels of that layout, which
    follow the decay and are split at the Bessel half-period pi/rho.
    Profiles whose truncated range would span more than 40 Bessel
    half-periods instead go through the oscillatory engine with the Bessel
    zeros as partition (the free-space part at z ~ z' needs this).
    """
    nodes_extra = 0
    err_inner_rate = 0.0  # peak of (inner error x Bessel weight scale) over kappa
    k_seen_max = 0.0
    tail_rate = 0.0  # bound on the radial integrand at k_seen_max

    def integrand(cols: np.ndarray) -> np.ndarray:
        # the nodes of a refinement level (on the Bessel-oscillation branch,
        # of a half-period or a level of its bisection), one panel a column;
        # up to _PROFILE_PANELS whole panels go to one profile call
        return np.concatenate([profile_part(cols[:, i:i + _PROFILE_PANELS]) for i in
                               range(0, cols.shape[1], _PROFILE_PANELS)], axis=1)

    def profile_part(cols: np.ndarray) -> np.ndarray:
        # each kappa's profile error is weighted by that kappa
        nonlocal nodes_extra, err_inner_rate, k_seen_max, tail_rate
        karr = cols.ravel()
        prof = profile_fn(karr)
        top = int(np.argmax(karr))
        k_top = float(karr[top])
        nodes_extra += prof.nodes_used
        rate = float(np.max(prof.entry_errors * karr)) * 2.0 * math.pi
        err_inner_rate = max(err_inner_rate, rate)
        if k_top > k_seen_max:
            k_seen_max = k_top
            # with |J_nu| <= 1 the weights of _bessel_combination are at most
            # 2 pi (|uu| + |vv|) for xx and yy, 2 pi |comp| for zz, xz and zx
            uu, uz, zu, zz, vv = np.abs(prof.value[top])
            tail_rate = 2.0 * math.pi * k_top * float(max(uu + vv, uz, zu, zz))
        return _bessel_combination(prof.value, karr, rho).reshape(cols.shape + (5,))

    if damping <= 0.0 and rho == 0.0:
        raise ValueError("profile without damping needs rho > 0 for the assembly")
    kmax = damped_breakpoints(damping, spec)[-1] if damping > 0.0 else math.inf
    # truncation unless the damping scale is so short that the range would
    # span more than 40 Bessel half-periods
    if kmax * rho <= 40.0 * math.pi:
        res = adaptive_panels(integrand, damped_breakpoints(damping, spec, rho), spec)
        # beyond kmax the profile decays like e^{-kappa * damping} (up to powers of kappa)
        tail = tail_rate / damping
    else:
        # undamped profiles converge through the Bessel oscillation alone;
        # a mildly relaxed tolerance keeps the accelerated partial sums well
        # inside the assembly target without demanding engine-level precision
        # (held to the largest tolerances a spec accepts)
        osc_spec = replace(spec, abs_tol=min(spec.abs_tol * 30.0, np.finfo(float).max),
                           rel_tol=min(spec.rel_tol * 30.0, 1.0))
        res = halfline_oscillatory_integral(integrand, rho, osc_spec)
        tail = 0.0
    xx, yy, zz, xz, zx = res.value
    tensor = np.array(
        [[xx, 0.0, xz], [0.0, yy, 0.0], [zx, 0.0, zz]], dtype=complex
    ) / _TWO_PI_CUBED
    err_total = (res.error_estimate + err_inner_rate * k_seen_max + tail) / _TWO_PI_CUBED
    return IntegralResult(tensor, err_total, res.nodes_used + nodes_extra)


def _rotation_about_z(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def assemble_kernel_result(
    medium: Medium, kind: KernelKind, pair: PointPair, spec: QuadratureSpec
) -> KernelAssembly:
    """Assemble the requested kernel at separated points (full quadrature path
    except PerfectReflector, which is the analytic image form)."""
    if not isinstance(kind, KernelKind):
        raise ValueError(f"kind must be a KernelKind, got {kind!r}")
    if pair.separation == 0.0:
        raise ValueError("coincident points: distributional parts are never evaluated")
    z, zp = float(pair.r[2]), float(pair.rprime[2])

    if kind is KernelKind.PERFECT_REFLECTOR:
        return KernelAssembly(kernel_closed_form(medium, kind, pair).astype(complex), 0.0, 0)

    delta_par = pair.r[:2] - pair.rprime[:2]
    rho = float(np.hypot(delta_par[0], delta_par[1]))
    phi0 = math.atan2(delta_par[1], delta_par[0]) if rho > 0.0 else 0.0

    # (profile function, damping scale, sign); every interface profile decays
    # like e^{-kappa (|z| + z')}
    parts: list[tuple[Callable[[np.ndarray], IntegralResult], float, float]] = []
    if kind in (KernelKind.GENERALIZED_DELTA, KernelKind.TRUE_COULOMB):
        if z >= 0.0:
            parts.append((lambda kap: _free_profile(kap, z, zp), abs(z - zp), 1.0))
        if z < 0.0 or medium.n > 1.0:
            parts.append((lambda kap: kz_profile(medium, kap, z, zp, spec), abs(z) + zp, 1.0))
    if kind is KernelKind.GAUGE_DIFFERENCE or (
        kind is KernelKind.TRUE_COULOMB and medium.n > 1.0
    ):
        sign = -1.0 if kind is KernelKind.TRUE_COULOMB else 1.0
        parts.append(
            (lambda kap: _gauge_difference_profile(medium, kap, z, zp, spec), abs(z) + zp, sign)
        )

    radial = [(sign, _radial_assemble(fn, rho, damping, spec)) for fn, damping, sign in parts]
    total = sum(sign * r.value for sign, r in radial)
    err = sum(r.error_estimate for _, r in radial)
    rot = _rotation_about_z(phi0)
    return KernelAssembly(rot @ total @ rot.T, err, sum(r.nodes_used for _, r in radial))


def gauge_difference_closed_form(medium: Medium, pair: PointPair) -> np.ndarray:
    """Closed form of the gauge-difference kernel in the -i*hbar convention:
    -grad grad' GR for z > 0, +alpha grad grad' G0 for z < 0 (primed
    derivatives literal; they may not be traded for unprimed ones in the
    reflected term)."""
    z = float(pair.r[2])
    if z >= 0.0:
        return -grad_grad_green_tensor(medium, GreenVariant.REFLECTED, pair)
    al = medium.image_strength
    return al * grad_grad_green_tensor(medium, GreenVariant.FREE, pair)


def kernel_closed_form(medium: Medium, kind: KernelKind, pair: PointPair) -> np.ndarray:
    """Image-charge closed form of each kernel kind at separated points.  The
    perfect reflector is the free form plus the unit-strength image, whatever
    the medium."""
    if kind is KernelKind.GENERALIZED_DELTA:
        return -grad_grad_green_tensor(medium, GreenVariant.FULL, pair)
    if kind is KernelKind.GAUGE_DIFFERENCE:
        return gauge_difference_closed_form(medium, pair)
    if kind is KernelKind.TRUE_COULOMB:
        return -grad_grad_green_tensor(medium, GreenVariant.FREE, pair)
    if kind is not KernelKind.PERFECT_REFLECTOR:
        raise ValueError(f"kind must be a KernelKind, got {kind!r}")
    if pair.r[2] < 0.0:
        raise ValueError("the perfect-reflector kernel lives in z, z' > 0")
    free = grad_grad_green_tensor(medium, GreenVariant.FREE, pair)
    return -(free + image_grad_grad_tensor(pair, 1.0))


# ---------------------------------------------------------------------------
# verification residuals
# ---------------------------------------------------------------------------

def fd_curl_first_index(
    tensor_fn: Callable[[np.ndarray], np.ndarray], r: np.ndarray, step: float
) -> tuple[np.ndarray, float]:
    """FD curl over the first index: curl[m, j] = eps_{mli} d_l K_{ij}.

    Returns the curl matrix and the max first-derivative magnitude, the
    natural scale for a relative residual.
    """
    d = np.empty((3, 3, 3))  # central differences d/dr_l K_ij, indexed [l, i, j]
    for axis in range(3):
        dr = np.zeros(3)
        dr[axis] = step
        d[axis] = (tensor_fn(r + dr) - tensor_fn(r - dr)) / (2.0 * step)
    curl = np.empty((3, 3))
    curl[0] = d[1, 2] - d[2, 1]
    curl[1] = d[2, 0] - d[0, 2]
    curl[2] = d[0, 1] - d[1, 0]
    return curl, float(np.max(np.abs(d)))


def curl_annihilation_residual(
    medium: Medium, pair: PointPair, fd_step: float | None = None
) -> float:
    """Relative FD-curl residual of the gauge-difference kernel over its first
    index; the kernel is a pure gradient there, so the residual is FD noise."""
    if fd_step is not None and not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError(f"fd_step must be positive and finite, got {fd_step!r}")
    if medium.n == 1.0:
        return 0.0
    step = fd_step if fd_step is not None else 1e-3 * pair.separation

    def field(r: np.ndarray) -> np.ndarray:
        return gauge_difference_closed_form(medium, PointPair(r, pair.rprime))

    curl, scale = fd_curl_first_index(field, pair.r, step)
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(curl))) / scale


def poisson_jump_residual(
    medium: Medium, kpar_mag: float, kz_or_kzd: complex, side: Side
) -> float:
    """Per-mode check of the Poisson equation for the gauge potential: away
    from the interface the e^{-|k_par||z|} profile is harmonic exactly, and
    the derivative jump must reproduce the surface-charge coefficient:
    2 |k_par| * chidot(0) = sigma / eps0.  Returns the normalised residual;
    a non-finite kpar_mag or label raises ValueError naming it."""
    chidot0 = chi_mode_coefficient(
        medium, side, kpar_mag, kz_or_kzd, z=0.0, time_derivative=True
    )
    lhs = 2.0 * kpar_mag * chidot0
    rhs = sigma_mode_coefficient(medium, side, kpar_mag, kz_or_kzd)
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def perfect_reflector_convergence(
    pair: PointPair, n_values: list[float], spec: QuadratureSpec
) -> list[float]:
    """Max-component deviation of the assembled generalized-gauge kernel from
    the perfect-reflector image form, for each n; decays like 2/(n^2+1)."""
    if pair.r[2] <= 0.0:
        raise ValueError("the perfect-reflector comparison needs z, z' > 0")
    target = kernel_closed_form(Medium(1.0), KernelKind.PERFECT_REFLECTOR, pair)
    assembled = (assemble_kernel_result(Medium(n), KernelKind.GENERALIZED_DELTA, pair, spec)
                 for n in n_values)
    return [float(np.max(np.abs(res.tensor - target))) for res in assembled]
