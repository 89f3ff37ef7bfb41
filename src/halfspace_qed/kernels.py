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
The inner k_z quadrature (the travelling axis along the damped ray
k_z = u e^{i pi/4} of ``spectral.ray_integral``, the evanescent segment
through the cut rule) is the numerical path that the residue-theorem closed
forms are verified against.  The bodies' branch points lie on the imaginary
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
from scipy.special import jv

from .fresnel import fresnel_coefficients
from .greens import GreenVariant, PointPair, grad_grad_green_tensor, image_grad_grad_tensor
from .medium import Medium, Polarization, Side, evanescent_threshold
from .modes import chi_mode_coefficient, sigma_mode_coefficient, surface_charge_mode
from .spectral import (
    IntegralResult,
    QuadratureSpec,
    adaptive_panels,
    cut_segment_integral,
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
    "assemble_kernel",
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
    """Travelling axis plus evanescent segment of an interface profile.
    ``travelling`` gets (kz, kzd, kappa, kmag2) for k_z > 0 and its
    continuation into the first quadrant, where it goes like e^{i k_z scale};
    its k_z > 0 integral is taken on the damped ray (one entry per kappa, each
    with its own panels).  Without ``evanescent`` the profile integrates
    ``travelling`` over the whole real k_z axis: the k_z < 0 half adds _PARITY
    times the conjugate of the k_z > 0 integral, and the cut k_z = i t,
    0 < t < Gamma, holds the body's jump across it, -i [f(it, kzd) - f(it, -kzd)].
    With ``evanescent``, which gets (t, kzd, kappa, kmag2) on the cut for every
    entry, the profile is the k_z > 0 integral plus the cut integral of that
    body: no mirror, no jump.  Its travelling body then returns [the terms in
    e^{+i k_z z'}, the Schwarz partners of the terms in e^{-i k_z z'}]: a
    partner has e^{+i k_z z'} in place of e^{-i k_z z'}, and as the
    coefficients are real on the travelling axis, a term's k_z > 0 integral is
    the conjugate of its partner's.  Either way each kappa's ray error doubles.

    Continued with the principal root of kzd, every interface body has the TM
    pole n^2 k_z + kzd = 0 at k_z = -kappa/n: outside the first quadrant, so
    the ray holds, but a distance kappa/n from its origin, so each kappa's
    first ray panel is graded from that scale (``near``).  The cut gets the
    graded first and last panels of ``_cut_scales``."""
    n = medium.n
    flat = kap.ravel()
    kap2, gap2 = flat * flat, (n * n - 1.0) * flat * flat  # once, not per panel

    def body(k: np.ndarray, entries: np.ndarray) -> np.ndarray:
        return travelling(k, np.sqrt(n * n * k * k + gap2[entries]), flat[entries],
                          kap2[entries] + k * k)

    def segment(t: np.ndarray) -> np.ndarray:
        kzd = np.sqrt(np.maximum(gap2 - n * n * t * t, 0.0))
        if evanescent is not None:
            return evanescent(t, kzd, flat, kap2 - t * t)
        both = travelling(1j * t, np.stack([kzd, -kzd]), flat, kap2 - t * t)
        return -1j * (both[0] - both[1])

    ray = ray_integral(body, scale, flat.size, spec, near=flat / n)
    value = ray.value
    if evanescent is None:
        value = value + _PARITY * np.conj(value)
    else:
        half = value.shape[-1] // 2
        value = value[:, :half] + np.conj(value[:, half:])
    cut = cut_segment_integral(segment, evanescent_threshold(medium, flat), spec,
                               near=_cut_scales(n))
    err = 2.0 * ray.entry_errors + cut.error_estimate  # the cut within its bound
    return IntegralResult((value + cut.value).reshape(kap.shape + (-1,)), float(err.max()),
                          ray.nodes_used + cut.nodes_used, err.reshape(kap.shape))


def _reflected_profile(medium: Medium, kap: ArrayLike, z: float, zp: float,
                       spec: QuadratureSpec) -> IntegralResult:
    """Reflected kernel profile for z, z' > 0 over the whole k_z axis."""
    s = z + zp
    kap = np.asarray(kap, dtype=float)
    if medium.n == 1.0:
        return IntegralResult(np.zeros(kap.shape + (5,), dtype=complex), 0.0, 0,
                              np.zeros(kap.shape))

    def travelling(kz: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                   kmag2: np.ndarray) -> np.ndarray:
        rtm = fresnel_coefficients(medium, Polarization.TM, kap, kz, kzd).rR
        rte = fresnel_coefficients(medium, Polarization.TE, kap, kz, kzd).rR
        phase = np.exp(1j * kz * s)
        uu = rtm * (-kz * kz / kmag2) * phase
        uz = rtm * (-kz * kap / kmag2) * phase
        zu = rtm * (kap * kz / kmag2) * phase
        zz = rtm * (kap * kap / kmag2) * phase
        vv = rte * phase
        return np.stack([uu, uz, zu, zz, vv], axis=-1)

    return _interface_profile(medium, kap, s, travelling, spec)


def _transmitted_profile(medium: Medium, kap: ArrayLike, z: float, zp: float,
                         spec: QuadratureSpec) -> IntegralResult:
    """Transmitted kernel profile for z < 0, z' > 0 over the whole k_z axis."""
    n = medium.n
    s_eff = n * abs(z) + zp
    kap = np.asarray(kap, dtype=float)

    def travelling(kz: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                   kmag2: np.ndarray) -> np.ndarray:
        ttm = fresnel_coefficients(medium, Polarization.TM, kap, kz, kzd).tR
        tte = fresnel_coefficients(medium, Polarization.TE, kap, kz, kzd).tR
        phase = np.exp(-1j * kzd * z + 1j * kz * zp)
        uu = ttm * (kzd * kz / (n * kmag2)) * phase
        uz = ttm * (kzd * kap / (n * kmag2)) * phase
        zu = ttm * (kap * kz / (n * kmag2)) * phase
        zz = ttm * (kap * kap / (n * kmag2)) * phase
        vv = tte * phase
        return np.stack([uu, uz, zu, zz, vv], axis=-1)

    return _interface_profile(medium, kap, s_eff, travelling, spec)


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
    n = medium.n
    kap = np.asarray(kap, dtype=float)
    if n == 1.0:
        return IntegralResult(np.zeros(kap.shape + (5,), dtype=complex), 0.0, 0,
                              np.zeros(kap.shape))

    def travelling(k: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                   kmag2: np.ndarray) -> np.ndarray:
        # the right-incident modes plus the travelling left-incident ones, by
        # dk_z: n^2 (k/kzd) tL/n = n tR; [ju, jz] of the e^{+ik z'} terms, then
        # of the partners of the e^{-ik z'} terms
        kmag = np.sqrt(kmag2)
        tm = fresnel_coefficients(medium, Polarization.TM, kap, k, kzd)
        right = surface_charge_mode(medium, Side.RIGHT, kap, k, kzd, tm) / kmag
        left = surface_charge_mode(medium, Side.LEFT, kap, kzd, k, tm) * n * tm.tR / kmag
        back = right * tm.rR + left
        parts = np.stack([-k * right, -kap * right, k * back, -kap * back], axis=-1)
        return parts * (np.exp(1j * k * zp) / kmag)[..., None]

    def left_evanescent(t: np.ndarray, kzd: np.ndarray, kap: np.ndarray,
                        kmag2: np.ndarray) -> np.ndarray:
        kmag = np.sqrt(kmag2)
        # on the cut n^2 (t/kzd) tL*/n = i n tR*, free of 1/kzd
        tm = fresnel_coefficients(medium, Polarization.TM, kap, 1j * t, kzd)
        g = surface_charge_mode(medium, Side.LEFT, kap, kzd, 1j * t, tm)
        coef = g * 1j * n * np.conj(tm.tR) / kmag
        damp = np.exp(-t * zp)
        ju = coef * (-1j * t / kmag) * damp
        jz = coef * (-kap / kmag) * damp
        return np.stack([ju, jz], axis=-1)

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
    """Reject, before any engine call, kappa that is not finite and >= 0,
    non-finite heights and z' <= 0."""
    k = np.asarray(kap, dtype=float)
    bad = ~(np.isfinite(k) & (k >= 0.0))
    if bad.any():
        raise ValueError(f"kpar_mag must be finite and >= 0, got {float(k[bad][0])!r}")
    for name, value in (("z", z), ("z'", zp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if zp <= 0.0:
        raise ValueError("the primed point must lie outside the dielectric (z' > 0)")


def kz_profile(medium: Medium, kap: ArrayLike, z: float, zp: float,
               spec: QuadratureSpec) -> IntegralResult:
    """The k_z-integrated kernel profile at fixed kappa: the reflected profile
    for z >= 0, the transmitted one below the interface."""
    _check_point(kap, z, zp)
    if z >= 0.0:
        return _reflected_profile(medium, kap, z, zp, spec)
    return _transmitted_profile(medium, kap, z, zp, spec)


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
    if dyad is None or pol is (Polarization.TM if dyad == 4 else Polarization.TE):
        return None
    return dyad


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
    measure factor."""
    uu, uz, zu, zz, vv = np.moveaxis(comps, -1, 0)
    x = kap * rho
    j0 = jv(0, x)
    j1 = jv(1, x)
    j2 = jv(2, x)
    pi = math.pi
    w_xx = pi * (j0 - j2) * uu + pi * (j0 + j2) * vv
    w_yy = pi * (j0 + j2) * uu + pi * (j0 - j2) * vv
    w_zz = 2.0 * pi * j0 * zz
    w_xz = 2.0j * pi * j1 * uz
    w_zx = 2.0j * pi * j1 * zu
    return kap[..., None] * np.stack([w_xx, w_yy, w_zz, w_xz, w_zx], axis=-1)


def _radial_assemble(
    profile_fn: Callable[[np.ndarray], IntegralResult],
    rho: float,
    damping: float,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integrate the profile against the Bessel weights over kappa in (0, inf)
    into the aligned 3x3 tensor.

    Exponentially damped profiles are truncated after the configured number
    of decay decades, and the truncated tail is bounded from the profile at
    the largest kappa evaluated.  They start on the panels of
    ``spectral.damped_breakpoints``, which follow the e^{-kappa*damping}
    decay and are split at the Bessel half-period pi/rho.  Profiles whose
    truncated range would span more than 40 Bessel half-periods instead go
    through the oscillatory engine with the Bessel zeros as partition (the
    free-space part at z ~ z' needs this).
    """
    nodes_extra = 0
    err_inner_rate = 0.0  # peak of (inner error x Bessel weight scale) over kappa
    k_seen_max = 0.0
    tail_rate = 0.0  # bound on the radial integrand at k_seen_max

    def integrand(karr: np.ndarray) -> np.ndarray:
        # the engine hands over the 15 nodes of each panel of a refinement
        # level (on the Bessel-oscillation branch, of one half-period or of
        # a bisection level), node-major; up to _PROFILE_PANELS whole panels
        # go to one profile call
        cols = karr.reshape(15, -1)
        return np.concatenate(
            [profile_part(cols[:, i:i + _PROFILE_PANELS]) for i in
             range(0, cols.shape[1], _PROFILE_PANELS)], axis=1).reshape(karr.size, -1)

    def profile_part(karr: np.ndarray) -> np.ndarray:
        # each kappa's profile error is weighted by that kappa
        nonlocal nodes_extra, err_inner_rate, k_seen_max, tail_rate
        karr = karr.ravel()
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
        return _bessel_combination(prof.value, karr, rho).reshape(15, -1, 5)

    if damping <= 0.0 and rho == 0.0:
        raise ValueError("profile without damping needs rho > 0 for the assembly")
    kmax = spec.damped_truncation_decades * math.log(10.0) / damping if damping > 0.0 else math.inf
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
        osc_spec = replace(spec, abs_tol=spec.abs_tol * 30.0, rel_tol=spec.rel_tol * 30.0)
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


def assemble_kernel(
    medium: Medium, kind: KernelKind, pair: PointPair, spec: QuadratureSpec
) -> np.ndarray:
    return assemble_kernel_result(medium, kind, pair, spec).tensor


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
    assembled = (assemble_kernel(Medium(n), KernelKind.GENERALIZED_DELTA, pair, spec)
                 for n in n_values)
    return [float(np.max(np.abs(kern - target))) for kern in assembled]
