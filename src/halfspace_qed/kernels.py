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

The two sides of the interface share one travelling k_z body (``kz_profile``):
the side only picks its coefficients, rR or tR, the lead of the TM u-row,
the scale of the TM dyads and the plane-wave phase.  Every body has degree 0
in (kappa, k_z) (below), so a profile at any kappa is its body at unit kappa,
s = k_z/kappa, integrated with the phase e^{i kappa a(s)} over the s contour
of the kernels (``_contour_part``): P(kappa; z, z') = kappa P(1; kappa z,
kappa z').  That quadrature (the ray from s = i gamma/2, its mirror and the
cut, in one run of ``spectral.ray_integral`` with the ray and the cut on
panels of their own, every level one body call on both together) is the
numerical path that the residue-theorem closed forms are verified against.

The kappa and azimuth integrals of a kernel are closed.  Write k_z = kappa s.
Every interface profile is P(kappa) = kappa int ds B(s) e^{i kappa a(s)}: the
amplitude B has degree 0 in (kappa, k_z) (the Fresnel coefficients and g
depend on s alone, and each dyad carries two powers of kappa, k_z or k_zd
over |k|^2), once the gauge-difference profile's front factor i kappa is set
apart, and the phase is kappa times

    a(s) = s (z + z')                      reflected (z >= 0)
    a(s) = k_zd(s) |z| + s z'              transmitted (z < 0), k_zd(s) = sqrt(n^2 s^2 + n^2 - 1)
    a(s) = s z' + i |z|                    gauge difference, its e^{-kappa |z|} folded in
    a    = i |z - z'|                      free part, kappa e^{-kappa |z - z'|} times constants.

With Delta r_par = rho xhat and k_par at azimuth phi, a dyad weight c(phi)
integrates over k_par as

    int_0^inf kappa^2 dkappa int_0^{2 pi} dphi c(phi) e^{i kappa (a + rho cos phi)}
        = -2i int_0^{2 pi} dphi c(phi)/(a + rho cos phi)^3          (Im a > 0),

and with w = sqrt(a - rho) sqrt(a + rho), the root of a^2 - rho^2 with
Im w > 0 (both factors lie in the first quadrant),

    int dphi {1, cos phi, cos^2 phi, sin^2 phi}/(a + rho cos phi)^3
        = pi {2 a^2 + rho^2, -3 a rho, a^2 + 2 rho^2, a^2 - rho^2}/w^5,

regular at rho = 0, where w = a.  The first follows from
int dphi/(a + rho cos phi) = 2 pi/w by two a-derivatives, the others from
it in the same way; W_1 = W_cc + W_ss.  The dyads go uu -> cos^2 into xx and
sin^2 into yy, vv -> the reverse, uz and zu -> cos phi into xz and zx, and
zz -> 1 into zz (their sin phi parts are odd in phi), so the aligned tensor
is

    xx = W_cc uu + W_ss vv,  yy = W_ss uu + W_cc vv,  zz = W_1 zz,  xz = W_c uz,  zx = W_c zu,

rotated about z afterwards to restore the actual azimuth.  A kernel is
(2 pi)^{-3} times one s integral of these entries per interface part, at
kappa = 1: no Bessel function, truncation or tail bound is left.

The s contour.  Swapping the kappa and s integrals needs Im a > 0, bounded
away from 0, along the whole s path.  The plain route runs the ray
s = u e^{i pi/4} from 0, its mirror s -> -conj(s) (the continuation of the
k_z < 0 half axis, where k_zd is minus the principal root) and the body's
jump across the cut s = i t, 0 < t < gamma = sqrt(n^2 - 1)/n.  From s = 0
the pieces diverge: above the interface a(0) = 0, so at rho = 0 the weight
W_1 = -4 pi i/a^3 goes like 1/s^3; below it a(0) = sqrt(n^2 - 1)|z| equals rho at
rho = sqrt(n^2 - 1)|z|, where w = 0.  But each side's body is analytic next
to the lower end of the cut (its singularities are the branch point
s = i gamma, the poles of 1/|k|^2 and of the TE coefficient at s = i, and
the TM poles at s = -+1/n), so the corner is cut before kappa is swapped in:
the contour is the ray s = i gamma/2 + u e^{i pi/4}, its mirror and the jump
on t in [gamma/2, gamma] only.  On it Im a >= (gamma/2) z' > 0.  At n = 1
there is no cut and the ray starts at i/2, below the pole at s = i.  Once
gamma rounds to 1 (n > 7e7) the cut ends on those poles, so its |k|^2 and
k_zd are formed from gamma - t as the map gives it (``_ray_cut_block``).

The profiles take the same contour at their own kappa.  A reflected or
transmitted body tends to a constant times e^{i kappa a(s)} at large |s|, so
from s = 0 its ray and mirror are O(1/(z + z')) each and cancel down to a
profile of O(kappa e^{-kappa (z + z')}); from i gamma/2 every piece is
already damped by e^{-kappa gamma z'/2}.  Its first ray panel is graded from
gamma/4, half the distance of the branch point that a kernel's is graded
from: with gamma/2 about a quarter of the benchmark's profiles split that
panel at a second level.

For the reflected and transmitted parts the mirror is the plain conjugate
of the ray in all five aligned entries: the body goes to _PARITY times its
conjugate, a to -conj(a), and W to conj(W) except W_c, which goes to
-conj(W_c) and so cancels the parity sign of uz and zu; a profile, which
has no weights, takes _PARITY times the conjugate.  The gauge-difference
body has no parity sign: its mirror is the Schwarz partner of its
e^{-i k_z z'} terms, so its xz and zx entries take -conj (``_MIRROR``), and
its profile's entries the plain conjugate.  Its cut body, the evanescent
left-incident modes, is the jump of its travelling body across the cut, so
the same contour serves it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .fresnel import fresnel_coefficients
from .greens import GreenVariant, PointPair, grad_grad_green_tensor, image_grad_grad_tensor
from .medium import Medium, Polarization, Side
from .modes import chi_mode_coefficient, sigma_mode_coefficient, surface_charge_mode
from .spectral import IntegralResult, QuadratureSpec, ray_integral

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
# The least kappa > 0 of a profile.  The body runs at unit kappa, so kappa^2
# no longer underflows, but the ray's far nodes s ~ 1e4/(kappa (|z| + z'))
# square past the float range below about kappa (|z| + z') = 1e-150; from
# 1e-148 up the profiles integrate (n <= 1e4, heights of order 1).
_KAPPA_MIN = 1e-100


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

# Every profile takes one kappa = |k_par|, a real scalar, and returns an
# IntegralResult whose value is the five dyads and whose error bounds them,
# from one engine run of the kappa's ray and its cut.

# On the travelling axis the Fresnel coefficients are real and even under
# (k_z, k_zd) -> (-k_z, -k_zd) and the plane-wave phases go to their
# conjugates, so the k_z < 0 half of a reflected or transmitted profile is the
# conjugate of its k_z > 0 half, with a sign on the odd dyads uz and zu.
_PARITY = np.array([1.0, -1.0, -1.0, 1.0, 1.0])


def _kz_dyads(medium: Medium, above: bool, kz: np.ndarray, kzd: np.ndarray,
              kmag2: np.ndarray, phase) -> np.ndarray:
    """The dyads [uu, uz, zu, zz, vv] of the travelling k_z body at unit
    kappa, component first: (rR, -k_z, |k|^2) for z >= 0 and (tR, k_zd,
    n |k|^2) below as the amplitudes, TM u-row lead and TM dyad scale, times
    ``phase`` (kappa e^{i kappa a(s)} in a profile, 1 where the weights of
    the closed kappa integral apply it)."""
    tm = fresnel_coefficients(medium, Polarization.TM, 1.0, kz, kzd)
    te = fresnel_coefficients(medium, Polarization.TE, 1.0, kz, kzd)
    if above:
        ctm, cte, lead, scale = tm.rR, te.rR, -kz, kmag2
    else:
        ctm, cte, lead, scale = tm.tR, te.tR, kzd, medium.n * kmag2
    # one common factor ctm phase/scale, then each dyad in one pass straight
    # into its component of the output, every factor freed once used: the
    # call peaks at about 2.1 times its output
    del tm, te
    common = ctm * phase
    common /= scale
    out = np.empty((5,) + common.shape, dtype=complex)
    np.multiply(cte, phase, out=out[4])
    del ctm, cte, phase
    head = common * lead
    np.multiply(head, kz, out=out[0])  # [uu, uz] = common lead [k_z, 1]
    out[1] = head
    del head
    np.multiply(common, kz, out=out[2])  # [zu, zz] = common [k_z, 1]
    out[3] = common
    return out


def _gauge_terms(medium: Medium, k: np.ndarray, kzd: np.ndarray,
                 common: np.ndarray) -> np.ndarray:
    """The gauge-difference travelling body at unit kappa, component first:
    [ju, jz] of the right-incident modes plus the travelling left-incident
    ones by dk_z (n^2 (k/kzd) tL/n = n tR), then of the Schwarz partners of
    their e^{-ik z'} terms, times ``common`` (e^{i kappa s z'}/|k|^2 in the
    profile, 1/|k|^2 under the closed kappa weights)."""
    n = medium.n
    tm = fresnel_coefficients(medium, Polarization.TM, 1.0, k, kzd)
    right = surface_charge_mode(medium, Side.RIGHT, tm)
    back = surface_charge_mode(medium, Side.LEFT, tm) * (n * tm.tR)
    back += right * tm.rR
    back *= common
    right *= common
    out = np.empty((4,) + back.shape, dtype=complex)
    for i, (term, factor) in enumerate(((right, -k), (right, -1.0), (back, k), (back, -1.0))):
        np.multiply(term, factor, out=out[i])
    return out


def _gauge_evanescent_terms(medium: Medium, t: np.ndarray, kzd: np.ndarray,
                            damp: np.ndarray) -> np.ndarray:
    """[ju, jz] of the evanescent left-incident modes on the cut s = i t at
    unit kappa, component first: on the cut n^2 (t/kzd) tL*/n = i n tR*,
    free of 1/kzd, so one common factor g tR* ``damp`` (e^{-kappa t z'}/|k|^2
    in the profile, 1/|k|^2 under the closed kappa weights), the i n folded
    into each term's factor."""
    n = medium.n
    tm = fresnel_coefficients(medium, Polarization.TM, 1.0, 1j * t, kzd)
    common = surface_charge_mode(medium, Side.LEFT, tm)
    common *= np.conj(tm.tR)
    common *= damp
    out = np.empty((2,) + common.shape, dtype=complex)
    np.multiply(common, n * t, out=out[0])  # i n (-i t)
    np.multiply(common, -1j * n, out=out[1])  # i n (-1)
    return out


def _components_last(terms: np.ndarray) -> np.ndarray:
    """The view of ``terms`` (components, *nodes) as (*nodes, components)."""
    return terms.transpose(*range(1, terms.ndim), 0)


def _ray_cut_block(k: np.ndarray, rays: int, n: float, gamma: float, start: float,
                   body: Callable, cut: Callable | None, parity) -> np.ndarray:
    """The values of an interface body at unit kappa on one ``ray_integral``
    level's node block k, its ``rays`` ray columns first and its cut columns
    after them.  One call body(s, kzd, |k|^2) gets s = k + i ``start`` on the
    rays (kzd = n sqrt(s^2 + ``gamma``^2), the principal root of
    n^2 s^2 + n^2 - 1 with no n^2 s^2 to overflow at large n) and s = i t,
    t = ``start`` + Im k, on the cut (kzd >= 0), whose columns then hold the
    jump across the cut, -i [F - ``parity`` conj F] of the value F there.
    With ``cut`` the body gets the rays alone and cut(t, kzd, |k|^2) the cut,
    its trailing components padded by 0.

    For n > 1 the cut runs from ``start`` = gamma/2 to the branch point, and
    gamma^2 - t^2 is formed as (gamma - t)(gamma + t), with gamma - t =
    ``start`` - Im k straight from the map: then |k|^2 = 1 - t^2 =
    1/n^2 + gamma^2 - t^2 and kzd = n sqrt(gamma^2 - t^2), neither of which
    cancels to 0 once gamma rounds to 1 (n > 7e7)."""
    s, x = k[:, :rays] + 1j * start, k.imag[:, rays:]
    t = start + x
    gap = (start - x) * (gamma + t)
    s2 = s * s
    kzd, cut_kzd = n * np.sqrt(s2 + gamma * gamma), n * np.sqrt(gap)
    kmag2, cut_kmag2 = 1.0 + s2, 1.0 / (n * n) + gap
    if cut is not None:
        ray = body(s, kzd, kmag2)
        jump = cut(t, cut_kzd, cut_kmag2)
        block = np.zeros(k.shape + ray.shape[2:], dtype=complex)
        block[:, :rays], block[:, rays:, :jump.shape[-1]] = ray, jump
        return block
    block = body(*(np.concatenate(pair, axis=1) for pair in
                   ((s, 1j * t), (kzd, cut_kzd), (kmag2, cut_kmag2))))
    jump = block[:, rays:]
    jump[...] = -1j * (jump - parity * np.conj(jump))
    return block


def _contour_part(medium: Medium, scale: float, spec: QuadratureSpec, body: Callable,
                  mirror, jump: Callable | None = None, near: float = 1.0) -> IntegralResult:
    """One interface integral over the s contour of the module docstring, in
    one ``ray_integral`` run, each level one ``_ray_cut_block`` of ``body``
    (and ``jump``) at unit kappa: the ray s = i gamma/2 + u e^{i pi/4} (kzd
    on the principal root), its mirror and the jump on the cut s = i t,
    gamma/2 < t < gamma (kzd >= 0).  The cut runs as the engine's cut of
    Gamma = gamma/2 shifted up by gamma/2, so that its sin map meets the
    branch point.  Without ``jump`` the body's entries are the result's: the
    mirror adds ``mirror`` times the conjugate of the ray, and the cut holds
    the jump -i [F - ``mirror`` conj F] of the body's value F there.  With
    ``jump`` the body returns its terms and then as many Schwarz partners,
    whose conjugates, times ``mirror``, are the mirror, and the cut is
    ``jump``'s.
    The ray's map scale is ``scale``, the growth rate of Im a along it (up
    to the k_zd term).  It starts on the finer layout, on which most rays
    converge at their first level; its first panel is graded from ``near``
    times gamma/2, the distance of the branch point, and the cut's last from
    the poles at s = i.  The error is 2 ray + cut."""
    n = medium.n
    gamma = math.sqrt(n * n - 1.0) / n
    start = 0.5 * gamma if n > 1.0 else 0.5

    def on_block(k: np.ndarray, rays: int) -> np.ndarray:
        return _ray_cut_block(k, rays, n, gamma, start, body, jump, mirror)

    # the poles at s = i sit at u = pi/2 + i acosh(2/gamma - 1) of t = gamma (1 + sin u)/2
    res = ray_integral(on_block, scale, spec, near=near * start,
                       gamma=start if n > 1.0 else None,
                       cut_near=(math.inf, math.acosh(2.0 / gamma - 1.0)) if n > 1.0 else None,
                       flat=True)
    ray = res.value[0]
    width = len(ray) if jump is None else len(ray) // 2
    value, err = ray[:width] + mirror * np.conj(ray[-width:]), 2.0 * res.entry_errors[0]
    if n > 1.0:
        value, err = value + res.value[1, :width], err + res.entry_errors[1]
    return IntegralResult(value, float(err), res.nodes_used)


def _gauge_difference_profile(medium: Medium, kap: float, z: float, zp: float,
                              spec: QuadratureSpec) -> IntegralResult:
    """Mode-sum profile of the gauge-difference kernel: each TM mode's surface
    charge g times its vacuum amplitude at z' over omega, by dk_z or dk_zd.
    The right-incident and the travelling left-incident modes share the vacuum
    k_z > 0 axis as one body, which has no mirror half; its e^{-ik_z z'} terms
    go on the ray as their Schwarz partners.  The cut holds the evanescent
    left-incident modes, written on their own; they equal the body's jump
    across the cut, with its e^{-ik_z z'} terms continued through k_z < 0
    (``_gauge_part`` relies on that).  [ju, jz] has degree 0 in (kappa, k_z),
    so it is the s contour of the bodies at unit kappa with the phase
    e^{i kappa s z'}, its front i kappa e^{-kappa |z|} set apart."""
    kap = _check_point(kap, z, zp)
    n = medium.n
    if n == 1.0 or kap == 0.0:
        return IntegralResult(np.zeros(5, dtype=complex), 0.0, 0)
    height = kap * zp

    def body(s: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        common = np.exp(1j * height * s)
        common /= kmag2
        return _components_last(_gauge_terms(medium, s, kzd, common))

    def jump(t: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        return _components_last(_gauge_evanescent_terms(medium, t, kzd,
                                                        np.exp(-height * t) / kmag2))

    j = _contour_part(medium, height, spec, body, 1.0, jump, near=0.5)
    ju, jz = j.value
    sgn = 1.0 if z >= 0.0 else -1.0
    # (2 pi)^{3/2} undoes g's mode normalisation; the profile measure has the (2 pi)^{-3}
    front = 1j * kap * math.sqrt(_TWO_PI_CUBED) * math.exp(-kap * abs(z))
    comps = front * np.array([ju, jz, 1j * sgn * ju, 1j * sgn * jz, 0.0])
    return IntegralResult(comps, abs(front) * j.error_estimate, j.nodes_used)


def _check_point(kap, z: float, zp: float) -> float:
    """kappa as a float, once it is a real scalar (a float, np.floating or a
    0-d array), 0 or a finite value >= _KAPPA_MIN; rejects, before any engine
    call, any other kappa, non-finite heights and z' <= 0."""
    if not isinstance(kap, float):
        value = np.asarray(kap)
        if value.ndim or value.dtype.kind not in "iuf":
            raise ValueError(f"kpar_mag must be one real value, got {value.dtype} of shape "
                             f"{value.shape}")
        kap = float(value)
    if not (math.isfinite(kap) and (kap == 0.0 or kap >= _KAPPA_MIN)):
        raise ValueError(f"kpar_mag must be 0 or a finite value >= {_KAPPA_MIN:g}, "
                         f"got {float(kap)!r}")
    for name, value in (("z", z), ("z'", zp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if zp <= 0.0:
        raise ValueError("the primed point must lie outside the dielectric (z' > 0)")
    return kap


def kz_profile(medium: Medium, kap: float, z: float, zp: float,
               spec: QuadratureSpec) -> IntegralResult:
    """The k_z-integrated kernel profile at fixed kappa: reflected for z >= 0,
    transmitted below.  One travelling body serves both; the side picks its
    amplitudes, TM u-row lead, TM dyad scale and phase: (rR, -k_z, |k|^2,
    e^{i k_z (z + z')}) for z >= 0, (tR, k_zd, n |k|^2, e^{-i k_zd z + i k_z z'})
    below.  The body has degree 0 in (kappa, k_z), so with k_z = kappa s the
    profile is the s contour of kappa ds times the body at unit kappa and the
    phase e^{i kappa a(s)}: P(kappa; z, z') = kappa P(1; kappa z, kappa z')."""
    kap = _check_point(kap, z, zp)
    above = z >= 0.0
    if (above and medium.n == 1.0) or kap == 0.0:
        return IntegralResult(np.zeros(5, dtype=complex), 0.0, 0)
    depth, height = kap * abs(z), kap * zp

    def body(s: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        a = s * (depth + height) if above else kzd * depth + s * height
        return _components_last(_kz_dyads(medium, above, s, kzd, kmag2, kap * np.exp(1j * a)))

    return _contour_part(medium, depth + height, spec, body, _PARITY, near=0.5)


def residue_profile(medium: Medium, kap: float, z: float, zp: float) -> np.ndarray:
    """Closed-form profile from the TM pole at k_z = i|k_par| (TE vanishes)."""
    kap = _check_point(kap, z, zp)
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
# assembly: closed kappa and azimuth integrals, one s contour per part
# ---------------------------------------------------------------------------

# The mirror of an aligned ray value in [xx, yy, zz, xz, zx]: the conjugate,
# times these signs for the gauge-difference body (the module docstring)
_MIRROR = np.array([1.0, 1.0, 1.0, -1.0, -1.0])


def _weights(a, rho: float) -> tuple:
    """(W_1, W_c, W_cc, W_ss): the kappa and azimuth integrals of the dyad
    weights 1, cos phi, cos^2 phi and sin^2 phi against kappa^2 e^{i kappa
    (a + rho cos phi)}, for Im a > 0 (the module docstring)."""
    w = np.sqrt(a - rho) * np.sqrt(a + rho)
    w2 = w * w  # a^2 - rho^2 free of cancellation
    p = -2j * math.pi / (w2 * w2 * w)
    ss = p * w2
    cc = ss + (3.0 * rho * rho) * p
    return cc + ss, (-3.0 * rho) * a * p, cc, ss


def _aligned(weights: tuple, uu, uz, zu, zz, vv) -> np.ndarray:
    """The aligned entries [xx, yy, zz, xz, zx] (last axis) of the dyads."""
    one, c, cc, ss = weights
    return np.stack([cc * uu + ss * vv, ss * uu + cc * vv, one * zz, c * uz, c * zu], axis=-1)


def _kz_part(medium: Medium, z: float, zp: float, rho: float,
             spec: QuadratureSpec) -> IntegralResult:
    """The reflected (z >= 0) or transmitted part of the generalized kernel,
    aligned: the k_z body of ``kz_profile`` at kappa = 1 under the weights."""
    above = z >= 0.0

    def body(s: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        a = s * (z + zp) if above else kzd * abs(z) + s * zp
        return _aligned(_weights(a, rho), *_kz_dyads(medium, above, s, kzd, kmag2, 1.0))

    return _contour_part(medium, abs(z) + zp, spec, body, 1.0)


def _gauge_part(medium: Medium, z: float, zp: float, rho: float,
                spec: QuadratureSpec) -> IntegralResult:
    """The gauge-difference kernel, aligned: the bodies of
    ``_gauge_difference_profile`` at kappa = 1 under the weights, its front
    i kappa (2 pi)^{3/2} e^{-kappa |z|} split into the phase and the dyads
    [uu, uz, zu, zz] = i (2 pi)^{3/2} [ju, jz, i sgn(z) ju, i sgn(z) jz]."""
    if medium.n == 1.0:
        return IntegralResult(np.zeros(5, dtype=complex), 0.0, 0)

    def body(s: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        w = _weights(s * zp + 1j * abs(z), rho)
        ru, rz, bu, bz = _gauge_terms(medium, s, kzd, 1.0 / kmag2)
        return np.concatenate([_aligned(w, ru, rz, ru, rz, 0.0),
                               _aligned(w, bu, bz, bu, bz, 0.0)], axis=-1)

    def jump(t: np.ndarray, kzd: np.ndarray, kmag2: np.ndarray) -> np.ndarray:
        ju, jz = _gauge_evanescent_terms(medium, t, kzd, 1.0 / kmag2)
        return _aligned(_weights(1j * (t * zp + abs(z)), rho), ju, jz, ju, jz, 0.0)

    res = _contour_part(medium, abs(z) + zp, spec, body, _MIRROR, jump)
    sgn = 1.0 if z >= 0.0 else -1.0
    front = math.sqrt(_TWO_PI_CUBED)
    return IntegralResult(front * np.array([1j, 1j, -sgn, 1j, -sgn]) * res.value,
                          front * res.error_estimate, res.nodes_used)


def _rotation_about_z(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def assemble_kernel_result(
    medium: Medium, kind: KernelKind, pair: PointPair, spec: QuadratureSpec
) -> KernelAssembly:
    """Assemble the requested kernel at separated points (full quadrature path
    except PerfectReflector, which is the analytic image form): the free
    part in closed form, each interface part as one s contour."""
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

    parts: list[tuple[float, IntegralResult]] = []
    if kind in (KernelKind.GENERALIZED_DELTA, KernelKind.TRUE_COULOMB):
        if z >= 0.0:
            # the free profile is kappa e^{-kappa |z - z'|} times these dyads
            sgn = 1.0 if z >= zp else -1.0
            free = -math.pi * np.array([1.0, sgn * 1j, sgn * 1j, -1.0, 0.0])
            parts.append((1.0, IntegralResult(_aligned(_weights(1j * abs(z - zp), rho), *free),
                                              0.0, 0)))
        if z < 0.0 or medium.n > 1.0:
            parts.append((1.0, _kz_part(medium, z, zp, rho, spec)))
    if kind is KernelKind.GAUGE_DIFFERENCE or (
        kind is KernelKind.TRUE_COULOMB and medium.n > 1.0
    ):
        sign = -1.0 if kind is KernelKind.TRUE_COULOMB else 1.0
        parts.append((sign, _gauge_part(medium, z, zp, rho, spec)))

    xx, yy, zz, xz, zx = sum(sign * r.value for sign, r in parts) / _TWO_PI_CUBED
    total = np.array([[xx, 0.0, xz], [0.0, yy, 0.0], [zx, 0.0, zz]], dtype=complex)
    err = sum(r.error_estimate for _, r in parts) / _TWO_PI_CUBED
    rot = _rotation_about_z(phi0)
    return KernelAssembly(rot @ total @ rot.T, err, sum(r.nodes_used for _, r in parts))


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
