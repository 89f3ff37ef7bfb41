"""Quantized-field mode structure, commutator kernels and electrostatic
energy identities near a non-dispersive dielectric half-space (z < 0, index
n), in natural units.  The package verifies the residue-theorem closed forms
of the spectral kernels by independent quadrature."""

from .medium import (
    Medium,
    Polarization,
    Side,
    SpectralPoint,
    epsilon_profile,
    evanescent_threshold,
    label_wavenumbers,
    mode_frequency,
    refracted_kz,
)
from .fresnel import FresnelSet, cancellation_residual, fresnel_coefficients
from .greens import (
    GreenVariant,
    PointPair,
    electrostatic_green,
    grad_grad_green_tensor,
    image_potential_ves,
)
from .spectral import (
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    cut_segment_integral,
)
from .modes import (
    carniglia_mandel_mode,
    chi_mode_coefficient,
    polarization_vector,
    sigma_mode_coefficient,
    surface_charge_mode,
)
from .kernels import (
    KernelKind,
    assemble_kernel_result,
    curl_annihilation_residual,
    gauge_difference_closed_form,
    kz_spectral_kernel,
    perfect_reflector_convergence,
    poisson_jump_residual,
    residue_closed_form,
)
from .energy import (
    ShiftResult,
    double_commutator_cnumber,
    gauge_invariance_sum,
    redistribution_factors,
    second_order_shift,
)
from .report import CheckReport, make_check

__version__ = "0.1.0"
