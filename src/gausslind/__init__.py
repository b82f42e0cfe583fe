"""Gaussian states of parametric oscillators: closed and environment-coupled
covariance evolution, Gaussian quantum discord across arbitrary
bipartitions, and the de Sitter inflationary application."""

from . import errors
from .symplectic import (
    CovarianceBlock,
    Covariance4,
    PartitionAngles,
    SqueezingState,
    ParticleStatistics,
    general_partition_matrix,
    one_param_partition_matrix,
    is_symplectic,
    transform_covariance,
    covariance_blocks_in_partition,
    purity,
    sigma_theta,
    particle_statistics,
    squeezing_from_covariance,
    covariance_from_squeezing,
)
from .discord import (
    DiscordResult,
    entropy_kernel,
    discord,
    discord_squeezed,
    mutual_information,
    max_classical_info,
)
from .specfun import (
    upper_incomplete_gamma,
    oscillatory_moment,
    oscillatory_moment_limits,
)
from .closed import (
    ModeFrequency,
    ModeState,
    BogoliubovPair,
    integrate_mode_function,
    bogoliubov_from_mode,
    covariance_from_bogoliubov,
    transport_rhs_closed,
    squeezing_rhs_closed,
    evolve_squeezing,
    wigner_ellipse,
)
from .opensys import (
    transport_rhs_open,
    det_rhs,
    evolve_open,
)
from .cosmology import (
    CosmoParams,
    AsymptoticCoefficients,
    PowerSpectrumCorrection,
    PsRegime,
    omega_sq_de_sitter,
    de_sitter_frequency,
    de_sitter_mode,
    de_sitter_bogoliubov,
    de_sitter_covariance_closed,
    de_sitter_squeezing,
    cosmo_kernel,
    exact_open_covariance,
    asymptotic_coefficients,
    approx_open_covariance,
    sigma0_sq_approx,
    offset_singular_p,
    power_spectrum_correction,
    decoherence_threshold,
    discord_cosmo,
    evolve_de_sitter,
)

__version__ = "0.1.0"
