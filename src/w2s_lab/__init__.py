"""Numerical laboratory for surrogate-to-target ridgeless linear regression.

Exact excess-risk oracles for min-norm interpolation with designed surrogate
labels, closed-form optimal surrogates and feature masks, power-law scaling
predictions with finite-size certificates, and a seeded Monte Carlo harness
that validates every formula against simulation.
"""

from .design import (
    benign_region_check,
    brute_force_mask,
    cutoff_indices,
    gain_profile,
    mask_size,
    masked_surrogate,
    optimal_mask,
    optimal_surrogate,
    scaling_exponent,
)
from .estimators import (
    Dataset,
    EstimatorOutput,
    ProblemInstance,
    derive_seed,
    empirical_excess_risk,
    fit,
    sample_dataset,
    two_stage_fit,
)
from .spectrum import (
    HypothesisViolatedError,
    NonConvergenceError,
    SpectralStats,
    as_spectrum,
    fixed_point_residual,
    omega_asymptotic,
    omega_lower_bound,
    power_law_signal,
    power_law_spectrum,
    solve_tau,
    tau_asymptotic,
    tau_bounds_nonasymptotic,
)
from .theory import (
    RiskReport,
    covariance_shift_map,
    gamma_t_sq,
    omniscient_risk,
    one_stage_risk,
    to_spectral_coordinates,
    two_stage_risk,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EstimatorOutput",
    "HypothesisViolatedError",
    "NonConvergenceError",
    "ProblemInstance",
    "RiskReport",
    "SpectralStats",
    "as_spectrum",
    "benign_region_check",
    "brute_force_mask",
    "covariance_shift_map",
    "cutoff_indices",
    "derive_seed",
    "empirical_excess_risk",
    "fit",
    "fixed_point_residual",
    "gain_profile",
    "mask_size",
    "gamma_t_sq",
    "masked_surrogate",
    "omega_asymptotic",
    "omega_lower_bound",
    "omniscient_risk",
    "one_stage_risk",
    "optimal_mask",
    "optimal_surrogate",
    "power_law_signal",
    "power_law_spectrum",
    "sample_dataset",
    "scaling_exponent",
    "solve_tau",
    "tau_asymptotic",
    "tau_bounds_nonasymptotic",
    "to_spectral_coordinates",
    "two_stage_fit",
    "two_stage_risk",
]
