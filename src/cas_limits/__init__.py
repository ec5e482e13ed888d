"""Fundamental limits of communication-assisted sensing.

Discrete constrained capacity and rate-distortion solvers, Gaussian
target-response-matrix closed forms, ISAC waveform optimization with a
separated-waveform baseline, and a Monte Carlo validator.
"""

from .discrete import (
    FiniteCasModel,
    InputDistribution,
    Theorem1Result,
    constrained_capacity,
    estimate_cost,
    estimate_costs,
    min_total_distortion,
    mutual_information,
    optimal_estimate,
    rate_distortion_discrete,
    theorem1_feasible,
)
from .errors import (
    CasError,
    ConfigError,
    ConvergenceWarning,
    InfeasibleConstraint,
    NonFiniteObjective,
    UnreachableDistortion,
    ZeroProbabilityObservation,
)
from .gaussian import (
    GramMatrix,
    RwfResult,
    TrmModel,
    channel_mi,
    gram_spectrum,
    mmse_filter,
    random_trm_model,
    reverse_waterfill,
    sensing_mse,
)
from .simulate import SimReport, simulate_end_to_end, simulate_sensing
from .types import TradeoffPoint
from .waveform import OptResult, SweepCurve, optimize_isac, optimize_sw, sweep_snr

__version__ = "0.1.0"

KERNEL_BACKEND = "python"  # the Blahut-Arimoto kernels are NumPy only

__all__ = [
    "CasError",
    "ConfigError",
    "ConvergenceWarning",
    "FiniteCasModel",
    "GramMatrix",
    "InfeasibleConstraint",
    "InputDistribution",
    "KERNEL_BACKEND",
    "NonFiniteObjective",
    "OptResult",
    "RwfResult",
    "SimReport",
    "SweepCurve",
    "Theorem1Result",
    "TradeoffPoint",
    "TrmModel",
    "UnreachableDistortion",
    "ZeroProbabilityObservation",
    "channel_mi",
    "constrained_capacity",
    "estimate_cost",
    "estimate_costs",
    "gram_spectrum",
    "min_total_distortion",
    "mmse_filter",
    "mutual_information",
    "optimal_estimate",
    "optimize_isac",
    "optimize_sw",
    "random_trm_model",
    "rate_distortion_discrete",
    "reverse_waterfill",
    "sensing_mse",
    "simulate_end_to_end",
    "simulate_sensing",
    "sweep_snr",
    "theorem1_feasible",
]
