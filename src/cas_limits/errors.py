"""Exception types shared across the package."""


class CasError(Exception):
    """Base class for all solver and model errors."""


class ZeroProbabilityObservation(CasError):
    """The (x, z) pair has zero probability, so no posterior exists."""


class InfeasibleConstraint(CasError):
    """The distortion/cost constraints cut an empty region out of the simplex."""


class UnreachableDistortion(CasError):
    """Requested distortion lies below the minimum achievable distortion."""


class NonFiniteObjective(CasError):
    """Optimizer numerics produced NaN/Inf; the model is ill-conditioned."""


class ConfigError(CasError):
    """An experiment configuration file failed validation."""


class ConvergenceWarning(RuntimeWarning):
    """A solver stopped at an iteration or multiplier cap without certifying its answer."""
