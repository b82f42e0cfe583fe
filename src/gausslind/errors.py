"""Exception types shared across the package."""


class GausslindError(Exception):
    """Base class for all package errors."""


class NonSymplecticError(GausslindError):
    """A transformation matrix does not preserve the symplectic form."""


class BelowHeisenbergError(GausslindError):
    """A covariance block violates the uncertainty bound det >= 1."""


class DegenerateSqueezingError(GausslindError):
    """Squeezing amplitude too small for the angle (or its equation of
    motion) to be defined."""


class DomainError(GausslindError):
    """Argument outside the mathematical domain of a function."""


class StepFailureError(GausslindError):
    """An integrator or a collocation could not meet its tolerance, or a
    computed value is not finite."""


class PoleOrderError(GausslindError):
    """Incomplete-gamma order too close to a non-positive integer."""


class BranchCutError(GausslindError):
    """Complex argument lies on the negative real axis (branch cut)."""


class SingularExponentError(GausslindError):
    """Power-law index hits a value where a closed form degenerates
    (logarithmic case not implemented)."""


class ConfigError(GausslindError):
    """Scenario configuration failed validation."""
