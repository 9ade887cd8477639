"""Exception types shared across the package."""


class FirasymError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientError(FirasymError):
    """Regression matrix does not have full column rank."""


class NotPositiveDefiniteError(FirasymError):
    """A matrix required to be positive definite failed its factorization."""


class NonFiniteError(FirasymError):
    """A matrix or vector that a factorization needs holds NaN or infinity."""


class OutOfBoxError(FirasymError):
    """Hyper-parameter value lies outside the configured search box."""


class DegenerateTruthError(FirasymError):
    """True coefficient vector is constant, so the fit score is undefined."""


class ConfigError(FirasymError):
    """Run configuration failed validation; message carries the field path."""
