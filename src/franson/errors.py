"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a run configuration fails parsing or validation."""


class UndefinedCorrelationError(ArithmeticError):
    """Raised when a correlation coefficient is requested but no coincidences exist."""


class FitError(RuntimeError):
    """Raised when a fringe fit has singular normal equations."""
