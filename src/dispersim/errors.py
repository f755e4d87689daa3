"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Sample or coefficient count does not match the grid."""


class ConfigurationError(ValueError):
    """Incompatible grid/flow/lattice combination or invalid run configuration."""


class SplitResolutionError(RuntimeError):
    """Adaptive density split exhausted the grid resolution.

    Carries the best epsilon achieved so callers can report it.
    """

    def __init__(self, message, best_epsilon):
        super().__init__(message)
        self.best_epsilon = best_epsilon


class FitError(ValueError):
    """Tail estimates unusable for constant fitting (all 0 or 1, or too few)."""
