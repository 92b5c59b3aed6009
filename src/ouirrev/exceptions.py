"""Exception types shared across the package."""


class ModelValidationError(ValueError):
    """Model definition violates an invariant (singular noise matrix, bad shapes)."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot fell at or below the positive-definiteness floor."""


class DegenerateModelError(ValueError):
    """Lyapunov solve failed: B is not stable (an eigenvalue with real part
    <= 0), or the solution misses its residual bound."""


class NoStationaryLawError(ValueError):
    """Requested a stationary law for a sweeping model, which has none.

    classification is the model's Classification, when the raiser built one.
    """

    def __init__(self, message: str, classification=None):
        super().__init__(message)
        self.classification = classification


class PotentialUndefinedError(ValueError):
    """Free energy requested for a model whose force has no potential."""


class UndefinedEntropyError(ValueError):
    """Differential entropy requested for a singular (point-mass) state."""


class InsufficientDataError(ValueError):
    """A batch of paths does not carry enough samples for the estimator."""


class NumericalFailureError(RuntimeError):
    """An iterative kernel failed to converge or overflowed."""
