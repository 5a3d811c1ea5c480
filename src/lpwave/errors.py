"""Exception types shared across the package."""


class LPWaveError(Exception):
    """Base class for everything raised on purpose by this package."""


class GridMismatchError(LPWaveError):
    """Two grid functions do not live on the same grid."""


class ConfigurationError(LPWaveError):
    """A parameter is outside the range an operation supports."""


class UnknownFamilyError(ConfigurationError):
    """Requested coefficient family name is not a built-in."""


class ZeroBlockError(LPWaveError):
    """A ratio was requested on a block whose norm is exactly zero."""


class CFLError(LPWaveError):
    """Requested time step violates the stability bound."""


class NumericalBlowupError(LPWaveError):
    """NaN or overflow appeared during time stepping.

    Carries the first time at which the state was no longer finite.
    """

    def __init__(self, t):
        self.t = t
        super().__init__(f"non-finite state at t = {t}")


class PowerIterationError(LPWaveError):
    """Power iteration stagnated before reaching its tolerance."""

    def __init__(self, residual, estimate):
        self.residual = residual
        self.estimate = estimate
        super().__init__(
            f"power iteration stagnated (residual {residual:.3e}, "
            f"estimate {estimate:.6e})"
        )


class ConditionError(LPWaveError):
    """A coefficient hypothesis check failed before a solve."""


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# (exception types, exit code, message label); the first match wins
_EXIT_CLASSES = (
    ((ConfigurationError, FileNotFoundError), EXIT_CONFIG,
     "configuration error"),
    ((CFLError, NumericalBlowupError), EXIT_NUMERICAL, "numerical failure"),
    ((ConditionError,), EXIT_FAIL, "condition failure"),
)


def classify(exc: BaseException):
    """(exit code, message label) that a failed run reports for ``exc``."""
    for types, code, label in _EXIT_CLASSES:
        if isinstance(exc, types):
            return code, label
    return EXIT_FAIL, "error"
