"""Shared exception types.

The CLI maps ParameterError to exit code 2 (usage) and the numeric errors to
exit code 1.
"""


class ParameterError(ValueError):
    """Invalid argument values or combinations rejected before computing."""


class NumericError(RuntimeError):
    """A computation produced an unusable result (no zero found, NaN, ...)."""


class ConvergenceError(NumericError):
    """An eigen solve failed to converge or to certify its residual.

    Carries the last residual so callers can report how far off the solve was.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
