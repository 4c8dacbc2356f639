"""Shared exception types.

NumericOverflow is a control-flow signal, not a bug marker: the trial
runner catches it and classifies the trial as infeasible.
"""


class ConfigError(ValueError):
    """Inconsistent shapes, bounds, or configuration values."""


class NumericOverflow(ArithmeticError):
    """A non-finite value appeared during forward/backward/update.

    `trials` holds the indices, along a stack's trial axis, of the trials
    whose values are non-finite; only `nn.loss_and_error` leaves it None."""

    def __init__(self, message, trials=None):
        super().__init__(message)
        self.trials = trials


class IdxFormatError(ValueError):
    """Malformed IDX file; message carries the failing byte offset."""


class InsufficientDataError(ValueError):
    """Too few points to fit (fewer than 2 distinct batch sizes)."""


class DegenerateStepError(ArithmeticError):
    """Undefined smoothness: zero displacement, a diverged run or no valid sample."""


class ResultsFormatError(ValueError):
    """Malformed results table; message carries the file and line."""
