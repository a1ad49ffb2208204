"""Exception types shared across the toolkit, and the bound checks that
raise ParameterError.

Each check is written as the condition that holds, so NaN fails it, and
names the setting and the value it got.
"""

import math


class PopgcnError(Exception):
    """Base class for all toolkit errors."""


class FormatError(PopgcnError):
    """Input file does not have the expected structure (columns, header)."""


class ParseError(PopgcnError):
    """A cell could not be parsed; carries its (row, column) location."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class IntegrityError(PopgcnError):
    """Data violates an invariant (duplicate ids, negative age, ...)."""


class DegenerateInputError(PopgcnError):
    """Numerically degenerate input, e.g. a zero-variance feature vector."""


class ParameterError(PopgcnError):
    """Argument outside its documented range."""


def check_at_least(name: str, value, low, finite: bool = False):
    """Raise ParameterError unless value >= low, and, if finite, value < inf."""
    if not value >= low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    if finite:
        check_finite(name, value)


def check_above(name: str, value, low, finite: bool = False):
    """Raise ParameterError unless value > low, and, if finite, value < inf."""
    if not value > low:
        raise ParameterError(f"{name} must be > {low}, got {value}")
    if finite:
        check_finite(name, value)


def check_finite(name: str, value):
    """Raise ParameterError unless value is neither infinite nor NaN."""
    if not abs(value) < math.inf:
        raise ParameterError(f"{name} must be finite, got {value}")


class ContractError(PopgcnError):
    """Caller violated an API precondition (shape or alignment mismatch)."""


class DivergenceError(PopgcnError):
    """Training produced a non-finite loss, recording the epoch it happened,
    or a non-finite optimizer state (epoch None)."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class WorkerError(PopgcnError, RuntimeError):
    """A worker process exited before it returned its result."""
