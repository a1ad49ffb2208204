"""Exception types shared across the toolkit."""


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


class ContractError(PopgcnError):
    """Caller violated an API precondition (shape or alignment mismatch)."""


class DomainError(PopgcnError):
    """Mathematical domain violation, e.g. arctanh outside (-1, 1)."""


class DivergenceError(PopgcnError):
    """Training produced a non-finite loss; records the epoch it happened."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class WorkerError(PopgcnError, RuntimeError):
    """A worker process exited before it returned its result."""
