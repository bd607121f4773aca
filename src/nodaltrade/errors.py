"""Exception types shared across the package."""


class NodalTradeError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NodalTradeError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(NodalTradeError):
    """A computation would exceed the desk-scale ceiling."""


class EigenvalueCollisionError(NodalTradeError):
    """Two isotypic blocks share an eigenvalue at the chosen specialization.

    Retryable: pick a different specialization point.  The colliding
    partitions are stored on the exception.
    """

    def __init__(self, x0, partitions):
        self.x0 = x0
        self.partitions = tuple(partitions)
        labels = ", ".join(str(p) for p in self.partitions)
        super().__init__(f"eigenvalue collision at x0={x0} between blocks {labels}")


class SubspaceError(NodalTradeError):
    """A vector that should lie in a distinguished subspace does not."""


class InconsistentDataError(NodalTradeError):
    """Input data cannot arise from an invariant tensor."""


class InternalConsistencyError(NodalTradeError):
    """An identity guaranteed by theory failed; indicates a bug."""


class MissingDataError(NodalTradeError, KeyError):
    """A required oracle-table entry is absent."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"no oracle entry for key {key!r}")

    __str__ = Exception.__str__  # KeyError's own __str__ would quote the message


class InvalidModelError(NodalTradeError):
    """A bundled or user-supplied model violates its schema invariants."""


class UnsupportedCaseError(NodalTradeError):
    """The requested reduction falls outside the implemented cases."""


class VerificationError(NodalTradeError):
    """Two independently computed values that must agree do not."""

    def __init__(self, message, lhs=None, rhs=None):
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(message)
