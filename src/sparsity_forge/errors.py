"""Exception types shared across the toolkit."""


class SparsityForgeError(Exception):
    """Base class for all toolkit errors."""


class GraphFormatError(SparsityForgeError, ValueError):
    """Malformed graph6 / edge-list input.  Carries the byte offset when known,
    and the 1-based line of a multi-line input; ``reason`` is the message
    without them."""

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.reason = message
        if line is not None:
            message = f"{message} (line {line}, at byte offset {offset})"
        elif offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class PathologicalParametersError(SparsityForgeError, ValueError):
    """Raised for sparsity parameters with 2a + b < 1: only edgeless graphs qualify."""


class NotSparseError(SparsityForgeError, ValueError):
    """A precondition required a sparse input; carries the refuting certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class MatroidRegimeError(SparsityForgeError, ValueError):
    """Count-matroid parameters outside the supported integral regimes (b >= -2a)."""


class TheoremViolationError(SparsityForgeError, RuntimeError):
    """A certified input produced an outcome the theory rules out.

    This is never swallowed: it means either a bug or a genuine discrepancy
    with the published guarantees, and both must surface loudly.
    """


class VerificationError(SparsityForgeError, RuntimeError):
    """An internal re-verification failed: the fast path and the exact engine
    disagree, which is always a bug."""
