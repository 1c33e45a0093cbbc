"""Exception types for input, structural, and certification failures."""


class GraphFormatError(ValueError):
    """Malformed graph input (graph6 line or edge-list text)."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class StructuralViolation(RuntimeError):
    """A transform would break the cubic/simple invariant.

    Raised when smoothing would create a loop or a parallel edge; for the
    certification pipeline this signals the removed pair was not safe and
    the caller must not proceed.
    """


class Lemma3Violation(RuntimeError):
    """Both removal orientations around a pivot edge are blocked.

    Carries the two witness cuts so the failure can be inspected.
    """

    def __init__(self, message: str, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class InvariantViolation(RuntimeError):
    """An invariant the construction or an oracle relies on does not hold.

    Raised by explicit checks rather than ``assert``, so the proof's
    invariants are enforced under ``python -O`` as well.
    """
