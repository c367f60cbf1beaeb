"""Exception types shared across the package."""


class SemipathError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(SemipathError):
    """Operands have incompatible dimensions."""


class InstanceMismatch(SemipathError):
    """Operands belong to different semiring instances."""


class UnsupportedInstance(SemipathError):
    """The requested operation needs a capability this instance lacks."""


class SolverUndefined(SemipathError):
    """A solver hit a scalar operation that is undefined in this instance.

    ``step`` is the size of the leading subsystem being built when the
    operation failed (1 for the very first scalar closure), and ``value``
    the scalar it failed on: the pivot without a star, or the pivot or
    solution entry outside the carrier.
    """

    def __init__(self, step, value, message):
        super().__init__(message)
        self.step = step
        self.value = value


class ClosureUndefined(SolverUndefined):
    """A scalar closure needed by the recursion does not exist."""


class OutsideCarrier(SolverUndefined):
    """A pivot or a solution entry is not a member of the carrier: a float
    overflowed to inf, or a NaN followed from one.  The solvers test each
    pivot before its star, each new entry at its size and the finished
    solution at the last size, so ``step`` is the size at which the first
    such value appeared, and the message names it.
    """


class NotStabilized(SemipathError):
    """Partial closure sums did not reach a fixed point within the term budget."""

    def __init__(self, terms, message):
        super().__init__(message)
        self.terms = terms


class EnumerationTooLarge(SemipathError):
    """Exhaustive solution search was asked for more candidates than allowed."""


class ParseError(SemipathError):
    """An instance file is malformed."""


class UnknownSemiring(ParseError):
    """The named semiring is not registered."""


class BadSentinel(ParseError):
    """An infinity sentinel was used with a carrier that does not admit it."""


class IncompatibleRequest(SemipathError):
    """The requested algorithm does not fit the provided instance."""
