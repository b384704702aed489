"""Shared exception types.

The library never lets a precision shortfall silently decide a verdict:
anything that cannot be certified at the tracked precision raises
``PrecisionError`` (or returns an explicit inconclusive/indeterminate
marker where the operation's contract says so).
"""


class PadicError(Exception):
    """Base class for all library errors."""


class PrecisionError(PadicError, ArithmeticError):
    """A decision fell inside the precision guard band, or a value was
    indistinguishable from zero where a nonzero value was required.
    ``floor``, where set, is a certified lower bound on the undecided
    valuation."""

    floor = None


class TailBoundError(PadicError):
    """The untracked tail of a truncated series could dominate the quantity
    being computed; the caller must raise the truncation degree."""


class NotDivisibleError(PadicError):
    """Division by log(1+x) failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PsiNotZeroError(PadicError):
    """An operator defined on ker(psi) was applied to a series with
    psi(f) != 0 at tracked precision."""


class EnumerationUnsupportedError(PadicError):
    """The phi-stable subspace lattice cannot be certified complete for this
    module (non-generic Frobenius); refusing to under-enumerate."""


class NotStableError(PadicError):
    """A subspace was not phi-stable; carries the violating image vector."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SchemaError(PadicError):
    """A JSON input file violated the documented format; carries the path of
    the offending field."""
