"""Exception hierarchy shared across the package."""


class BipermuteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BipermuteError):
    """A scalar is not a member of the semiring carrier it was used with."""


class UndefinedPartialSum(BipermuteError):
    """A sum involving the adjoined identity that the partial addition leaves undefined."""


class NotFiniteOrder(BipermuteError):
    """An operation required an element of finite multiplicative order."""


class InfeasibleExhaustive(BipermuteError):
    """Exhaustive verification requested over an infinite carrier."""


class DimensionMismatch(BipermuteError):
    pass


class SemiringMismatch(BipermuteError):
    """Operands live over different semirings or different matrix families."""


class EmptySequence(BipermuteError):
    pass


class BadDimension(BipermuteError):
    pass


class LengthMismatch(BipermuteError):
    pass


class CapExceeded(BipermuteError):
    """An exhaustive permutation sweep was requested beyond the configured cap."""


class ShapeMismatch(BipermuteError):
    pass


class BadScale(BipermuteError):
    """A scaling constant violates the bound required for the lift to work."""


class BadEpsilon(BipermuteError):
    pass


class BadParams(BipermuteError):
    pass


class BadInterval(BipermuteError):
    pass


class OutOfDomain(BipermuteError):
    """A value lies outside the domain of a piecewise linear map."""


class LengthTooShort(BipermuteError):
    """A sequence is shorter than the pigeonhole bound it must meet."""


class InvariantViolation(BipermuteError):
    """The code contradicted a theorem it implements: a bug, not bad input."""


class NoPairFound(InvariantViolation):
    """No equal-image pair exists where the pigeonhole principle guarantees one (a bug)."""


class PatternMismatch(BipermuteError):
    """A matrix sequence does not match the structural pattern a finder requires."""


class CaseFallthrough(InvariantViolation):
    """The case analysis of the transposition finder failed where it must not."""


class ParseError(BipermuteError):
    """Malformed JSON input."""
