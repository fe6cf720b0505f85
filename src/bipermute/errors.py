"""Exception hierarchy shared across the package.

Callers tell apart only two outcomes: bad input (every class but
``InvariantViolation``; the CLI exits 2) and a contradicted theorem
(``InvariantViolation``; the CLI exits 3).
"""


class BipermuteError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BipermuteError):
    """Malformed wire input: JSON, a scalar string, a semiring or matrix record."""


class DomainError(BipermuteError):
    """A well-formed value or parameter that an operation does not accept."""


class InvariantViolation(BipermuteError):
    """The code contradicted a theorem it implements: a bug, not bad input."""


def clip(value: object, show=repr) -> str:
    """``show(value)`` cut to 40 characters, an error message echoing no more; ``show=str`` writes 3/2."""
    return show(value)[:40]
