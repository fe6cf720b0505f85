"""Scalar values of bipotent semirings.

A scalar is one of:

* ``NEG_INF`` -- the bottom element, used both for the genuine -infinity of
  the tropical and truncated tropical semirings and for an adjoined zero;
* ``ADJOINED_ID`` -- the notational identity adjoined for unitriangular
  matrices (addition with it is only partially defined);
* an exact rational (``int`` or ``fractions.Fraction``);
* an ``Atom`` -- an index into a finite chain or an explicit operation table.

Rationals are deliberately plain numbers so that arithmetic stays cheap;
integers and integral fractions compare and hash equal, so either form may
appear in a matrix entry.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, clip

Rational = Union[int, Fraction]


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        return (_sentinel_by_name, (self._name,))


NEG_INF = _Sentinel("-inf")
ADJOINED_ID = _Sentinel("id")


def _sentinel_by_name(name: str) -> _Sentinel:
    return {"-inf": NEG_INF, "id": ADJOINED_ID}[name]


@dataclass(frozen=True, slots=True)
class Atom:
    """Element of a finite chain or table semiring, identified by index."""

    index: int

    def __repr__(self) -> str:
        return f"Atom({self.index})"


Scalar = Union[_Sentinel, int, Fraction, Atom]


def is_rational(value: object) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def as_fraction(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def rational_str(value: Rational) -> str:
    return str(as_fraction(value))


def _too_many_digits(text: str) -> bool:
    """Whether the literal's numerator or denominator has more digits than Python converts to text.

    The limit is ``sys.get_int_max_str_digits()``.  The count is read from
    the text, before any number is built: "1e30000000" would take minutes to
    build and could not be printed.  A literal no longer than the limit and
    with no exponent passes at once.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or len(text) <= limit and "e" not in text and "E" not in text:
        return False
    mantissa, _, exponent = text.lower().partition("e")
    digits = max(sum(c.isdigit() for c in part) for part in mantissa.split("/"))
    return digits + abs(int(exponent or 0)) > limit


def parse_rational(text: Union[str, int]) -> Rational:
    """Parse "p/q", a decimal or an integer literal into an exact rational."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    text = str(text)
    try:
        if _too_many_digits(text):
            raise ParseError(f"rational literal needs more than {sys.get_int_max_str_digits()} digits: {clip(text)}")
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {clip(text)}") from exc
    return int(frac) if frac.denominator == 1 else frac


def scalar_to_json(value: Scalar) -> object:
    """Encode a scalar in the wire format: "-inf", "id", int, "p/q", {"atom": i}."""
    if value is NEG_INF:
        return "-inf"
    if value is ADJOINED_ID:
        return "id"
    if isinstance(value, Atom):
        return {"atom": value.index}
    if is_rational(value):
        frac = as_fraction(value)
        return int(frac) if frac.denominator == 1 else str(frac)
    raise ParseError(f"not a scalar: {clip(value)}")


def scalar_from_json(obj: object) -> Scalar:
    if obj == "-inf":
        return NEG_INF
    if obj == "id":
        return ADJOINED_ID
    if isinstance(obj, dict):
        if set(obj) != {"atom"} or type(obj["atom"]) is not int:  # a JSON integer, not a boolean
            raise ParseError(f"bad atom encoding: {clip(obj)}")
        return Atom(obj["atom"])
    if isinstance(obj, bool):
        raise ParseError(f"bad scalar encoding: {clip(obj)}")
    if isinstance(obj, (int, str)):
        return parse_rational(obj)
    raise ParseError(f"bad scalar encoding: {clip(obj)}")
