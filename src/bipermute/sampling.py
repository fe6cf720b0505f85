"""Seeded random sampling of scalars and matrices.

Reproducibility discipline: every independent random stream is a
``random.Random`` seeded through :func:`derive_rng` from a root seed plus a
tuple of string labels, hashed with SHA-256.  Two runs with the same root
seed and labels produce identical streams regardless of call order.

A draw is one generator call plus integer arithmetic: each descriptor
computes its truncation grids (integer numerators over one denominator) and
its atoms once and keeps them, and a grid keeps each point's value once it
has been drawn (trunc(1,2) has 65 points at the default denominator).  Draws
keep the values, the types and the generator consumption of the plain
``Fraction`` formulas stated below.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .errors import DomainError
from .matrices import FULL, UNI, UT, Matrix
from .scalars import ADJOINED_ID, NEG_INF, Scalar
from .semirings import (
    BOOLEAN,
    CHAIN,
    NAT_MAX,
    NEG_NAT_MAX,
    TABLE,
    TROPICAL,
    TRUNC,
    TRUNC_NAT,
    TRUNC_NEG_NAT,
    Semiring,
)

DEFAULT_SEED = 1729  # the documented default seed for every CLI entry point
DEFAULT_GRID_DENOMINATOR = 64
SENTINEL_WEIGHT = 8  # each sentinel drawn with probability 1/8


def derive_rng(seed: int, *labels: str) -> random.Random:
    """Derive an independent deterministic generator from a seed and labels."""
    material = f"{seed}|" + "|".join(labels)
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _ratio(num: int, den: int) -> Scalar:
    """num/den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def sample_trunc_value(desc: Semiring, rng: random.Random, denom: int = DEFAULT_GRID_DENOMINATOR) -> Scalar:
    """The grid point x + t*(y-x)/steps of [x, y], steps = ceil((y-x)*denom), exact."""
    steps, base, step, den, points = desc.trunc_grid(denom)
    t = rng.randint(0, steps)
    value = points.get(t)
    if value is None:
        value = points[t] = _ratio(base + t * step, den)
    return value


def sample_scalar(desc: Semiring, rng: random.Random, denom: int = DEFAULT_GRID_DENOMINATOR) -> Scalar:
    """Draw one carrier element; sentinels get weight 1/8 each where present."""
    f = desc.family
    if f == TRUNC:
        roll = rng.randrange(SENTINEL_WEIGHT)
        if roll == 0:
            return NEG_INF
        if roll == 1:
            return 0
        return sample_trunc_value(desc, rng, denom)
    if desc.adjoined_zero and rng.randrange(SENTINEL_WEIGHT) == 0:
        return NEG_INF
    if f == TROPICAL:
        if rng.randrange(SENTINEL_WEIGHT) == 0:
            return NEG_INF
        return _ratio(rng.randint(-256, 256), rng.choice((1, 1, 2, 3, 4, 8, 64)))
    if f == NAT_MAX:
        return rng.randint(1, 40)
    if f == NEG_NAT_MAX:
        return -rng.randint(1, 40)
    if f == TRUNC_NAT:
        return rng.randint(1, desc.k)
    if f == TRUNC_NEG_NAT:
        return -rng.randint(1, desc.k)
    if f in (CHAIN, BOOLEAN, TABLE):
        return desc._atoms[rng.randrange(desc.size)]
    raise DomainError(f"cannot sample from family {f!r}")


def sample_proper_scalar(desc: Semiring, rng: random.Random, denom: int = DEFAULT_GRID_DENOMINATOR) -> Scalar:
    """A carrier element that is not a sentinel (for unitriangular entries)."""
    for _ in range(64):
        s = sample_scalar(desc, rng, denom)
        if s is not NEG_INF:
            return s
    raise DomainError(f"could not sample a proper element of {desc.family}")


def sample_matrix(desc: Semiring, n: int, rng: random.Random, family: str = "full",
                  denom: int = DEFAULT_GRID_DENOMINATOR) -> Matrix:
    if family == FULL:
        rows = [[sample_scalar(desc, rng, denom) for _ in range(n)] for _ in range(n)]
        return Matrix.make(desc, FULL, rows)
    zero = desc.zero_element()
    if zero is None:
        raise DomainError(f"{desc.family} has no zero element; adjoin one first")
    if family == UT:
        rows = [
            [sample_scalar(desc, rng, denom) if j >= i else zero for j in range(n)]
            for i in range(n)
        ]
        return Matrix.make(desc, UT, rows)
    if family == UNI:
        rows = [
            [
                ADJOINED_ID if j == i else (sample_proper_scalar(desc, rng, denom) if j > i else zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return Matrix.make(desc, UNI, rows)
    raise DomainError(f"unknown matrix family {family!r}")
