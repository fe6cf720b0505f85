"""Seeded random sampling of scalars and matrices.

Reproducibility discipline: every independent random stream is a
``random.Random`` seeded through :func:`derive_rng` from a root seed plus a
tuple of string labels, hashed with SHA-256.  Two runs with the same root
seed and labels produce identical streams regardless of call order.

A draw costs its random bits plus integer arithmetic.  The public samplers
draw truncation values on one grid, of denominator ``DEFAULT_GRID_DENOMINATOR``.
A descriptor builds its drawer for a grid on first use and keeps it: each
range size with its bit length, the truncation grid (integer numerators over
one denominator, each point's value kept once drawn) and the atoms drawn.  A
bounded draw is ``getrandbits(n.bit_length())`` until the result is below n,
as ``randrange(n)``, ``randint`` and ``choice`` make it, so draws keep the
values, types and generator consumption of the plain formulas stated below.
Sampled matrices hold carrier elements by construction and skip validation.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import DomainError, clip
from .matrices import FULL, UNI, UT, Matrix
from .scalars import ADJOINED_ID, NEG_INF, Atom, Scalar
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
_ROLL_BITS = SENTINEL_WEIGHT.bit_length()  # 4: randrange(8) draws 4 bits and rejects half
_TROPICAL_DENOMINATORS = (1, 1, 2, 3, 4, 8, 64)

Draw = Callable[[Callable[[int], int]], Scalar]  # a draw from ``rng.getrandbits``


def derive_rng(seed: int, *labels: str) -> random.Random:
    """Derive an independent deterministic generator from a seed and labels."""
    material = f"{seed}|" + "|".join(labels)
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _ratio(num: int, den: int) -> Scalar:
    """num/den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _uniform(values: Sequence[Scalar]) -> Draw:
    """values[randrange(len(values))], by CPython's ``Random._randbelow_with_getrandbits`` inlined."""
    n = len(values)
    k = n.bit_length()

    def draw(bits):
        while (r := bits(k)) >= n:
            pass
        return values[r]

    return draw


def _kept(n: int, build: Callable[[int], Scalar]) -> Draw:
    """build(randrange(n)) by ``_uniform``'s loop, each value built on its first draw and kept, never all n."""
    k, kept = n.bit_length(), {}

    def draw(bits):
        while (i := bits(k)) >= n:
            pass
        v = kept.get(i)
        if v is None:
            v = kept[i] = build(i)
        return v

    return draw


def _or_neg_inf(proper: Draw) -> Draw:
    """-inf if randrange(8) == 0, else a draw of ``proper``."""
    roll = _uniform(range(SENTINEL_WEIGHT))
    return lambda bits: NEG_INF if roll(bits) == 0 else proper(bits)


def _build_drawer(desc: Semiring, denom: int) -> tuple[Draw, Optional[Draw]]:
    """The (scalar, grid value) draws of ``desc``, each the plain formula it names, bit for bit."""
    f = desc.family
    if f == TRUNC:
        # grid point t = 0..steps of [x, y] is x + t*(y-x)/steps = (base + t*step)/den
        width = desc.y - desc.x
        steps = max(1, -int(-width * denom // 1))  # ceil((y-x)*denom)
        spacing = width / steps
        den = math.lcm(desc.x.denominator, spacing.denominator)
        base, step = int(desc.x * den), int(spacing * den)
        value = _kept(steps + 1, lambda t: _ratio(base + t * step, den))  # the grid point randint(0, steps)

        def scalar(bits):
            """roll = randrange(8): -inf on 0, the zero 0 on 1, else a grid value.

            The roll's loop is ``_uniform``'s, inlined: a call per draw costs a trunc matrix about a tenth.
            """
            while (r := bits(_ROLL_BITS)) >= SENTINEL_WEIGHT:
                pass
            return value(bits) if r > 1 else 0 if r else NEG_INF

        return scalar, value  # a trunc carrier's -inf is its own zero, never adjoined
    if f == TROPICAL:
        # -inf if randrange(8) == 0, else randint(-256, 256) / choice(_TROPICAL_DENOMINATORS)
        num, dens = _uniform(range(-256, 257)), _uniform(_TROPICAL_DENOMINATORS)
        scalar = _or_neg_inf(lambda bits: _ratio(num(bits), dens(bits)))
    elif f in (CHAIN, BOOLEAN, TABLE):
        scalar = _kept(desc.size, Atom)  # Atom(randrange(size)): a chain of 10**12 atoms is never built
    elif f in (NAT_MAX, NEG_NAT_MAX, TRUNC_NAT, TRUNC_NEG_NAT):
        # randint(1, n) for n = 40 or k, negated for the negative families
        n = 40 if f in (NAT_MAX, NEG_NAT_MAX) else desc.k
        scalar = _uniform(range(-1, -n - 1, -1) if f in (NEG_NAT_MAX, TRUNC_NEG_NAT) else range(1, n + 1))
    else:
        raise DomainError(f"cannot sample from family {clip(f)}")
    return (_or_neg_inf(scalar) if desc.adjoined_zero else scalar), None


def _drawer(desc: Semiring, denom: int) -> tuple[Draw, Optional[Draw]]:
    """The drawer of ``desc`` at grid denominator ``denom``, built on first use."""
    drawer = desc._drawers.get(denom)
    if drawer is None:
        drawer = desc._drawers[denom] = _build_drawer(desc, denom)
    return drawer


def sample_trunc_value(desc: Semiring, rng: random.Random) -> Scalar:
    """The grid point x + t*(y-x)/steps of [x, y], steps = ceil((y-x)*64), exact."""
    value = _drawer(desc, DEFAULT_GRID_DENOMINATOR)[1]
    if value is None:
        raise DomainError(f"{desc.family} has no truncation grid")
    return value(rng.getrandbits)


def sample_scalar(desc: Semiring, rng: random.Random) -> Scalar:
    """Draw one carrier element; sentinels get weight 1/8 each where present."""
    return _drawer(desc, DEFAULT_GRID_DENOMINATOR)[0](rng.getrandbits)


def _proper(desc: Semiring, draw: Draw, bits: Callable[[int], int]) -> Scalar:
    """A draw that is not -inf (for unitriangular entries), from at most 64 tries."""
    for _ in range(64):
        s = draw(bits)
        if s is not NEG_INF:
            return s
    raise DomainError(f"could not sample a proper element of {desc.family}")


def sample_matrix(desc: Semiring, n: int, rng: random.Random, family: str = "full") -> Matrix:
    """An n x n matrix of ``family``, drawn row by row, built without validation."""
    if n < 1:
        raise DomainError("matrix must be square and non-empty")
    draw, bits = _drawer(desc, DEFAULT_GRID_DENOMINATOR)[0], rng.getrandbits
    if family == FULL:
        return Matrix(desc, FULL, tuple([tuple([draw(bits) for _ in range(n)]) for _ in range(n)]))
    zero = desc.zero_element()
    if zero is None:
        raise DomainError(f"{desc.family} has no zero element; adjoin one first")
    if family == UT:
        rows = [[draw(bits) if j >= i else zero for j in range(n)] for i in range(n)]
    elif family == UNI:
        rows = [[ADJOINED_ID if j == i else _proper(desc, draw, bits) if j > i else zero for j in range(n)]
                for i in range(n)]
    else:
        raise DomainError(f"unknown matrix family {clip(family)}")
    return Matrix(desc, family, tuple(map(tuple, rows)))
