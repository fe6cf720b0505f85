"""Classification of truncated tropical semirings up to isomorphism.

Every truncation on a rational interval [x, y] is isomorphic to exactly one
of four canonical targets, decided by how y compares to 2x and 3x:

* x = 0            -> the truncation on [0, 1]  (unbounded element order);
* 0 < x, y <= 2x   -> [1, 2]   (every product of interval elements saturates);
* 2x < y < 3x      -> [1, 5/2] (a three-piece linear map is needed);
* y >= 3x          -> [1, y/x] (plain rescaling).

The isomorphisms are explicit piecewise linear maps with exact rational
coefficients, so every verification below is an equality of fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Union

from .errors import DomainError, clip
from .sampling import derive_rng, sample_trunc_value
from .scalars import NEG_INF, Rational, Scalar
from .semirings import Check, Law, Semiring, _CheckReport, check_laws, trunc


@dataclass(frozen=True)
class Segment:
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, z: Fraction) -> bool:
        if self.lo_open:
            if z <= self.lo:
                return False
        elif z < self.lo:
            return False
        if self.hi_open:
            if z >= self.hi:
                return False
        elif z > self.hi:
            return False
        return True


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Strictly increasing piecewise linear bijection between carrier intervals.

    The sentinels are always fixed: -inf maps to -inf and the identity 0 maps
    to 0; interval points map through the segment that owns them.
    """

    segments: tuple[Segment, ...]


CANON_01 = "T01"
CANON_12 = "T12"
CANON_1_2P5 = "T1_2p5"
CANON_1 = "T1"


@dataclass(frozen=True)
class IsoClassification:
    canonical: str
    ratio: Optional[Fraction]  # y/x for the T1 case, else None
    map: PiecewiseLinearMap
    source: Semiring
    target: Semiring

    def canonical_label(self) -> Union[str, dict]:
        if self.canonical == CANON_1:
            return {CANON_1: str(self.ratio)}
        return self.canonical


def classify_truncated(x: Rational, y: Rational) -> IsoClassification:
    """Pick the canonical target for the truncation on [x, y] and build the map."""
    x, y = Fraction(x), Fraction(y)
    if not 0 <= x < y:
        raise DomainError(f"need 0 <= x < y, got [{x},{y}]")
    source = trunc(x, y)
    if x == 0:
        segments = (Segment(x, y, Fraction(1, y), Fraction(0)),)
        return IsoClassification(CANON_01, None, PiecewiseLinearMap(segments), source, trunc(0, 1))
    if y <= 2 * x:
        slope = Fraction(1, y - x)
        segments = (Segment(x, y, slope, 1 - slope * x),)
        return IsoClassification(CANON_12, None, PiecewiseLinearMap(segments), source, trunc(1, 2))
    if y < 3 * x:
        # three pieces: [x, y-x] -> [1, 3/2], (y-x, 2x) -> (3/2, 2), [2x, y] -> [2, 5/2]
        wide = Fraction(1, 2 * (y - 2 * x))
        narrow = Fraction(1, 2 * (3 * x - y))
        segments = (
            Segment(x, y - x, wide, 1 - wide * x),
            Segment(y - x, 2 * x, narrow, Fraction(3, 2) - narrow * (y - x), lo_open=True, hi_open=True),
            Segment(2 * x, y, wide, 2 - wide * 2 * x),
        )
        return IsoClassification(CANON_1_2P5, None, PiecewiseLinearMap(segments), source, trunc(1, Fraction(5, 2)))
    ratio = y / x
    segments = (Segment(x, y, Fraction(1, x), Fraction(0)),)
    return IsoClassification(CANON_1, ratio, PiecewiseLinearMap(segments), source, trunc(1, ratio))


def apply_iso(pl_map: PiecewiseLinearMap, a: Scalar) -> Scalar:
    """Image of one scalar: sentinels are fixed, interval values use their segment."""
    if a is NEG_INF:
        return NEG_INF
    if a == 0:
        return 0
    for seg in pl_map.segments:
        if seg.contains(a):
            value = seg.slope * a + seg.intercept
            return int(value) if value.denominator == 1 else value
    raise DomainError(f"{clip(a)} lies outside the map's domain")


@dataclass(frozen=True)
class IsoReport(_CheckReport):
    trials: int
    checks: tuple[Check, ...]


def verify_iso(pl_map: PiecewiseLinearMap, src: Semiring, dst: Semiring, seed: int, trials: int) -> IsoReport:
    """Exact verification on random pairs that the map is an isomorphism.

    Both homomorphism laws and order preservation report their first
    counterexample (a, b) over ``trials`` pairs: every pair of -inf, 0, x
    and y first, then seeded draws.  The endpoint and sentinel laws are
    checked once.
    """
    rng = derive_rng(seed, "verify_iso", str(src.x), str(src.y))
    f = partial(apply_iso, pl_map)
    src_add, src_mul, src_leq = src._add, src._mul, src._leq
    dst_add, dst_mul, dst_leq = dst._add, dst._mul, dst._leq

    def pairs():  # cases (a, b, f(a), f(b))
        special = [NEG_INF, 0, src.x, src.y]
        for t in range(trials):
            if t < len(special) * len(special):
                a = special[t % len(special)]
                b = special[t // len(special) % len(special)]
            else:
                a = sample_trunc_value(src, rng) if rng.randrange(8) else (NEG_INF if rng.randrange(2) else 0)
                b = sample_trunc_value(src, rng) if rng.randrange(8) else (NEG_INF if rng.randrange(2) else 0)
            yield a, b, f(a), f(b)

    pair_laws = (
        Law("preserves_add", lambda a, b, fa, fb: f(src_add(a, b)) == dst_add(fa, fb), (0, 1)),
        Law("preserves_mul", lambda a, b, fa, fb: f(src_mul(a, b)) == dst_mul(fa, fb), (0, 1)),
        Law("preserves_order", lambda a, b, fa, fb: src_leq(a, b) == dst_leq(fa, fb), (0, 1)),
    )
    once = (  # on the one case (x, y, -inf, 0)
        Law("endpoints", lambda x, y, ninf, zero: f(x) == dst.x and f(y) == dst.y, (0, 1)),
        Law("sentinels", lambda x, y, ninf, zero: f(ninf) is NEG_INF and f(zero) == 0, (2, 3)),
    )
    checks = check_laws(pair_laws, pairs()) + check_laws(once, [(src.x, src.y, NEG_INF, 0)])
    return IsoReport(trials, checks)


def max_element_order(y: Rational) -> int:
    """Maximum multiplicative order over the truncation on [1, y]: ceil(y).

    The order of a in [1, y] is ceil(y/a), maximized at a = 1; the sentinels
    have order 1.  Tests cross-check this closed form against power iteration.
    """
    y = Fraction(y)
    if not y > 1:
        raise DomainError("need y > 1")
    return math.ceil(y)


def max_order_by_iteration(y: Rational, samples: int = 0, seed: int = 0) -> int:
    """Oracle for max_element_order: count the powers of 1 (and of sampled points) until they settle."""
    desc = trunc(1, y)
    mul = desc._mul
    best = 0
    points: list[Scalar] = [1, Fraction(y)]
    if samples:
        rng = derive_rng(seed, "max_order_by_iteration", str(y))
        points.extend(sample_trunc_value(desc, rng) for _ in range(samples))
    for a in points:
        power, order = a, 1
        while (nxt := mul(power, a)) != power:
            power, order = nxt, order + 1
        best = max(best, order)
    return best
