"""Finite congruence quotients and the transposition finders they power.

A finite subset X of a chain semiring (or of the truncated semiring on
[1, 2]) can be protected by a congruence with at most 2|X|+1 (resp. 2|X|+3)
classes: singletons for the protected elements and order intervals between
them.  Mapping a long enough matrix sequence through the induced quotient
homomorphism forces two factors into the same image, and swapping that pair
preserves the product exactly.  A separate case-analysis finder handles the
triangular-pattern subsemigroups of 2x2 truncated matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .errors import DomainError, InvariantViolation, clip
from .matrices import FULL, Matrix
from .permutability import PermutationWitness, _checkpointed_total, _first_repeat, _swap_at, _verified
from .scalars import NEG_INF, Atom, Rational, Scalar
from .semirings import (
    BOOLEAN,
    CHAIN,
    TRUNC,
    Check,
    FiniteSemiringTable,
    Law,
    Semiring,
    _CheckReport,
    check_laws,
    require_exhaustive_fit,
    table_semiring,
    trunc,
)


@dataclass(frozen=True)
class Singleton:
    value: Scalar


@dataclass(frozen=True)
class Interval:
    """The carrier elements between ``lo`` and ``hi``, each end open or closed."""

    lo: Scalar
    hi: Scalar
    lo_open: bool = False
    hi_open: bool = False


ClassDesc = Union[Singleton, Interval]


def _contains(desc: Semiring, cls: ClassDesc, a: Scalar) -> bool:
    if isinstance(cls, Singleton):
        return a == cls.value
    leq = desc._leq
    if cls.lo_open:
        if leq(a, cls.lo):
            return False
    elif not leq(cls.lo, a):
        return False
    if cls.hi_open:
        return not leq(cls.hi, a)
    return leq(a, cls.hi)


def _class_index(desc: Semiring, classes: Sequence[ClassDesc], a: Scalar) -> int:
    for idx, cls in enumerate(classes):
        if _contains(desc, cls, a):
            return idx
    raise DomainError(f"{clip(a)} is not covered by any congruence class")


@dataclass(frozen=True)
class CongruenceQuotient:
    """A finite quotient of a bipotent semiring given by ordered classes.

    ``classes`` ascend in the semiring order, ``reps`` holds one member per
    class (the least element where one exists), and ``tables`` is the
    quotient semiring itself, validated as a lawful bipotent semiring at
    construction.
    """

    source: Semiring
    classes: tuple[ClassDesc, ...]
    reps: tuple[Scalar, ...]
    tables: FiniteSemiringTable

    def class_of(self, a: Scalar) -> int:
        self.source.validate(a)
        return _class_index(self.source, self.classes, a)

    def quotient_semiring(self) -> Semiring:
        return self._semiring

    @cached_property
    def _semiring(self) -> Semiring:
        """Built once, so every kernel image shares one descriptor."""
        return table_semiring(self.tables)

    def kernel_image(self, m: Matrix) -> Matrix:
        """The induced matrix homomorphism: apply class_of entrywise."""
        rows = tuple(tuple(Atom(self.class_of(v)) for v in row) for row in m.entries)
        return Matrix(self._semiring, m.family, rows)


def _build_quotient(source: Semiring, classes: Sequence[ClassDesc], reps: Sequence[Scalar]) -> CongruenceQuotient:
    r = len(classes)
    require_exhaustive_fit(r, f"a quotient of {r} classes")  # before the r^2 table, whose laws it bounds
    add_fn, mul_fn = source._add, source._mul
    add = tuple(tuple(_class_index(source, classes, add_fn(reps[i], reps[j])) for j in range(r)) for i in range(r))
    mul = tuple(tuple(_class_index(source, classes, mul_fn(reps[i], reps[j])) for j in range(r)) for i in range(r))
    tables = FiniteSemiringTable(r, add, mul)
    return CongruenceQuotient(source, tuple(classes), tuple(reps), tables)


def chain_congruence(desc: Semiring, protected: Sequence[Scalar]) -> CongruenceQuotient:
    """Congruence of a finite chain protecting each given element in a singleton.

    Classes are the singletons of the protected set and the maximal runs of
    unprotected atoms between them: at most 2|X|+1 classes in total.  Any
    order-convex partition of a chain is a congruence because max and min of
    convex classes land in a class determined by the operands' classes.
    """
    if desc.family not in (CHAIN, BOOLEAN):
        raise DomainError("chain congruences are defined for chain semirings")
    for a in protected:
        desc.validate(a)
        if not isinstance(a, Atom):
            raise DomainError(f"{clip(a)} is not a chain atom")
    marks = sorted({a.index for a in protected})
    classes: list[ClassDesc] = []
    reps: list[Scalar] = []
    cursor = 0
    for x in marks:
        if cursor < x:
            classes.append(Interval(Atom(cursor), Atom(x - 1)))
            reps.append(Atom(cursor))
        classes.append(Singleton(Atom(x)))
        reps.append(Atom(x))
        cursor = x + 1
    if cursor <= desc.size - 1:
        classes.append(Interval(Atom(cursor), Atom(desc.size - 1)))
        reps.append(Atom(cursor))
    return _build_quotient(desc, classes, reps)


def trunc12_congruence(protected: Sequence[Scalar]) -> CongruenceQuotient:
    """Congruence of the truncated semiring on [1, 2] protecting a finite set.

    The two sentinels are always protected alongside the given elements;
    interval classes collect the points lying above exactly the same
    protected elements.  At most 2|X|+3 classes.  Multiplication of two
    interval elements always saturates to 2, which is what makes every such
    order-convex partition compatible with the product.
    """
    source = trunc(1, 2)
    xs = []
    for a in protected:
        source.validate(a)
        if a is not NEG_INF and a != 0:
            xs.append(Fraction(a))
    marks = sorted(set(xs))
    classes: list[ClassDesc] = [Singleton(NEG_INF), Singleton(0)]
    reps: list[Scalar] = [NEG_INF, 0]
    lo: Fraction = Fraction(1)
    lo_open = False
    for x in marks:
        if lo < x:
            classes.append(Interval(lo, x, lo_open=lo_open, hi_open=True))
            reps.append(lo if not lo_open else (lo + x) / 2)
        classes.append(Singleton(x))
        reps.append(x)
        lo, lo_open = x, True
    if lo < 2:
        classes.append(Interval(lo, Fraction(2), lo_open=lo_open, hi_open=False))
        reps.append(lo if not lo_open else (lo + 2) / 2)
    return _build_quotient(source, classes, reps)


def protecting_congruence(desc: Semiring, protected: Sequence[Scalar]) -> CongruenceQuotient:
    """The congruence of ``desc`` protecting each given element in a singleton.

    Chains (and the Boolean semiring) and the truncation on [1, 2] have one;
    any other semiring raises DomainError.
    """
    if desc.family in (CHAIN, BOOLEAN):
        return chain_congruence(desc, protected)
    if desc.family == TRUNC and desc.x == 1 and desc.y == 2:
        return trunc12_congruence(protected)
    raise DomainError("quotients are constructed over chains or the truncation on [1,2]")


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport(_CheckReport):
    mode: str
    checks: tuple[Check, ...]


def _skeleton(desc: Semiring, classes: Sequence[ClassDesc]) -> list[Scalar]:
    """The carrier points on which every congruence law over ``classes`` is decided.

    The points are every class end that lies in the carrier, the carrier
    ends (and -inf and 0 on a truncation), and three points between each
    pair of neighbouring ends, or every atom of a chain gap with fewer.
    Each class's membership is constant between neighbouring ends.  Max and
    min return an argument, and on a truncation [x, y] with y <= 2x every
    product of interval points saturates to y, so each result is an argument
    or a carrier end.  A law's truth on (a, b, c) therefore depends only on
    the end or gap each point lies in and on the order of the points that
    share a gap, and the skeleton realizes every such configuration.  It is
    closed under both operations.  Any other source raises DomainError.
    """
    atoms = desc.family in (CHAIN, BOOLEAN) and not desc.adjoined_zero
    if atoms:
        fixed, ends, key = [], {0, desc.size - 1}, lambda a: a.index
    elif desc.family == TRUNC and desc.y <= 2 * desc.x:
        fixed, ends, key = [NEG_INF, 0], {desc.x, desc.y}, Fraction
    else:
        raise DomainError("congruences are verified over chains or a truncation [x, y] with y <= 2x")
    for cls in classes:
        for end in (cls.value,) if isinstance(cls, Singleton) else (cls.lo, cls.hi):
            try:
                desc.validate(end)
            except DomainError:
                continue
            if end not in fixed:
                ends.add(key(end))
    marks = sorted(ends)
    points = list(marks)
    for lo, hi in zip(marks, marks[1:]):
        step = 1 if atoms else (hi - lo) / 4
        points += (lo + t * step for t in (1, 2, 3) if lo + t * step < hi)
    if atoms:
        return [Atom(i) for i in sorted(points)]
    return fixed + [p.numerator if p.denominator == 1 else p for p in sorted(points)]


def verify_congruence(q: CongruenceQuotient) -> CongruenceReport:
    """Check the partition, both congruence laws, and table consistency, exactly.

    Each law reports its first counterexample.  The laws run on the finite
    skeleton of ``_skeleton``, which decides them on the whole carrier: the
    partition law on every skeleton point, the other laws on every triple
    (a, b, c) with a and b in one class.
    """
    desc = q.source
    add, mul = desc._add, desc._mul
    skeleton = _skeleton(desc, q.classes)
    # the skeleton is closed under both operations, so the laws below only
    # ever ask for the class of a skeleton point: look each one up once
    class_of: dict[Scalar, int] = {}
    index: dict[int, list[Scalar]] = {}
    for a in skeleton:
        class_of[a] = k = q.class_of(a)
        index.setdefault(k, []).append(a)
    cls = class_of.__getitem__
    triples = ((a, b, c) for members in index.values() for a in members for b in members for c in skeleton)

    def table_consistent(a, b, c):
        try:
            ca, cc = cls(a), cls(c)
            return cls(mul(a, c)) == q.tables.mul[ca][cc] and cls(add(a, c)) == q.tables.add[ca][cc]
        except IndexError:  # corrupted quotient: tables smaller than the class list
            return False

    partition = Law("partition", lambda a: sum(1 for k in q.classes if _contains(desc, k, a)) == 1, (0,))
    pair_laws = (
        Law("add_congruence", lambda a, b, c: cls(add(a, c)) == cls(add(b, c)), (0, 1, 2)),
        Law(
            "mul_congruence",
            lambda a, b, c: cls(mul(a, c)) == cls(mul(b, c)) and cls(mul(c, a)) == cls(mul(c, b)),
            (0, 1, 2),
        ),
        Law("table_consistency", table_consistent, (0, 2)),
    )
    points = ((a,) for a in skeleton)
    return CongruenceReport("certified", check_laws((partition,), points) + check_laws(pair_laws, triples))


# -- pigeonhole bounds and the generic transposition finder ------------------


def kerperm_bound(quot_size: int, n: int) -> int:
    """Sequence length guaranteeing two factors share a quotient image: size^(n^2)+1."""
    if quot_size < 1:
        raise DomainError("quotient size must be at least 1")
    return quot_size ** (n * n) + 1


def chain_class_bound(n: int) -> int:
    return 2 * n * n + 1


def trunc12_class_bound(n: int) -> int:
    return 2 * n * n + 3


def kerperm_find_swap(seq: Sequence[Matrix]) -> PermutationWitness:
    """Find a product-preserving transposition via a protecting congruence.

    Builds the congruence whose singleton classes protect the entries of the
    full product, maps every factor through the induced matrix homomorphism,
    and swaps the first two factors with equal images.  The swap provably
    preserves the product; ``_verified`` still decides it exactly.  The
    product is taken right to left with a checkpoint every 64 suffixes, so
    the swap (i, j) is checked in about j + 64 more products, not k.
    """
    if not seq:
        raise DomainError("empty sequence")
    desc = seq[0].semiring
    n = seq[0].n
    for m in seq:
        if m.family != FULL or not m.semiring == desc or m.n != n:
            raise DomainError("need a uniform sequence of full matrices")
    total, checkpoints = _checkpointed_total(seq)
    q = protecting_congruence(desc, list({v for row in total.entries for v in row}))
    class_bound = trunc12_class_bound if desc.family == TRUNC else chain_class_bound
    required = kerperm_bound(class_bound(n), n)
    if len(seq) < required:
        raise DomainError(f"need at least {required} matrices, got {len(seq)}")

    pair = _first_repeat(q.kernel_image(m) for m in seq)
    if pair is None:
        raise InvariantViolation("pigeonhole violated: no equal-image pair (implementation bug)")
    hit = _verified(seq, total, _swap_at(seq, checkpoints, *pair), "kernel_pair")
    if hit is None:
        raise InvariantViolation("equal-image swap failed to verify (implementation bug)")
    return hit


# -- the triangular-pattern finder -------------------------------------------


def xperm_bound(z: Rational) -> int:
    """Tuple length at which the triangular-pattern subsemigroups always permute."""
    return 2 * math.ceil(Fraction(z)) + 5


def truncperm_bound(z: Rational) -> int:
    """Length at which every 2x2 truncated-matrix tuple admits a preserving permutation."""
    z_ceil = math.ceil(Fraction(z))
    return 17 * (4 * z_ceil + 1) * (16 * z_ceil + 45)


def _is_s_pattern(m: Matrix) -> bool:
    e = m.entries
    return e[0][0] == 0 and e[1][0] is NEG_INF


def _is_s_prime_pattern(m: Matrix) -> bool:
    e = m.entries
    return e[0][0] == 0 and e[0][1] is NEG_INF


def _xperm_case(seq: Sequence[Matrix]) -> tuple[tuple[int, int], str]:
    k = len(seq)
    for t in range(2, k):
        if seq[t].entries[1][1] is NEG_INF:
            # such a factor is a right zero of the pattern semigroup, so the
            # order of everything before it is irrelevant
            return (0, 1), "right_zero"
    for t in range(k - 1):
        if seq[t].entries[0][1] is NEG_INF and seq[t + 1].entries[0][1] is NEG_INF:
            return (t, t + 1), "diagonal_pair"
    for t in range(k - 1):
        if seq[t].entries[1][1] == 0 and seq[t + 1].entries[1][1] == 0:
            return (t, t + 1), "unitriangular_pair"
    # saturation: the prefix product acts as a left zero on the final factors
    return (k - 2, k - 1), "saturation"


def xperm_find(seq: Sequence[Matrix]) -> PermutationWitness:
    """Case-analysis transposition finder for the 2x2 triangular patterns.

    All matrices must look like [[0, a], [-inf, b]] (or all transposed);
    the transposed family is solved through the transpose anti-isomorphism,
    which reverses products, so the solved permutation is conjugated by the
    order reversal before verification.  With at least 2*ceil(z)+5 factors
    the final fallback case cannot fail; if it does, InvariantViolation.
    """
    k = len(seq)
    if k < 3:
        raise DomainError("need at least three matrices")
    desc = seq[0].semiring
    if desc.family != TRUNC or desc.x != 1 or not desc.y > 2:
        raise DomainError("pattern finder works over a truncation [1, z] with z > 2")
    for m in seq:
        if m.n != 2 or m.family != FULL or not m.semiring == desc:
            raise DomainError("need uniform full 2x2 matrices")

    if all(_is_s_pattern(m) for m in seq):
        (i, j), label = _xperm_case(seq)
    elif all(_is_s_prime_pattern(m) for m in seq):
        flipped = [m.transpose() for m in reversed(seq)]
        (ti, tj), label = _xperm_case(flipped)
        i, j = sorted((k - 1 - tj, k - 1 - ti))
        label += "_transposed"
    else:
        raise DomainError("matrices are not uniformly of the triangular pattern")

    total, checkpoints = _checkpointed_total(seq)
    hit = _verified(seq, total, _swap_at(seq, checkpoints, i, j), label)
    if hit is None:
        raise InvariantViolation(f"case {label!r} produced a non-preserving swap")
    return hit
