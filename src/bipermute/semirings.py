"""Commutative bipotent semirings with exact arithmetic.

A bipotent semiring is one where ``a + b`` always equals ``a`` or ``b``;
addition is therefore the maximum of a total order and the whole structure
is equivalently a totally ordered multiplicative semigroup.  The families
implemented here:

* ``tropical``        -- rationals with -inf, max and classical +.
* ``nat_max``         -- positive integers under max and +.
* ``neg_nat_max``     -- negative integers under max and +.
* ``trunc(x, y)``     -- {-inf, 0} with the rational interval [x, y],
                         max and y-truncated addition min(a+b, y).
* ``trunc_nat(k)``    -- {1..k} with max and min(a+b, k).
* ``trunc_neg_nat(k)``-- {-k..-1} with max and max(a+b, -k).
* ``chain(size)``     -- a finite chain under max and min.
* ``boolean``         -- the 2-element chain.
* ``table``           -- an explicit finite operation table, validated
                         exhaustively at construction.

Real-valued carriers are restricted to rationals so every equality test in
the package is exact.  Families without a genuine zero can have one adjoined
(``adjoin_zero``), represented by the ``NEG_INF`` sentinel plus a flag.  The
identity adjoined on unitriangular diagonals is no carrier element: of the
operations here, only the public ``srk_*`` ones accept it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DomainError, clip
from .scalars import ADJOINED_ID, NEG_INF, Atom, Rational, Scalar, is_rational

TROPICAL = "tropical"
NAT_MAX = "nat_max"
NEG_NAT_MAX = "neg_nat_max"
TRUNC = "trunc"
TRUNC_NAT = "trunc_nat"
TRUNC_NEG_NAT = "trunc_neg_nat"
CHAIN = "chain"
BOOLEAN = "boolean"
TABLE = "table"

_ATOM_FAMILIES = (CHAIN, BOOLEAN, TABLE)
_UNBOUNDED_FAMILIES = (TROPICAL, NAT_MAX, NEG_NAT_MAX)

# Scalar work any exhaustive enumeration may take, by its worst case: a search counts
# one product (a multiply and an add) as one, a law check each addition or multiplication.
SEARCH_BUDGET = 4 * 10**7


@dataclass(frozen=True)
class FiniteSemiringTable:
    """Explicit finite bipotent semiring given by index tables.

    ``add`` and ``mul`` are size x size tables of element indices.  The laws
    ``check_axioms`` reports (``semiring_laws``) are checked on every index
    case at construction so downstream code may assume lawfulness; a broken
    law raises DomainError naming it and its first counterexample, and so
    does a table too large for ``require_exhaustive_fit``.
    """

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    # diagnostic escape: axiom checking of a suspect table needs to load it
    # first; everything else keeps eager validation
    validate: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        n, add, mul = self.size, self.add, self.mul
        if n < 1:
            raise DomainError("table semiring needs at least one element")
        for name, t in (("add", add), ("mul", mul)):
            if len(t) != n or any(len(row) != n for row in t):
                raise DomainError(f"{name} table is not {n}x{n}")
            if any(not (0 <= v < n) for row in t for v in row):
                raise DomainError(f"{name} table contains an out-of-range index")
        if self.validate:
            require_exhaustive_fit(n, f"a table of {n} elements")
            laws = semiring_laws(lambda a, b: add[a][b], lambda a, b: mul[a][b], self.is_commutative)
            for check in _check_on_every_case(laws, range(n)):
                if not check.passed:
                    raise DomainError(f"table fails {check.name} at {check.counterexample}")

    @cached_property
    def is_commutative(self) -> bool:
        return all(
            self.mul[i][j] == self.mul[j][i]
            for i in range(self.size)
            for j in range(self.size)
        )

    @cached_property
    def zero_index(self) -> Optional[int]:
        """Index of an element that is both additive identity and multiplicatively absorbing."""
        for z in range(self.size):
            if all(self.add[z][x] == x for x in range(self.size)) and all(
                self.mul[z][x] == z and self.mul[x][z] == z for x in range(self.size)
            ):
                return z
        return None


@dataclass(frozen=True)
class Semiring:
    """Descriptor of one bipotent semiring; all scalar operations live here.

    Use the factory functions (``tropical()``, ``trunc(x, y)``, ...) rather
    than the constructor.  Instances are immutable value objects: equal
    descriptors describe the same semiring, and every operation is a pure
    function, so sharing across threads is safe.
    """

    family: str
    x: Optional[Fraction] = None
    y: Optional[Fraction] = None
    k: Optional[int] = None
    size: Optional[int] = None
    table: Optional[FiniteSemiringTable] = None
    adjoined_zero: bool = False

    def __getstate__(self) -> dict:
        """The fields only: the cached closures cannot be pickled and rebuild on use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __eq__(self, other) -> bool:
        """Field equality, identity first: matrices built together share one descriptor."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._key[0]

    @cached_property
    def _key(self) -> tuple:
        """The dataclass hash of the fields, then the fields in declaration order; computed once."""
        values = tuple(getattr(self, f.name) for f in fields(self))
        return hash(values), values

    # -- carrier structure -------------------------------------------------

    @property
    def has_neg_inf(self) -> bool:
        """Whether NEG_INF is an admissible scalar (genuine or adjoined zero)."""
        return self.family in (TROPICAL, TRUNC) or self.adjoined_zero

    def zero_element(self) -> Optional[Scalar]:
        f = self.family
        if f in (TROPICAL, TRUNC):
            return NEG_INF
        if f in (CHAIN, BOOLEAN):
            return Atom(0)
        if f == TRUNC_NEG_NAT:
            return -self.k
        if f == TRUNC_NAT and self.k == 1:
            return 1
        if f == TABLE:
            z = self.table.zero_index
            if z is not None:
                return Atom(z)
        if self.adjoined_zero:
            return NEG_INF
        return None

    @property
    def claims_commutative(self) -> bool:
        if self.family == TABLE:
            return self.table.is_commutative
        return True

    @property
    def carrier_size(self) -> Optional[int]:
        """The number of carrier elements, None if infinite; counted, never built."""
        f = self.family
        count = self.size if f in _ATOM_FAMILIES else self.k if f in (TRUNC_NAT, TRUNC_NEG_NAT) else None
        return None if count is None else count + self.adjoined_zero

    def carrier_elements(self) -> Optional[list[Scalar]]:
        """All elements for finite carriers, in ascending order; None if infinite."""
        f = self.family
        elems: list[Scalar]
        if f in _ATOM_FAMILIES:
            elems = [Atom(i) for i in range(self.size)]
        elif f == TRUNC_NAT:
            elems = list(range(1, self.k + 1))
        elif f == TRUNC_NEG_NAT:
            elems = list(range(-self.k, 0))
        else:
            return None
        if self.adjoined_zero:
            elems.insert(0, NEG_INF)
        return elems

    # -- validation --------------------------------------------------------

    def validate(self, a: Scalar, allow_adjoined_id: bool = False) -> None:
        """Raise DomainError unless ``a`` belongs to this carrier."""
        if a is NEG_INF:
            if not self.has_neg_inf:
                raise DomainError(f"-inf is not an element of {self.family}")
            return
        if a is ADJOINED_ID:
            if not allow_adjoined_id:
                raise DomainError("the adjoined identity is only valid inside unitriangular matrices")
            return
        f = self.family
        if f in _ATOM_FAMILIES:
            if not isinstance(a, Atom):
                raise DomainError(f"{clip(a)} is not an atom of {f}")
            if not 0 <= a.index < self.size:
                raise DomainError(f"atom index {a.index} out of range for size {self.size}")
            return
        if isinstance(a, Atom) or not is_rational(a):
            raise DomainError(f"{clip(a)} is not a rational element of {f}")
        if f == TROPICAL:
            return
        if f == NAT_MAX:
            if not (isinstance(a, int) or a.denominator == 1) or a < 1:
                raise DomainError(f"{clip(a)} is not a positive natural number")
        elif f == NEG_NAT_MAX:
            if not (isinstance(a, int) or a.denominator == 1) or a > -1:
                raise DomainError(f"{clip(a)} is not a negative integer")
        elif f == TRUNC:
            # x <= a <= y by integer cross-products; denominators are positive
            xn, xd, yn, yd = self._bounds
            an, ad = a.numerator, a.denominator
            if an and not (xn * ad <= an * xd and an * yd <= yn * ad):
                raise DomainError(f"{clip(a)} outside carrier {{-inf,0}} u [{clip(self.x, str)},{clip(self.y, str)}]")
        elif f == TRUNC_NAT:
            if not (isinstance(a, int) or a.denominator == 1) or not 1 <= a <= self.k:
                raise DomainError(f"{clip(a)} not in [1..{clip(self.k)}]")
        elif f == TRUNC_NEG_NAT:
            if not (isinstance(a, int) or a.denominator == 1) or not -self.k <= a <= -1:
                raise DomainError(f"{clip(a)} not in [-{clip(self.k)}..-1]")
        else:
            raise DomainError(f"unknown family {f!r}")

    # -- cached carrier data -------------------------------------------------

    @cached_property
    def _bounds(self) -> tuple[int, int, int, int]:
        """Numerator and denominator of x, then of y; cached, saving ``validate`` about 260 ns a check."""
        return self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator

    @cached_property
    def _drawers(self) -> dict:
        """``sampling``'s drawers by grid denominator, each built on its first draw.

        Pure functions of the descriptor: threads that race to fill an entry store equal values.
        """
        return {}

    # -- operations --------------------------------------------------------

    @cached_property
    def _add(self) -> Callable[[Scalar, Scalar], Scalar]:
        """Fast unvalidated addition (maximum) of carrier elements, never the adjoined identity."""
        if self.family in _ATOM_FAMILIES and self.family != TABLE:

            def add(a, b):
                if a is NEG_INF:
                    return b
                if b is NEG_INF:
                    return a
                return a if a.index >= b.index else b

            return add
        if self.family == TABLE:
            tbl = self.table.add

            def add(a, b):
                if a is NEG_INF:
                    return b
                if b is NEG_INF:
                    return a
                return Atom(tbl[a.index][b.index])

            return add

        def add(a, b):
            if a is NEG_INF:
                return b
            if b is NEG_INF:
                return a
            return a if a >= b else b

        return add

    @cached_property
    def _mul(self) -> Callable[[Scalar, Scalar], Scalar]:
        """Fast unvalidated multiplication of carrier elements; NEG_INF absorbs."""
        f = self.family
        if f in _UNBOUNDED_FAMILIES:

            def mul(a, b):
                if a is NEG_INF or b is NEG_INF:
                    return NEG_INF
                return a + b

            return mul
        if f in (TRUNC, TRUNC_NAT):
            top = self.y if f == TRUNC else self.k

            def mul(a, b):
                if a is NEG_INF or b is NEG_INF:
                    return NEG_INF
                s = a + b
                return s if s < top else top

            return mul
        if f == TRUNC_NEG_NAT:
            mk = -self.k

            def mul(a, b):
                if a is NEG_INF or b is NEG_INF:
                    return NEG_INF
                s = a + b
                return s if s > mk else mk

            return mul
        if f == TABLE:
            tbl = self.table.mul

            def mul(a, b):
                if a is NEG_INF or b is NEG_INF:
                    return NEG_INF
                return Atom(tbl[a.index][b.index])

            return mul

        def mul(a, b):  # chain / boolean: minimum
            if a is NEG_INF or b is NEG_INF:
                return NEG_INF
            return a if a.index <= b.index else b

        return mul

    @cached_property
    def _leq(self) -> Callable[[Scalar, Scalar], bool]:
        """The total order, defined by addition: a <= b iff a + b = b.

        Bipotence makes this a total order with NEG_INF at the bottom; only
        ``srk_add`` also compares the adjoined identity.
        """
        add = self._add
        return lambda a, b: add(a, b) == b


# -- factories --------------------------------------------------------------


def tropical() -> Semiring:
    return Semiring(TROPICAL)


def nat_max(adjoined_zero: bool = False) -> Semiring:
    return Semiring(NAT_MAX, adjoined_zero=adjoined_zero)


def neg_nat_max(adjoined_zero: bool = False) -> Semiring:
    return Semiring(NEG_NAT_MAX, adjoined_zero=adjoined_zero)


def trunc(x: Rational, y: Rational) -> Semiring:
    x, y = Fraction(x), Fraction(y)
    if not 0 <= x < y:
        raise DomainError(f"truncated semiring needs 0 <= x < y, got [{clip(x, str)},{clip(y, str)}]")
    return Semiring(TRUNC, x=x, y=y)


def trunc_nat(k: int) -> Semiring:
    if k < 1:
        raise DomainError("trunc_nat needs k >= 1")
    return Semiring(TRUNC_NAT, k=k)


def trunc_neg_nat(k: int) -> Semiring:
    if k < 1:
        raise DomainError("trunc_neg_nat needs k >= 1")
    return Semiring(TRUNC_NEG_NAT, k=k)


def chain(size: int) -> Semiring:
    if size < 1:
        raise DomainError("chain needs size >= 1")
    return Semiring(CHAIN, size=size)


def boolean() -> Semiring:
    return Semiring(BOOLEAN, size=2)


def table_semiring(tbl: FiniteSemiringTable, adjoined_zero: bool = False) -> Semiring:
    return Semiring(TABLE, size=tbl.size, table=tbl, adjoined_zero=adjoined_zero)


# -- the public scalar operations --------------------------------------------


def _with_adjoined_id(op: Callable[[Scalar, Scalar], Scalar], a: Scalar, b: Scalar, product: bool = False) -> Scalar:
    """``op`` (``_add``, or ``_mul`` if ``product``) extended to the adjoined identity 1.

    The one home of its partial arithmetic: 1 + 1 = 1 + (-inf) = 1; 1*x = x*1 = x,
    but -inf absorbs; 1 plus a proper element raises DomainError.
    """
    if a is not ADJOINED_ID and b is not ADJOINED_ID:
        return op(a, b)
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF if product else ADJOINED_ID
    if product:
        return b if a is ADJOINED_ID else a
    if a is b:
        return a
    raise DomainError(f"{clip(a)} + {clip(b)} is undefined")


def srk_add(desc: Semiring, a: Scalar, b: Scalar) -> Scalar:
    """Semiring addition (the maximum of the induced order); result is a or b."""
    desc.validate(a, allow_adjoined_id=True)
    desc.validate(b, allow_adjoined_id=True)
    return _with_adjoined_id(desc._add, a, b)


def srk_mul(desc: Semiring, a: Scalar, b: Scalar) -> Scalar:
    desc.validate(a, allow_adjoined_id=True)
    desc.validate(b, allow_adjoined_id=True)
    return _with_adjoined_id(desc._mul, a, b, product=True)


def adjoin_zero(desc: Semiring) -> Semiring:
    """Adjoin a zero (least, absorbing) element unless one already exists."""
    if desc.zero_element() is not None:
        return desc
    return replace(desc, adjoined_zero=True)


# -- element order and monogenic classification -----------------------------


@dataclass(frozen=True)
class Finite:
    order: int
    stabilization_index: int


@dataclass(frozen=True)
class Infinite:
    certificate: str


OrderResult = Union[Finite, Infinite]


def element_order(desc: Semiring, a: Scalar) -> OrderResult:
    """Multiplicative order of ``a``: the number of distinct positive powers.

    The powers of a bipotent semiring are monotone, so a finite order has
    period 1, and the family gives the order.  An idempotent has order 1.
    Any other element of an unbounded family has strictly monotone powers
    and is certified infinite.  The powers min(ta, y) of trunc(x, y) settle
    at t = ceil(y/a), those of trunc_nat(k) at ceil(k/a) and those of
    trunc_neg_nat(k) at ceil(k/|a|).  A table's powers are walked, at most
    ``size`` steps.
    """
    desc.validate(a)
    mul = desc._mul
    sq = mul(a, a)
    if sq == a:
        return Finite(1, 1)
    f = desc.family
    if f in _UNBOUNDED_FAMILIES:
        side = "a < a*a" if desc._leq(a, sq) else "a*a < a"
        return Infinite(f"powers of {a!r} are strictly monotone in {f} ({side})")
    if f != TABLE:  # a truncation, where a is neither -inf nor 0 nor the top
        t = -(-(desc.y if f == TRUNC else desc.k) // abs(a))
        return Finite(t, t)
    power = sq
    for t in range(2, desc.size + 1):
        nxt = mul(power, a)
        if nxt == power:
            return Finite(t, t)
        power = nxt
    raise DomainError(f"powers of {clip(a)} do not settle within the table's {desc.size} elements")


@dataclass(frozen=True)
class IsoNMax:
    pass


@dataclass(frozen=True)
class IsoNegNMax:
    pass


@dataclass(frozen=True)
class IsoTruncNat:
    k: int


@dataclass(frozen=True)
class IsoTruncNegNat:
    k: int


MonogenicClass = Union[IsoNMax, IsoNegNMax, IsoTruncNat, IsoTruncNegNat]


def classify_monogenic(desc: Semiring, a: Scalar) -> MonogenicClass:
    """Identify the subsemiring generated by ``a`` among the four monogenic types.

    The generated subsemiring of a bipotent semiring is the set of positive
    powers; comparing ``a`` with its square and counting powers decides the
    type.  An idempotent element generates the one-element semiring, which is
    of both bounded types; it is reported as IsoTruncNat(1).
    """
    res = element_order(desc, a)
    increasing = desc._leq(a, desc._mul(a, a))
    if isinstance(res, Infinite):
        return IsoNMax() if increasing else IsoNegNMax()
    return IsoTruncNat(res.order) if increasing else IsoTruncNegNat(res.order)


# -- axiom checking ----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named law of a report: whether it held, and a counterexample if not."""

    name: str
    passed: bool
    counterexample: Optional[tuple[Scalar, ...]] = None


class _CheckReport:
    """The ``passed`` of a report of law checks: every check passed."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class AxiomReport(_CheckReport):
    semiring: Semiring
    mode: str
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class Law:
    """A named predicate on one case, and the case positions its counterexample keeps."""

    name: str
    holds: Callable[..., bool]
    keep: tuple[int, ...]


def check_laws(laws: Sequence[Law], cases: Iterable[tuple]) -> tuple[Check, ...]:
    """One Check per law, in law order, each with the law's first counterexample.

    A law that has failed is not evaluated again.
    """
    failures: dict[str, tuple] = {}
    pending = tuple(laws)
    for case in cases:
        for law in pending:  # iterates the tuple as it was when this case began
            if not law.holds(*case):
                failures[law.name] = tuple(case[i] for i in law.keep)
                pending = tuple(other for other in pending if other is not law)
    return tuple(Check(law.name, law.name not in failures, failures.get(law.name)) for law in laws)


def _check_on_every_case(laws: Sequence[Law], carrier: Sequence) -> tuple[Check, ...]:
    """``check_laws`` of ``semiring_laws`` on every case over a finite carrier.

    Each law reads exactly the positions its counterexample keeps, so a law
    of (a, b) runs on the n^2 pairs, not the n^3 triples.  Its first failing
    pair in lexicographic order is the (a, b) of its first failing triple,
    so every counterexample is the one the triples give.
    """
    by_arity: dict[int, list[Law]] = {}
    for law in laws:
        by_arity.setdefault(len(law.keep), []).append(law)
    checks = {
        check.name: check
        for arity, group in by_arity.items()
        for check in check_laws(group, itertools.product(carrier, repeat=arity))
    }
    return tuple(checks[law.name] for law in laws)


def semiring_laws(add: Callable, mul: Callable, commutative: bool) -> tuple[Law, ...]:
    """The bipotent semiring laws on a case (a, b, c), in report order.

    The order is the one addition defines (a <= b iff a + b = b), and
    ``mul_comm`` is a law only where the product claims to commute.  A law
    of two variables also takes the case (a, b).
    """

    def leq(a, b):
        return add(a, b) == b

    def order_compat_mul(a, b, c):
        lo, hi = (a, b) if leq(a, b) else (b, a)
        return leq(mul(lo, c), mul(hi, c)) and leq(mul(c, lo), mul(c, hi))

    laws = [
        Law("add_assoc", lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)), (0, 1, 2)),
        Law("add_comm", lambda a, b, *_: add(a, b) == add(b, a), (0, 1)),
        Law("add_bipotent", lambda a, b, *_: add(a, b) in (a, b), (0, 1)),
        Law("mul_assoc", lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)), (0, 1, 2)),
        Law("dist_left", lambda a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), (0, 1, 2)),
        Law("dist_right", lambda a, b, c: mul(add(b, c), a) == add(mul(b, a), mul(c, a)), (0, 1, 2)),
        Law("order_compat_mul", order_compat_mul, (0, 1, 2)),
    ]
    if commutative:
        laws.insert(4, Law("mul_comm", lambda a, b, *_: mul(a, b) == mul(b, a), (0, 1)))
    return tuple(laws)


def exhaustive_check_fits(size: int) -> bool:
    """Whether ``semiring_laws`` on every case fits ``SEARCH_BUDGET``: at most 25 operations a triple, 5 a pair."""
    return 25 * size**3 + 5 * size**2 <= SEARCH_BUDGET


def require_exhaustive_fit(size: int, what: str) -> None:
    """Refuse ``what``, an input of ``size`` elements to check on every case, past ``SEARCH_BUDGET``."""
    if not exhaustive_check_fits(size):
        raise DomainError(f"{what} exceeds the search budget of {SEARCH_BUDGET} scalar operations")


def check_axioms(desc: Semiring, seed: int = 0, trials: int = 1000) -> AxiomReport:
    """Verify ``semiring_laws``: each law's first counterexample.

    A finite carrier that ``exhaustive_check_fits`` is checked on every case,
    any other on ``trials`` triples drawn from ``seed``; the report's
    ``mode`` says which.
    """
    laws = semiring_laws(desc._add, desc._mul, desc.claims_commutative)
    size = desc.carrier_size
    if size is not None and exhaustive_check_fits(size):
        return AxiomReport(desc, "exhaustive", _check_on_every_case(laws, desc.carrier_elements()))
    from .sampling import derive_rng, sample_scalar

    rng = derive_rng(seed, "check_axioms", desc.family)
    triples = (
        (sample_scalar(desc, rng), sample_scalar(desc, rng), sample_scalar(desc, rng))
        for _ in range(trials)
    )
    return AxiomReport(desc, "sampled", check_laws(laws, triples))


# -- the 3-element semiring that admits no identity --------------------------


def noidentity_table() -> FiniteSemiringTable:
    """Three elements a <= b <= c, all idempotent, every mixed product is b."""
    add = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    mul = tuple(tuple(i if i == j else 1 for j in range(3)) for i in range(3))
    return FiniteSemiringTable(3, add, mul)


def noidentity_semiring() -> Semiring:
    return table_semiring(noidentity_table())


@dataclass(frozen=True)
class ObstructionReport:
    """Each identity placement with its first failing law, or None if every law holds."""

    placements: tuple[tuple[str, Optional[Check]], ...]
    identity_scan: tuple[tuple[str, bool], ...]
    embeddable: bool


# each placement of an identity 1, then the four elements in ascending order
_PLACEMENTS = {"1<a": "1abc", "a<1<b": "a1bc", "b<1<c": "ab1c", "1>c": "abc1"}


def noidentity_obstruction() -> ObstructionReport:
    """Show no order placement of an adjoined identity is lawful.

    For each of the four places an identity 1 could take in the order of
    the fixed 3-element semiring, build the 4-element table: 1*x = x*1 = x,
    sums follow the order, and the other products are those of
    ``noidentity_table``.  ``check_axioms`` runs over all of it, and the
    placement is refuted by its first failing law, whose counterexample is
    given by element name.  Also scans the carrier to confirm no existing
    element is an identity.
    """
    base = noidentity_table().mul
    add = tuple(tuple(max(i, j) for j in range(4)) for i in range(4))
    placements = []
    for placement, order in _PLACEMENTS.items():
        old = ["abc".find(name) for name in order]  # each element's index in ``base``, -1 for the identity

        def product(i, j):
            if old[i] < 0:
                return j
            if old[j] < 0:
                return i
            return old.index(base[old[i]][old[j]])

        mul = tuple(tuple(product(i, j) for j in range(4)) for i in range(4))
        report = check_axioms(table_semiring(FiniteSemiringTable(4, add, mul, validate=False)))
        failed = next((c for c in report.checks if not c.passed), None)
        if failed is not None:
            failed = replace(failed, counterexample=tuple(order[x.index] for x in failed.counterexample))
        placements.append((placement, failed))

    scan = tuple((name, all(base[e][x] == x == base[x][e] for x in range(3))) for e, name in enumerate("abc"))
    consistent_placement = any(failed is None for _, failed in placements)
    has_identity = any(flag for _, flag in scan)
    return ObstructionReport(tuple(placements), scan, consistent_placement or has_identity)
