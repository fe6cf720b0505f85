"""Explicit counterexample families and embeddings.

* the bicyclic monoid and its 2x2 upper triangular tropical representation,
* tropical scaling lifts that transport rigidity from tropical matrices into
  the natural-number families,
* three parametric sequences of matrices whose products are preserved by no
  non-trivial permutation: one over unitriangular natural-number matrices,
  one over the negative naturals, and a rationally perturbed one over full
  3x3 matrices of a truncated tropical semiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError, clip
from .matrices import FULL, UNI, UT, Matrix
from .scalars import ADJOINED_ID, NEG_INF, Rational, is_rational
from .semirings import Semiring, nat_max, neg_nat_max, tropical, trunc


@dataclass(frozen=True)
class BicyclicElement:
    """Normal form q^i p^j of the monoid with presentation <p, q | pq = 1>."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise DomainError("exponents must be non-negative")


def bicyclic_mul(u: BicyclicElement, v: BicyclicElement) -> BicyclicElement:
    """(q^i p^j)(q^k p^l): the inner p^j q^k cancels to a single leftover power."""
    return BicyclicElement(u.i + max(v.i - u.j, 0), v.j + max(u.j - v.i, 0))


def bicyclic_rho(u: BicyclicElement) -> Matrix:
    """Faithful representation into 2x2 upper triangular tropical matrices."""
    i, j = u.i, u.j
    return Matrix.make(tropical(), UT, [[i - j, i + j], [NEG_INF, j - i]])


def _integer(v) -> int:
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise DomainError(f"entry {clip(v)} is not an integer")
        return int(v)
    if is_rational(v):
        return v
    raise DomainError(f"entry {clip(v)} is not an integer")


def _check_ut2_tropical(seq) -> None:
    for m in seq:
        if m.family != UT or m.n != 2 or m.semiring.family != "tropical":
            raise DomainError("expected 2x2 upper triangular tropical matrices")


def lift_scale_UT2(seq: list[Matrix], lam: int) -> list[Matrix]:
    """Tropically scale by -lam so every finite entry becomes a positive natural.

    The scaled sequence lives over the natural numbers with an adjoined zero;
    products of the lifted sequence are entrywise shifts of the originals, so
    which permutations preserve the product is unchanged.
    """
    _check_ut2_tropical(seq)
    target = nat_max(adjoined_zero=True)
    out = []
    for m in seq:
        rows = []
        for row in m.entries:
            new = []
            for v in row:
                if v is NEG_INF:
                    new.append(NEG_INF)
                else:
                    shifted = _integer(v) - lam
                    if shifted <= 0:
                        raise DomainError(f"lambda {lam} is not strictly below entry {clip(v)}")
                    new.append(shifted)
            rows.append(new)
        out.append(Matrix.make(target, UT, rows))
    return out


def nmax_lift_scale_bound(seq: list[Matrix]) -> int:
    """Sufficient mu for lift_to_full_Nmax: mu > 2*k*max|entry| + k.

    In a product of the lifted matrices, a path through the below-diagonal 1
    entries loses at least mu - 2k*max|entry| - k relative to the best path
    avoiding them, so with this bound those paths never attain the maximum
    at any entry other than (2,1).
    """
    k = len(seq)
    max_abs = 0
    for m in seq:
        for row in m.entries:
            for v in row:
                if v is not NEG_INF:
                    max_abs = max(max_abs, abs(_integer(v)))
    return 2 * k * max_abs + k


def lift_to_full_Nmax(seq: list[Matrix], mu: int) -> list[Matrix]:
    """Shift entries by mu and put 1 below the diagonal, landing in full 2x2 naturals.

    Requires mu > 2*k*max|entry| + k (see nmax_lift_scale_bound); then every
    entry except (2,1) of any permuted product equals k*mu plus the matching
    entry of the unlifted product.
    """
    _check_ut2_tropical(seq)
    for m in seq:
        for i in range(2):
            for j in range(i, 2):
                if m.entries[i][j] is NEG_INF:
                    raise DomainError("on/above-diagonal entries must be finite integers")
    if mu <= nmax_lift_scale_bound(seq):
        raise DomainError(f"mu={mu} does not satisfy the dominance bound > {nmax_lift_scale_bound(seq)}")
    target = nat_max()
    out = []
    for m in seq:
        e = m.entries
        rows = [
            [_integer(e[0][0]) + mu, _integer(e[0][1]) + mu],
            [1, _integer(e[1][1]) + mu],
        ]
        out.append(Matrix.make(target, FULL, rows))
    return out


# -- rigid witness families --------------------------------------------------


def _uni3(desc: Semiring, a12, a13, a23) -> Matrix:
    zero = NEG_INF
    return Matrix.make(
        desc,
        UNI,
        [
            [ADJOINED_ID, a12, a13],
            [zero, ADJOINED_ID, a23],
            [zero, zero, ADJOINED_ID],
        ],
    )


def witness_U3_Nmax(m: int) -> list[Matrix]:
    """Unitriangular 3x3 natural matrices B_1..B_m whose product is identity-only.

    B_i carries i and m above the diagonal in the first row and m+1-i in the
    second; any inversion in the ordering pushes the (1,3) entry of the
    product above m, so only the identity permutation preserves it.
    """
    if m < 2:
        raise DomainError("need m >= 2")
    desc = nat_max(adjoined_zero=True)
    return [_uni3(desc, i, m, m + 1 - i) for i in range(1, m + 1)]


def witness_U3_Nmax_partial_product(m: int, k: int) -> Matrix:
    """Closed form of B_1 * ... * B_k."""
    if not 1 <= k <= m:
        raise DomainError("need 1 <= k <= m")
    return _uni3(nat_max(adjoined_zero=True), k, m, m)


def witness_U3_negNmax(m: int) -> list[Matrix]:
    """The negative-naturals analogue C_1..C_m of the rigid unitriangular family."""
    if m < 2:
        raise DomainError("need m >= 2")
    desc = neg_nat_max(adjoined_zero=True)
    return [_uni3(desc, i - m - 1, -m - 2, -i) for i in range(1, m + 1)]


def witness_U3_negNmax_partial_product(m: int, k: int) -> Matrix:
    if not 1 <= k <= m:
        raise DomainError("need 1 <= k <= m")
    return _uni3(neg_nat_max(adjoined_zero=True), k - m - 1, -m - 2, -1)


def default_epsilon(z: Rational) -> Fraction:
    """Midpoint of the admissible interval (0, z-2)."""
    return Fraction(z - 2, 2)


def witness_M3_trunc(z: Rational, eps: Rational, m: int) -> list[Matrix]:
    """Full 3x3 matrices over the truncated semiring [1, z] with a rigid product.

    The above-diagonal entries are perturbed by multiples of eps/m so that
    any inversion strictly increases the (1,3) entry of the product beyond
    its identity-order value 2 + eps.  Requires z > 2 and 0 < eps < z - 2.
    """
    if m < 2:
        raise DomainError("need m >= 2")
    z = Fraction(z)
    eps = Fraction(eps)
    if not z > 2:
        raise DomainError("need z > 2")
    if not 0 < eps < z - 2:
        raise DomainError(f"epsilon must lie strictly between 0 and z-2 = {z - 2}")
    desc = trunc(1, z)
    out = []
    for i in range(1, m + 1):
        rows = [
            [0, 1 + Fraction(i, m) * eps, 2 + eps],
            [NEG_INF, 0, 1 + eps - Fraction(i - 1, m) * eps],
            [NEG_INF, NEG_INF, 0],
        ]
        out.append(Matrix.make(desc, FULL, rows))
    return out


def witness_M3_trunc_partial_product(z: Rational, eps: Rational, m: int, k: int) -> Matrix:
    if not 1 <= k <= m:
        raise DomainError("need 1 <= k <= m")
    z = Fraction(z)
    eps = Fraction(eps)
    desc = trunc(1, z)
    rows = [
        [0, 1 + Fraction(k, m) * eps, 2 + eps],
        [NEG_INF, 0, 1 + eps],
        [NEG_INF, NEG_INF, 0],
    ]
    return Matrix.make(desc, FULL, rows)


class RigidFamily(NamedTuple):
    """B_1..B_m, whose product only the identity order preserves, and the closed form of B_1...B_k."""

    sequence: Callable[..., list[Matrix]]
    partial_product: Callable[..., Matrix]


# the rigid families by name; m3_trunc also takes z and eps by keyword
# (default 3 and 1/2)
RIGID_FAMILIES: dict[str, RigidFamily] = {
    "u3_nmax": RigidFamily(witness_U3_Nmax, witness_U3_Nmax_partial_product),
    "u3_negnmax": RigidFamily(witness_U3_negNmax, witness_U3_negNmax_partial_product),
    "m3_trunc": RigidFamily(
        lambda m, z=3, eps=Fraction(1, 2): witness_M3_trunc(z, eps, m),
        lambda m, k, z=3, eps=Fraction(1, 2): witness_M3_trunc_partial_product(z, eps, m, k),
    ),
}
