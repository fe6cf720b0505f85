"""Square matrices over a bipotent semiring and the three matrix families.

``full`` matrices have arbitrary carrier entries; ``ut`` (upper triangular)
matrices carry the zero element below the diagonal; ``uni`` (unitriangular)
matrices additionally carry the adjoined identity sentinel on the diagonal.

The scalar operations never see that sentinel: a ``uni`` product keeps the
left factor's zeros and identities, and above the diagonal entry (i, j) is
b_ij + sum_{i<l<j} a_il*b_lj + a_ij, the textbook terms that are neither zero
nor a product with the identity, whatever element the zero is.

``_row_kernel`` picks each family's row loop (a row vector times a matrix);
``mat_mul`` maps it over the rows of its left factor.

Matrices are immutable and hashable; products of same-family matrices stay
in the family, which tests assert but hot paths do not re-check.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from .errors import DomainError, clip
from .scalars import ADJOINED_ID, NEG_INF, Scalar
from .semirings import Semiring

FULL = "full"
UT = "ut"
UNI = "uni"

_FAMILIES = (FULL, UT, UNI)


class Matrix:
    __slots__ = ("n", "semiring", "family", "entries", "_hash")

    def __init__(self, semiring: Semiring, family: str, entries: tuple[tuple[Scalar, ...], ...]):
        self.semiring = semiring
        self.family = family
        self.entries = entries
        self.n = len(entries)
        self._hash = None

    @classmethod
    def make(cls, semiring: Semiring, family: str, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        """Validated construction: checks squareness and family membership."""
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise DomainError("matrix must be square and non-empty")
        if family not in _FAMILIES:
            raise DomainError(f"unknown matrix family {clip(family)}")
        entries = tuple(tuple(r) for r in rows)
        if family == FULL:
            for row in entries:
                for v in row:
                    semiring.validate(v)
        else:
            zero = semiring.zero_element()
            if zero is None:
                raise DomainError(
                    f"{family} matrices need a semiring with a zero element; adjoin one first"
                )
            for i, row in enumerate(entries):
                for j, v in enumerate(row):
                    if j < i:
                        if v != zero:
                            raise DomainError(f"entry ({i},{j}) below the diagonal must be {zero!r}")
                    elif family == UNI and j == i:
                        if v is not ADJOINED_ID:
                            raise DomainError(f"unitriangular diagonal entry ({i},{i}) must be the identity sentinel")
                    elif family == UNI:
                        # above-diagonal entries come from the semiring proper,
                        # not from the adjoined sentinels
                        if v is ADJOINED_ID or (v is NEG_INF and semiring.adjoined_zero):
                            raise DomainError(f"entry ({i},{j}) must be a proper carrier element")
                        semiring.validate(v)
                    else:
                        semiring.validate(v)
        return cls(semiring, family, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.family == other.family
            and self.semiring == other.semiring
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.family, self.semiring, self.entries))
        return h

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries[ij[0]][ij[1]]

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(repr(v) for v in row) for row in self.entries)
        return f"Matrix<{self.family},{self.semiring.family}>[{rows}]"

    def transpose(self) -> "Matrix":
        if self.family != FULL:
            raise DomainError("only full matrices can be transposed in place of their family")
        return Matrix(self.semiring, FULL, tuple(zip(*self.entries)))


def _check_pair(a: Matrix, b: Matrix) -> None:
    if a.n != b.n:
        raise DomainError(f"{a.n} vs {b.n}")
    if not a.semiring == b.semiring:  # one dispatch; != would call __ne__ and then __eq__
        raise DomainError("matrices live over different semirings")
    if a.family != b.family:
        raise DomainError(f"mixed matrix families {a.family!r} and {b.family!r}")


def _row_times(add, mul, i: int, row: tuple, cols: tuple) -> tuple:
    """``row`` times the matrix with columns ``cols`` (``i`` is unused).

    Entry j is mul(row[0], col_j[0]) + mul(row[1], col_j[1]) + ..., summed
    left to right.
    """
    first = row[0]
    rest = range(1, len(row))
    out = []
    for col in cols:
        acc = mul(first, col[0])
        for k in rest:
            acc = add(acc, mul(row[k], col[k]))
        out.append(acc)
    return tuple(out)


def _uni_row_times(add, mul, i: int, row: tuple, cols: tuple) -> tuple:
    """Row i of a unitriangular product, ``row`` being row i of the left factor.

    Entry j > i is col_j[i] + row[i+1]*col_j[i+1] + ... + row[j], the terms in
    ``_row_times`` order, so each entry keeps its value and its type.
    """
    out = list(row[: i + 1])
    for j in range(i + 1, len(row)):
        col = cols[j]
        acc = col[i]
        for k in range(i + 1, j):
            acc = add(acc, mul(row[k], col[k]))
        out.append(add(acc, row[j]))
    return tuple(out)


def _row_kernel(semiring: Semiring, family: str) -> Callable[[int, tuple, tuple], tuple]:
    """The row loop of ``family`` products: ``kernel(i, row i of A, columns of B)`` is row i of A*B."""
    loop = _uni_row_times if family == UNI else _row_times
    return partial(loop, semiring._add, semiring._mul)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with addition and multiplication induced entrywise."""
    _check_pair(a, b)
    kernel = _row_kernel(a.semiring, a.family)
    cols = tuple(zip(*b.entries))
    return Matrix(a.semiring, a.family, tuple([kernel(i, row, cols) for i, row in enumerate(a.entries)]))


def seq_product(seq: Sequence[Matrix]) -> Matrix:
    """Left-associated product of a non-empty uniform sequence."""
    if not seq:
        raise DomainError("cannot multiply an empty sequence")
    acc = seq[0]
    for m in seq[1:]:
        acc = mat_mul(acc, m)
    return acc


def prefix_suffix_products(seq: Sequence[Matrix]) -> tuple[list[Optional[Matrix]], list[Matrix]]:
    """prefixes[i] = product of seq[:i] (None when empty); suffixes[i] = product of seq[i:].

    Both lists have the length of the sequence; the trivial ends (empty
    prefix, empty suffix) are represented as absent and handled by callers.
    """
    if not seq:
        raise DomainError("cannot build prefix/suffix products of an empty sequence")
    k = len(seq)
    prefixes: list[Optional[Matrix]] = [None] * k
    acc = None
    for i in range(1, k):
        acc = seq[i - 1] if acc is None else mat_mul(acc, seq[i - 1])
        prefixes[i] = acc
    suffixes: list[Matrix] = [seq[-1]] * k
    acc = seq[-1]
    for i in range(k - 2, -1, -1):
        acc = mat_mul(seq[i], acc)
        suffixes[i] = acc
    return prefixes, suffixes


def project_topleft(a: Matrix, m: int) -> Matrix:
    """Top-left m x m corner; a semigroup morphism on triangular families."""
    if not 1 <= m <= a.n:
        raise DomainError(f"cannot project a {a.n}x{a.n} matrix to {m}x{m}")
    if a.family == FULL:
        raise DomainError("corner projection is a morphism only for triangular families")
    rows = tuple(row[:m] for row in a.entries[:m])
    return Matrix(a.semiring, a.family, rows)


def pad_sequence(seq: Sequence[Matrix], n: int) -> list[Matrix]:
    """Pad full m x m matrices to n x n with the least entry of the sequence.

    The padding value z is the minimum entry across the whole sequence (the
    zero element if any entry is the zero element), which makes the top-left
    corner of any product of the padded matrices equal the corresponding
    product of the originals.
    """
    if not seq:
        raise DomainError("cannot pad an empty sequence")
    m = seq[0].n
    desc = seq[0].semiring
    for mat in seq:
        if mat.family != FULL:
            raise DomainError("padding is defined for full matrices")
        if mat.n != m or not mat.semiring == desc:
            raise DomainError("padding needs a uniform sequence")
    if n <= m:
        raise DomainError(f"target dimension {n} must exceed {m}")
    leq = desc._leq
    z = seq[0].entries[0][0]
    for mat in seq:
        for row in mat.entries:
            for v in row:
                if leq(v, z):
                    z = v
    padded = []
    for mat in seq:
        rows = [row + (z,) * (n - m) for row in mat.entries]
        rows.extend([(z,) * n] * (n - m))
        padded.append(Matrix(desc, FULL, tuple(rows)))
    return padded
