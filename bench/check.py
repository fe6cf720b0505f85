"""Independent output checks for the benchmark.

Nothing here calls the library's arithmetic.  Matrices are turned into plain
Python data (``None`` for -inf, ``ID`` for the adjoined unitriangular
identity, ints or Fractions for rationals, ints for chain atoms) and
multiplied with the benchmark's own product loop, so a fault in the
library's scalar or matrix code cannot hide itself from the check.
"""

from __future__ import annotations

from typing import Optional, Sequence

ID = "id"

# Tropical identity-only proofs are enumerated over plain ints with -inf
# replaced by a huge negative number.  (Z, max, +) is itself a semiring, so
# the products are exact; an entry is -inf iff it ends below NEG // 2, since
# finite entries of the generated tuples stay far above that.
NEG = -(10**12)
_LOW = NEG // 2


def plain_matrix(m, neg_inf, adjoined_id, atom_type) -> tuple:
    """Rows of a library Matrix as plain data (see the module docstring)."""

    def conv(v):
        if v is neg_inf:
            return None
        if v is adjoined_id:
            return ID
        if isinstance(v, atom_type):
            return v.index
        return v

    return tuple(tuple(conv(v) for v in row) for row in m.entries)


class Ops:
    """Addition and multiplication of one semiring family on plain data.

    ``kind`` is ``"chain"`` (atoms: max and min), ``"trunc"`` (max and
    min(a + b, top)) or ``"maxplus"`` (max and +: tropical, natural and
    negative natural numbers).  -inf absorbs under multiplication and is
    the bottom for addition; the adjoined identity is neutral.
    """

    def __init__(self, kind: str, top=None):
        self.kind = kind
        self.top = top

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a == ID or b == ID:
            if a == b:
                return a
            raise ValueError(f"undefined sum {a!r} + {b!r}")
        return a if a >= b else b

    def mul(self, a, b):
        if a is None or b is None:
            return None
        if a == ID:
            return b
        if b == ID:
            return a
        if self.kind == "chain":
            return a if a <= b else b
        s = a + b
        if self.kind == "trunc" and s > self.top:
            return self.top
        return s


def product(ops: Ops, seq: Sequence[tuple]) -> tuple:
    """Left-associated product of a non-empty sequence of plain matrices."""
    add, mul = ops.add, ops.mul
    acc = seq[0]
    for b in seq[1:]:
        n = len(acc)
        cols = tuple(zip(*b))
        rows = []
        for i in range(n):
            arow = acc[i]
            out = []
            for j in range(n):
                col = cols[j]
                v = mul(arow[0], col[0])
                for t in range(1, n):
                    v = add(v, mul(arow[t], col[t]))
                out.append(v)
            rows.append(tuple(out))
        acc = tuple(rows)
    return acc


def check_found(ops: Ops, seq: Sequence[tuple], perm: Optional[Sequence[int]]) -> Optional[str]:
    """None if ``perm`` is a non-identity permutation preserving the product."""
    k = len(seq)
    if perm is None or sorted(perm) != list(range(k)):
        return f"not a permutation of 0..{k - 1}"
    if list(perm) == list(range(k)):
        return "identity permutation reported as a find"
    if product(ops, [seq[i] for i in perm]) != product(ops, seq):
        return "permutation does not preserve the product"
    return None


def _maxplus_int(seq: Sequence[tuple]) -> list[tuple]:
    """Tropical plain matrices as flat int tuples (row-major), -inf -> NEG."""
    return [tuple(NEG if v is None else int(v) for row in m for v in row) for m in seq]


def _mp2(a, b):
    return (
        max(a[0] + b[0], a[1] + b[2]), max(a[0] + b[1], a[1] + b[3]),
        max(a[2] + b[0], a[3] + b[2]), max(a[2] + b[1], a[3] + b[3]),
    )


def _mp3(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        max(a0 + b0, a1 + b3, a2 + b6), max(a0 + b1, a1 + b4, a2 + b7), max(a0 + b2, a1 + b5, a2 + b8),
        max(a3 + b0, a4 + b3, a5 + b6), max(a3 + b1, a4 + b4, a5 + b7), max(a3 + b2, a4 + b5, a5 + b8),
        max(a6 + b0, a7 + b3, a8 + b6), max(a6 + b1, a7 + b4, a8 + b7), max(a6 + b2, a7 + b5, a8 + b8),
    )


def _norm(flat) -> tuple:
    return tuple(NEG if v < _LOW else v for v in flat)


def tropical_preserving_perm(seq: Sequence[tuple]) -> Optional[tuple]:
    """First non-identity ordering with the same tropical product, or None.

    Full depth-first enumeration of all k! orderings with shared prefix
    products; integer entries only (no Fractions), dimensions 2 and 3.
    """
    mats = _maxplus_int(seq)
    n = len(seq[0])
    mp = {2: _mp2, 3: _mp3}[n]
    k = len(mats)
    target = mats[0]
    for m in mats[1:]:
        target = mp(target, m)
    target = _norm(target)
    identity = tuple(range(k))
    chosen: list[int] = []
    used = [False] * k

    def rec(prefix):
        last = len(chosen) + 1 == k
        for idx in range(k):
            if used[idx]:
                continue
            prod = mats[idx] if prefix is None else mp(prefix, mats[idx])
            chosen.append(idx)
            if last:
                if _norm(prod) == target and tuple(chosen) != identity:
                    return tuple(chosen)
            else:
                used[idx] = True
                hit = rec(prod)
                used[idx] = False
                if hit is not None:
                    return hit
            chosen.pop()
        return None

    return rec(None)
