"""Searches for product-preserving permutations of matrix sequences.

A sequence A_1..A_k is permutation-rigid when only the identity ordering
yields its product; strong permutability asserts a non-trivial preserving
permutation exists for every long-enough tuple.  The searcher here is one
stream of candidates from a fixed strategy ladder (equal pair, adjacent
transpositions, general transpositions, random shuffles), then a full
enumeration, each rung only as far as its worst case fits ``SEARCH_BUDGET``.
The strategies only propose; one function, ``_verified``, decides every
candidate, and the finders of :mod:`bipermute.quotients` report through it
too.  A general permutation is multiplied out in full.  A transposition
(i, j) of two equal matrices leaves the sequence unchanged and needs no
product; any other one is decided as P_i*A_j*M*A_i*S_{j+1} from the prefix
and suffix products its proposer already holds, so a swap near the front of
a long sequence costs O(j) products, not O(k).

The rungs after the equal pair, and ``exhaustive_identity_only``, run on an
integer image of a tropical or truncated tuple (``_integer_image``):
scaling by the lcm D of the denominators maps trunc(x, y) onto trunc(Dx, Dy)
and the tropical semiring onto itself, so it keeps exactly which
permutations preserve the product, and the search pays for int arithmetic,
not ``Fraction``.  A witness is a permutation, so it needs no decoding.

The path-assignment machinery realizes the combinatorial argument for weak
permutability: every entry of a permuted product is attained by one path in
the complete directed graph on the index set, and two permutations inducing
the same per-matrix edge assignment necessarily have equal products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DomainError, InvariantViolation
from .matrices import FULL, Matrix, _check_pair, _row_kernel, mat_mul, prefix_suffix_products, seq_product
from .sampling import DEFAULT_SEED, derive_rng
from .scalars import ADJOINED_ID, NEG_INF
from .semirings import SEARCH_BUDGET, TROPICAL, TRUNC

# The exhaustive sweep memoizes dead states only while at least this many
# matrices remain, and runs on row vectors below that.  On 30 random tropical
# 3x3 7-tuples with integer entries that kept at most 1,095 keys (0.69 MiB
# tracemalloc peak); a limit of 2 kept 3,614 keys (2.16 MiB).
_DEAD_MIN_REMAINING = 3
# A right-to-left total keeps the suffix product of every index divisible by
# this, so any suffix is rebuilt from the nearest one in fewer products.
_SUFFIX_CHECKPOINT = 64

Perm = tuple[int, ...]


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def transposition(k: int, i: int, j: int) -> Perm:
    perm = list(range(k))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def is_permutation(perm: Sequence[int], k: int) -> bool:
    return len(perm) == k and sorted(perm) == list(range(k))


def perm_kind(perm: Perm) -> str:
    """Shape of a permutation: adjacent_transposition, transposition or general."""
    moved = [i for i, v in enumerate(perm) if v != i]
    if len(moved) == 2 and perm[moved[0]] == moved[1] and perm[moved[1]] == moved[0]:
        return "adjacent_transposition" if moved[1] == moved[0] + 1 else "transposition"
    return "general"


@dataclass(frozen=True)
class SearchPolicy:
    try_equal_pair: bool = True
    try_adjacent: bool = True
    try_all_transpositions: bool = True
    random_trials: int = 0
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class IdentityOnly:
    k: int


@dataclass(frozen=True)
class Found:
    perm: Perm
    kind: str
    strategy: str


@dataclass(frozen=True)
class NoneFoundUnderPolicy:
    policy: SearchPolicy


PermutationWitness = Union[IdentityOnly, Found, NoneFoundUnderPolicy]


def apply_perm_product(seq: Sequence[Matrix], perm: Sequence[int]) -> Matrix:
    """Product of the sequence taken in permuted order: seq[perm[0]] * seq[perm[1]] * ..."""
    if not seq:
        raise DomainError("no matrices to multiply")
    if not is_permutation(perm, len(seq)):
        raise DomainError(f"{perm!r} is not a permutation of 0..{len(seq) - 1}")
    return seq_product([seq[i] for i in perm])


def _combine(*parts: Optional[Matrix]) -> Matrix:
    acc = None
    for p in parts:
        if p is not None:
            acc = p if acc is None else mat_mul(acc, p)
    return acc


def _integer_image(seq: Sequence[Matrix]) -> Sequence[Matrix]:
    """``seq`` scaled into integers over a tropical or truncated carrier, else ``seq`` itself.

    D is the lcm of the denominators of every entry, and of x and y for
    trunc(x, y).  Multiplying every proper entry by D maps trunc(x, y) onto
    trunc(Dx, Dy) and the tropical semiring onto itself; entrywise that is a
    matrix-semigroup isomorphism, so a permutation preserves the image's
    product exactly when it preserves the source's, and the sweep's states
    correspond one to one.  The image's descriptor has integer bounds, so
    its closures never meet a ``Fraction``.  A sequence whose entries (and
    bounds) are ints already, on another carrier, or over mixed semirings
    is returned unchanged, to fail where it failed before.
    """
    desc = seq[0].semiring if seq else None
    if desc is None or desc.family not in (TROPICAL, TRUNC) or any(not m.semiring == desc for m in seq):
        return seq
    values = [v for m in seq for row in m.entries for v in row]
    if desc.family == TRUNC:
        values += (desc.x, desc.y)
    denominators = {v.denominator for v in values if type(v) is Fraction}
    if not denominators:
        return seq
    d = math.lcm(*denominators)
    image = desc if desc.family == TROPICAL else replace(desc, x=int(d * desc.x), y=int(d * desc.y))

    def scale(v):
        return v if v is NEG_INF or v is ADJOINED_ID else int(d * v)

    return [Matrix(image, m.family, tuple(tuple(map(scale, row)) for row in m.entries)) for m in seq]


def _exhaustive_search(seq: Sequence[Matrix], target: Matrix) -> Optional[Perm]:
    """First non-identity preserving permutation in lexicographic order, if any.

    Depth-first enumeration shares prefix products between permutations with
    a common prefix; without pruning that is sum_{d=2..k} k!/(k-d)! (about
    e * k!) products.  Whether some completion of a prefix reaches the
    target depends only on the set of indices used and the prefix product.
    Each state (used-index bitmask, prefix entries) is recorded when its
    subtree is entered.  The first hit ends the search, so a later child that
    reaches a recorded state would repeat a subtree already searched without
    a hit: that state is dead, and the child is skipped unsearched.  Only
    subtrees without a witness are skipped, so the first hit is the same
    lexicographically first permutation.

    The identity prefix is never recorded: its subtree excludes the identity
    completion, so "no hit" there says nothing about other prefixes with the
    same state.  States are kept only while at least ``_DEAD_MIN_REMAINING``
    matrices remain, which bounds the memo's memory (the states near the
    leaves are the most numerous and the cheapest to search again).

    Below that horizon, once at most ``_DEAD_MIN_REMAINING`` matrices
    remain and nothing more is recorded, the sweep carries row 0 of the
    prefix product only (``_row_sweep``); for k <= ``_DEAD_MIN_REMAINING``
    that is from the root.  Without pruning, depths d = 2..k-3 then cost
    k!/(k-d)! matrix products each (n^3 scalar products apiece), and depths
    max(2, k-2)..k cost k!/(k-d)! row products each (n^2 apiece), plus at
    most ``_DEAD_MIN_REMAINING`` matrix products for each leaf whose row 0
    matches the target's.  Row 0 of P*A*B is (row 0 of P)*A*B, so a leaf
    whose row 0 misses the target's misses it in full; a leaf whose row 0
    matches is multiplied out and compared whole.  The order of the sweep
    and the recorded states stay the same, so the first hit does too.
    """
    cols = [tuple(zip(*m.entries)) for m in seq]
    tail = (_row_kernel(target.semiring, target.family), cols, target.entries[0])
    return _sweep(seq, target, tail, [], set(), None, 0, True)


def _sweep(seq: Sequence[Matrix], target: Matrix, tail: tuple, chosen: list[int], dead: set[tuple[int, tuple]],
           prefix: Optional[Matrix], mask: int, on_identity: bool) -> Optional[Perm]:
    """The subtree of ``_exhaustive_search`` below the prefix ``chosen``."""
    k = len(seq)
    depth = len(chosen)
    if k - depth <= _DEAD_MIN_REMAINING:
        row = None if prefix is None else prefix.entries[0]
        return _row_sweep(seq, target, tail, chosen, depth, prefix, row, mask, on_identity)
    for idx in range(k):
        bit = 1 << idx
        if mask & bit:
            continue
        prod = seq[idx] if prefix is None else mat_mul(prefix, seq[idx])
        child_identity = on_identity and idx == depth
        if not child_identity:
            key = (mask | bit, prod.entries)
            if key in dead:
                continue
            dead.add(key)
        chosen.append(idx)
        hit = _sweep(seq, target, tail, chosen, dead, prod, mask | bit, child_identity)
        chosen.pop()
        if hit is not None:
            return hit
    return None


def _row_sweep(seq: Sequence[Matrix], target: Matrix, tail: tuple, chosen: list[int], start: int,
               prefix: Optional[Matrix], row: Optional[tuple], mask: int, on_identity: bool) -> Optional[Perm]:
    """The memo-free bottom of ``_sweep``: ``row`` is row 0 of the prefix product.

    ``prefix`` is the full product of ``chosen[:start]``; a leaf whose row 0
    matches the target's is decided by multiplying the rest onto it.
    """
    kernel, cols, goal = tail
    k = len(seq)
    depth = len(chosen)
    for idx in range(k):
        bit = 1 << idx
        if mask & bit:
            continue
        child = seq[idx].entries[0] if row is None else kernel(0, row, cols[idx])
        child_identity = on_identity and idx == depth
        if depth + 1 == k:
            if not child_identity and child == goal:
                if _combine(prefix, *(seq[i] for i in chosen[start:]), seq[idx]) == target:
                    return (*chosen, idx)
            continue
        chosen.append(idx)
        hit = _row_sweep(seq, target, tail, chosen, start, prefix, child, mask | bit, child_identity)
        chosen.pop()
        if hit is not None:
            return hit
    return None


def _sweep_cost(k: int, n: int) -> int:
    """W(k, n): the terms of ``_exhaustive_search``'s docstring, then 3 n^3 k! for its leaf checks.

    A sum past ``SEARCH_BUDGET`` returns at once, so a long tuple takes no factorial."""
    total, falling = 0, k
    for d in range(2, k + 1):
        falling *= k - d + 1
        total += falling * (n**3 if d <= k - 3 else n**2)
        if total > SEARCH_BUDGET:
            return total
    return total + 3 * n**3 * falling


def exhaustive_identity_only(seq: Sequence[Matrix]) -> bool:
    """True iff no non-trivial permutation preserves the product (full sweep)."""
    if seq and _sweep_cost(len(seq), seq[0].n) > SEARCH_BUDGET:
        raise DomainError(f"sweeping {len(seq)} matrices exceeds the search budget of {SEARCH_BUDGET} scalar products")
    seq = _integer_image(seq)
    target = seq_product(seq)
    return _exhaustive_search(seq, target) is None


class _Swap(NamedTuple):
    """The transposition of positions i < j, with the products around it.

    ``prefix``, ``middle`` and ``suffix`` are the products of seq[:i],
    seq[i+1:j] and seq[j+1:], each None when the segment is empty.
    """

    i: int
    j: int
    prefix: Optional[Matrix] = None
    middle: Optional[Matrix] = None
    suffix: Optional[Matrix] = None


def _verified(seq: Sequence[Matrix], target: Optional[Matrix], candidate: Union[Perm, _Swap],
              strategy: str) -> Optional[Found]:
    """Found iff ``candidate`` keeps the product ``target``; every finder decides here.

    A permutation is multiplied out in full.  A swap of two equal matrices
    leaves the sequence unchanged, so it is decided without a product (and
    without reading ``target``); any other swap multiplies its parts as
    prefix * A_j * middle * A_i * suffix, at most four products.  Matrix
    products are associative, so that is the same matrix as the permuted
    product taken left to right.
    """
    if isinstance(candidate, _Swap):
        i, j, prefix, middle, suffix = candidate
        if seq[i] != seq[j] and _combine(prefix, seq[j], middle, seq[i], suffix) != target:
            return None
        perm = transposition(len(seq), i, j)
    elif apply_perm_product(seq, candidate) == target:
        perm = candidate
    else:
        return None
    return Found(perm, perm_kind(perm), strategy)


def _checkpointed_total(seq: Sequence[Matrix]) -> tuple[Matrix, dict[int, Matrix]]:
    """The product of ``seq`` taken right to left, and the suffix products it passes.

    Only the suffixes S_t = product of seq[t:] with t divisible by
    ``_SUFFIX_CHECKPOINT`` are kept: k - 1 products and k / 64 matrices.
    """
    checkpoints = {}
    acc = None
    for t in range(len(seq) - 1, -1, -1):
        acc = seq[t] if acc is None else mat_mul(seq[t], acc)
        if t % _SUFFIX_CHECKPOINT == 0:
            checkpoints[t] = acc
    return acc, checkpoints


def _swap_at(seq: Sequence[Matrix], checkpoints: dict[int, Matrix], i: int, j: int) -> _Swap:
    """The swap of i < j with its parts, from the checkpoints of ``_checkpointed_total``.

    The prefix and middle are multiplied out (fewer than j products), and
    the suffix is rebuilt from the first checkpoint past j in fewer than
    ``_SUFFIX_CHECKPOINT`` products.
    """
    top = min(-(-(j + 1) // _SUFFIX_CHECKPOINT) * _SUFFIX_CHECKPOINT, len(seq))
    suffix = _combine(*seq[j + 1:top], checkpoints.get(top))
    return _Swap(i, j, _combine(*seq[:i]), _combine(*seq[i + 1:j]), suffix)


def _first_repeat(keys: Iterable) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j, with equal keys, ordered by j; keys are drawn lazily."""
    seen: dict = {}
    for j, key in enumerate(keys):
        i = seen.setdefault(key, j)
        if i != j:
            return i, j
    return None


def _swaps(seq, prefixes, suffixes, first_gap: int, last_gap: int, strategy: str):
    """Transpositions (i, j) with first_gap <= j - i <= last_gap, each with its parts.

    The middle segment seq[i+1:j] is streamed as one running product per i,
    extended only while a later j still needs it.
    """
    k = len(seq)
    for i in range(k - 1):
        mid = None
        stop = min(i + last_gap + 1, k)
        for j in range(i + 1, stop):
            if j - i >= first_gap:
                yield strategy, _Swap(i, j, prefixes[i], mid, suffixes[j + 1] if j + 1 < k else None)
            if j + 1 < stop:
                mid = seq[j] if mid is None else mat_mul(mid, seq[j])


def _candidates(seq: Sequence[Matrix], policy: SearchPolicy, ends):
    """(strategy, candidate) proposals of the rungs after the equal pair, in rung order.

    ``ends`` is ``prefix_suffix_products(seq)`` when a swap rung runs.
    """
    k = len(seq)
    if ends is not None:
        prefixes, suffixes = ends
        if policy.try_adjacent:
            yield from _swaps(seq, prefixes, suffixes, 1, 1, "adjacent")
        if policy.try_all_transpositions:
            yield from _swaps(seq, prefixes, suffixes, 2 if policy.try_adjacent else 1, k, "transposition")
    if policy.random_trials > 0:
        rng = derive_rng(policy.seed, "find_preserving_permutation", "random")
        identity = identity_perm(k)
        for _ in range(policy.random_trials):
            perm = list(range(k))
            rng.shuffle(perm)
            tperm = tuple(perm)
            if tperm != identity:
                yield "random", tperm


def find_preserving_permutation(seq: Sequence[Matrix], policy: SearchPolicy = SearchPolicy()) -> PermutationWitness:
    """Deterministic strategy ladder for a non-trivial product-preserving permutation.

    Strategies run in a fixed order (equal pair, adjacent transpositions,
    all transpositions, random shuffles, exhaustive enumeration) and the
    first witness that ``_verified`` accepts, in canonical order, is
    returned.  An equal pair needs no product, so that rung runs before the
    product of the sequence is taken; the later rungs run on
    ``_integer_image(seq)``, which scales rational tropical and truncated
    entries to ints and finds the same witnesses, and the product is taken
    only for them (from the suffix products when a swap rung builds them).  A
    sequence that mixes dimensions, semirings or families raises what
    ``seq_product`` raises, whichever rung decides.  An exhaustive sweep
    that finds nothing proves the product is identity-only, and one whose
    hit fails to verify raises InvariantViolation; otherwise a failed search
    is reported as none-found-under-policy: no rung that ``SEARCH_BUDGET``
    admits found a witness.
    """
    k = len(seq)
    if k < 2:
        raise DomainError("need at least two matrices")
    for m in seq:
        _check_pair(seq[0], m)
    pair = _first_repeat(seq) if policy.try_equal_pair else None
    if pair is not None:
        return _verified(seq, None, _Swap(*pair), "equal_pair")
    cube = seq[0].n ** 3  # a pair is decided in at most five products, a shuffle in k - 1
    pairs = policy.try_all_transpositions and 5 * k * (k - 1) // 2 * cube <= SEARCH_BUDGET
    rungs = replace(policy, try_all_transpositions=pairs,
                    random_trials=min(policy.random_trials, SEARCH_BUDGET // (k * cube)))
    swap_rungs = rungs.try_adjacent or rungs.try_all_transpositions
    seq = _integer_image(seq)
    ends = prefix_suffix_products(seq) if swap_rungs else None
    target = seq_product(seq) if ends is None else ends[1][0]
    for strategy, candidate in _candidates(seq, rungs, ends):
        hit = _verified(seq, target, candidate, strategy)
        if hit:
            return hit
    if _sweep_cost(k, seq[0].n) <= SEARCH_BUDGET:
        perm = _exhaustive_search(seq, target)
        if perm is None:
            return IdentityOnly(k)
        hit = _verified(seq, target, perm, "exhaustive")
        if not hit:
            raise InvariantViolation(f"exhaustive hit {perm} does not preserve the product (implementation bug)")
        return hit
    return NoneFoundUnderPolicy(policy)


# -- path assignments --------------------------------------------------------


@dataclass(frozen=True)
class PathAssignment:
    """Per-matrix edge choices explaining every entry of a permuted product.

    ``edges[i][x][y]`` is the edge of the complete directed graph on the
    index set whose entry of matrix i contributes to the (x, y) entry of the
    permuted product.
    """

    n: int
    k: int
    edges: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def path_assignment(seq: Sequence[Matrix], perm: Sequence[int]) -> PathAssignment:
    """Choose, for every entry, an attaining path of the permuted product.

    Bipotency guarantees each entry of the product equals the value of at
    least one path; ties are broken toward the lexicographically least
    sequence of intermediate nodes so the assignment is deterministic.
    """
    if not seq:
        raise DomainError("no matrices")
    k = len(seq)
    if not is_permutation(perm, k):
        raise DomainError(f"{perm!r} is not a permutation of 0..{k - 1}")
    if any(m.family != FULL for m in seq):
        raise DomainError("path assignments are defined for full matrices only")
    n = seq[0].n
    desc = seq[0].semiring
    mul = desc._mul
    sigma_seq = [seq[p] for p in perm]
    target = seq_product(sigma_seq)
    _, suffixes = prefix_suffix_products(sigma_seq)

    edges = [[[None] * n for _ in range(n)] for _ in range(k)]
    for x in range(n):
        for y in range(n):
            goal = target.entries[x][y]
            cur = x
            acc = None
            for t in range(k):
                row = sigma_seq[t].entries[cur]
                candidates = range(n) if t < k - 1 else (y,)
                for u in candidates:
                    step = row[u] if acc is None else mul(acc, row[u])
                    if t + 1 < k:
                        total = mul(step, suffixes[t + 1].entries[u][y])
                    else:
                        total = step
                    if total == goal:
                        edges[perm[t]][x][y] = (cur, u)
                        acc = step
                        cur = u
                        break
                else:
                    raise DomainError("no attaining path; non-bipotent semiring?")
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in edges)
    return PathAssignment(n, k, frozen)


def reconstruct_from_assignment(seq: Sequence[Matrix], pa: PathAssignment) -> Matrix:
    """Multiply each matrix's assigned entry, in original order, per entry.

    When the assignment came from ``path_assignment(seq, perm)`` this equals
    the permuted product, by commutativity of the scalar multiplication.
    """
    if len(seq) != pa.k:
        raise DomainError(f"assignment is for {pa.k} matrices, got {len(seq)}")
    if not seq or seq[0].n != pa.n:
        raise DomainError("dimension mismatch between sequence and assignment")
    desc = seq[0].semiring
    mul = desc._mul
    n = pa.n
    rows = []
    for x in range(n):
        out = []
        for y in range(n):
            acc = None
            for i in range(pa.k):
                r, c = pa.edges[i][x][y]
                v = seq[i].entries[r][c]
                acc = v if acc is None else mul(acc, v)
            out.append(acc)
        rows.append(tuple(out))
    return Matrix(desc, FULL, tuple(rows))


def weak_bound(n: int) -> int:
    """Smallest k with k! > c^k for c = n^(2n^2), by exact integer comparison.

    This is the tuple length at which the path-assignment pigeonhole forces
    two orderings to agree.  A running factorial and power keep the answer
    exact; n = 2 takes 692 steps (already astronomically large as an
    experiment), while n >= 3 would need about e*c of them, so it raises
    DomainError.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if n >= 3:
        raise DomainError(f"weak_bound is evaluated only for n <= 2, got n = {n}")
    c = n ** (2 * n * n)
    kfact, cpow, k = 1, 1, 0
    while True:
        k += 1
        kfact *= k
        cpow *= c
        if kfact > cpow:
            return k
