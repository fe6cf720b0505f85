"""Permutation products, the witness search ladder, and path assignments."""

import gc
import math
import time
import weakref
from fractions import Fraction as F
from itertools import permutations

import pytest

from bipermute import matrices, permutability
from bipermute.constructions import witness_M3_trunc, witness_U3_Nmax, witness_U3_negNmax
from bipermute.errors import BipermuteError, DomainError
from bipermute.matrices import FULL, UNI, UT, Matrix, _row_kernel, mat_mul, prefix_suffix_products, seq_product
from bipermute.permutability import (
    _exhaustive_search,
    Found,
    IdentityOnly,
    NoneFoundUnderPolicy,
    SearchPolicy,
    apply_perm_product,
    exhaustive_identity_only,
    find_preserving_permutation,
    identity_perm,
    path_assignment,
    perm_kind,
    reconstruct_from_assignment,
    transposition,
    weak_bound,
)
from bipermute.sampling import _drawer, derive_rng, sample_matrix
from bipermute.scalars import ADJOINED_ID, NEG_INF, Atom
from bipermute.semirings import boolean, chain, nat_max, tropical, trunc


def test_apply_perm_product_basics():
    rng = derive_rng(1, "perm-basics")
    seq = [sample_matrix(tropical(), 2, rng) for _ in range(4)]
    assert apply_perm_product(seq, identity_perm(4)) == seq_product(seq)
    with pytest.raises(DomainError, match=r"is not a permutation of 0\.\.3"):
        apply_perm_product(seq, (0, 1, 2))
    with pytest.raises(DomainError, match=r"is not a permutation of 0\.\.3"):
        apply_perm_product(seq, (0, 0, 1, 2))


def test_swapping_equal_matrices_is_neutral():
    rng = derive_rng(2, "equal-swap")
    a = sample_matrix(trunc(1, 3), 2, rng)
    b = sample_matrix(trunc(1, 3), 2, rng)
    seq = [a, a, b]
    assert apply_perm_product(seq, (1, 0, 2)) == seq_product(seq)


def test_commuting_diagonal_reversal():
    desc = trunc(1, 3)
    d1 = Matrix.make(desc, FULL, [[2, NEG_INF], [NEG_INF, F(5, 2)]])
    d2 = Matrix.make(desc, FULL, [[F(3, 2), NEG_INF], [NEG_INF, 1]])
    assert apply_perm_product([d1, d2], (1, 0)) == seq_product([d1, d2])


def test_perm_kind():
    assert perm_kind(transposition(5, 1, 2)) == "adjacent_transposition"
    assert perm_kind(transposition(5, 0, 3)) == "transposition"
    assert perm_kind((1, 2, 0)) == "general"


# -- the search ladder ---------------------------------------------------------


def test_equal_pair_strategy():
    rng = derive_rng(3, "ladder-equal")
    a = sample_matrix(chain(5), 2, rng)
    b = sample_matrix(chain(5), 2, rng)
    w = find_preserving_permutation([a, a, b])
    assert isinstance(w, Found) and w.strategy == "equal_pair" and w.perm == (1, 0, 2)


def test_identity_only_for_rigid_families():
    w = find_preserving_permutation(witness_U3_Nmax(5))
    assert w == IdentityOnly(5)
    assert exhaustive_identity_only(witness_U3_Nmax(4))
    assert exhaustive_identity_only(witness_U3_negNmax(4))


def test_exhaustive_identity_only_basics():
    rng = derive_rng(4, "exh")
    a = sample_matrix(boolean(), 2, rng)
    assert not exhaustive_identity_only([a, a])
    with pytest.raises(DomainError, match="sweeping 10 matrices exceeds the search budget of 40000000 scalar products"):
        exhaustive_identity_only([a] * 10)  # W(10, 2) is past the budget; W(9, 2) is not
    # appending a duplicate of any member forces a witness to exist
    seq = witness_U3_Nmax(4)
    assert exhaustive_identity_only(seq)
    assert not exhaustive_identity_only(list(seq) + [seq[0]])


def _lex_first_preserving(seq):
    """Brute-force oracle: the first non-identity ordering, in lexicographic
    order, whose product equals the identity-order product."""
    target = seq_product(seq)
    orderings = permutations(range(len(seq)))
    next(orderings)  # the identity comes first
    for perm in orderings:
        if apply_perm_product(seq, perm) == target:
            return perm
    return None


def _swept(seq, target):
    """What the ladder returns when the sweep decides: its first hit, or identity-only."""
    hit = _exhaustive_search(seq, target)
    return IdentityOnly(len(seq)) if hit is None else Found(hit, perm_kind(hit), "exhaustive")


def _small_tropical(n, rng):
    # entries mod 5 make equal prefix products, and so dead states, common
    rows = [[NEG_INF if rng.randrange(8) == 0 else rng.randrange(5) for _ in range(n)] for _ in range(n)]
    return Matrix.make(tropical(), FULL, rows)


def _shifted(a, c):
    rows = [[v if v is NEG_INF else v + c for v in row] for row in a.entries]
    return Matrix.make(a.semiring, a.family, rows)


def _small_uni(rng):
    desc = nat_max(adjoined_zero=True)
    rows = [[ADJOINED_ID if j == i else (rng.randint(1, 3) if j > i else NEG_INF) for j in range(3)]
            for i in range(3)]
    return Matrix.make(desc, UNI, rows)


def _rigid(family, m):
    return (witness_U3_Nmax, witness_U3_negNmax, lambda m: witness_M3_trunc(3, F(1, 2), m))[family](m)


def _weak_member(seq, rng):
    # each above-diagonal entry is one of the two least of the family; in
    # front of a rigid tuple the first witness then often moves it, after a
    # pruned sweep of every ordering that starts with it
    rows = [list(row) for row in seq[0].entries]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        values = sorted({m.entries[i][j] for m in seq})
        rows[i][j] = values[rng.randrange(min(2, len(values)))]
    return Matrix.make(seq[0].semiring, seq[0].family, rows)


def _coarse_trunc13(rng):
    """A 2x2 trunc(1,3) matrix on the grid of denominator 2, whose few values make products collide."""
    desc = trunc(1, 3)
    draw = _drawer(desc, 2)[0]
    return Matrix.make(desc, FULL, [[draw(rng.getrandbits) for _ in range(2)] for _ in range(2)])


def _differential_cases():
    rng = derive_rng(12, "dead-states")
    cases = []
    for i in range(240):
        kind, k, family = i % 6, 4 + (i // 6) % 4, (i // 24) % 3
        if kind == 0:
            seq = [_small_tropical(2 + family % 2, rng) for _ in range(k)]
            if family == 2:  # A and A+c swap without changing the product
                seq[rng.randrange(k)] = _shifted(seq[rng.randrange(k)], rng.randint(1, 3))
        elif kind == 1:
            seq = [_coarse_trunc13(rng) for _ in range(k)]
        elif kind == 2:
            seq = [sample_matrix(chain(5), 2, rng) for _ in range(k)]
        elif kind == 3:
            seq = [_small_uni(rng) for _ in range(k)]
        elif kind == 4:
            seq = _rigid(family, min(k, 6))
            if k == 7:  # a rigid tuple with one member repeated has a witness
                seq = seq + [seq[rng.randrange(6)]]
        else:
            seq = _rigid(family, k - 1)
            seq = [_weak_member(seq, rng)] + seq
        cases.append(seq)
    for i in range(90):
        kind, k = i % 3, 2 + (i // 3) % 5
        if kind == 0:  # k <= 3 (or n = 1) runs the row sweep from the root
            seq = [_small_tropical(1 + (i // 15) % 3, rng) for _ in range(min(k, 3))]
        elif kind == 1:
            seq = [sample_matrix(chain(4), 3, rng, UNI) for _ in range(k)]
        else:
            seq = [_row_zero_decoy(rng) for _ in range(k)]
        cases.append(seq)
    return cases


def _row_zero_decoy(rng):
    # row 0 of every product of these is (0, -inf), so each ordering matches
    # the target's row 0 and only the full comparison tells them apart
    return Matrix.make(tropical(), FULL, [[0, NEG_INF], [rng.randrange(4), rng.randrange(3)]])


def test_exhaustive_search_agrees_with_brute_force():
    """The dead-state memo prunes only subtrees without a witness, and the
    row sweep below it rejects only leaves that differ from the target, so
    the sweep returns exactly the oracle's lexicographically first hit."""
    found = identity_only = 0
    for seq in _differential_cases():
        expected = _lex_first_preserving(seq)
        assert _exhaustive_search(seq, seq_product(seq)) == expected
        if expected is None:
            identity_only += 1
        else:
            found += 1
    assert found >= 150 and identity_only >= 30


@pytest.mark.parametrize("m, products, row_products", [(6, 150, 1110), (7, 776, 2820), (8, 3024, 5730)])
def test_exhaustive_search_product_counts(monkeypatch, m, products, row_products):
    # the plain depth-first sweep takes 1,950 / 13,692 / 109,592 matrix
    # products here; each pair sums to the 1,260 / 3,596 / 8,754 matrix
    # products the memoized sweep takes without its row-vector bottom
    calls = rows = 0

    def counting_mat_mul(a, b):
        nonlocal calls
        calls += 1
        return mat_mul(a, b)

    def counting_row_kernel(semiring, family):
        assert family == UNI  # the count is of the unitriangular row loop
        kernel = _row_kernel(semiring, family)

        def counted(i, row, cols):
            nonlocal rows
            rows += 1
            return kernel(i, row, cols)

        return counted

    monkeypatch.setattr(permutability, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(permutability, "_row_kernel", counting_row_kernel)
    seq = witness_U3_Nmax(m)
    assert _exhaustive_search(seq, seq_product(seq)) is None
    assert (calls, rows) == (products, row_products)


@pytest.mark.parametrize("k", [6, 8])
def test_transposition_scan_product_count(monkeypatch, k):
    # Each candidate (i, j) multiplies its present parts: prefix (i > 0),
    # seq[j], middle (j > i+1), seq[i], suffix (j < k-1).  The running
    # middle is extended for j = i+2..k-2 only, never past the last j.
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    expected = sum((i > 0) + 1 + (j > i + 1) + (j < k - 1) for i, j in pairs)
    expected += (k - 3) * (k - 2) // 2
    assert expected == {6: 51, 8: 106}[k]
    calls = 0

    def counting_mat_mul(a, b):
        nonlocal calls
        calls += 1
        return mat_mul(a, b)

    def counting_sweep(seq, target):  # the rung's count is read when the sweep starts
        swept.append(calls)
        return _exhaustive_search(seq, target)

    swept = []
    monkeypatch.setattr(permutability, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(permutability, "_exhaustive_search", counting_sweep)
    policy = SearchPolicy(try_equal_pair=False, try_adjacent=False)
    assert find_preserving_permutation(witness_U3_Nmax(k), policy) == IdentityOnly(k)
    assert swept == [expected]


def _wide_tropical(n, rng):
    # entries from a wide range rarely collide, so most such tuples are identity-only
    rows = [[NEG_INF if rng.randrange(8) == 0 else rng.randint(-256, 256) for _ in range(n)] for _ in range(n)]
    return Matrix.make(tropical(), FULL, rows)


def _row_zero_flat(n, k, rng):
    """k tropical n x n matrices whose row 0 is (c, -inf, ..., -inf).

    Row 0 of every ordering's product is then (sum of the c, -inf, ...), so
    each leaf of the sweep matches the target's row 0 and is multiplied out.
    """
    rows = lambda: [[rng.randint(-256, 256) for _ in range(n)] for _ in range(n - 1)]
    return [Matrix.make(tropical(), FULL, [[rng.randint(-9, 9)] + [NEG_INF] * (n - 1)] + rows()) for _ in range(k)]


def _sweep_scalar_products(monkeypatch, seq):
    """The scalar products ``_exhaustive_search`` takes on ``seq``: n^3 per matrix product, n^2 per row product."""
    n = seq[0].n
    count = 0

    def counting_mat_mul(a, b):
        nonlocal count
        count += n**3
        return mat_mul(a, b)

    def counting_row_kernel(semiring, family):
        kernel = _row_kernel(semiring, family)

        def counted(i, row, cols):
            nonlocal count
            count += n**2
            return kernel(i, row, cols)

        return counted

    with monkeypatch.context() as patched:
        patched.setattr(permutability, "mat_mul", counting_mat_mul)
        patched.setattr(permutability, "_row_kernel", counting_row_kernel)
        hit = _exhaustive_search(seq, seq_product(seq))
    return hit, count


def _identity_only_count(monkeypatch, draw):
    """The sweep's scalar products on the first of ten drawn tuples that is identity-only."""
    return next(count for hit, count in (_sweep_scalar_products(monkeypatch, draw()) for _ in range(10)) if hit is None)


def test_the_sweep_takes_at_most_its_worst_case(monkeypatch):
    rng = derive_rng(31, "sweep-cost")
    for n, k in [(3, 2), (2, 3), (2, 5), (2, 6), (3, 6), (3, 7), (3, 8)]:
        count = _identity_only_count(monkeypatch, lambda: [_wide_tropical(n, rng) for _ in range(k)])
        assert 0 < count <= permutability._sweep_cost(k, n), (k, n, count)
    for family in range(3):
        for m in (4, 6, 8):
            hit, count = _sweep_scalar_products(monkeypatch, _rigid(family, m))
            assert hit is None and 0 < count <= permutability._sweep_cost(m, 3), (family, m, count)


@pytest.mark.parametrize("k", [4, 5, 7])
def test_the_sweep_nears_its_worst_case_when_every_leaf_is_multiplied_out(monkeypatch, k):
    n = 3
    rng = derive_rng(32, "row-zero-flat", str(k))
    count = _identity_only_count(monkeypatch, lambda: _row_zero_flat(n, k, rng))
    worst = permutability._sweep_cost(k, n)
    leaves = 3 * n**3 * math.factorial(k)
    assert worst - leaves < count <= worst, (count, worst, leaves)


def test_the_sweep_cost_of_a_long_tuple_is_settled_at_once():
    started = time.perf_counter()
    assert permutability._sweep_cost(20553, 2) > permutability.SEARCH_BUDGET
    assert time.perf_counter() - started < 1e-3
    # the longest tuple swept at each dimension
    assert [max(k for k in range(2, 12) if permutability._sweep_cost(k, n) <= permutability.SEARCH_BUDGET)
            for n in range(1, 8)] == [10, 9, 9, 8, 8, 8, 7]
    assert (permutability._sweep_cost(8, 6), permutability._sweep_cost(9, 3)) == (31_655_232, 39_696_480)
    assert permutability._sweep_cost(7, 3) == 551_124


def test_each_rung_runs_only_as_far_as_the_budget_admits(monkeypatch):
    seq = witness_U3_Nmax(5)  # identity-only, so every rung runs to its end
    verified = permutability._verified

    def proposals(budget, trials):
        proposed = []

        def recording(seq, target, candidate, strategy):
            proposed.append((strategy, candidate))
            return verified(seq, target, candidate, strategy)

        with monkeypatch.context() as patched:
            patched.setattr(permutability, "SEARCH_BUDGET", budget)
            patched.setattr(permutability, "_verified", recording)
            w = find_preserving_permutation(seq, SearchPolicy(try_adjacent=False, random_trials=trials))
        return w, [s for s, _ in proposed], [c for s, c in proposed if s == "random"]

    pairs = 5 * 10 * 27  # at most five 3x3 products for each of the 10 pairs
    unbounded = 10**9
    # the shuffles drawn under the budget are the first ones of the seeded stream
    w, strategies, shuffles = proposals(pairs, 100)  # 10 shuffles of at most 5 * 27 scalar products
    assert isinstance(w, NoneFoundUnderPolicy) and strategies.count("transposition") == 10
    assert shuffles == proposals(unbounded, 10)[2] and len(shuffles) >= 9
    w, strategies, shuffles = proposals(pairs - 1, 100)
    assert isinstance(w, NoneFoundUnderPolicy) and "transposition" not in strategies
    assert shuffles == proposals(unbounded, 9)[2]
    assert proposals(5 * 27 - 1, 100)[1] == []
    # the sweep runs once its worst case fits
    assert proposals(permutability._sweep_cost(5, 3), 0)[0] == IdentityOnly(5)
    assert isinstance(proposals(permutability._sweep_cost(5, 3) - 1, 0)[0], NoneFoundUnderPolicy)


def test_exhaustive_search_frees_its_memo_on_return(monkeypatch):
    """The memo itself dies when the search returns, before any collection.

    Bytes still held after the return are no measure of this: the
    interpreter keeps freed tuples on free lists.  So the root call's memo is
    watched through a weak reference, with the cyclic collector off.
    """
    sweep = permutability._sweep
    memos = []

    def watching_sweep(seq, target, tail, chosen, dead, *rest):
        hit = sweep(seq, target, tail, chosen, dead, *rest)
        if not chosen:  # the root call
            memos.append((len(dead), weakref.ref(dead)))
        return hit

    monkeypatch.setattr(permutability, "_sweep", watching_sweep)
    seq = witness_U3_Nmax(8)
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the memo must not wait for the cyclic collector
    try:
        assert _exhaustive_search(seq, seq_product(seq)) is None
        [(states, memo)] = memos
        assert states > 500
        assert memo() is None
    finally:
        if gc_was_enabled:
            gc.enable()


def test_adjacent_fast_path_agrees_with_naive():
    rng = derive_rng(5, "adjacent-agree")
    for i in range(1000):
        desc = [chain(4), trunc(1, 2), boolean(), tropical()][i % 4]
        k = rng.randint(2, 7)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        target = seq_product(seq)
        policy = SearchPolicy(try_equal_pair=False, try_all_transpositions=False, random_trials=0)
        w = find_preserving_permutation(seq, policy)
        naive = None
        for t in range(k - 1):
            if apply_perm_product(seq, transposition(k, t, t + 1)) == target:
                naive = transposition(k, t, t + 1)
                break
        if naive is None:
            assert w == _swept(seq, target)
        else:
            assert isinstance(w, Found) and w.perm == naive and w.strategy == "adjacent"


@pytest.mark.parametrize("adjacent", [True, False])
def test_transposition_scan_agrees_with_naive(adjacent):
    # the general rung scans gaps >= 2 behind the adjacent rung, gaps >= 1 alone
    rng = derive_rng(13, "transposition-agree", str(adjacent))
    first_gap = 2 if adjacent else 1
    found = 0
    for i in range(500):
        desc = [chain(4), trunc(1, 2), boolean(), tropical()][i % 4]
        k = rng.randint(2, 7)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        target = seq_product(seq)
        policy = SearchPolicy(try_equal_pair=False, try_adjacent=adjacent, random_trials=0)
        w = find_preserving_permutation(seq, policy)
        if adjacent and isinstance(w, Found) and w.strategy == "adjacent":
            continue
        naive = next((transposition(k, i, j) for i in range(k) for j in range(i + first_gap, k)
                      if apply_perm_product(seq, transposition(k, i, j)) == target), None)
        if naive is None:
            assert w == _swept(seq, target)
        else:
            found += 1
            assert isinstance(w, Found) and w.perm == naive and w.strategy == "transposition"
    assert found >= (10 if adjacent else 300)


def test_found_witnesses_reverify():
    rng = derive_rng(6, "reverify")
    for i in range(100):
        desc = [chain(4), boolean(), trunc(1, 2)][i % 3]
        k = rng.randint(2, 6)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        w = find_preserving_permutation(seq, SearchPolicy(random_trials=20, seed=i))
        if isinstance(w, Found):
            assert w.perm != identity_perm(k)
            assert apply_perm_product(seq, w.perm) == seq_product(seq)


def test_transposition_stage_and_policy_gates():
    # a, b do not commute, so in [a, b, a] no adjacent swap preserves the
    # product but the outer transposition trivially does
    a = Matrix.make(tropical(), FULL, [[0, 1], [NEG_INF, 0]])
    b = Matrix.make(tropical(), FULL, [[0, NEG_INF], [1, 0]])
    assert mat_mul(a, b) != mat_mul(b, a)
    seq = [a, b, a]
    no_equal = SearchPolicy(try_equal_pair=False, try_adjacent=False, random_trials=0)
    w = find_preserving_permutation(seq, no_equal)
    assert isinstance(w, Found) and w.perm == (2, 1, 0) and w.strategy == "transposition"
    nothing = SearchPolicy(try_equal_pair=False, try_adjacent=False, try_all_transpositions=False,
                           random_trials=0)
    assert find_preserving_permutation(seq, nothing) == _swept(seq, seq_product(seq))
    # ten 2x2 matrices are past the sweep's budget, so no rung runs
    assert isinstance(find_preserving_permutation([a, b] * 5, nothing), NoneFoundUnderPolicy)


def test_random_stage_is_deterministic():
    rng = derive_rng(8, "rand-stage")
    seq = [sample_matrix(boolean(), 2, rng) for _ in range(10)]
    policy = SearchPolicy(try_equal_pair=False, try_adjacent=False, try_all_transpositions=False,
                          random_trials=50, seed=123)  # ten 2x2 matrices are past the sweep's budget
    w1 = find_preserving_permutation(seq, policy)
    w2 = find_preserving_permutation(seq, policy)
    assert w1 == w2


def test_pigeonhole_boolean_17():
    rng = derive_rng(9, "pigeon")
    for _ in range(50):
        seq = [sample_matrix(boolean(), 2, rng) for _ in range(17)]
        w = find_preserving_permutation(seq)
        assert isinstance(w, Found) and w.strategy == "equal_pair"


# -- path assignments ------------------------------------------------------------


def test_path_assignment_trivia():
    desc = chain(4)
    m = Matrix.make(desc, FULL, [[Atom(1), Atom(2)], [Atom(3), Atom(0)]])
    pa = path_assignment([m], (0,))
    for x in range(2):
        for y in range(2):
            assert pa.edges[0][x][y] == (x, y)
    one = Matrix.make(desc, FULL, [[Atom(2)]])
    pa = path_assignment([one, one, one], (2, 0, 1))
    assert all(pa.edges[i][0][0] == (0, 0) for i in range(3))
    with pytest.raises(DomainError):
        path_assignment([Matrix.make(tropical(), "ut", [[1, 2], [NEG_INF, 3]])], (0,))


def test_reconstruction_identity_random():
    rng = derive_rng(10, "pa-recon")
    for i in range(300):
        desc = [chain(4), boolean(), trunc(1, 2), tropical()][i % 4]
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        seq = [sample_matrix(desc, n, rng) for _ in range(k)]
        perm = list(range(k))
        rng.shuffle(perm)
        perm = tuple(perm)
        pa = path_assignment(seq, perm)
        assert reconstruct_from_assignment(seq, pa) == apply_perm_product(seq, perm)


def test_equal_assignments_give_equal_products():
    from itertools import permutations

    rng = derive_rng(11, "pa-collide")
    seq = [sample_matrix(boolean(), 2, rng) for _ in range(4)]
    by_pa = {}
    collisions = 0
    for perm in permutations(range(4)):
        pa = path_assignment(seq, perm)
        prod = apply_perm_product(seq, perm)
        if pa in by_pa:
            collisions += 1
            assert by_pa[pa] == prod
        else:
            by_pa[pa] = prod
    assert collisions > 0  # booleans collide a lot at k=4


# -- the weak-permutability bound --------------------------------------------------


def _weak_bound_oracle(n: int) -> int:
    # independent linear scan with running factorial and power
    c = n ** (2 * n * n)
    kfact, cpow, k = 1, 1, 0
    while True:
        k += 1
        kfact *= k
        cpow *= c
        if kfact > cpow:
            return k


def test_weak_bound():
    assert weak_bound(1) == 2
    k2 = weak_bound(2)
    assert k2 == _weak_bound_oracle(2)
    c = 2 ** 8
    import math

    assert math.factorial(k2) > c ** k2
    assert math.factorial(k2 - 1) <= c ** (k2 - 1)
    with pytest.raises(DomainError):
        weak_bound(0)


def test_weak_bound_refuses_n_3_and_up_at_once():
    # n = 3 would need factorials of about e * 3^18 terms; the guard answers first
    for n in (3, 4, 10**6):
        with pytest.raises(DomainError, match="n <= 2"):
            weak_bound(n)


# -- the transposition path of _verified ----------------------------------------


_SWAP_K = 200
# j below, on and past the checkpoint boundaries, and at the ends
_SWAP_JS = (1, 2, 62, 63, 64, 65, 66, 127, 128, 129, 130, 191, 192, 193, _SWAP_K - 2, _SWAP_K - 1)


_SWAP_PAIRS = sorted({(i, j) for j in _SWAP_JS for i in (0, 1, j // 2, j - 2, j - 1) if 0 <= i < j})
_PLANTED = ((0, 63), (1, 64), (64, 128), (62, _SWAP_K - 1))  # equal pairs


def _order_sensitive_uni(t, rng):
    """A unitriangular tropical factor at position t.  Entry (0, 2) of a
    product is the greatest a01 + b12 over ordered pairs of factors, so
    factors with a01 = t and a12 = -t change it when they swap, and factors
    that carry only a small a02 commute with every factor."""
    if rng.randrange(2):
        v, w, u = t, -t, NEG_INF
    else:
        v, w, u = NEG_INF, NEG_INF, -1000 - rng.randrange(100)
    return Matrix.make(tropical(), UNI, [[ADJOINED_ID, v, u], [NEG_INF, ADJOINED_ID, w], [NEG_INF, NEG_INF, ADJOINED_ID]])


def _swap_sequences():
    """Random factors at every swapped position and the identity elsewhere,
    so that long products do not saturate and some swaps change them."""
    rng = derive_rng(14, "swap-path")
    active = {t for pair in _SWAP_PAIRS for t in pair}
    for desc, n, family, diagonal in ((chain(40), 2, FULL, Atom(39)), (trunc(1, 2), 2, FULL, 0),
                                      (tropical(), 2, FULL, 0), (tropical(), 3, UNI, ADJOINED_ID)):
        zero = desc.zero_element()
        identity = Matrix.make(desc, family, [[diagonal if x == y else zero for y in range(n)] for x in range(n)])
        seq = [identity] * _SWAP_K
        for t in sorted(active):
            seq[t] = _order_sensitive_uni(t, rng) if family == UNI else sample_matrix(desc, n, rng, family)
        for i, j in _PLANTED:
            seq[j] = seq[i]
        yield f"{desc.family}/{family}", seq


def test_swap_decisions_agree_with_the_permuted_product():
    """Both ways a swap is handed to ``_verified`` (the parts a ladder rung
    holds, and the parts rebuilt from right-to-left checkpoints) decide
    exactly what multiplying out the permuted sequence decides."""
    for label, seq in _swap_sequences():
        target = seq_product(seq)
        total, checkpoints = permutability._checkpointed_total(seq)
        assert total == target
        assert sorted(checkpoints) == list(range(0, _SWAP_K, permutability._SUFFIX_CHECKPOINT))
        prefixes, suffixes = prefix_suffix_products(seq)
        outcomes = []
        for i, j in _SWAP_PAIRS:
            perm = transposition(_SWAP_K, i, j)
            expected = apply_perm_product(seq, perm) == target
            held = permutability._Swap(i, j, prefixes[i], _combine_plain(seq[i + 1:j]),
                                       suffixes[j + 1] if j + 1 < _SWAP_K else None)
            rebuilt = permutability._swap_at(seq, checkpoints, i, j)
            for candidate in (held, rebuilt):
                hit = permutability._verified(seq, target, candidate, "s")
                assert (hit is not None) == expected, (label, i, j)
                if hit is not None:
                    assert hit == Found(perm, perm_kind(perm), "s")
            outcomes.append(expected)
        assert outcomes.count(True) >= 5 and outcomes.count(False) >= 3, label


def _combine_plain(parts):
    return seq_product(parts) if parts else None


def _count_products(monkeypatch):
    """Count every matrix product, through the permutability module or not."""
    calls = []

    def counting_mat_mul(a, b):
        calls.append(None)
        return mat_mul(a, b)

    monkeypatch.setattr(permutability, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(matrices, "mat_mul", counting_mat_mul)
    return calls


def test_an_equal_pair_costs_no_product(monkeypatch):
    rng = derive_rng(15, "equal-pair-free")
    seq = [sample_matrix(trunc(1, 3), 2, rng) for _ in range(300)]
    seq[250] = seq[40]
    calls = _count_products(monkeypatch)
    w = find_preserving_permutation(seq, SearchPolicy(try_all_transpositions=False))
    assert w == Found(transposition(300, 40, 250), "transposition", "equal_pair")
    assert calls == []


_MISMATCHES = {
    "dimension": lambda a, rng: sample_matrix(a.semiring, 3, rng),
    "semiring": lambda a, rng: sample_matrix(trunc(1, 2), 2, rng),
    "family": lambda a, rng: sample_matrix(a.semiring, 2, rng, UT),
}


@pytest.mark.parametrize("kind", list(_MISMATCHES))
def test_a_mixed_sequence_with_an_equal_pair_raises_what_seq_product_raises(kind):
    rng = derive_rng(16, "mixed", kind)
    for desc in (nat_max(adjoined_zero=True), trunc(1, 3)):  # trunc(1, 3) has an integer image
        a, b = (sample_matrix(desc, 2, rng) for _ in range(2))
        seq = [a, b, a, _MISMATCHES[kind](a, rng)]
        with pytest.raises(BipermuteError) as expected:
            seq_product(seq)
        for search in (find_preserving_permutation, exhaustive_identity_only):
            with pytest.raises(BipermuteError) as got:
                search(seq)
            assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


# -- the integer image -------------------------------------------------------

_IMAGE_CARRIERS = (tropical(), trunc(1, 3), trunc(F(3, 2), F(7, 2)), trunc(0, F(5, 2)))


def _image_pool(desc):
    """-inf, 0, the bounds of a truncation and values between them; p/q entries for the tropical carrier."""
    if desc.family == "tropical":
        return [NEG_INF, 0, F(-3, 2), F(1, 3), F(5, 4), 2]
    x, y = desc.x, desc.y
    return [NEG_INF, 0, x, y, x + (y - x) / 3, x + (y - x) * F(3, 4)]


def _image_matrix(desc, n, family, rng):
    pool = _image_pool(desc)
    proper = [v for v in pool if v is not NEG_INF]

    def entry(i, j):
        if family == FULL or j > i:
            return rng.choice(pool)
        if j < i:
            return NEG_INF
        return ADJOINED_ID if family == UNI else rng.choice(proper)

    return Matrix.make(desc, family, [[entry(i, j) for j in range(n)] for i in range(n)])


def _rigid_image_tuple(desc, m):
    """A 3x3 tuple shaped like ``witness_M3_trunc``: 0 on the diagonal, a_i rising, b_i falling.

    The corner c lies above every a_s + b_t with s < t, and every inversion
    (u > v) puts a_u + b_v above c and below the truncation's top.
    """
    base = max(desc.x, 1) if desc.family == "trunc" else F(1, 2)
    eps = (desc.y - 2 * base) / (4 * m) if desc.family == "trunc" else F(1, 3 * m)
    return [Matrix.make(desc, FULL, [[0, base + i * eps, 2 * base + m * eps],
                                     [NEG_INF, 0, base + (m - i) * eps],
                                     [NEG_INF, NEG_INF, 0]]) for i in range(1, m + 1)]


def _image_sequences():
    """Seeded tuples, n in {2, 3} and k <= 7, plain or with a planted equal pair or swap.

    Random draws from ``_image_pool`` mostly have a cheap witness, so rigid
    3x3 tuples give the sweep identity-only cases.  A full tropical swap
    pairs A with A + c, a scalar shift that commutes with everything; any
    other swap puts A*A right after A.
    """
    for d, desc in enumerate(_IMAGE_CARRIERS):
        for case in range(18):
            rng = derive_rng(17, "integer-image", str(d), str(case))
            plant = (None, "equal", "swap")[case % 3]
            if case < 9:
                k, n, family = (3, 5, 7)[case // 3], 3, FULL
                seq = _rigid_image_tuple(desc, k)
            else:
                n, family = 2 + case % 2, (FULL, FULL, UT, UNI)[case % 4]
                k = rng.randint(2, 7 if n == 2 else 6)
                seq = [_image_matrix(desc, n, family, rng) for _ in range(k)]
            i = rng.randrange(k - 1)
            if plant == "equal":
                seq[rng.randrange(i + 1, k)] = seq[i]
            elif plant == "swap" and desc.family == "tropical" and family == FULL:
                seq[rng.randrange(i + 1, k)] = _shifted(seq[i], F(7, 3))
            elif plant == "swap":
                seq[i + 1] = mat_mul(seq[i], seq[i])
            yield f"{desc.family}[{desc.x},{desc.y}] n={n} {family} k={k} {plant}", seq


def _denominator_lcm(seq):
    desc = seq[0].semiring
    values = [v for m in seq for row in m.entries for v in row if isinstance(v, (int, F))]
    values += [desc.x, desc.y] if desc.family == "trunc" else []
    return math.lcm(*(F(v).denominator for v in values))


def test_the_integer_image_is_an_exact_integer_copy():
    for label, seq in _image_sequences():
        image = permutability._integer_image(seq)
        d = _denominator_lcm(seq)
        desc, scaled = seq[0].semiring, image[0].semiring
        assert all(m.semiring is scaled for m in image), label
        if desc.family == "trunc":
            assert (type(scaled.x), type(scaled.y)) == (int, int) and (scaled.x, scaled.y) == (d * desc.x, d * desc.y)
        for m in image:
            assert all(v is NEG_INF or v is ADJOINED_ID or type(v) is int for row in m.entries for v in row), label
        unscaled = tuple(tuple(v if v is NEG_INF or v is ADJOINED_ID else F(v, d) for v in row)
                         for row in seq_product(image).entries)
        assert unscaled == seq_product(seq).entries, label
        assert permutability._integer_image(image) is image  # an integer tuple is passed through


def test_integer_valued_and_other_tuples_are_passed_through():
    rng = derive_rng(18, "integer-image-pass")
    integral = [_small_tropical(3, rng) for _ in range(4)]
    chained = [sample_matrix(chain(5), 2, rng) for _ in range(4)]
    mixed = [_image_matrix(trunc(1, 3), 2, FULL, rng), _image_matrix(trunc(F(3, 2), F(7, 2)), 2, FULL, rng)]
    for seq in (integral, chained, witness_U3_Nmax(4), mixed, []):
        assert permutability._integer_image(seq) is seq


def test_searches_on_the_integer_image_agree_with_the_plain_path(monkeypatch):
    rungs_off = {"try_equal_pair": False, "try_adjacent": False, "try_all_transpositions": False}
    policies = (SearchPolicy(), SearchPolicy(**rungs_off),  # the whole ladder, then the sweep alone
                SearchPolicy(**{**rungs_off, "try_all_transpositions": True}),
                SearchPolicy(**rungs_off, random_trials=3, seed=5))
    seen = []
    for label, seq in _image_sequences():
        with_image = [find_preserving_permutation(seq, p) for p in policies] + [exhaustive_identity_only(seq)]
        with monkeypatch.context() as plain:
            plain.setattr(permutability, "_integer_image", lambda seq: seq)
            assert [find_preserving_permutation(seq, p) for p in policies] + [exhaustive_identity_only(seq)] \
                == with_image, label
        seen += [getattr(w, "strategy", type(w).__name__) for w in with_image[:-1]]
    # every rung decides on the image somewhere, and some tuples are identity-only
    assert set(seen) == {"equal_pair", "adjacent", "transposition", "random", "exhaustive",
                         "IdentityOnly"}, set(seen)
    assert seen.count("IdentityOnly") >= 10
