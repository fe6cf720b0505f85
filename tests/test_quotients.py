"""Congruence quotients, their verification, and the transposition finders."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from bipermute import matrices, permutability
from bipermute.errors import DomainError
from bipermute.matrices import FULL, Matrix, mat_mul, seq_product
from bipermute.permutability import Found, apply_perm_product
from bipermute.quotients import (
    CongruenceQuotient,
    Interval,
    Singleton,
    _skeleton,
    chain_class_bound,
    chain_congruence,
    kerperm_bound,
    kerperm_find_swap,
    protecting_congruence,
    trunc12_class_bound,
    trunc12_congruence,
    truncperm_bound,
    verify_congruence,
    xperm_bound,
    xperm_find,
)
from bipermute.sampling import derive_rng, sample_matrix, sample_scalar
from bipermute.scalars import NEG_INF, Atom
from bipermute.semirings import Check, chain, check_axioms, table_semiring, tropical, trunc


def test_chain_congruence_layout():
    q = chain_congruence(chain(10), [Atom(3), Atom(7)])
    assert q.classes == (
        Interval(Atom(0), Atom(2)),
        Singleton(Atom(3)),
        Interval(Atom(4), Atom(6)),
        Singleton(Atom(7)),
        Interval(Atom(8), Atom(9)),
    )
    assert [q.class_of(Atom(i)) for i in range(10)] == [0, 0, 0, 1, 2, 2, 2, 3, 4, 4]
    assert len(q.classes) <= 2 * 2 + 1


def test_chain_congruence_edges():
    assert len(chain_congruence(chain(6), []).classes) == 1
    q = chain_congruence(chain(4), [Atom(i) for i in range(4)])
    assert all(isinstance(c, Singleton) for c in q.classes)
    with pytest.raises(DomainError):
        chain_congruence(chain(4), [Atom(9)])
    with pytest.raises(DomainError):
        chain_congruence(trunc(1, 2), [Atom(0)])


def test_trunc12_congruence_layout():
    q = trunc12_congruence([F(3, 2)])
    assert q.classes == (
        Singleton(NEG_INF),
        Singleton(0),
        Interval(F(1), F(3, 2), lo_open=False, hi_open=True),
        Singleton(F(3, 2)),
        Interval(F(3, 2), F(2), lo_open=True, hi_open=False),
    )
    assert len(trunc12_congruence([]).classes) == 3
    # protected endpoints collapse their empty side intervals
    q2 = trunc12_congruence([1, 2])
    assert len(q2.classes) == 5  # {-inf},{0},{1},(1,2),{2}
    assert len(q2.classes) <= 2 * 2 + 3


def test_quotient_tables_are_lawful():
    for q in (
        chain_congruence(chain(10), [Atom(3), Atom(7)]),
        trunc12_congruence([F(3, 2), F(9, 8)]),
        trunc12_congruence([]),
    ):
        assert check_axioms(q.quotient_semiring()).passed


def test_verify_congruence_modes():
    # every carrier is checked exactly on its skeleton, however large
    for q in (
        chain_congruence(chain(10), [Atom(3), Atom(7)]),
        trunc12_congruence([F(3, 2)]),
        chain_congruence(chain(65), [Atom(3)]),
        chain_congruence(chain(10**12), [Atom(5), Atom(10**9)]),
    ):
        report = verify_congruence(q)
        assert report.passed and report.mode == "certified"


def test_the_skeleton_of_a_large_chain_has_three_atoms_per_long_gap():
    q = chain_congruence(chain(10**12), [Atom(5), Atom(10**9)])
    assert [a.index for a in _skeleton(q.source, q.classes)] == [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
        10**9 - 1, 10**9, 10**9 + 1, 10**9 + 2, 10**9 + 3, 10**9 + 4, 10**12 - 1,
    ]


def test_verify_congruence_negative_controls():
    # merging {0} into the first interval breaks the product law: 0 is the
    # identity while everything >= 1 multiplies to the top class
    src = trunc(1, 2)
    classes = (
        Singleton(NEG_INF),
        Interval(F(0), F(3, 2), lo_open=False, hi_open=True),
        Singleton(F(3, 2)),
        Interval(F(3, 2), F(2), lo_open=True, hi_open=False),
    )
    good = trunc12_congruence([F(3, 2)])
    corrupted = CongruenceQuotient(src, classes, (NEG_INF, 0, F(3, 2), F(7, 4)), good.tables)
    report = verify_congruence(corrupted)
    assert not report.passed
    # each law's first counterexample, in skeleton order
    assert report.checks == (
        Check("partition", True),
        Check("add_congruence", True),
        Check("mul_congruence", False, (0, 1, 1)),
        Check("table_consistency", False, (1, 1)),
    )

    # overlapping intervals break the partition check; the first class that
    # holds a point is its class, so the map itself is an order-convex
    # congruence, but the 3-class tables do not match it
    overlapping = CongruenceQuotient(
        src,
        (
            Singleton(NEG_INF),
            Singleton(0),
            Interval(F(1), F(8, 5), lo_open=False, hi_open=True),
            Interval(F(3, 2), F(2), lo_open=False, hi_open=False),
        ),
        (NEG_INF, 0, 1, F(7, 4)),
        trunc12_congruence([]).tables,
    )
    report = verify_congruence(overlapping)
    assert report.checks == (
        Check("partition", False, (F(3, 2),)),
        Check("add_congruence", True),
        Check("mul_congruence", True),
        Check("table_consistency", False, (NEG_INF, F(8, 5))),
    )


@pytest.mark.parametrize(
    "source",
    [trunc(1, 3), trunc(1, 5), tropical(), replace(chain(3), adjoined_zero=True)],
    ids=["trunc_1_3", "trunc_1_5", "tropical", "chain_with_adjoined_zero"],
)
def test_verify_congruence_refuses_a_source_outside_the_skeleton_argument(source):
    q = chain_congruence(chain(3), [Atom(1)])
    with pytest.raises(DomainError, match="congruences are verified over"):
        verify_congruence(CongruenceQuotient(source, q.classes, q.reps, q.tables))


def _rank(v):
    """Order key of a scalar or class end: -inf below every rational, atoms by index."""
    return (0, 0) if v is NEG_INF else (1, v.index if isinstance(v, Atom) else v)


def _member(cls, a) -> bool:
    if isinstance(cls, Singleton):
        return _rank(a) == _rank(cls.value)
    lo, hi, x = _rank(cls.lo), _rank(cls.hi), _rank(a)
    return (lo < x if cls.lo_open else lo <= x) and (x < hi if cls.hi_open else x <= hi)


def _whole_carrier_verdicts(q, carrier):
    """Each law's pass/fail on every case of a finite carrier, or "uncovered" if a point has no class."""
    held = [[i for i, k in enumerate(q.classes) if _member(k, a)] for a in carrier]
    if not all(held):
        return "uncovered"
    cls = {a: h[0] for a, h in zip(carrier, held)}
    # the class of each sum and product, by carrier positions
    add = [[cls[q.source._add(a, c)] for c in carrier] for a in carrier]
    mul = [[cls[q.source._mul(a, c)] for c in carrier] for a in carrier]
    of = [cls[a] for a in carrier]
    pos = range(len(carrier))
    same = [(i, j) for i in pos for j in pos if of[i] == of[j]]
    size = q.tables.size

    def consistent(i, k):
        ci, ck = of[i], of[k]
        return max(ci, ck) < size and mul[i][k] == q.tables.mul[ci][ck] and add[i][k] == q.tables.add[ci][ck]

    return {
        "partition": all(len(h) == 1 for h in held),
        "add_congruence": all(add[i][k] == add[j][k] for i, j in same for k in pos),
        "mul_congruence": all(mul[i][k] == mul[j][k] and mul[k][i] == mul[k][j] for i, j in same for k in pos),
        "table_consistency": all(consistent(i, k) for i in pos for k in pos),
    }


def _skeleton_verdicts(q):
    try:
        return {c.name: c.passed for c in verify_congruence(q).checks}
    except DomainError:
        return "uncovered"


def _corrupt(q, rng, ends, other_tables):
    """``q`` with one or two random faults: a moved end, a flipped open end, a class
    moved to the front, a class replaced by a random interval, a singleton put
    in front of the class that holds it, or foreign tables."""
    classes, tables = list(q.classes), q.tables
    for _ in range(rng.randint(1, 2)):
        i, fault = rng.randrange(len(classes)), rng.randrange(7)
        c = classes[i]
        if fault == 0 and isinstance(c, Interval):
            side = rng.choice(["lo", "hi"])
            classes[i] = replace(c, **{side: rng.choice(ends)})
        elif fault == 1 and isinstance(c, Singleton):
            classes[i] = Singleton(rng.choice(ends))
        elif fault == 2 and isinstance(c, Interval):
            side = rng.choice(["lo_open", "hi_open"])
            classes[i] = replace(c, **{side: not getattr(c, side)})
        elif fault == 3:
            classes.insert(0, classes.pop(i))
        elif fault == 4:
            lo, hi = sorted(rng.sample(ends, 2), key=_rank)
            classes[i] = Interval(lo, hi, rng.random() < 0.3, rng.random() < 0.3)
        elif fault == 5:
            classes.insert(0, Singleton(rng.choice(ends)))
        else:
            tables = other_tables
    return CongruenceQuotient(q.source, tuple(classes), q.reps, tables)


def _assert_every_law_both_holds_and_fails(verdicts):
    for law in ("partition", "add_congruence", "mul_congruence", "table_consistency"):
        assert {v[law] for v in verdicts if v != "uncovered"} == {True, False}, law


def test_skeleton_verdicts_match_the_whole_carrier_on_chains():
    rng = derive_rng(28, "skeleton-chains")
    verdicts = []
    for case in range(600):
        n = rng.randint(1, 24)
        desc = chain(n)
        marks = [Atom(i) for i in rng.sample(range(n), rng.randint(0, min(n, 4)))]
        q = chain_congruence(desc, marks)
        if case % 4:
            ends = [Atom(i) for i in range(-1, n + 1)]
            other = chain_congruence(desc, [Atom(rng.randrange(n))]).tables
            q = _corrupt(q, rng, ends, other)
        verdicts.append(_whole_carrier_verdicts(q, desc.carrier_elements()))
        assert _skeleton_verdicts(q) == verdicts[-1], (n, q.classes)
    _assert_every_law_both_holds_and_fails(verdicts)


def test_skeleton_verdicts_match_a_fine_grid_on_the_truncation_12():
    # class ends on the 1/8 grid; the reference grid of 1/40 puts four points
    # in each gap, none of them a skeleton point of a gap of 1/8
    rng = derive_rng(28, "skeleton-trunc12")
    carrier = [NEG_INF, 0, *(1 + F(i, 40) for i in range(41))]
    carrier = [v.numerator if isinstance(v, F) and v.denominator == 1 else v for v in carrier]
    ends = [NEG_INF, 0, *(1 + F(i, 8) for i in range(-1, 10))]
    verdicts = []
    for case in range(120):
        q = trunc12_congruence([1 + F(i, 8) for i in rng.sample(range(9), rng.randint(0, 3))])
        if case % 4:
            q = _corrupt(q, rng, ends, trunc12_congruence([1 + F(rng.randrange(9), 8)]).tables)
        verdicts.append(_whole_carrier_verdicts(q, carrier))
        assert _skeleton_verdicts(q) == verdicts[-1], q.classes
    _assert_every_law_both_holds_and_fails(verdicts)


def test_verify_congruence_reports_a_short_table_at_its_first_counterexample():
    # a chain(10) quotient with 5 classes given the tables of a 3-class one:
    # class 3 has no row, so the first pair that reaches it is inconsistent
    q = chain_congruence(chain(10), [Atom(3), Atom(7)])
    short = CongruenceQuotient(q.source, q.classes, q.reps, chain_congruence(chain(10), [Atom(5)]).tables)
    assert verify_congruence(short).checks == (
        Check("partition", True),
        Check("add_congruence", True),
        Check("mul_congruence", True),
        Check("table_consistency", False, (Atom(0), Atom(7))),
    )


def test_kernel_image_is_a_homomorphism():
    rng = derive_rng(30, "psi-hom")
    q = trunc12_congruence([F(5, 4), F(7, 4)])
    for _ in range(100):
        a = sample_matrix(trunc(1, 2), 2, rng)
        b = sample_matrix(trunc(1, 2), 2, rng)
        assert q.kernel_image(mat_mul(a, b)) == mat_mul(q.kernel_image(a), q.kernel_image(b))


def test_kernel_images_of_one_quotient_share_one_semiring():
    rng = derive_rng(38, "psi-shared")
    q = chain_congruence(chain(40), [Atom(3), Atom(17)])
    a, b = (q.kernel_image(sample_matrix(chain(40), 2, rng)) for _ in range(2))
    assert a.semiring is b.semiring is q.quotient_semiring()
    assert a.semiring == table_semiring(q.tables)


def test_kerperm_bounds():
    assert kerperm_bound(11, 2) == 14642
    assert kerperm_bound(9, 2) == 6562
    assert kerperm_bound(1, 5) == 2
    assert chain_class_bound(2) == 9 and trunc12_class_bound(2) == 11


def test_kerperm_find_swap_chain():
    rng = derive_rng(31, "kerperm-chain")
    desc = chain(40)
    seq = [sample_matrix(desc, 2, rng) for _ in range(kerperm_bound(9, 2))]
    w = kerperm_find_swap(seq)
    assert isinstance(w, Found)
    assert w.kind in ("transposition", "adjacent_transposition")
    assert apply_perm_product(seq, w.perm) == seq_product(seq)
    with pytest.raises(DomainError, match="need at least [0-9]+ matrices, got 100"):
        kerperm_find_swap(seq[:100])


def test_kerperm_find_swap_trunc12():
    rng = derive_rng(32, "kerperm-t12")
    desc = trunc(1, 2)
    seq = [sample_matrix(desc, 2, rng) for _ in range(kerperm_bound(11, 2))]
    w = kerperm_find_swap(seq)
    assert isinstance(w, Found)
    assert apply_perm_product(seq, w.perm) == seq_product(seq)
    with pytest.raises(DomainError):
        kerperm_find_swap([sample_matrix(trunc(1, 3), 2, rng) for _ in range(10)])


def _first_equal_images(q, seq):
    images = []
    for j, m in enumerate(seq):
        images.append(q.kernel_image(m))
        for i in range(j):
            if images[i] == images[j]:
                return i, j
    return None


@pytest.mark.parametrize("desc, classes", [(chain(40), 9), (trunc(1, 2), 11)])
def test_kerperm_find_swap_takes_the_first_equal_images(desc, classes):
    rng = derive_rng(36, "kerperm-first", str(desc.family))
    k = kerperm_bound(classes, 2)
    for _ in range(3):
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        total = seq_product(seq)
        q = protecting_congruence(desc, [v for row in total.entries for v in row])
        w = kerperm_find_swap(seq)
        assert w.strategy == "kernel_pair"
        assert [t for t, v in enumerate(w.perm) if v != t] == list(_first_equal_images(q, seq))


def test_protecting_congruence_dispatch():
    assert protecting_congruence(chain(10), [Atom(3), Atom(7)]) == chain_congruence(chain(10), [Atom(3), Atom(7)])
    assert protecting_congruence(trunc(1, 2), [F(3, 2)]) == trunc12_congruence([F(3, 2)])
    for desc in (trunc(1, 3), tropical()):
        with pytest.raises(DomainError):
            protecting_congruence(desc, [])


def test_protecting_congruence_is_exported_from_the_package():
    import bipermute

    assert bipermute.protecting_congruence is protecting_congruence


# -- the pattern finder ---------------------------------------------------------


def smat(desc, a, b):
    return Matrix.make(desc, FULL, [[0, a], [NEG_INF, b]])


def test_xperm_bounds():
    assert xperm_bound(3) == 11
    assert xperm_bound(F(5, 2)) == 11
    assert truncperm_bound(3) == 20553


def test_xperm_case_routing():
    desc = trunc(1, 3)
    base = [smat(desc, 1, 2) for _ in range(11)]

    right_zero = list(base)
    right_zero[5] = smat(desc, 2, NEG_INF)
    w = xperm_find(right_zero)
    assert w.strategy == "right_zero" and w.perm[:2] == (1, 0)
    assert apply_perm_product(right_zero, w.perm) == seq_product(right_zero)

    diagonal = list(base)
    diagonal[3] = smat(desc, NEG_INF, 2)
    diagonal[4] = smat(desc, NEG_INF, F(5, 2))
    w = xperm_find(diagonal)
    assert w.strategy == "diagonal_pair" and w.perm[3:5] == (4, 3)

    unitri = list(base)
    unitri[6] = smat(desc, 1, 0)
    unitri[7] = smat(desc, 2, 0)
    w = xperm_find(unitri)
    assert w.strategy == "unitriangular_pair" and w.perm[6:8] == (7, 6)

    saturated = [smat(desc, 1 + F(t, 16), 1 + F(t, 32)) for t in range(11)]
    w = xperm_find(saturated)
    assert w.strategy == "saturation" and w.perm[9:] == (10, 9)
    assert apply_perm_product(saturated, w.perm) == seq_product(saturated)


def test_xperm_transposed_family():
    desc = trunc(1, 3)
    rng = derive_rng(33, "xperm-sprime")
    for _ in range(200):
        seq = [
            Matrix.make(desc, FULL, [[0, NEG_INF], [sample_scalar(desc, rng), sample_scalar(desc, rng)]])
            for _ in range(11)
        ]
        w = xperm_find(seq)
        assert isinstance(w, Found)
        assert apply_perm_product(seq, w.perm) == seq_product(seq)


def test_xperm_pattern_mismatch():
    desc = trunc(1, 3)
    rng = derive_rng(34, "xperm-mismatch")
    good = [smat(desc, 1, 2) for _ in range(11)]
    bad = list(good)
    bad[4] = Matrix.make(desc, FULL, [[1, 1], [1, 1]])
    with pytest.raises(DomainError, match="matrices are not uniformly of the triangular pattern"):
        xperm_find(bad)
    with pytest.raises(DomainError, match=r"pattern finder works over a truncation \[1, z\] with z > 2"):
        xperm_find([sample_matrix(trunc(1, 2), 2, rng) for _ in range(11)])  # z must exceed 2


def test_xperm_never_falls_through_at_bound():
    rng = derive_rng(35, "xperm-sweep")
    desc = trunc(1, 3)
    k = xperm_bound(3)
    for _ in range(10_000):
        seq = [smat(desc, sample_scalar(desc, rng), sample_scalar(desc, rng)) for _ in range(k)]
        w = xperm_find(seq)  # InvariantViolation would raise
        assert isinstance(w, Found)


def test_kerperm_find_swap_takes_one_pass_and_o_j_more_products(monkeypatch):
    # the total right to left (k - 1 products), then the swap (i, j) from
    # the prefix, the middle and a suffix rebuilt from its checkpoint
    rng = derive_rng(37, "kerperm-count")
    desc = chain(40)
    k = kerperm_bound(chain_class_bound(2), 2)
    seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
    calls = []

    def counting_mat_mul(a, b):
        calls.append(None)
        return mat_mul(a, b)

    monkeypatch.setattr(permutability, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(matrices, "mat_mul", counting_mat_mul)
    w = kerperm_find_swap(seq)
    i, j = [t for t, v in enumerate(w.perm) if v != t]
    assert w.strategy == "kernel_pair"
    assert k - 1 < len(calls) <= (k - 1) + j + 64 + 3
