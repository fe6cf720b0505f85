"""Congruence quotients, their verification, and the transposition finders."""

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
    # the source carrier picks the mode: every case of at most 64 elements, else seeded draws
    report = verify_congruence(chain_congruence(chain(10), [Atom(3), Atom(7)]))
    assert report.passed and report.mode == "exhaustive"
    report = verify_congruence(trunc12_congruence([F(3, 2)]), seed=42, trials=10_000)
    assert report.passed and report.mode == "sampled"
    report = verify_congruence(chain_congruence(chain(65), [Atom(3)]), seed=1, trials=50)
    assert report.passed and report.mode == "sampled"


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
    report = verify_congruence(corrupted, seed=5, trials=4000)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "mul_congruence" in failed
    bad = next(c for c in report.checks if c.name == "mul_congruence")
    assert bad.counterexample is not None
    # each law's first counterexample, in the order the cases are drawn
    assert report.checks == (
        Check("partition", True),
        Check("add_congruence", True),
        Check("mul_congruence", False, (0, F(189, 128), F(9, 8))),
        Check("table_consistency", False, (F(153, 128), F(67, 64))),
    )

    # overlapping intervals break the partition check
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
    report = verify_congruence(overlapping, seed=6, trials=4000)
    assert not report.passed
    assert any(c.name == "partition" and not c.passed for c in report.checks)
    assert report.checks == (
        Check("partition", False, (F(3, 2),)),
        Check("add_congruence", False, (F(51, 32), F(127, 64), F(3, 2))),
        Check("mul_congruence", False, (F(225, 128), F(199, 128), 0)),
        Check("table_consistency", False, (F(91, 64), F(105, 64))),
    )


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
