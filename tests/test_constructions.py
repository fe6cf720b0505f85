"""Bicyclic embedding, scaling lifts, and the rigid witness families."""

from fractions import Fraction as F

import pytest

from bipermute.constructions import (
    BicyclicElement,
    bicyclic_mul,
    bicyclic_rho,
    default_epsilon,
    lift_scale_UT2,
    lift_to_full_Nmax,
    nmax_lift_scale_bound,
    witness_M3_trunc,
    witness_M3_trunc_partial_product,
    witness_U3_Nmax,
    witness_U3_Nmax_partial_product,
    witness_U3_negNmax,
    witness_U3_negNmax_partial_product,
)
from bipermute.errors import DomainError
from bipermute.matrices import UT, Matrix, mat_mul, seq_product
from bipermute.permutability import apply_perm_product, exhaustive_identity_only, transposition
from bipermute.sampling import derive_rng
from bipermute.scalars import ADJOINED_ID, NEG_INF
from bipermute.semirings import tropical


def rewrite_oracle(u: BicyclicElement, v: BicyclicElement) -> BicyclicElement:
    """Multiply normal forms by literally rewriting the word with pq -> 1."""
    word = ["q"] * u.i + ["p"] * u.j + ["q"] * v.i + ["p"] * v.j
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            if word[t] == "p" and word[t + 1] == "q":
                del word[t : t + 2]
                changed = True
                break
    i = word.count("q")
    j = word.count("p")
    assert word == ["q"] * i + ["p"] * j  # normal form reached
    return BicyclicElement(i, j)


def test_bicyclic_mul_examples_and_oracle():
    one = BicyclicElement(0, 0)
    p = BicyclicElement(0, 1)
    q = BicyclicElement(1, 0)
    assert bicyclic_mul(p, q) == one  # the defining relation
    assert bicyclic_mul(BicyclicElement(1, 1), BicyclicElement(1, 1)) == BicyclicElement(1, 1)
    assert bicyclic_mul(BicyclicElement(3, 0), BicyclicElement(4, 0)) == BicyclicElement(7, 0)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    u, v = BicyclicElement(i, j), BicyclicElement(k, l)
                    assert bicyclic_mul(u, v) == rewrite_oracle(u, v)


def test_rho_values():
    assert bicyclic_rho(BicyclicElement(0, 0)).entries == ((0, 0), (NEG_INF, 0))
    assert bicyclic_rho(BicyclicElement(1, 1)).entries == ((0, 2), (NEG_INF, 0))
    m = bicyclic_rho(BicyclicElement(2, 1))
    assert m.family == UT and m.semiring == tropical()
    assert m.entries == ((1, 3), (NEG_INF, -1))


def test_rho_homomorphism_and_injectivity():
    elements = [BicyclicElement(i, j) for i in range(8) for j in range(8)]
    images = {e: bicyclic_rho(e) for e in elements}
    for u in elements:
        for v in elements:
            assert mat_mul(images[u], images[v]) == bicyclic_rho(bicyclic_mul(u, v))
    assert len(set(images.values())) == len(elements)


# -- scaling lifts ----------------------------------------------------------------


def test_lift_scale_examples():
    m = Matrix.make(tropical(), UT, [[1, 2], [NEG_INF, -1]])
    lifted = lift_scale_UT2([m], -5)[0]
    assert lifted.entries == ((6, 7), (NEG_INF, 4))
    assert lifted.semiring.family == "nat_max" and lifted.semiring.adjoined_zero
    with pytest.raises(DomainError, match="is not strictly below entry"):
        lift_scale_UT2([m], -1)  # -1 is not strictly below the entry -1


def test_lift_scale_preserves_product_shape():
    rng = derive_rng(20, "lift-shift")
    for _ in range(30):
        seq = [
            Matrix.make(
                tropical(),
                UT,
                [[rng.randint(-5, 5), rng.randint(-5, 5)], [NEG_INF, rng.randint(-5, 5)]],
            )
            for _ in range(3)
        ]
        lam = min(v for m in seq for row in m.entries for v in row if v is not NEG_INF) - 1
        lifted = lift_scale_UT2(seq, lam)
        from itertools import permutations

        for perm in permutations(range(3)):
            orig = apply_perm_product(seq, perm)
            shifted = apply_perm_product(lifted, perm)
            for i in range(2):
                for j in range(2):
                    o, s = orig.entries[i][j], shifted.entries[i][j]
                    if o is NEG_INF:
                        assert s is NEG_INF
                    else:
                        assert s == o - 3 * lam  # each of the 3 factors contributes -lam


def test_lift_to_full_examples():
    m = Matrix.make(tropical(), UT, [[1, 2], [NEG_INF, -1]])
    lifted = lift_to_full_Nmax([m], 100)[0]
    assert lifted.entries == ((101, 102), (1, 99))
    assert lifted.family == "full" and lifted.semiring.family == "nat_max"
    with pytest.raises(DomainError, match="does not satisfy the dominance bound"):
        lift_to_full_Nmax([m], 0)


def test_lift_dominance_property():
    rng = derive_rng(21, "lift-dominance")
    from itertools import permutations

    for _ in range(30):
        k = 3
        seq = [
            Matrix.make(
                tropical(),
                UT,
                [[rng.randint(-6, 6), rng.randint(-6, 6)], [NEG_INF, rng.randint(-6, 6)]],
            )
            for _ in range(k)
        ]
        mu = nmax_lift_scale_bound(seq) + 1
        lifted = lift_to_full_Nmax(seq, mu)
        for perm in permutations(range(k)):
            orig = apply_perm_product(seq, perm)
            big = apply_perm_product(lifted, perm)
            for i in range(2):
                for j in range(2):
                    if (i, j) != (1, 0):
                        assert big.entries[i][j] == k * mu + orig.entries[i][j]


def test_lift_dominance_bound_is_needed():
    # at mu = k*max|entry| + k + 1 the shifted-product identity can fail,
    # which is why the stronger 2*k*max|entry| + k bound is enforced
    m = Matrix.make(tropical(), UT, [[-5, 5], [NEG_INF, -5]])
    seq = [m, m]
    weak_mu = 2 * 5 + 2 + 1
    n = [
        Matrix.make(tropical(), "full", [[e[0][0] + weak_mu, e[0][1] + weak_mu], [1, e[1][1] + weak_mu]])
        for e in [m.entries] * 2
    ]
    big = seq_product(n)
    orig = seq_product(seq)
    assert big.entries[0][0] != 2 * weak_mu + orig.entries[0][0]
    with pytest.raises(DomainError, match="does not satisfy the dominance bound"):
        lift_to_full_Nmax(seq, weak_mu)
    good = lift_to_full_Nmax(seq, nmax_lift_scale_bound(seq) + 1)
    mu = nmax_lift_scale_bound(seq) + 1
    assert seq_product(good).entries[0][0] == 2 * mu + orig.entries[0][0]


# -- witness families ---------------------------------------------------------------


def test_u3_nmax_values_and_closed_form():
    seq = witness_U3_Nmax(3)
    assert seq[1].entries == ((ADJOINED_ID, 2, 3), (NEG_INF, ADJOINED_ID, 2), (NEG_INF, NEG_INF, ADJOINED_ID))
    assert seq_product(seq) == witness_U3_Nmax_partial_product(3, 3)
    for m in range(2, 13):
        seq = witness_U3_Nmax(m)
        acc = None
        for k in range(1, m + 1):
            acc = seq[k - 1] if acc is None else mat_mul(acc, seq[k - 1])
            assert acc == witness_U3_Nmax_partial_product(m, k)
    with pytest.raises(DomainError, match="need m >= 2"):
        witness_U3_Nmax(1)


def test_u3_negnmax_values_and_closed_form():
    seq = witness_U3_negNmax(3)
    assert seq[0].entries == ((ADJOINED_ID, -3, -5), (NEG_INF, ADJOINED_ID, -1), (NEG_INF, NEG_INF, ADJOINED_ID))
    closed = witness_U3_negNmax_partial_product(3, 3)
    assert closed.entries[0][1] == -1  # k-m-1 at k=m
    assert seq_product(seq) == closed
    for m in range(2, 13):
        seq = witness_U3_negNmax(m)
        acc = None
        for k in range(1, m + 1):
            acc = seq[k - 1] if acc is None else mat_mul(acc, seq[k - 1])
            assert acc == witness_U3_negNmax_partial_product(m, k)


def test_m3_trunc_values_and_closed_form():
    seq = witness_M3_trunc(3, F(1, 2), 2)
    assert seq[0].entries == (
        (0, F(5, 4), F(5, 2)),
        (NEG_INF, 0, F(3, 2)),
        (NEG_INF, NEG_INF, 0),
    )
    for m in range(2, 13):
        seq = witness_M3_trunc(3, F(1, 2), m)
        acc = None
        for k in range(1, m + 1):
            acc = seq[k - 1] if acc is None else mat_mul(acc, seq[k - 1])
            assert acc == witness_M3_trunc_partial_product(3, F(1, 2), m, k)
    with pytest.raises(DomainError, match="epsilon must lie strictly between 0 and z-2"):
        witness_M3_trunc(3, 5, 4)
    with pytest.raises(DomainError, match="epsilon must lie strictly between 0 and z-2"):
        witness_M3_trunc(3, 1, 4)  # eps = z - 2 exactly is out
    assert default_epsilon(3) == F(1, 2)


@pytest.mark.parametrize("family,gen", [
    ("u3_nmax", witness_U3_Nmax),
    ("u3_negnmax", witness_U3_negNmax),
    ("m3_trunc", lambda m: witness_M3_trunc(3, F(1, 2), m)),
])
def test_families_are_members_and_rigid(family, gen):
    for m in (3, 5, 7):
        seq = gen(m)
        assert all(Matrix.make(mat.semiring, mat.family, mat.entries) == mat for mat in seq)
        assert exhaustive_identity_only(seq)
    # every adjacent swap changes the product, up to m = 40
    for m in (2, 9, 23, 40):
        seq = gen(m)
        total = seq_product(seq)
        for t in range(m - 1):
            assert apply_perm_product(seq, transposition(m, t, t + 1)) != total
