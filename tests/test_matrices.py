"""Matrix families, products, prefix/suffix arrays, projection and padding."""

import pickle
from functools import reduce

import pytest

from bipermute.errors import DomainError
from bipermute.matrices import (
    FULL,
    UNI,
    UT,
    Matrix,
    _row_kernel,
    mat_mul,
    pad_sequence,
    prefix_suffix_products,
    project_topleft,
    seq_product,
)
from bipermute.sampling import derive_rng, sample_matrix
from bipermute.scalars import ADJOINED_ID, NEG_INF, Atom
from bipermute.semirings import (
    FiniteSemiringTable,
    adjoin_zero,
    boolean,
    chain,
    nat_max,
    neg_nat_max,
    noidentity_semiring,
    srk_add,
    srk_mul,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)


def tmat(rows, family=FULL):
    return Matrix.make(tropical(), family, rows)


def test_mat_mul_tropical_example():
    a = tmat([[1, 1], [NEG_INF, -1]], UT)
    b = tmat([[-1, 1], [NEG_INF, 1]], UT)
    assert mat_mul(a, b).entries == ((0, 2), (NEG_INF, 0))


def test_identity_shaped_uni_is_neutral():
    # -inf is a genuine carrier member of a truncated semiring, so the
    # identity-shaped unitriangular matrix exists there
    desc = trunc(1, 3)
    ident = Matrix.make(desc, UNI, [[ADJOINED_ID, NEG_INF], [NEG_INF, ADJOINED_ID]])
    m = Matrix.make(desc, UNI, [[ADJOINED_ID, 2], [NEG_INF, ADJOINED_ID]])
    assert mat_mul(ident, m) == m
    assert mat_mul(m, ident) == m
    # over an adjoined zero the proper-entry rule forbids that shape
    with pytest.raises(DomainError):
        Matrix.make(nat_max(adjoined_zero=True), UNI, [[ADJOINED_ID, NEG_INF], [NEG_INF, ADJOINED_ID]])


def test_boolean_zero_matrix_absorbs():
    desc = boolean()
    zero = Matrix.make(desc, FULL, [[Atom(0), Atom(0)], [Atom(0), Atom(0)]])
    rng = derive_rng(1, "bool-zero")
    m = sample_matrix(desc, 2, rng)
    assert mat_mul(zero, m) == zero
    assert mat_mul(m, zero) == zero


def test_mismatches_rejected():
    a = tmat([[0]])
    b = tmat([[0, 0], [0, 0]])
    with pytest.raises(DomainError, match="^1 vs 2$"):
        mat_mul(a, b)
    c = Matrix.make(trunc(1, 2), FULL, [[0]])
    with pytest.raises(DomainError, match="matrices live over different semirings"):
        mat_mul(a, c)
    d = tmat([[0]], UT)
    with pytest.raises(DomainError, match="mixed matrix families"):
        mat_mul(a, d)  # mixed families are rejected, not coerced


def test_equal_but_distinct_semirings_multiply():
    a = Matrix.make(tropical(), FULL, [[0, 1], [NEG_INF, 2]])
    b = Matrix.make(tropical(), FULL, [[1, NEG_INF], [0, 0]])
    assert a.semiring is not b.semiring and a.semiring == b.semiring
    assert mat_mul(a, b).entries == ((1, 1), (2, 2))
    with pytest.raises(DomainError, match="matrices live over different semirings"):
        mat_mul(a, Matrix.make(trunc(1, 3), FULL, [[0, 1], [NEG_INF, 2]]))


def test_family_membership_validation():
    with pytest.raises(DomainError):
        tmat([[0, 0], [0, 0]], UT)  # nonzero below the diagonal
    with pytest.raises(DomainError):
        Matrix.make(nat_max(), UT, [[1, 1], [NEG_INF, 1]])  # no zero element
    with pytest.raises(DomainError):
        Matrix.make(
            nat_max(adjoined_zero=True), UNI, [[ADJOINED_ID, NEG_INF], [NEG_INF, ADJOINED_ID]][::-1]
        )


def test_closure_and_associativity_random():
    rng = derive_rng(7, "closure")
    for desc, family in [
        (tropical(), UT),
        (trunc(1, 3), FULL),
        (chain(6), FULL),
        (nat_max(adjoined_zero=True), UNI),
        (trunc(1, 2), UT),
    ]:
        for _ in range(25):
            a = sample_matrix(desc, 3, rng, family)
            b = sample_matrix(desc, 3, rng, family)
            c = sample_matrix(desc, 3, rng, family)
            ab = mat_mul(a, b)
            assert Matrix.make(desc, family, ab.entries) == ab  # closure: every entry validates
            assert mat_mul(ab, c) == mat_mul(a, mat_mul(b, c))


def test_uni_products_never_hit_undefined_sums():
    rng = derive_rng(8, "uni-defined")
    desc = nat_max(adjoined_zero=True)
    seq = [sample_matrix(desc, 4, rng, UNI) for _ in range(30)]
    total = seq_product(seq)  # would raise DomainError on a violation
    assert Matrix.make(desc, UNI, total.entries) == total


def _max_min_table():
    """A 3-chain as an explicit table: zero index 0, identity index 2."""
    rng3 = range(3)
    return table_semiring(FiniteSemiringTable(
        3, tuple(tuple(max(i, j) for j in rng3) for i in rng3), tuple(tuple(min(i, j) for j in rng3) for i in rng3)))


# every carrier family, each with the matrix families it admits; the zero is
# NEG_INF (genuine or adjoined) or an ordinary element (chains, boolean,
# trunc_nat(1), trunc_neg_nat, a table with a zero)
_PRODUCT_CASES = {
    "tropical": (tropical(), (FULL, UT, UNI)),
    "nat_max": (nat_max(), (FULL,)),
    "nat_max_zero": (nat_max(adjoined_zero=True), (UT, UNI)),
    "neg_nat_max_zero": (neg_nat_max(adjoined_zero=True), (FULL, UNI)),
    "trunc13": (trunc(1, 3), (FULL, UT, UNI)),
    "trunc_nat4": (trunc_nat(4), (FULL,)),
    "trunc_nat4_zero": (adjoin_zero(trunc_nat(4)), (UNI,)),
    "trunc_nat1": (trunc_nat(1), (FULL, UT, UNI)),
    "trunc_neg_nat3": (trunc_neg_nat(3), (FULL, UT, UNI)),
    "chain4": (chain(4), (FULL, UT, UNI)),
    "boolean": (boolean(), (FULL, UT, UNI)),
    "noidentity": (noidentity_semiring(), (FULL,)),
    "noidentity_zero": (adjoin_zero(noidentity_semiring()), (UNI,)),
    "max_min_table": (_max_min_table(), (FULL, UT, UNI)),
}


def _reference_product(a, b):
    """The textbook sum over l of a[i][l] * b[l][j] by the public scalar operations, zero terms left out."""
    desc = a.semiring
    zero = desc.zero_element()
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [srk_mul(desc, a.entries[i][m], b.entries[m][j]) for m in range(n)]
            proper = [t for t in terms if t != zero]
            row.append(reduce(lambda s, t: srk_add(desc, s, t), proper) if proper else zero)
        rows.append(tuple(row))
    return tuple(rows)


def _typed(entries):
    """Entries with their types, so that 2 and Fraction(2) differ."""
    return [[(type(v), v) for v in row] for row in entries]


@pytest.mark.parametrize("case", list(_PRODUCT_CASES))
def test_row_times_is_row_zero_of_the_product(case):
    """mat_mul and the row loop of each family against the textbook product."""
    desc, families = _PRODUCT_CASES[case]
    rng = derive_rng(21, "row-times", case)
    for family in families:
        kernel = _row_kernel(desc, family)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                seq = [sample_matrix(desc, n, rng, family) for _ in range(4)]
                product = seq[0].entries
                row = seq[0].entries[0]
                for m in seq[1:]:
                    expected = _reference_product(Matrix(desc, family, product), m)
                    assert _typed(mat_mul(Matrix(desc, family, product), m).entries) == _typed(expected)
                    product = expected
                    row = kernel(0, row, tuple(zip(*m.entries)))
                assert _typed([row]) == _typed([product[0]]) == _typed(seq_product(seq).entries[:1])


# the identity element each semiring has of its own; trunc_neg_nat(3) has none
_GENUINE_ONE = {"chain4": Atom(3), "boolean": Atom(1), "trunc_nat1": 1, "trunc_neg_nat3": None, "max_min_table": Atom(2)}


def _with_genuine_one(m, one):
    """A unitriangular matrix rewritten as the upper triangular one with ``one`` on its diagonal."""
    return Matrix(m.semiring, UT, tuple(tuple(one if v is ADJOINED_ID else v for v in row) for row in m.entries))


@pytest.mark.parametrize("case", list(_GENUINE_ONE))
def test_uni_products_over_a_genuine_zero(case):
    """The zero is an ordinary element here, and 1 + 0 = 1 all the same."""
    desc = _PRODUCT_CASES[case][0]
    rng = derive_rng(22, "uni-genuine-zero", case)
    one = _GENUINE_ONE[case]
    for n in (2, 3, 4):
        for _ in range(10):
            seq = [sample_matrix(desc, n, rng, UNI) for _ in range(3)]
            total = seq_product(seq)
            assert Matrix.make(desc, UNI, total.entries) == total
            if one is not None:
                assert _with_genuine_one(total, one) == seq_product([_with_genuine_one(m, one) for m in seq])


def test_matrices_pickle_after_products():
    rng = derive_rng(23, "pickle")
    for desc in (tropical(), trunc(1, 3), chain(4)):
        a, b = sample_matrix(desc, 3, rng), sample_matrix(desc, 3, rng)
        ab = mat_mul(a, b)
        hash(ab)
        back = pickle.loads(pickle.dumps(ab))
        assert back == ab and mat_mul(back, back) == mat_mul(ab, ab)


def test_seq_product_trivia():
    a = tmat([[2]])
    assert seq_product([a]) == a
    with pytest.raises(DomainError, match="cannot multiply an empty sequence"):
        seq_product([])
    # idempotent under multiplication: constant matrix over a chain
    desc = chain(4)
    m = Matrix.make(desc, FULL, [[Atom(2), Atom(2)], [Atom(2), Atom(2)]])
    assert mat_mul(m, m) == m
    assert seq_product([m, m]) == m


def test_prefix_suffix_shapes_and_recombination():
    rng = derive_rng(9, "prefix-suffix")
    a1 = tmat([[1, 0], [NEG_INF, 2]])
    a2 = tmat([[0, 3], [1, NEG_INF]])
    prefixes, suffixes = prefix_suffix_products([a1, a2])
    assert prefixes == [None, a1]
    assert suffixes == [mat_mul(a1, a2), a2]
    prefixes, suffixes = prefix_suffix_products([a1])
    assert prefixes == [None] and suffixes == [a1]
    for _ in range(20):
        k = rng.randint(1, 8)
        seq = [sample_matrix(tropical(), 2, rng) for _ in range(k)]
        total = seq_product(seq)
        prefixes, suffixes = prefix_suffix_products(seq)
        for i in range(k):
            left = prefixes[i]
            combo = suffixes[i] if left is None else mat_mul(left, suffixes[i])
            assert combo == total


def test_project_topleft():
    desc = tropical()
    a = Matrix.make(desc, UT, [[1, 2, 3], [NEG_INF, 4, 5], [NEG_INF, NEG_INF, 6]])
    assert project_topleft(a, 2).entries == ((1, 2), (NEG_INF, 4))
    assert project_topleft(a, 3) == a
    with pytest.raises(DomainError, match="cannot project a 3x3 matrix to 4x4"):
        project_topleft(a, 4)
    with pytest.raises(DomainError):
        project_topleft(tmat([[0, 0], [0, 0]]), 1)  # full family rejected
    rng = derive_rng(10, "project-hom")
    for _ in range(50):
        x = sample_matrix(desc, 4, rng, UT)
        y = sample_matrix(desc, 4, rng, UT)
        assert project_topleft(mat_mul(x, y), 2) == mat_mul(project_topleft(x, 2), project_topleft(y, 2))
    # the corner map is also a morphism of unitriangular matrices
    u = nat_max(adjoined_zero=True)
    for _ in range(20):
        x = sample_matrix(u, 4, rng, UNI)
        y = sample_matrix(u, 4, rng, UNI)
        assert project_topleft(mat_mul(x, y), 3) == mat_mul(project_topleft(x, 3), project_topleft(y, 3))


def test_pad_sequence_examples():
    desc = nat_max()
    seq = [Matrix.make(desc, FULL, [[2]]), Matrix.make(desc, FULL, [[3]])]
    padded = pad_sequence(seq, 2)
    assert padded[0].entries == ((2, 2), (2, 2))
    assert seq_product(padded).entries[0][0] == 5
    with pytest.raises(DomainError, match="target dimension 1 must exceed 1"):
        pad_sequence(seq, 1)
    # an explicit zero entry makes the zero the padding value
    t = trunc(1, 3)
    seq2 = [Matrix.make(t, FULL, [[0, NEG_INF], [1, 2]])]
    assert pad_sequence(seq2, 3)[0].entries[2][2] is NEG_INF


def test_pad_corner_preservation_random():
    rng = derive_rng(11, "pad-corner")
    for i in range(200):
        desc = [tropical(), chain(5), trunc(1, 3)][i % 3]
        k = rng.randint(1, 6)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        padded = pad_sequence(seq, 3)
        big = seq_product(padded)
        small = seq_product(seq)
        assert tuple(row[:2] for row in big.entries[:2]) == small.entries
