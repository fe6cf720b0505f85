"""Semiring arithmetic, element order, monogenic classes, axiom checking."""

import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipermute import acceptance
from bipermute.errors import DomainError
from bipermute.quotients import trunc12_congruence
from bipermute.sampling import _drawer, derive_rng, sample_scalar
from bipermute.scalars import ADJOINED_ID, NEG_INF, Atom
from bipermute.semirings import (
    Finite,
    FiniteSemiringTable,
    Infinite,
    IsoNMax,
    IsoNegNMax,
    IsoTruncNat,
    IsoTruncNegNat,
    adjoin_zero,
    boolean,
    chain,
    check_axioms,
    check_laws,
    classify_monogenic,
    element_order,
    nat_max,
    neg_nat_max,
    noidentity_obstruction,
    noidentity_semiring,
    semiring_laws,
    srk_add,
    srk_mul,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)


def test_add_examples():
    assert srk_add(trunc(1, 3), F(3, 2), 2) == 2
    assert srk_add(nat_max(), 5, 5) == 5
    assert srk_add(tropical(), NEG_INF, -7) == -7


def test_mul_examples():
    assert srk_mul(trunc(1, 3), F(3, 2), 2) == 3
    assert srk_mul(trunc_neg_nat(4), -3, -2) == -4
    assert srk_mul(chain(5), Atom(1), Atom(3)) == Atom(1)


def test_leq_examples():
    # a <= b iff a + b = b
    assert srk_add(tropical(), NEG_INF, 0) == 0
    assert srk_add(trunc(1, 2), 0, 1) == 1
    assert srk_add(chain(3), Atom(2), Atom(2)) == Atom(2)
    assert srk_add(trunc(1, 2), 1, 0) != 0


# -- the order derived from addition, against a reference order ------------------


def _reference_leq(desc, a, b):
    """The order written out per carrier kind, independent of ``_add``."""
    if a is NEG_INF:
        return True
    if b is NEG_INF:
        return False
    if desc.family == "table":
        return desc.table.add[a.index][b.index] == b.index
    if isinstance(a, Atom):
        return a.index <= b.index
    return a <= b


# NEG_INF joins every sample: the sentinel rules are the same in every family;
# finite carriers without a sample use all their atoms
_ORDER_CASES = {
    "tropical": (tropical, [-3, F(-1, 2), 0, F(5, 2), 7, F(7)]),
    "nat_max": (nat_max, [1, 2, 5]),
    "nat_max_zero": (lambda: adjoin_zero(nat_max()), [1, 2, 5]),
    "neg_nat_max": (neg_nat_max, [-5, -2, -1]),
    "neg_nat_max_zero": (lambda: adjoin_zero(neg_nat_max()), [-5, -2, -1]),
    "trunc13": (lambda: trunc(1, 3), [0, 1, F(3, 2), 2, 3]),
    "trunc_nat4": (lambda: trunc_nat(4), [1, 2, 3, 4]),
    "trunc_nat4_zero": (lambda: adjoin_zero(trunc_nat(4)), [1, 2, 3, 4]),
    "trunc_neg_nat3": (lambda: trunc_neg_nat(3), [-3, -2, -1]),
    "chain4": (lambda: chain(4), None),
    "boolean": (boolean, None),
    "noidentity": (noidentity_semiring, None),
    "trunc12_quotient": (lambda: table_semiring(trunc12_congruence([F(3, 2)]).tables), None),
}


@pytest.mark.parametrize("case", list(_ORDER_CASES))
def test_derived_order_matches_reference(case):
    make, sample = _ORDER_CASES[case]
    desc = make()
    if sample is None:
        sample = [Atom(i) for i in range(desc.size)]
    leq = desc._leq
    carrier = [NEG_INF] + sample
    for a in carrier:
        for b in carrier:
            assert leq(a, b) is _reference_leq(desc, a, b), (a, b)
    # the adjoined identity is ordered by the public addition only
    assert srk_add(desc, ADJOINED_ID, ADJOINED_ID) is ADJOINED_ID
    if desc.has_neg_inf:
        assert srk_add(desc, NEG_INF, ADJOINED_ID) is ADJOINED_ID and srk_add(desc, ADJOINED_ID, NEG_INF) is not NEG_INF
    for a in sample:
        with pytest.raises(DomainError, match="is undefined"):
            srk_add(desc, a, ADJOINED_ID)
        with pytest.raises(DomainError, match="is undefined"):
            srk_add(desc, ADJOINED_ID, a)


@pytest.mark.parametrize("case", list(_ORDER_CASES))
def test_descriptors_pickle_after_use(case):
    """The cached operations stay out of the pickled state and rebuild on use."""
    make, sample = _ORDER_CASES[case]
    desc = make()
    if sample is None:
        sample = [Atom(i) for i in range(desc.size)]
    a, b = sample[0], sample[-1]
    expected = (desc._add(a, b), desc._mul(a, b), desc._leq(a, b), desc._leq(b, a))

    def stream(d, which):  # 0 draws scalars, 1 truncation-grid values, on the grid of denominator 4
        rng = derive_rng(3, "pickle")
        draw = _drawer(d, 4)[which]
        return [draw(rng.getrandbits) for _ in range(40)]

    draws = stream(desc, 0)
    if desc.family == "trunc":
        grid = stream(desc, 1)
    back = pickle.loads(pickle.dumps(desc))
    assert back == desc and back is not desc
    assert "_drawers" not in vars(back)  # the sampler's drawers are rebuilt on the copy's first draw
    assert (back._add(a, b), back._mul(a, b), back._leq(a, b), back._leq(b, a)) == expected
    assert stream(back, 0) == draws
    if desc.family == "trunc":
        assert stream(back, 1) == grid
    # and again once the copy has computed
    assert pickle.loads(pickle.dumps(back)) == desc


_DESCRIPTORS = """
from fractions import Fraction as F
from bipermute.quotients import trunc12_congruence
from bipermute.semirings import adjoin_zero, chain, nat_max, tropical, trunc
descs = [trunc(1, 3), tropical(), chain(40), adjoin_zero(nat_max()),
         trunc12_congruence([F(3, 2)]).quotient_semiring()]
"""


def _run_with_hash_seed(hashseed, code, stdin=b""):
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DESCRIPTORS + code], input=stdin, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_a_descriptor_hashes_afresh_under_another_hash_seed():
    """The hash is cached on first use, but never pickled: strings hash differently in each process."""
    pickled = _run_with_hash_seed(1, "import pickle, sys\n"
                                     "[hash(d) for d in descs]\n"
                                     "sys.stdout.buffer.write(pickle.dumps(descs))")
    same = _run_with_hash_seed(2, "import pickle, sys\n"
                                  "back = pickle.loads(sys.stdin.buffer.read())\n"
                                  "print([b is not d and b == d and hash(b) == hash(d) for b, d in zip(back, descs)])",
                               pickled)
    assert same.decode().strip() == str([True] * 5)


def test_truncated_products_saturate_at_the_top():
    for k in (1, 2, 5):
        mul = trunc_nat(k)._mul
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                assert mul(a, b) == min(a + b, k)
    mul = trunc(1, F(5, 2))._mul
    assert mul(1, F(5, 4)) == F(9, 4)
    assert mul(F(3, 2), 2) == F(5, 2)
    assert mul(0, 2) == 2 and mul(NEG_INF, 2) is NEG_INF

def test_domain_errors():
    with pytest.raises(DomainError):
        srk_add(nat_max(), 0, 1)  # 0 is not a natural here
    with pytest.raises(DomainError):
        srk_add(nat_max(), NEG_INF, 1)  # no zero unless adjoined
    with pytest.raises(DomainError):
        srk_mul(trunc(1, 2), F(1, 2), 1)  # inside the gap (0, 1)
    with pytest.raises(DomainError):
        srk_mul(chain(3), Atom(3), Atom(0))


def test_adjoined_identity_partial_sums():
    one = ADJOINED_ID
    for make, sample in _ORDER_CASES.values():
        desc = make()
        if sample is None:
            sample = [Atom(i) for i in range(desc.size)]
        assert srk_add(desc, one, one) is one and srk_mul(desc, one, one) is one
        if desc.has_neg_inf:
            assert srk_add(desc, one, NEG_INF) is one and srk_add(desc, NEG_INF, one) is one
            assert srk_mul(desc, one, NEG_INF) is NEG_INF and srk_mul(desc, NEG_INF, one) is NEG_INF
        else:
            with pytest.raises(DomainError):
                srk_add(desc, one, NEG_INF)
        for a in sample:
            assert srk_mul(desc, one, a) is a and srk_mul(desc, a, one) is a
            with pytest.raises(DomainError, match="is undefined"):
                srk_add(desc, one, a)
            with pytest.raises(DomainError, match="is undefined"):
                srk_add(desc, a, one)


# -- element order -------------------------------------------------------------


def test_element_order_examples():
    assert element_order(trunc(1, F(5, 2)), 1) == Finite(3, 3)
    assert element_order(tropical(), 0) == Finite(1, 1)
    assert isinstance(element_order(nat_max(), 2), Infinite)
    assert element_order(trunc(0, 1), F(1, 4)) == Finite(4, 4)


def test_element_order_truncated_is_never_certified_infinite():
    # every positive rational of the [0,1] truncation has finite order
    # ceil(1/a), however small a is
    assert element_order(trunc(0, 1), F(1, 50)) == Finite(50, 50)
    assert element_order(trunc(0, 1), F(1, 10**12)) == Finite(10**12, 10**12)
    assert element_order(trunc(0, 1), F(2, 10**12 + 1)) == Finite(10**12 // 2 + 1, 10**12 // 2 + 1)
    assert element_order(trunc_nat(10**12), 1) == Finite(10**12, 10**12)
    assert element_order(trunc_neg_nat(10**12), -3) == Finite(10**12 // 3 + 1, 10**12 // 3 + 1)


def _order_by_iteration(desc, a, limit=10**4):
    """The number of distinct powers of ``a``, counted one product at a time; None past ``limit``."""
    power = a
    for order in range(1, limit + 1):
        nxt = desc._mul(power, a)
        if nxt == power:
            return order
        power = nxt
    return None


def _assert_order_matches_iteration(desc, a):
    order, res = _order_by_iteration(desc, a), element_order(desc, a)
    if order is None:
        assert res.order > 10**4, (desc, a)
    else:
        assert res == Finite(order, order), (desc, a)
        up = desc._leq(a, desc._mul(a, a))
        assert classify_monogenic(desc, a) == (IsoTruncNat(order) if up else IsoTruncNegNat(order)), (desc, a)


def test_element_order_closed_form_matches_iteration_on_finite_carriers():
    carriers = [chain(9), boolean(), noidentity_semiring(), trunc12_congruence([F(5, 4), F(3, 2)]).quotient_semiring()]
    carriers += [d for k in range(1, 51) for d in (trunc_nat(k), adjoin_zero(trunc_nat(k)), trunc_neg_nat(k))]
    for desc in carriers:
        for a in desc.carrier_elements():
            _assert_order_matches_iteration(desc, a)
    # the quotient table has an element of order 2, walked in its table
    assert element_order(carriers[3], Atom(2)) == Finite(2, 2)


def test_element_order_closed_form_matches_iteration_on_seeded_intervals():
    rng = derive_rng(26, "order-closed-form-intervals")
    for i in range(200):
        x = F(0) if i % 3 == 0 else F(rng.randint(1, 96), rng.randint(1, 16))
        desc = trunc(x, x + F(rng.randint(1, 64), rng.randint(1, 8)))
        for a in (NEG_INF, 0, desc.x, desc.y, *(sample_scalar(desc, rng) for _ in range(10))):
            _assert_order_matches_iteration(desc, a)


def test_order_closed_form_in_trunc_1_y():
    # order of a in [1, y] is ceil(y/a): closed form against the iteration
    rng = derive_rng(99, "order-closed-form")
    for y in (2, F(5, 2), 3, F(17, 4)):
        desc = trunc(1, y)
        for _ in range(50):
            a = F(rng.randint(64, int(64 * y)), 64)
            if not 1 <= a <= y:
                continue
            res = element_order(desc, a)
            assert isinstance(res, Finite)
            assert res.order == -((-F(y)) // a)  # ceil(y/a)


def test_period_one(monkeypatch):
    # the acceptance oracle's walk settles, with period 1, at the closed-form stabilization index
    for desc, a in ((trunc(1, 3), 1), (boolean(), Atom(0)), (trunc_neg_nat(5), -2)):
        assert acceptance._monogenic_oracle(desc, a)[0] == element_order(desc, a).stabilization_index
    assert element_order(trunc_neg_nat(5), -2) == Finite(3, 3)
    assert acceptance._monogenic_oracle(nat_max(), 2)[0] is None
    # and the monogenic item counts every finite order whose walk settles elsewhere
    assert acceptance.item_monogenic(0, trials=40).details["period_failures"] == 0
    def off_by_one(desc, a):
        res = element_order(desc, a)
        return Finite(res.order, res.stabilization_index + 1) if isinstance(res, Finite) else res

    monkeypatch.setattr(acceptance, "element_order", off_by_one)
    result = acceptance.item_monogenic(0, trials=40)
    assert not result.passed and result.details["period_failures"] > 0


def test_classify_monogenic_examples():
    assert classify_monogenic(tropical(), 1) == IsoNMax()
    assert classify_monogenic(tropical(), -1) == IsoNegNMax()
    assert classify_monogenic(trunc(1, 3), 1) == IsoTruncNat(3)
    assert classify_monogenic(boolean(), Atom(1)) == IsoTruncNat(1)
    assert classify_monogenic(tropical(), NEG_INF) == IsoTruncNat(1)


# -- axioms as properties --------------------------------------------------------

tropical_scalars = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-50, max_value=50, max_denominator=32),
)
trunc13_scalars = st.one_of(
    st.just(NEG_INF),
    st.just(0),
    st.fractions(min_value=1, max_value=3, max_denominator=32),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scalar_axioms_property(data):
    which = data.draw(st.sampled_from(["tropical", "trunc"]))
    if which == "tropical":
        desc, strat = tropical(), tropical_scalars
    else:
        desc, strat = trunc(1, 3), trunc13_scalars
    a, b, c = data.draw(strat), data.draw(strat), data.draw(strat)
    add, mul, leq = desc._add, desc._mul, desc._leq
    assert add(a, b) in (a, b)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))
    lo, hi = (a, b) if leq(a, b) else (b, a)
    assert leq(mul(lo, c), mul(hi, c))
    # the order is exactly the addition: a <= b iff a+b == b
    assert leq(a, b) == (add(a, b) == b)


@pytest.mark.parametrize(
    "desc",
    [boolean(), chain(5), trunc_nat(4), trunc_neg_nat(4), noidentity_semiring()],
    ids=["boolean", "chain5", "trunc_nat4", "trunc_neg_nat4", "noidentity"],
)
def test_check_axioms_exhaustive(desc):
    report = check_axioms(desc)
    assert report.passed and report.mode == "exhaustive"


def test_check_axioms_sampled_and_infeasible():
    # an infinite carrier, where no exhaustive check is feasible, is checked on seeded draws
    report = check_axioms(trunc(1, 2), seed=1, trials=1000)
    assert report.passed and report.mode == "sampled"
    report = check_axioms(tropical(), seed=1, trials=500)
    assert report.passed and report.mode == "sampled"
    # the draws follow the seed
    assert check_axioms(chain(100), seed=3, trials=50) == check_axioms(chain(100), seed=3, trials=50)


def test_check_axioms_reports_counterexample():
    bad_mul = ((0, 2, 1), (1, 1, 1), (1, 1, 2))
    add = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    tbl = FiniteSemiringTable(3, add, bad_mul, validate=False)
    report = check_axioms(table_semiring(tbl))
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "mul_assoc" in failed
    triple = next(c.counterexample for c in report.checks if c.name == "mul_assoc")
    assert len(triple) == 3 and all(isinstance(v, Atom) for v in triple)


def test_table_validates_eagerly():
    bad_mul = ((0, 2, 1), (1, 1, 1), (1, 1, 2))
    add = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
    with pytest.raises(DomainError):
        FiniteSemiringTable(3, add, bad_mul)


_MAX3 = ((0, 1, 2), (1, 1, 2), (2, 2, 2))


@pytest.mark.parametrize(
    "size, add, mul",
    [
        (3, _MAX3, ((0, 2, 1), (1, 1, 1), (1, 1, 2))),  # mul_assoc
        (2, ((0, 0), (1, 1)), ((0, 0), (0, 1))),  # add_comm
        (3, ((0, 2, 2), (2, 1, 2), (2, 2, 2)), ((0, 0, 0), (0, 1, 2), (0, 2, 2))),  # add_bipotent
        (2, ((0, 1), (1, 1)), ((1, 0), (0, 1))),  # dist_left
        (3, ((0, 2, 1), (2, 1, 0), (1, 0, 2)), _MAX3),  # add_assoc
    ],
)
def test_table_error_names_the_first_law_check_axioms_fails(size, add, mul):
    report = check_axioms(table_semiring(FiniteSemiringTable(size, add, mul, validate=False)))
    failed = [c for c in report.checks if not c.passed]
    with pytest.raises(DomainError) as info:
        FiniteSemiringTable(size, add, mul)
    first = failed[0]
    indices = tuple(v.index for v in first.counterexample)
    assert str(info.value) == f"table fails {first.name} at {indices}"


def test_noncommutative_table_has_no_mul_comm_law():
    tbl = FiniteSemiringTable(2, ((0, 1), (1, 1)), ((0, 1), (0, 1)))  # a * b = b
    report = check_axioms(table_semiring(tbl))
    assert report.passed and "mul_comm" not in [c.name for c in report.checks]


def test_table_error_message():
    with pytest.raises(DomainError, match=r"^table fails mul_assoc at \(0, 0, 1\)$"):
        FiniteSemiringTable(3, _MAX3, ((0, 2, 1), (1, 1, 1), (1, 1, 2)))


# -- the no-identity obstruction ---------------------------------------------------


def test_noidentity_semiring_is_lawful():
    assert check_axioms(noidentity_semiring()).passed


def test_noidentity_obstruction_all_placements_disagree():
    report = noidentity_obstruction()
    # each placement's first failing law, and its counterexample (x, y, z): x*(y+z) != x*y + x*z,
    # e.g. with 1 < a: c*(1+a) = c*a = b, but c*1 + c*a = c + b = c
    assert [(placement, c.name, c.counterexample) for placement, c in report.placements] == [
        ("1<a", "dist_left", ("c", "1", "a")),
        ("a<1<b", "dist_left", ("c", "1", "b")),
        ("b<1<c", "dist_left", ("a", "b", "1")),
        ("1>c", "dist_left", ("a", "b", "1")),
    ]
    assert all(not is_id for _, is_id in report.identity_scan)
    assert not report.embeddable


# -- zero adjunction -----------------------------------------------------------------


def test_adjoin_zero():
    n = adjoin_zero(nat_max())
    assert n.adjoined_zero and n.zero_element() is NEG_INF
    assert srk_mul(n, NEG_INF, 3) is NEG_INF
    assert srk_add(n, NEG_INF, 3) == 3
    assert adjoin_zero(tropical()) == tropical()
    assert adjoin_zero(chain(4)) == chain(4)
    assert adjoin_zero(trunc_neg_nat(3)) == trunc_neg_nat(3)  # -k is already a zero
    assert adjoin_zero(trunc_nat(2)).adjoined_zero  # 1..k has no zero for k >= 2
    assert adjoin_zero(trunc_nat(1)) == trunc_nat(1)


def test_sampling_respects_carriers():
    rng = derive_rng(3, "carrier-check")
    for desc in (tropical(), nat_max(), neg_nat_max(), trunc(0, 1), trunc(2, 5),
                 trunc_nat(6), trunc_neg_nat(6), chain(9), boolean(), adjoin_zero(nat_max())):
        for _ in range(100):
            desc.validate(sample_scalar(desc, rng))


def test_laws_of_two_variables_run_on_pairs_with_the_triples_counterexamples():
    """Exhaustive checks feed add_comm, add_bipotent and mul_comm the n^2
    pairs; each check must be the one all n^3 triples give, in law order.
    A table claims mul_comm only where it holds, so it is run, not failed."""
    rng = random.Random(41)
    failures, run = set(), set()
    for _ in range(300):
        size = rng.randint(1, 4)
        add, mul = ([[rng.randrange(size) for _ in range(size)] for _ in range(size)] for _ in range(2))
        if rng.randrange(2):  # a commutative, bipotent addition reaches the later laws
            add = [[max(i, j) for j in range(size)] for i in range(size)]
        if rng.randrange(2):
            mul = [[mul[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
        desc = table_semiring(FiniteSemiringTable(size, tuple(map(tuple, add)), tuple(map(tuple, mul)),
                                                  validate=False))
        laws = semiring_laws(desc._add, desc._mul, desc.claims_commutative)
        triples = itertools.product(desc.carrier_elements(), repeat=3)
        report = check_axioms(desc)
        assert report.checks == check_laws(laws, triples)
        failures.update(c.name for c in report.checks if not c.passed)
        run.update(c.name for c in report.checks)
    assert {"add_comm", "add_bipotent", "mul_assoc", "dist_left", "order_compat_mul"} <= failures
    assert "mul_comm" in run
