"""Seeded sampling and the truncation membership check, against plain Fraction formulas."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from bipermute.errors import DomainError
from bipermute.matrices import FULL, UNI, UT, Matrix
from bipermute.quotients import trunc12_congruence
from bipermute.sampling import (
    DEFAULT_GRID_DENOMINATOR,
    DEFAULT_SEED,
    _drawer,
    _proper,
    _uniform,
    derive_rng,
    sample_matrix,
    sample_scalar,
    sample_trunc_value,
)
from bipermute.scalars import ADJOINED_ID, NEG_INF, Atom, scalar_to_json
from bipermute.semirings import (
    boolean,
    chain,
    nat_max,
    neg_nat_max,
    noidentity_table,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)


def _on_grid(denom):
    """The scalar and truncation-value samplers on the grid of denominator ``denom``.

    The public samplers draw on the default grid; other grids come from the drawer.
    """
    if denom == DEFAULT_GRID_DENOMINATOR:
        return sample_scalar, sample_trunc_value
    return (lambda desc, rng: _drawer(desc, denom)[0](rng.getrandbits),
            lambda desc, rng: _drawer(desc, denom)[1](rng.getrandbits))


def _proper_scalar(desc, rng, denom):
    """A draw of a proper element (no -inf) on the grid of denominator ``denom``."""
    return _proper(desc, _drawer(desc, denom)[0], rng.getrandbits)


def reference_trunc_value(desc, rng, denom):
    """The grid draw written out in Fraction arithmetic: the oracle of the fast path."""
    steps = max(1, -int(-(desc.y - desc.x) * denom // 1))  # ceil((y-x)*d)
    t = rng.randint(0, steps)
    value = desc.x + F(t, steps) * (desc.y - desc.x)
    return int(value) if value.denominator == 1 else value


INTERVALS = [
    (0, 2),  # trunc(0, y)
    (1, 3),
    (F(1, 3), F(7, 5)),  # non-integral endpoints
    (F(5, 2), F(19, 4)),
    (1, F(1001, 1000)),  # narrow: a single step for every grid denominator below
]


@pytest.mark.parametrize("x, y", INTERVALS)
@pytest.mark.parametrize("denom", [1, 2, 7, 64])
def test_trunc_draws_match_the_fraction_formula(x, y, denom):
    desc = trunc(x, y)
    fast = derive_rng(DEFAULT_SEED, "test_sampling", str(x), str(y), str(denom))
    plain = random.Random()
    plain.setstate(fast.getstate())
    draw = _on_grid(denom)[1]
    for _ in range(300):
        got = draw(desc, fast)
        want = reference_trunc_value(desc, plain, denom)
        assert got == want and type(got) is type(want)
        assert fast.getstate() == plain.getstate()


def _trunc_member(desc, a):
    try:
        desc.validate(a)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("x, y", INTERVALS)
def test_trunc_membership_matches_the_fraction_comparison(x, y):
    desc = trunc(x, y)
    eps = F(1, 10**6)
    points = [desc.x, desc.y, F(0), desc.x - eps, desc.y + eps, desc.x + eps, desc.y - eps,
              (desc.x + desc.y) / 2, desc.y + 1, F(-1), F(1, 2)]
    # the same values as ints where integral, and as integral Fractions
    points += [int(p) for p in points if p.denominator == 1]
    for a in points:
        assert _trunc_member(desc, a) == (a == 0 or desc.x <= a <= desc.y), a


def _uni_entries(desc, n, rng, denom):
    """The entries ``sample_matrix(desc, n, rng, UNI)`` draws, on the grid of denominator ``denom``."""
    zero = desc.zero_element()
    return [[ADJOINED_ID if j == i else _proper_scalar(desc, rng, denom) if j > i else zero for j in range(n)]
            for i in range(n)]


def _stream_digest():
    """SHA-256 of seeded matrix streams over every sampled carrier shape."""
    cases = [
        ("tropical", tropical(), FULL, 3, 64),
        ("trunc13", trunc(1, 3), FULL, 2, 64),
        ("trunc13_ut", trunc(1, 3), UT, 3, 64),
        ("trunc_frac_uni", trunc(F(1, 3), F(7, 5)), UNI, 3, 7),
        ("chain40", chain(40), FULL, 2, 64),
        ("chain40_ut", chain(40), UT, 3, 64),
        ("nat_max0", nat_max(adjoined_zero=True), FULL, 2, 64),
        ("nat_max0_uni", nat_max(adjoined_zero=True), UNI, 3, 64),
    ]
    h = hashlib.sha256()
    for label, desc, family, n, denom in cases:
        rng = derive_rng(DEFAULT_SEED, "test_sampling", "stream", label)
        for _ in range(200):
            if denom == DEFAULT_GRID_DENOMINATOR:
                entries = sample_matrix(desc, n, rng, family).entries
            else:
                entries = _uni_entries(desc, n, rng, denom)
            h.update(repr([[(type(v).__name__, scalar_to_json(v)) for v in row]
                           for row in entries]).encode())
    return h.hexdigest()


def test_seeded_streams_are_pinned():
    # digest of the Fraction-arithmetic sampler these streams were first drawn with
    assert _stream_digest() == "e5c2848ef9b354dd1bbac568e761dcbe54a0d6daf999464b9ff6e1faf713704e"


def _typed(v):
    return type(v).__name__, scalar_to_json(v)


def _carriers():
    """One descriptor of every sampled family, with and without an adjoined zero."""
    return {
        "tropical": tropical(),
        "trunc13": trunc(1, 3),
        "trunc_frac": trunc(F(1, 3), F(7, 5)),
        "nat_max": nat_max(),
        "nat_max0": nat_max(adjoined_zero=True),
        "neg_nat_max": neg_nat_max(),
        "neg_nat_max0": neg_nat_max(adjoined_zero=True),
        "trunc_nat5": trunc_nat(5),
        "trunc_nat1": trunc_nat(1),
        "trunc_nat5_0": replace(trunc_nat(5), adjoined_zero=True),
        "trunc_neg_nat5": trunc_neg_nat(5),
        "chain40": chain(40),
        "chain40_0": replace(chain(40), adjoined_zero=True),
        "boolean": boolean(),
        "noidentity": table_semiring(noidentity_table()),
        "noidentity0": table_semiring(noidentity_table(), adjoined_zero=True),
        "trunc12_quotient": table_semiring(trunc12_congruence([F(3, 2)]).tables),
    }


def _families(desc):
    """The matrix families a carrier's zero allows."""
    return (FULL,) if desc.zero_element() is None else (FULL, UT, UNI)


def _wider_stream_digest():
    """SHA-256 of the streams the first pin leaves out, and of the generator state after each.

    Matrix streams of every family each carrier's zero allows, then direct
    scalar streams at grid denominators 1, 7 and 64.  Hashing ``getstate()``
    makes a change in the bits consumed fail even where the values agree.
    """
    h = hashlib.sha256()

    def stream(label, draw, count):
        rng = derive_rng(DEFAULT_SEED, "test_sampling", "wider", label)
        h.update(label.encode())
        for _ in range(count):
            h.update(repr(draw(rng)).encode())
        h.update(repr(rng.getstate()).encode())

    carriers = _carriers()
    for name in ("boolean", "noidentity", "noidentity0", "trunc12_quotient", "trunc_nat5",
                 "trunc_nat1", "trunc_nat5_0", "trunc_neg_nat5", "neg_nat_max", "neg_nat_max0",
                 "tropical", "chain40_0"):
        desc = carriers[name]
        for family in _families(desc):
            if name == "tropical" and family == FULL:
                continue  # in the first pin
            for n in (2, 3):
                stream(f"{name}_{family}_{n}",
                       lambda rng: [[_typed(v) for v in row]
                                    for row in sample_matrix(desc, n, rng, family).entries], 100)
    for denom in (1, 7, 64):
        scalar, trunc_value = _on_grid(denom)
        for name, desc in carriers.items():
            stream(f"scalar_{name}_{denom}", lambda rng: _typed(scalar(desc, rng)), 200)
            stream(f"proper_{name}_{denom}", lambda rng: _typed(_proper_scalar(desc, rng, denom)), 200)
        for name in ("trunc13", "trunc_frac"):
            stream(f"trunc_value_{name}_{denom}", lambda rng: _typed(trunc_value(carriers[name], rng)), 200)
    return h.hexdigest()


def test_wider_streams_and_generator_states_are_pinned():
    # digest of the randrange/randint/choice sampler these streams were first drawn with
    assert _wider_stream_digest() == "944bfa1ba005fefdfd9e163592f0136b1506663b0b424eb47688d32cceab6856"


def reference_scalar(desc, rng, denom):
    """The scalar draw written with randrange, randint and choice: the oracle of the drawer."""
    f = desc.family
    if f == "trunc":
        roll = rng.randrange(8)
        return NEG_INF if roll == 0 else 0 if roll == 1 else reference_trunc_value(desc, rng, denom)
    if desc.adjoined_zero and rng.randrange(8) == 0:
        return NEG_INF
    if f == "tropical":
        if rng.randrange(8) == 0:
            return NEG_INF
        value = F(rng.randint(-256, 256), rng.choice((1, 1, 2, 3, 4, 8, 64)))
        return int(value) if value.denominator == 1 else value
    if f in ("nat_max", "neg_nat_max"):
        return rng.randint(1, 40) * (-1 if f == "neg_nat_max" else 1)
    if f in ("trunc_nat", "trunc_neg_nat"):
        return rng.randint(1, desc.k) * (-1 if f == "trunc_neg_nat" else 1)
    return Atom(rng.randrange(desc.size))


def _grid_sizes():
    return sorted({max(1, -int(-(F(y) - F(x)) * denom // 1)) + 1
                   for x, y in INTERVALS for denom in (1, 2, 7, 64)})


def test_the_generator_draws_below_n_with_getrandbits():
    # the drawer inlines this private CPython loop; a release that changes it fails here
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


@pytest.mark.parametrize("n", sorted({8, 513, 7, 40, 2, 1, 5} | set(_grid_sizes())))
def test_bounded_draw_matches_randrange(n):
    """8, 513 and 7 are the sentinel roll and the tropical draws, 40, 5 and 1 the
    integer families and k, 2, 40 and 1 the carrier sizes, then every grid size."""
    fast = derive_rng(DEFAULT_SEED, "test_sampling", "below", str(n))
    plain = random.Random()
    plain.setstate(fast.getstate())
    draw = _uniform(range(n))
    for _ in range(2000):
        assert draw(fast.getrandbits) == plain.randrange(n)
        assert fast.getstate() == plain.getstate()


@pytest.mark.parametrize("name", list(_carriers()))
@pytest.mark.parametrize("denom", [1, 2, 7, 64])
def test_drawn_scalars_match_the_plain_formulas(name, denom):
    """Every inlined loop at every size it meets, as the stdlib calls it replaces draw it."""
    desc = _carriers()[name]
    fast = derive_rng(DEFAULT_SEED, "test_sampling", "scalar", name, str(denom))
    plain = random.Random()
    plain.setstate(fast.getstate())
    draw = _on_grid(denom)[0]
    for _ in range(2000):
        got, want = draw(desc, fast), reference_scalar(desc, plain, denom)
        assert got == want and type(got) is type(want)
        assert fast.getstate() == plain.getstate()


@pytest.mark.parametrize("name", list(_carriers()))
def test_sampled_matrices_are_members(name):
    # sample_matrix builds without validating; the checks it skips still hold
    desc = _carriers()[name]
    rng = derive_rng(DEFAULT_SEED, "test_sampling", "members", name)
    for family in _families(desc):
        for n in (2, 3):
            for _ in range(200):
                m = sample_matrix(desc, n, rng, family)
                assert m.family == family and m.n == n, m
                assert Matrix.make(desc, family, m.entries) == m  # validates every entry
    with pytest.raises(DomainError, match="matrix must be square and non-empty"):
        sample_matrix(desc, 0, rng)
