"""Seeded sampling and the truncation membership check, against plain Fraction formulas."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from bipermute.errors import DomainError
from bipermute.matrices import FULL, UNI, UT
from bipermute.sampling import DEFAULT_SEED, derive_rng, sample_matrix, sample_trunc_value
from bipermute.scalars import scalar_to_json
from bipermute.semirings import chain, nat_max, tropical, trunc


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
    for _ in range(300):
        got = sample_trunc_value(desc, fast, denom)
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
            m = sample_matrix(desc, n, rng, family, denom)
            h.update(repr([[(type(v).__name__, scalar_to_json(v)) for v in row]
                           for row in m.entries]).encode())
    return h.hexdigest()


def test_seeded_streams_are_pinned():
    # digest of the Fraction-arithmetic sampler these streams were first drawn with
    assert _stream_digest() == "e5c2848ef9b354dd1bbac568e761dcbe54a0d6daf999464b9ff6e1faf713704e"
