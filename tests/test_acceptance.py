"""The acceptance suite at full scale: one test (and one printed line) per criterion.

Every item runs with the documented default seed and its full trial counts;
all comparisons inside the items are exact.  On 2 vCPU with Python 3.11.7 the
module takes 35 to 40 s, most of it in the trunciso and kerperm items.
"""

import time

import pytest

from bipermute.acceptance import ITEMS
from bipermute.sampling import DEFAULT_SEED

CRITERIA = [
    ("axioms", "exhaustive semiring laws for the finite families"),
    ("noidentity", "all four identity placements fail in the 3-element semiring"),
    ("monogenic", "period 1 and monogenic class vs the table oracle, 200 samples"),
    ("bicyclic_embedding", "representation is a homomorphism on 14641 pairs"),
    ("witness_families", "closed forms to m=12 and identity-only sweeps m=3..7"),
    ("trunciso", "4 cases x 100 intervals x 1000 pairs, plus max-order oracle"),
    ("kerperm_strong_permutability", "100 constructive swaps at lengths 6562 and 14642"),
    ("xperm", "2000 pattern tuples at the 2*ceil(z)+5 bound"),
    ("truncperm_bound", "10 tuples of length 20553 all admit a witness"),
    ("weak_permutability_paths", "path-assignment reconstruction and collisions"),
    ("dimensionchange_padding", "corner preservation for 200 padded sequences"),
    ("pigeonhole_boolean", "17 boolean matrices always contain an equal pair"),
]


@pytest.mark.parametrize("name,blurb", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_item(name, blurb):
    start = time.time()
    result = ITEMS[name](DEFAULT_SEED, None)
    elapsed = time.time() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {name}: {blurb}  [{elapsed:.1f}s]  {result.details}")
    assert result.passed, result.details


def test_criteria_cover_every_item():
    assert [c[0] for c in CRITERIA] == list(ITEMS)
