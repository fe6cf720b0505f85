"""Tests of the benchmark itself: its checker, its seeding and its tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RandomSweep, RigidSweep, SampledSwap, random_tuple  # noqa: E402

from bipermute import (  # noqa: E402
    FULL,
    NEG_INF,
    Matrix,
    apply_perm_product,
    exhaustive_identity_only,
    seq_product,
    tropical,
)
from bipermute.sampling import derive_rng  # noqa: E402


def _swap(k, i, j):
    perm = list(range(k))
    perm[i], perm[j] = perm[j], perm[i]
    return perm


def _tropical(plain):
    return [Matrix.make(tropical(), FULL, [[NEG_INF if v is None else v for v in row] for row in m])
            for m in plain]


def test_checker_rejects_a_non_preserving_permutation():
    plain = random_tuple(derive_rng(7, "test_bench"), 2, 6, None)
    seq = _tropical(plain)
    ops = check.Ops("maxplus")
    bad = next(p for p in (_swap(6, i, j) for i in range(6) for j in range(i + 1, 6))
               if apply_perm_product(seq, p) != seq_product(seq))
    assert check.check_found(ops, plain, bad) == "permutation does not preserve the product"
    assert check.check_found(ops, plain, list(range(6))) is not None
    assert check.check_found(ops, plain, [0, 0, 1, 2, 3, 4]) is not None
    plain.append(plain[0])  # an equal pair always preserves the product
    assert check.check_found(ops, plain, _swap(7, 0, 6)) is None


def test_checker_flags_a_wrong_sampled_swap_answer(tmp_path):
    wl = SampledSwap(3, tmp_path)
    seq, found = wl.op(0)
    assert wl.settle(0, (seq, found))[1] is None
    short = seq[:8]
    bad = next(p for p in (_swap(8, i, j) for i in range(8) for j in range(i + 1, 8))
               if apply_perm_product(short, p) != seq_product(short))
    wrong = type(found)(tuple(bad), found.kind, found.strategy)
    assert wl.settle(0, (short, wrong))[1] == "permutation does not preserve the product"


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_agrees_with_the_library_sweep(seed):
    rng = derive_rng(seed, "test_bench", "enumeration")
    n = 2 + seed % 2
    plain = random_tuple(rng, n, 5, None if seed < 4 else "far")
    seq = _tropical(plain)
    hit = check.tropical_preserving_perm(plain)
    assert (hit is None) == exhaustive_identity_only(seq)
    if hit is not None:
        assert apply_perm_product(seq, hit) == seq_product(seq)


def _digest(cls, seed, workdir, ops):
    workdir.mkdir()
    wl = cls(seed, workdir)
    return wl, run.digest([run.run_one(wl, i) for i in range(ops)])


def test_same_seed_same_digest_and_different_seed_different_inputs(tmp_path):
    first, d1 = _digest(RandomSweep, 1, tmp_path / "a", 12)
    again, d1b = _digest(RandomSweep, 1, tmp_path / "b", 12)
    other, d2 = _digest(RandomSweep, 2, tmp_path / "c", 12)
    assert d1 == d1b
    assert [p[1] for p in first.pool] == [p[1] for p in again.pool]
    assert [p[1] for p in first.pool] != [p[1] for p in other.pool]
    assert d1 != d2

    one, two = SampledSwap(1, tmp_path), SampledSwap(2, tmp_path)
    assert one.inputs(0) != two.inputs(0)
    assert one.inputs(0) == SampledSwap(1, tmp_path).inputs(0)


def test_traced_products_per_search_match_the_reference_counts(tmp_path):
    """Rigid u3_nmax sweeps at m = 6, 7, 8 multiply 2,019, 13,790 and 109,724 times.

    These are the counts of the full-sweep search engine, taken with a plain
    counting wrapper around mat_mul.  The tracer must reproduce them exactly,
    and tracing must not change any output.
    """
    wl = RigidSweep(0, tmp_path)
    ops = [i for i in range(wl.rotation) if wl.op_label(i).startswith("u3_nmax ")]
    plain = {i: run.run_one(wl, i) for i in ops}
    tracer = Tracer()
    tracer.install()
    try:
        traced = {}
        for i in ops:
            tracer.op_id = i
            traced[i] = run.run_one(wl, i, verify=False)
    finally:
        tracer.uninstall()
    products = tracer.summary()["products_by_op"]
    got = {wl.op_label(i): products[i] for i in ops}
    assert got == {"u3_nmax m=6": 2019, "u3_nmax m=7": 13790, "u3_nmax m=8": 109724}
    assert all(plain[i].failure is None and plain[i].digest == traced[i].digest for i in ops)


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(100)], 90) == (89.0, 10)
    assert run.tail([float(i) for i in range(27)], 60) == (16.0, 10)
    assert run.tail([3.0, 1.0, 2.0], 50) == (2.0, 1)
