"""The acceptance suite: one runnable item per verification target.

Each item is a pure function of the seed (plus an optional fast-mode trial
scale) returning a pass/fail result with a JSON-able detail dictionary.
The CLI ``verify-all`` subcommand and tests/test_acceptance.py both run
these items; reports carry no timestamps so equal configs give identical
bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .constructions import RIGID_FAMILIES, BicyclicElement, bicyclic_mul, bicyclic_rho
from .errors import DomainError, InvariantViolation
from .matrices import FULL, Matrix, mat_mul, pad_sequence
from .permutability import (
    Found,
    SearchPolicy,
    apply_perm_product,
    exhaustive_identity_only,
    find_preserving_permutation,
    path_assignment,
    reconstruct_from_assignment,
)
from .quotients import (
    chain_class_bound,
    kerperm_bound,
    kerperm_find_swap,
    trunc12_class_bound,
    truncperm_bound,
    xperm_bound,
    xperm_find,
)
from .sampling import DEFAULT_SEED, derive_rng, sample_matrix, sample_scalar
from .scalars import NEG_INF, Scalar
from .semirings import (
    Finite,
    IsoNMax,
    IsoNegNMax,
    IsoTruncNat,
    IsoTruncNegNat,
    Semiring,
    boolean,
    chain,
    check_axioms,
    classify_monogenic,
    element_order,
    nat_max,
    neg_nat_max,
    noidentity_obstruction,
    noidentity_semiring,
    srk_add,
    srk_mul,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)
from .serialize import SCHEMA_VERSION
from .trunciso import classify_truncated, max_element_order, max_order_by_iteration, verify_iso


@dataclass(frozen=True)
class ItemResult:
    name: str
    passed: bool
    details: dict


def _scaled(full: int, trials: Optional[int]) -> int:
    return full if trials is None else max(1, min(full, trials))


# -- 1: exhaustive semiring laws ----------------------------------------------


def item_axioms(seed: int, trials: Optional[int] = None) -> ItemResult:
    semirings: list[Semiring] = [boolean(), noidentity_semiring()]
    semirings += [chain(n) for n in range(1, 8)]
    semirings += [trunc_nat(k) for k in range(1, 8)]
    semirings += [trunc_neg_nat(k) for k in range(1, 8)]
    failures = []
    for desc in semirings:
        report = check_axioms(desc)
        if not report.passed:
            failures.append(desc.family + ":" + ",".join(c.name for c in report.checks if not c.passed))
    return ItemResult("axioms", not failures, {"semirings": len(semirings), "failures": failures})


# -- 2: the no-identity obstruction -------------------------------------------


def item_noidentity(seed: int, trials: Optional[int] = None) -> ItemResult:
    report = noidentity_obstruction()
    all_disagree = all(failed is not None for _, failed in report.placements)
    none_identity = all(not flag for _, flag in report.identity_scan)
    passed = all_disagree and none_identity and not report.embeddable and len(report.placements) == 4
    return ItemResult(
        "noidentity",
        passed,
        {
            "placements": [placement for placement, _ in report.placements],
            "all_disagree": all_disagree,
            "identity_exists": not none_identity,
        },
    )


# -- 3: element order and monogenic classification ----------------------------


def _monogenic_oracle(desc: Semiring, a: Scalar, probe: int = 30) -> tuple[Optional[int], set]:
    """Independent classification: enumerate powers and compare full tables.

    Returns the exponent at which the powers settle (None if they do not
    within ``probe`` steps) and the set of types that fit.  For finite
    order, builds the actual addition/multiplication behaviour of the
    generated subsemiring and table-compares it against the two bounded
    canonical semirings through the exponent bijections.  For the unbounded
    families, checks strict monotonicity of an initial run of powers.
    """
    mul = desc._mul
    powers = [a]
    for _ in range(probe):
        nxt = mul(powers[-1], a)
        if nxt == powers[-1]:
            break
        powers.append(nxt)
    else:
        # no stabilization within the probe: certify monotone direction
        leq = desc._leq
        strict_up = all(leq(powers[i], powers[i + 1]) and powers[i] != powers[i + 1] for i in range(len(powers) - 1))
        strict_down = all(leq(powers[i + 1], powers[i]) and powers[i] != powers[i + 1] for i in range(len(powers) - 1))
        return None, {"infinite_up"} if strict_up else ({"infinite_down"} if strict_down else set())

    k = len(powers)
    fits = set()
    tn = trunc_nat(k)
    if all(
        srk_add(desc, powers[i - 1], powers[j - 1]) == powers[srk_add(tn, i, j) - 1]
        and srk_mul(desc, powers[i - 1], powers[j - 1]) == powers[srk_mul(tn, i, j) - 1]
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    ):
        fits.add(("trunc_nat", k))
    tnn = trunc_neg_nat(k)
    if all(
        srk_add(desc, powers[i - 1], powers[j - 1]) == powers[-srk_add(tnn, -i, -j) - 1]
        and srk_mul(desc, powers[i - 1], powers[j - 1]) == powers[-srk_mul(tnn, -i, -j) - 1]
        for i in range(1, k + 1)
        for j in range(1, k + 1)
    ):
        fits.add(("trunc_neg_nat", k))
    return k, fits


def item_monogenic(seed: int, trials: Optional[int] = None) -> ItemResult:
    count = _scaled(200, trials)
    pool: list[Semiring] = [
        tropical(),
        nat_max(),
        neg_nat_max(),
        trunc(1, 3),
        trunc(0, 1),
        trunc(2, 5),
        trunc_nat(6),
        trunc_neg_nat(5),
        chain(9),
        boolean(),
        noidentity_semiring(),
    ]
    rng = derive_rng(seed, "monogenic")
    checked = 0
    mismatches = []
    period_failures = []
    while checked < count:
        desc = pool[checked % len(pool)]
        a = sample_scalar(desc, rng)
        res = element_order(desc, a)
        cls = classify_monogenic(desc, a)
        settled, oracle = _monogenic_oracle(desc, a, probe=80)
        if isinstance(res, Finite):
            if settled != res.stabilization_index:  # the powers settle, with period 1, at that exponent
                period_failures.append((desc.family, a))
            expected = ("trunc_nat", res.order) if isinstance(cls, IsoTruncNat) else ("trunc_neg_nat", res.order)
            if not isinstance(cls, (IsoTruncNat, IsoTruncNegNat)) or expected not in oracle:
                mismatches.append((desc.family, repr(a), repr(cls), repr(oracle)))
        else:
            expected_inf = "infinite_up" if isinstance(cls, IsoNMax) else "infinite_down"
            if not isinstance(cls, (IsoNMax, IsoNegNMax)) or expected_inf not in oracle:
                mismatches.append((desc.family, repr(a), repr(cls), repr(oracle)))
        checked += 1
    passed = not mismatches and not period_failures
    return ItemResult(
        "monogenic",
        passed,
        {"sampled": checked, "mismatches": mismatches[:5], "period_failures": len(period_failures)},
    )


# -- 4: the bicyclic embedding -------------------------------------------------


def item_bicyclic(seed: int, trials: Optional[int] = None) -> ItemResult:
    bound = 10
    elements = [BicyclicElement(i, j) for i in range(bound + 1) for j in range(bound + 1)]
    images = {(e.i, e.j): bicyclic_rho(e) for e in elements}
    pairs = 0
    failures = 0
    for u in elements:
        ru = images[(u.i, u.j)]
        for v in elements:
            w = bicyclic_mul(u, v)
            if mat_mul(ru, images[(v.i, v.j)]) != bicyclic_rho(w):
                failures += 1
            pairs += 1
    injective = len(set(images.values())) == len(elements)
    return ItemResult(
        "bicyclic_embedding",
        failures == 0 and injective,
        {"pairs": pairs, "failures": failures, "injective": injective},
    )


# -- 5: the rigid witness families ---------------------------------------------


def item_witness_families(seed: int, trials: Optional[int] = None) -> ItemResult:
    closed_ok = True
    for gen, closed in RIGID_FAMILIES.values():
        for m in range(2, 13):
            seq = gen(m)
            acc = None
            for k in range(1, m + 1):
                acc = seq[k - 1] if acc is None else mat_mul(acc, seq[k - 1])
                if acc != closed(m, k):
                    closed_ok = False
    sweeps_ok = True
    for gen, _ in RIGID_FAMILIES.values():
        for m in range(3, 8):
            if not exhaustive_identity_only(gen(m)):
                sweeps_ok = False
    return ItemResult(
        "witness_families",
        closed_ok and sweeps_ok,
        {"closed_form_upto_m": 12, "identity_only_m": [3, 4, 5, 6, 7], "closed_ok": closed_ok, "sweeps_ok": sweeps_ok},
    )


# -- 6: truncated-semiring isomorphisms ----------------------------------------


def _random_case_interval(case: str, rng) -> tuple[Fraction, Fraction]:
    x = Fraction(rng.randint(1, 96), rng.randint(1, 16))
    if case == "T01":
        return Fraction(0), Fraction(rng.randint(1, 1024), rng.randint(1, 64))
    if case == "T12":
        return x, x + x * Fraction(rng.randint(1, 64), 64)
    if case == "T1_2p5":
        return x, 2 * x + x * Fraction(rng.randint(1, 63), 64)
    return x, 3 * x + x * Fraction(rng.randint(0, 128), 64)


def item_trunciso(seed: int, trials: Optional[int] = None) -> ItemResult:
    instances = _scaled(100, trials)
    pair_trials = _scaled(1000, trials)
    rng = derive_rng(seed, "trunciso")
    case_failures = {}
    for case in ("T01", "T12", "T1_2p5", "T1"):
        bad = 0
        for _ in range(instances):
            x, y = _random_case_interval(case, rng)
            cl = classify_truncated(x, y)
            if cl.canonical != case:
                bad += 1
                continue
            report = verify_iso(cl.map, cl.source, cl.target, seed=rng.randrange(2**32), trials=pair_trials)
            if not report.passed:
                bad += 1
        case_failures[case] = bad
    order_ok = True
    for y in (Fraction(5, 2), 3, Fraction(7, 2), 4, Fraction(9, 2)):
        closed = max_element_order(y)
        if closed != -(-Fraction(y).numerator // Fraction(y).denominator) or closed != max_order_by_iteration(y, samples=50, seed=seed):
            order_ok = False
    passed = order_ok and all(v == 0 for v in case_failures.values())
    return ItemResult(
        "trunciso",
        passed,
        {"instances_per_case": instances, "pair_trials": pair_trials, "case_failures": case_failures, "max_order_ok": order_ok},
    )


# -- 7: constructive strong permutability via quotients ------------------------


def item_kerperm(seed: int, trials: Optional[int] = None) -> ItemResult:
    n = 2
    chain_trials = _scaled(50, trials)
    trunc_trials = _scaled(50, trials)
    rng = derive_rng(seed, "kerperm")
    successes = 0
    total = 0
    chain_length = kerperm_bound(chain_class_bound(n), n)
    trunc_length = kerperm_bound(trunc12_class_bound(n), n)
    for desc, k, count in ((chain(40), chain_length, chain_trials), (trunc(1, 2), trunc_length, trunc_trials)):
        for _ in range(count):
            seq = [sample_matrix(desc, n, rng) for _ in range(k)]
            witness = kerperm_find_swap(seq)
            total += 1
            if isinstance(witness, Found) and witness.kind in ("transposition", "adjacent_transposition"):
                successes += 1
    return ItemResult(
        "kerperm_strong_permutability",
        successes == total,
        {"chain_length": chain_length, "trunc_length": trunc_length, "successes": successes, "trials": total},
    )


# -- 8: the triangular-pattern finder ------------------------------------------


def _pattern_matrix(desc: Semiring, rng, transposed: bool) -> Matrix:
    a = sample_scalar(desc, rng)
    b = sample_scalar(desc, rng)
    if transposed:
        return Matrix.make(desc, FULL, [[0, NEG_INF], [a, b]])
    return Matrix.make(desc, FULL, [[0, a], [NEG_INF, b]])


def item_xperm(seed: int, trials: Optional[int] = None) -> ItemResult:
    z = 3
    k = xperm_bound(z)
    count = _scaled(1000, trials)
    desc = trunc(1, z)
    rng = derive_rng(seed, "xperm")
    successes = 0
    fallthroughs = 0
    for transposed in (False, True):
        for _ in range(count):
            seq = [_pattern_matrix(desc, rng, transposed) for _ in range(k)]
            try:
                witness = xperm_find(seq)
            except (InvariantViolation, DomainError):
                fallthroughs += 1
                continue
            if isinstance(witness, Found):
                successes += 1
    return ItemResult(
        "xperm",
        successes == 2 * count and fallthroughs == 0,
        {"k": k, "trials": 2 * count, "successes": successes, "fallthroughs": fallthroughs},
    )


# -- 9: existence at the strong-permutability bound -----------------------------


def item_truncperm(seed: int, trials: Optional[int] = None) -> ItemResult:
    z = 3
    length = truncperm_bound(z)
    count = _scaled(10, trials)
    desc = trunc(1, z)
    rng = derive_rng(seed, "truncperm")
    policy = SearchPolicy(try_equal_pair=True, try_adjacent=True, try_all_transpositions=False, random_trials=0)
    successes = 0
    strategies = []
    for _ in range(count):
        seq = [sample_matrix(desc, 2, rng) for _ in range(length)]
        witness = find_preserving_permutation(seq, policy)
        if isinstance(witness, Found):
            successes += 1
            strategies.append(witness.strategy)
    return ItemResult(
        "truncperm_bound",
        successes == count,
        {"length": length, "trials": count, "successes": successes, "strategies": sorted(set(strategies))},
    )


# -- 10: weak permutability via path assignments --------------------------------


def item_weak_permutability(seed: int, trials: Optional[int] = None) -> ItemResult:
    rng = derive_rng(seed, "weak-paths")
    pool = [chain(4), boolean(), trunc(1, 2), tropical()]
    count = _scaled(500, trials)
    recon_ok = 0
    for i in range(count):
        desc = pool[i % len(pool)]
        n = rng.randint(1, 3)
        k = rng.randint(1, 6)
        seq = [sample_matrix(desc, n, rng) for _ in range(k)]
        perm = list(range(k))
        rng.shuffle(perm)
        perm = tuple(perm)
        pa = path_assignment(seq, perm)
        if reconstruct_from_assignment(seq, pa) == apply_perm_product(seq, perm):
            recon_ok += 1
    collision_instances = _scaled(6, trials)
    collision_violations = 0
    collisions_seen = 0
    for i in range(collision_instances):
        desc = pool[i % len(pool)]
        k = 4 + (i % 2)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        by_assignment = {}
        for perm in itertools.permutations(range(k)):
            pa = path_assignment(seq, perm)
            prod = apply_perm_product(seq, perm)
            prev = by_assignment.setdefault(pa, prod)
            if prev is not prod:  # identity check: setdefault returns prod itself on first sight
                collisions_seen += 1
                if prev != prod:
                    collision_violations += 1
    passed = recon_ok == count and collision_violations == 0
    return ItemResult(
        "weak_permutability_paths",
        passed,
        {
            "reconstructions": recon_ok,
            "instances": count,
            "collision_sweeps": collision_instances,
            "collisions_seen": collisions_seen,
            "collision_violations": collision_violations,
        },
    )


# -- 11: dimension padding -------------------------------------------------------


def item_dimensionchange(seed: int, trials: Optional[int] = None) -> ItemResult:
    rng = derive_rng(seed, "dimensionchange")
    pool = [tropical(), chain(6), trunc(1, 3), nat_max()]
    count = _scaled(200, trials)
    ok = 0
    for i in range(count):
        desc = pool[i % len(pool)]
        k = rng.randint(1, 6)
        seq = [sample_matrix(desc, 2, rng) for _ in range(k)]
        padded = pad_sequence(seq, 4)
        perm = list(range(k))
        rng.shuffle(perm)
        perm = tuple(perm)
        corner_rows = tuple(row[:2] for row in apply_perm_product(padded, perm).entries[:2])
        if corner_rows == apply_perm_product(seq, perm).entries:
            ok += 1
    return ItemResult("dimensionchange_padding", ok == count, {"sequences": count, "corner_preserved": ok})


# -- 12: pigeonhole over the booleans --------------------------------------------


def item_pigeonhole_boolean(seed: int, trials: Optional[int] = None) -> ItemResult:
    rng = derive_rng(seed, "pigeonhole")
    desc = boolean()
    count = _scaled(1000, trials)
    ok = 0
    for _ in range(count):
        seq = [sample_matrix(desc, 2, rng) for _ in range(17)]
        witness = find_preserving_permutation(seq)
        if isinstance(witness, Found) and witness.strategy == "equal_pair":
            ok += 1
    return ItemResult("pigeonhole_boolean", ok == count, {"trials": count, "equal_pair_found": ok})


ITEMS: dict[str, Callable[[int, Optional[int]], ItemResult]] = {
    "axioms": item_axioms,
    "noidentity": item_noidentity,
    "monogenic": item_monogenic,
    "bicyclic_embedding": item_bicyclic,
    "witness_families": item_witness_families,
    "trunciso": item_trunciso,
    "kerperm_strong_permutability": item_kerperm,
    "xperm": item_xperm,
    "truncperm_bound": item_truncperm,
    "weak_permutability_paths": item_weak_permutability,
    "dimensionchange_padding": item_dimensionchange,
    "pigeonhole_boolean": item_pigeonhole_boolean,
}


def resolve_item(name: str) -> str:
    """Exact item name, or a unique prefix/substring of one (e.g. 'kerperm')."""
    if name in ITEMS:
        return name
    hits = [k for k in ITEMS if k.startswith(name)] or [k for k in ITEMS if name in k]
    if len(hits) == 1:
        return hits[0]
    raise KeyError(
        f"unknown or ambiguous acceptance item {name!r}; known: {', '.join(ITEMS)}"
    )


def run_acceptance(seed: int = DEFAULT_SEED, items: Optional[list[str]] = None, trials: Optional[int] = None) -> dict:
    """Run the requested acceptance items and assemble the deterministic report."""
    selected = list(ITEMS) if items is None else [resolve_item(n) for n in items]
    results = []
    for name in selected:
        res = ITEMS[name](seed, trials)
        results.append({"name": res.name, "passed": res.passed, "details": res.details})
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "mode": "full" if trials is None else "fast",
        "items": results,
        "passed": all(r["passed"] for r in results),
    }
