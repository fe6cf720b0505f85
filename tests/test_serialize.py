"""Round trips and schema shapes of the JSON wire formats."""

import json
from fractions import Fraction as F

import pytest

from bipermute.errors import ParseError
from bipermute.matrices import FULL, UNI, UT
from bipermute.permutability import Found, IdentityOnly, NoneFoundUnderPolicy, SearchPolicy
from bipermute.quotients import chain_congruence, trunc12_congruence
from bipermute.sampling import derive_rng, sample_matrix
from bipermute.scalars import ADJOINED_ID, NEG_INF, Atom, scalar_from_json, scalar_to_json
from bipermute.semirings import (
    FiniteSemiringTable,
    adjoin_zero,
    boolean,
    chain,
    nat_max,
    neg_nat_max,
    noidentity_semiring,
    noidentity_table,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)
from bipermute.serialize import (
    classification_to_json,
    matrices_from_json,
    matrices_to_json,
    matrix_to_json,
    quotient_to_json,
    semiring_from_json,
    semiring_to_json,
    witness_to_json,
)
from bipermute.trunciso import classify_truncated


def test_scalar_roundtrip():
    values = [NEG_INF, ADJOINED_ID, 5, -3, F(3, 2), F(-7, 4), Atom(0), Atom(12)]
    encoded = [scalar_to_json(v) for v in values]
    assert encoded[0] == "-inf" and encoded[1] == "id"
    assert encoded[2] == 5 and encoded[4] == "3/2" and encoded[7] == {"atom": 12}
    assert [scalar_from_json(e) for e in encoded] == values
    assert scalar_from_json(scalar_to_json(F(4, 2))) == 2  # integral fractions normalize
    with pytest.raises(ParseError):
        scalar_from_json({"atom": "x"})
    with pytest.raises(ParseError):
        scalar_from_json(True)
    with pytest.raises(ParseError):
        scalar_from_json("7/0")


def test_semiring_roundtrip():
    descs = [
        tropical(),
        nat_max(),
        nat_max(adjoined_zero=True),
        trunc(F(1, 2), F(9, 4)),
        trunc_nat(5),
        trunc_neg_nat(3),
        chain(7),
        boolean(),
        noidentity_semiring(),
        neg_nat_max(adjoined_zero=True),
        adjoin_zero(trunc_nat(4)),
        table_semiring(noidentity_table(), adjoined_zero=True),
    ]
    for desc in descs:
        obj = semiring_to_json(desc)
        assert semiring_from_json(obj) == desc
    # a family that has its own zero gets no second one
    assert semiring_from_json({"family": "trunc_neg_nat", "k": 3, "adjoined_zero": True}) == trunc_neg_nat(3)
    assert semiring_from_json({"family": "trunc_nat", "k": 1, "adjoined_zero": True}) == trunc_nat(1)
    assert semiring_from_json({"family": "chain", "size": 3, "adjoined_zero": True}) == chain(3)
    obj = semiring_to_json(trunc(F(1, 2), F(9, 4)))
    assert obj["x"] == "1/2" and obj["y"] == "9/4"
    with pytest.raises(ParseError):
        semiring_from_json({"family": "nope"})
    with pytest.raises(ParseError):
        semiring_from_json({"family": "trunc", "x": "2"})


def test_matrix_roundtrip():
    rng = derive_rng(50, "ser-matrix")
    cases = [
        (tropical(), UT),
        (trunc(1, 3), FULL),
        (chain(5), FULL),
        (nat_max(adjoined_zero=True), UNI),
    ]
    for desc, family in cases:
        m = sample_matrix(desc, 3, rng, family)
        obj = matrix_to_json(m)
        assert obj["n"] == 3 and obj["family"] == family
        assert matrices_from_json([obj]) == [m]
    seq = [sample_matrix(tropical(), 2, rng) for _ in range(4)]
    parsed = matrices_from_json(matrices_to_json(seq))
    assert parsed == seq
    assert all(m.semiring is parsed[0].semiring for m in parsed)  # one shared descriptor
    assert matrices_from_json({"matrices": matrices_to_json(seq)}) == seq
    with pytest.raises(ParseError):
        matrices_from_json([])
    bad = matrix_to_json(seq[0])
    bad["n"] = 3
    with pytest.raises(ParseError):
        matrices_from_json([bad])
    mixed = matrices_from_json([matrix_to_json(seq[0]), matrix_to_json(sample_matrix(trunc(1, 3), 2, rng))])
    assert mixed[1].semiring == trunc(1, 3)  # kept as parsed, for products to reject


def test_a_sequence_parses_each_semiring_object_once(monkeypatch):
    quotient = trunc12_congruence([F(9, 8), F(5, 4), F(3, 2), F(7, 4)])
    assert len(quotient.classes) == 11
    rng = derive_rng(52, "ser-once")
    seq = [sample_matrix(quotient.quotient_semiring(), 2, rng) for _ in range(200)]
    objs = json.loads(json.dumps(matrices_to_json(seq)))  # 200 equal but distinct semiring objects
    validations = []
    validate = FiniteSemiringTable.__post_init__
    monkeypatch.setattr(FiniteSemiringTable, "__post_init__", lambda table: validations.append(table) or validate(table))
    parsed = matrices_from_json(objs)
    assert len(validations) == 1
    assert parsed == seq
    assert all(m.semiring is parsed[0].semiring for m in parsed)
    # a later object that Python calls equal to the first is still parsed, and rejected
    objs[150]["semiring"]["size"] = float(objs[150]["semiring"]["size"])
    with pytest.raises(ParseError, match="size must be a JSON integer, got 11.0"):
        matrices_from_json(objs)


def test_witness_json():
    assert witness_to_json(Found((1, 0, 2), "adjacent_transposition", "equal_pair")) == {
        "kind": "found",
        "perm": [1, 0, 2],
        "strategy": "equal_pair",
    }
    assert witness_to_json(IdentityOnly(5)) == {
        "kind": "identity_only",
        "perm": None,
        "strategy": "exhaustive",
    }
    assert witness_to_json(NoneFoundUnderPolicy(SearchPolicy())) == {
        "kind": "none",
        "perm": None,
        "strategy": None,
    }


def test_quotient_json_shape():
    q = trunc12_congruence([F(3, 2)])
    obj = quotient_to_json(q)
    assert [c["kind"] for c in obj["classes"]] == ["singleton", "singleton", "interval", "singleton", "interval"]
    assert obj["classes"][2] == {"kind": "interval", "lo": 1, "hi": "3/2", "lo_open": False, "hi_open": True}
    assert len(obj["add"]) == 5 and len(obj["mul"]) == 5
    q2 = chain_congruence(chain(6), [Atom(2)])
    obj2 = quotient_to_json(q2)
    assert obj2["classes"][0] == {"kind": "interval", "lo": {"atom": 0}, "hi": {"atom": 1}, "lo_open": False, "hi_open": False}


def test_classification_json_shape():
    obj = classification_to_json(classify_truncated(0, 7))
    assert obj["canonical"] == "T01"
    assert obj["map"]["segments"][0] == {
        "lo": "0",
        "hi": "7",
        "slope": "1/7",
        "intercept": "0",
        "lo_open": False,
        "hi_open": False,
    }
    obj = classification_to_json(classify_truncated(1, F(7, 2)))
    assert obj["canonical"] == {"T1": "7/2"}
    obj = classification_to_json(classify_truncated(3, 7))
    assert len(obj["map"]["segments"]) == 3
