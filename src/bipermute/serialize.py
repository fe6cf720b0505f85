"""JSON wire formats for semirings, matrices, witnesses, quotients and reports.

All rationals are emitted exactly (integers as JSON integers, fractions as
"p/q" strings); reports contain no floats and no timestamps, so identical
inputs and seeds serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional, Sequence

from .errors import ParseError, clip
from .matrices import Matrix
from .permutability import Found, IdentityOnly, NoneFoundUnderPolicy, PermutationWitness
from .quotients import CongruenceQuotient, Singleton
from .scalars import parse_rational, rational_str, scalar_from_json, scalar_to_json
from .semirings import (
    BOOLEAN,
    CHAIN,
    NAT_MAX,
    NEG_NAT_MAX,
    TABLE,
    TROPICAL,
    TRUNC,
    TRUNC_NAT,
    TRUNC_NEG_NAT,
    Finite,
    FiniteSemiringTable,
    IsoNMax,
    IsoNegNMax,
    IsoTruncNat,
    Semiring,
    adjoin_zero,
    boolean,
    chain,
    nat_max,
    neg_nat_max,
    table_semiring,
    tropical,
    trunc,
    trunc_nat,
    trunc_neg_nat,
)
from .trunciso import IsoClassification

# the version every report states, the acceptance report included
SCHEMA_VERSION = 1


def semiring_to_json(desc: Semiring) -> dict:
    out: dict = {"family": desc.family}
    if desc.family == TRUNC:
        out["x"] = rational_str(desc.x)
        out["y"] = rational_str(desc.y)
    elif desc.family in (TRUNC_NAT, TRUNC_NEG_NAT):
        out["k"] = desc.k
    elif desc.family == CHAIN:
        out["size"] = desc.size
    elif desc.family == TABLE:
        out["size"] = desc.table.size
        out["add"] = [list(row) for row in desc.table.add]
        out["mul"] = [list(row) for row in desc.table.mul]
    out["adjoined_zero"] = desc.adjoined_zero
    return out


def _json_int(value, name: str) -> int:
    """An integer field of the wire format: a JSON integer, never a float or a boolean."""
    if type(value) is not int:
        raise ParseError(f"{name} must be a JSON integer, got {clip(value)}")
    return value


def semiring_from_json(obj: dict, validate_tables: bool = True) -> Semiring:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError(f"not a semiring object: {clip(obj)}")
    family = obj["family"]
    adjoined = obj.get("adjoined_zero", False)
    if not isinstance(adjoined, bool):
        raise ParseError(f"adjoined_zero must be a JSON boolean, got {clip(adjoined)}")
    try:
        if family == TROPICAL:
            desc = tropical()
        elif family == NAT_MAX:
            desc = nat_max()
        elif family == NEG_NAT_MAX:
            desc = neg_nat_max()
        elif family == TRUNC:
            desc = trunc(parse_rational(obj["x"]), parse_rational(obj["y"]))
        elif family == TRUNC_NAT:
            desc = trunc_nat(_json_int(obj["k"], "k"))
        elif family == TRUNC_NEG_NAT:
            desc = trunc_neg_nat(_json_int(obj["k"], "k"))
        elif family == CHAIN:
            desc = chain(_json_int(obj["size"], "size"))
        elif family == BOOLEAN:
            desc = boolean()
        elif family == TABLE:
            add = tuple(tuple(_json_int(v, "a table entry") for v in row) for row in obj["add"])
            mul = tuple(tuple(_json_int(v, "a table entry") for v in row) for row in obj["mul"])
            size = _json_int(obj["size"], "size")
            desc = table_semiring(FiniteSemiringTable(size, add, mul, validate=validate_tables))
        else:
            raise ParseError(f"unknown semiring family {clip(family)}")
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"malformed semiring object: {clip(obj)}") from exc
    return adjoin_zero(desc) if adjoined else desc


def matrix_to_json(m: Matrix) -> dict:
    return {
        "n": m.n,
        "family": m.family,
        "semiring": semiring_to_json(m.semiring),
        "entries": [[scalar_to_json(v) for v in row] for row in m.entries],
    }


def _matrix_from_json(obj, semirings: dict) -> Matrix:
    """A matrix; ``semirings`` keeps the descriptor of each semiring object parsed so far.

    Keys are reprs, since JSON values Python calls equal (2, 2.0, true) parse differently.
    """
    try:
        key = repr(obj["semiring"])
        desc = semirings.get(key)
        if desc is None:
            desc = semirings[key] = semiring_from_json(obj["semiring"])
        rows = [[scalar_from_json(v) for v in row] for row in obj["entries"]]
        m = Matrix.make(desc, obj["family"], rows)
        if m.n != _json_int(obj["n"], "n"):
            raise ParseError(f"declared dimension {clip(obj['n'])} does not match entries")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {clip(obj)}") from exc
    return m


def matrices_to_json(seq: Sequence[Matrix]) -> list:
    return [matrix_to_json(m) for m in seq]


def matrices_from_json(obj) -> list[Matrix]:
    """Accept either a bare list of matrices or an object with a "matrices" key.

    Equal semiring objects are parsed once into one shared descriptor, which
    lets products pass the identity shortcut of the semiring check.
    """
    if isinstance(obj, dict) and "matrices" in obj:
        obj = obj["matrices"]
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty list of matrices")
    semirings: dict = {}
    return [_matrix_from_json(m, semirings) for m in obj]


def witness_to_json(w: PermutationWitness) -> dict:
    if isinstance(w, Found):
        return {"kind": "found", "perm": list(w.perm), "strategy": w.strategy}
    if isinstance(w, IdentityOnly):
        return {"kind": "identity_only", "perm": None, "strategy": "exhaustive"}
    if isinstance(w, NoneFoundUnderPolicy):
        return {"kind": "none", "perm": None, "strategy": None}
    raise ParseError(f"not a witness: {clip(w)}")


def quotient_to_json(q: CongruenceQuotient) -> dict:
    classes = []
    for cls in q.classes:
        if isinstance(cls, Singleton):
            classes.append({"kind": "singleton", "value": scalar_to_json(cls.value)})
        else:
            classes.append(
                {
                    "kind": "interval",
                    "lo": scalar_to_json(cls.lo),
                    "hi": scalar_to_json(cls.hi),
                    "lo_open": cls.lo_open,
                    "hi_open": cls.hi_open,
                }
            )
    return {
        "classes": classes,
        "add": [list(row) for row in q.tables.add],
        "mul": [list(row) for row in q.tables.mul],
    }


def classification_to_json(c: IsoClassification) -> dict:
    segments = [
        {
            "lo": rational_str(s.lo),
            "hi": rational_str(s.hi),
            "slope": rational_str(s.slope),
            "intercept": rational_str(s.intercept),
            "lo_open": s.lo_open,
            "hi_open": s.hi_open,
        }
        for s in c.map.segments
    ]
    return {"canonical": c.canonical_label(), "map": {"segments": segments}}


def check_report_to_json(report) -> dict:
    """A report of law checks: its own fields in declaration order, then ``passed``."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    if "semiring" in out:
        out["semiring"] = semiring_to_json(out["semiring"])
    out["checks"] = [
        {"name": c.name, "passed": c.passed, "counterexample": _scalars_to_json(c.counterexample)}
        for c in out["checks"]
    ]
    out["passed"] = report.passed
    return out


def _scalars_to_json(values) -> Optional[list]:
    return None if values is None else [scalar_to_json(v) for v in values]


def order_to_json(res) -> dict:
    if isinstance(res, Finite):
        return {"kind": "finite", "order": res.order, "stabilization_index": res.stabilization_index}
    return {"kind": "infinite", "certificate": res.certificate}


def monogenic_class_to_json(cls) -> dict:
    if isinstance(cls, IsoNMax):
        return {"kind": "n_max"}
    if isinstance(cls, IsoNegNMax):
        return {"kind": "neg_n_max"}
    if isinstance(cls, IsoTruncNat):
        return {"kind": "trunc_nat", "k": cls.k}
    return {"kind": "trunc_neg_nat", "k": cls.k}
