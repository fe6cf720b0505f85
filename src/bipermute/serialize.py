"""JSON wire formats for semirings, matrices, witnesses, quotients and reports.

All rationals are emitted exactly (integers as JSON integers, fractions as
"p/q" strings); reports contain no floats and no timestamps, so identical
inputs and seeds serialize byte-identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParseError
from .matrices import Matrix
from .permutability import Found, IdentityOnly, NoneFoundUnderPolicy, PermutationWitness
from .quotients import CongruenceQuotient, CongruenceReport, Singleton
from .scalars import rational_str, scalar_from_json, scalar_to_json
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
    AxiomReport,
    FiniteSemiringTable,
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
from .trunciso import IsoClassification, IsoReport


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
        raise ParseError(f"{name} must be a JSON integer, got {value!r}")
    return value


def semiring_from_json(obj: dict, validate_tables: bool = True) -> Semiring:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParseError(f"not a semiring object: {obj!r}")
    family = obj["family"]
    adjoined = obj.get("adjoined_zero", False)
    if not isinstance(adjoined, bool):
        raise ParseError(f"adjoined_zero must be a JSON boolean, got {adjoined!r}")
    try:
        if family == TROPICAL:
            desc = tropical()
        elif family == NAT_MAX:
            desc = nat_max()
        elif family == NEG_NAT_MAX:
            desc = neg_nat_max()
        elif family == TRUNC:
            desc = trunc(Fraction(str(obj["x"])), Fraction(str(obj["y"])))
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
            raise ParseError(f"unknown semiring family {family!r}")
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"malformed semiring object: {obj!r}") from exc
    return adjoin_zero(desc) if adjoined else desc


def matrix_to_json(m: Matrix) -> dict:
    return {
        "n": m.n,
        "family": m.family,
        "semiring": semiring_to_json(m.semiring),
        "entries": [[scalar_to_json(v) for v in row] for row in m.entries],
    }


def matrix_from_json(obj: dict) -> Matrix:
    try:
        desc = semiring_from_json(obj["semiring"])
        rows = [[scalar_from_json(v) for v in row] for row in obj["entries"]]
        m = Matrix.make(desc, obj["family"], rows)
        if m.n != _json_int(obj["n"], "n"):
            raise ParseError(f"declared dimension {obj['n']} does not match entries")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix object: {obj!r}") from exc
    return m


def matrices_to_json(seq: Sequence[Matrix]) -> list:
    return [matrix_to_json(m) for m in seq]


def matrices_from_json(obj) -> list[Matrix]:
    """Accept either a bare list of matrices or an object with a "matrices" key."""
    if isinstance(obj, dict) and "matrices" in obj:
        obj = obj["matrices"]
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty list of matrices")
    seq = [matrix_from_json(m) for m in obj]
    # equal descriptors become one object, so that products of the sequence
    # pass the identity shortcut of the semiring check
    desc = seq[0].semiring
    return [Matrix(desc, m.family, m.entries) if m.semiring == desc else m for m in seq]


def witness_to_json(w: PermutationWitness) -> dict:
    if isinstance(w, Found):
        return {"kind": "found", "perm": list(w.perm), "strategy": w.strategy}
    if isinstance(w, IdentityOnly):
        return {"kind": "identity_only", "perm": None, "strategy": "exhaustive"}
    if isinstance(w, NoneFoundUnderPolicy):
        return {"kind": "none", "perm": None, "strategy": None}
    raise ParseError(f"not a witness: {w!r}")


def _bound_to_json(v) -> Optional[object]:
    return None if v is None else scalar_to_json(v)


def quotient_to_json(q: CongruenceQuotient) -> dict:
    classes = []
    for cls in q.classes:
        if isinstance(cls, Singleton):
            classes.append({"kind": "singleton", "value": scalar_to_json(cls.value)})
        else:
            classes.append(
                {
                    "kind": "interval",
                    "lo": _bound_to_json(cls.lo),
                    "hi": _bound_to_json(cls.hi),
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


def _named_checks_to_json(checks) -> list:
    out = []
    for c in checks:
        ce = None
        if c.counterexample is not None:
            ce = [scalar_to_json(v) for v in c.counterexample]
        out.append({"name": c.name, "passed": c.passed, "counterexample": ce})
    return out


def axiom_report_to_json(report: AxiomReport) -> dict:
    return {
        "semiring": semiring_to_json(report.semiring),
        "mode": report.mode,
        "checks": _named_checks_to_json(report.checks),
        "passed": report.passed,
    }


def congruence_report_to_json(report: CongruenceReport) -> dict:
    return {
        "mode": report.mode,
        "checks": _named_checks_to_json(report.checks),
        "passed": report.passed,
    }


def iso_report_to_json(report: IsoReport) -> dict:
    return {
        "trials": report.trials,
        "checks": _named_checks_to_json(report.checks),
        "passed": report.passed,
    }

