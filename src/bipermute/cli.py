"""Batch command-line front end.

Subcommands: axioms, classify-element, classify-semiring, product, permute,
witness, quotient, iso, verify-all.  Input objects are JSON files in the
wire formats of :mod:`bipermute.serialize`; reports are JSON with a stable
field order and a schema version, containing no floats or timestamps, so the
same config and seed always produce byte-identical output.

Exit codes: 0 when every executed check passed (or the command is purely
informational), 1 when a check failed or a search was inconclusive, 2 for
malformed input or parameters, 3 for an internal error (the code contradicted
a theorem it implements).  The seed defaults to 1729; the environment
variable BIPERMUTE_SEED overrides that default only when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import acceptance
from .constructions import (
    BicyclicElement,
    bicyclic_mul,
    bicyclic_rho,
    default_epsilon,
    witness_M3_trunc,
    witness_M3_trunc_partial_product,
    witness_U3_Nmax,
    witness_U3_Nmax_partial_product,
    witness_U3_negNmax,
    witness_U3_negNmax_partial_product,
)
from .errors import BipermuteError, InvariantViolation, ParseError
from .matrices import seq_product
from .permutability import EXHAUSTIVE_CAP_DEFAULT, Found, IdentityOnly, SearchPolicy, find_preserving_permutation
from .quotients import protecting_congruence, verify_congruence
from .sampling import DEFAULT_SEED, derive_rng
from .scalars import parse_rational, scalar_from_json, scalar_to_json
from .semirings import (
    DEFAULT_ORDER_CAP,
    TRUNC,
    Exhaustive,
    Finite,
    Infinite,
    IsoNMax,
    IsoNegNMax,
    IsoTruncNat,
    IsoTruncNegNat,
    Sampled,
    check_axioms,
    classify_monogenic,
    element_order,
)
from .serialize import (
    axiom_report_to_json,
    classification_to_json,
    congruence_report_to_json,
    iso_report_to_json,
    matrices_from_json,
    matrices_to_json,
    matrix_to_json,
    quotient_to_json,
    semiring_from_json,
    witness_to_json,
)
from .trunciso import classify_truncated, verify_iso

SCHEMA_VERSION = 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BIPERMUTE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"BIPERMUTE_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _check_counts(args) -> None:
    for name in ("trials", "cap", "m"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ParseError(f"--{name} must be non-negative, got {value}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, or no permission
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _load_semiring(args, validate_tables: bool = True):
    if getattr(args, "inline", None):
        try:
            obj = json.loads(args.inline)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed inline JSON: {exc}") from exc
        return semiring_from_json(obj, validate_tables=validate_tables)
    if getattr(args, "semiring", None):
        return semiring_from_json(_load_json(args.semiring), validate_tables=validate_tables)
    raise ParseError("provide a semiring with --semiring FILE or --inline JSON")


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_scalar_arg(text: str):
    """A scalar in its wire format, or a bare rational such as 3/2 or 1.5."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = text
    if isinstance(obj, float):  # a decimal: parse its text exactly
        obj = text
    return scalar_from_json(obj)


def _check_mode(args, desc, default_trials: int):
    """Every element of a finite carrier, else ``--trials`` seeded draws."""
    if desc.carrier_elements() is not None:
        return Exhaustive()
    return Sampled(seed=_resolve_seed(args), trials=args.trials or default_trials)


# -- subcommand implementations ----------------------------------------------


def _cmd_axioms(args) -> int:
    # suspect tables are loaded unvalidated so the law failure lands in the
    # report (with its counterexample) rather than in a parse error
    desc = _load_semiring(args, validate_tables=False)
    report = check_axioms(desc, _check_mode(args, desc, 1000))
    _emit({"schema": SCHEMA_VERSION, "command": "axioms", **axiom_report_to_json(report)}, args.out)
    return 0 if report.passed else 1


def _order_to_json(res) -> dict:
    if isinstance(res, Finite):
        return {"kind": "finite", "order": res.order, "stabilization_index": res.stabilization_index}
    if isinstance(res, Infinite):
        return {"kind": "infinite", "certificate": res.certificate}
    return {"kind": "unknown", "cap": res.cap}


def _class_to_json(cls) -> dict:
    if isinstance(cls, IsoNMax):
        return {"kind": "n_max"}
    if isinstance(cls, IsoNegNMax):
        return {"kind": "neg_n_max"}
    if isinstance(cls, IsoTruncNat):
        return {"kind": "trunc_nat", "k": cls.k}
    if isinstance(cls, IsoTruncNegNat):
        return {"kind": "trunc_neg_nat", "k": cls.k}
    return {"kind": "unknown", "cap": cls.cap}


def _cmd_classify_element(args) -> int:
    desc = _load_semiring(args)
    element = _parse_scalar_arg(args.element)
    cap = args.cap or DEFAULT_ORDER_CAP
    order = element_order(desc, element, cap=cap)
    cls = classify_monogenic(desc, element, cap=cap)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "classify-element",
            "element": scalar_to_json(element),
            "order": _order_to_json(order),
            "classification": _class_to_json(cls),
        },
        args.out,
    )
    return 0


def _cmd_classify_semiring(args) -> int:
    desc = _load_semiring(args)
    if desc.family != TRUNC:
        raise ParseError("classify-semiring applies to truncated semirings (family 'trunc')")
    cl = classify_truncated(desc.x, desc.y)
    _emit(
        {"schema": SCHEMA_VERSION, "command": "classify-semiring", **classification_to_json(cl)},
        args.out,
    )
    return 0


def _cmd_product(args) -> int:
    seq = matrices_from_json(_load_json(args.input))
    product = seq_product(seq)
    _emit(
        {"schema": SCHEMA_VERSION, "command": "product", "length": len(seq), "product": matrix_to_json(product)},
        args.out,
    )
    return 0


def _cmd_permute(args) -> int:
    seq = matrices_from_json(_load_json(args.input))
    policy = SearchPolicy(
        exhaustive_cap=args.cap if args.cap is not None else EXHAUSTIVE_CAP_DEFAULT,
        random_trials=args.trials or 0,
        seed=_resolve_seed(args),
    )
    witness = find_preserving_permutation(seq, policy)
    _emit(
        {"schema": SCHEMA_VERSION, "command": "permute", "length": len(seq), **witness_to_json(witness)},
        args.out,
    )
    return 0 if isinstance(witness, (Found, IdentityOnly)) else 1


def _cmd_witness(args) -> int:
    family = args.family
    seed = _resolve_seed(args)
    params: dict = {}
    if family == "u3_nmax":
        m = _require_m(args)
        seq = witness_U3_Nmax(m)
        closed = witness_U3_Nmax_partial_product(m, m)
        params = {"m": m}
    elif family == "u3_negnmax":
        m = _require_m(args)
        seq = witness_U3_negNmax(m)
        closed = witness_U3_negNmax_partial_product(m, m)
        params = {"m": m}
    elif family == "m3_trunc":
        m = _require_m(args)
        z = parse_rational(args.z) if args.z else 3
        eps = parse_rational(args.eps) if args.eps else default_epsilon(Fraction(z))
        seq = witness_M3_trunc(z, eps, m)
        closed = witness_M3_trunc_partial_product(z, eps, m, m)
        params = {"m": m, "z": str(Fraction(z)), "eps": str(Fraction(eps))}
    elif family == "bicyclic_rho":
        if args.input:
            elements = [BicyclicElement(i, j) for i, j in _bicyclic_pairs(_load_json(args.input))]
        else:
            m = args.m or 6
            rng = derive_rng(seed, "witness", "bicyclic_rho")
            elements = [BicyclicElement(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(m)]
        seq = [bicyclic_rho(e) for e in elements]
        total = elements[0]
        for e in elements[1:]:
            total = bicyclic_mul(total, e)
        closed = bicyclic_rho(total)
        params = {"elements": [[e.i, e.j] for e in elements]}
    else:
        raise ParseError(f"unknown witness family {family!r}")
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "witness",
            "family": family,
            "params": params,
            "closed_form": matrix_to_json(closed),
            "matrices": matrices_to_json(seq),
        },
        args.out,
    )
    return 0


def _bicyclic_pairs(obj) -> list:
    """The input of ``witness bicyclic_rho``: a non-empty list of [i, j] integer pairs."""
    if isinstance(obj, list) and obj and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in obj
    ):
        return obj
    raise ParseError("bicyclic_rho input must be a non-empty list of [i, j] integer pairs")


def _require_m(args) -> int:
    if args.m is None:
        raise ParseError("this family needs --m")
    return args.m


def _cmd_quotient(args) -> int:
    desc = _load_semiring(args)
    protected = [scalar_from_json(v) for v in _load_json(args.input)]
    quotient = protecting_congruence(desc, protected)
    verification = verify_congruence(quotient, _check_mode(args, desc, 2000))
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "quotient",
            "quotient": quotient_to_json(quotient),
            "classes": len(quotient.classes),
            "verification": congruence_report_to_json(verification),
        },
        args.out,
    )
    return 0 if verification.passed else 1


def _cmd_iso(args) -> int:
    desc = _load_semiring(args)
    if desc.family != TRUNC:
        raise ParseError("iso applies to truncated semirings (family 'trunc')")
    cl = classify_truncated(desc.x, desc.y)
    report = verify_iso(cl.map, cl.source, cl.target, seed=_resolve_seed(args), trials=args.trials or 1000)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "iso",
            **classification_to_json(cl),
            "verification": iso_report_to_json(report),
        },
        args.out,
    )
    return 0 if report.passed else 1


def _cmd_verify_all(args) -> int:
    try:
        report = acceptance.run_acceptance(
            seed=_resolve_seed(args),
            items=args.item or None,
            trials=args.trials,
        )
    except KeyError as exc:
        raise ParseError(str(exc)) from exc
    for item in report["items"]:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"{status}  {item['name']}", file=sys.stderr)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


# -- argument parsing ----------------------------------------------------------


def _add_common(parser, semiring=False, inp=False, out=True, seed=True, trials=False, cap=False):
    if semiring:
        parser.add_argument("--semiring", help="path to a semiring JSON file")
        parser.add_argument("--inline", help="semiring JSON given inline")
    if inp:
        parser.add_argument("--input", help="path to an input JSON file")
    if out:
        parser.add_argument("--out", help="write the JSON report here instead of stdout")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="root seed (default 1729; env BIPERMUTE_SEED)")
    if trials:
        parser.add_argument("--trials", type=int, default=None, help="trial count / fast-mode scale")
    if cap:
        parser.add_argument("--cap", type=int, default=None, help="exhaustive enumeration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipermute",
        description="Exact computations in matrix semigroups over bipotent semirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="verify the semiring laws of one semiring")
    _add_common(p, semiring=True, trials=True)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("classify-element", help="order and monogenic class of one element")
    _add_common(p, semiring=True, cap=True)
    p.add_argument("element", help='scalar literal: 5, "3/2", "-inf", or {"atom": 3}')
    p.set_defaults(func=_cmd_classify_element)

    p = sub.add_parser("classify-semiring", help="canonical form of a truncated semiring")
    _add_common(p, semiring=True, seed=False)
    p.set_defaults(func=_cmd_classify_semiring)

    p = sub.add_parser("product", help="product of a matrix sequence file")
    _add_common(p, inp=True, seed=False)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("permute", help="search for a product-preserving permutation")
    _add_common(p, inp=True, trials=True, cap=True)
    p.set_defaults(func=_cmd_permute)

    p = sub.add_parser("witness", help="generate a named witness family")
    _add_common(p, inp=True)
    p.add_argument("family", choices=["u3_nmax", "u3_negnmax", "m3_trunc", "bicyclic_rho"])
    p.add_argument("--m", type=int, default=None, help="sequence length")
    p.add_argument("--z", default=None, help="truncation bound (rational, m3_trunc)")
    p.add_argument("--eps", default=None, help="perturbation (rational, m3_trunc)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("quotient", help="build and verify a protecting congruence")
    _add_common(p, semiring=True, inp=True, trials=True)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("iso", help="classify a truncated semiring and verify the map")
    _add_common(p, semiring=True, trials=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    _add_common(p, trials=True)
    p.add_argument("--item", action="append", help="run only this item (repeatable)")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BipermuteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
