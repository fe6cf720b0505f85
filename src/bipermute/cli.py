"""Batch command-line front end.

Subcommands: axioms, classify-element, classify-semiring, product, permute,
witness, quotient, iso, verify-all.  Input objects are JSON files in the
wire formats of :mod:`bipermute.serialize`; reports are JSON with a stable
field order and a schema version, containing no floats or timestamps, so the
same config and seed always produce byte-identical output.

Each subcommand is one row of ``COMMANDS``: help text, shared options, own
arguments, and a handler returning the report's fields and whether every
check passed.  ``main`` alone adds the header, writes and sets the exit code.

Exit codes: 0 when every executed check passed (or the command is purely
informational), 1 when a check failed or a search was inconclusive, 2 for
malformed input or parameters, 3 for an internal error (the code contradicted
a theorem it implements).  The root seed is --seed, 1729 when absent; no
environment variable changes a report.
``axioms`` checks every case of a finite carrier whose worst case fits the
search budget (up to 116 elements), and ``--trials`` seeded draws otherwise;
``quotient`` checks its congruence exactly, on a finite skeleton of the carrier.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple, Optional

from . import acceptance
from .constructions import RIGID_FAMILIES, BicyclicElement, bicyclic_mul, bicyclic_rho, default_epsilon
from .errors import BipermuteError, InvariantViolation, ParseError, clip
from .matrices import seq_product
from .permutability import Found, IdentityOnly, SearchPolicy, find_preserving_permutation
from .quotients import protecting_congruence, verify_congruence
from .sampling import DEFAULT_SEED, derive_rng
from .scalars import parse_rational, scalar_from_json, scalar_to_json
from .semirings import TRUNC, check_axioms, classify_monogenic, element_order
from .serialize import (
    SCHEMA_VERSION,
    check_report_to_json,
    classification_to_json,
    matrices_from_json,
    matrices_to_json,
    matrix_to_json,
    monogenic_class_to_json,
    order_to_json,
    quotient_to_json,
    semiring_from_json,
    witness_to_json,
)
from .trunciso import classify_truncated, verify_iso


def _check_counts(args) -> None:
    for name in ("trials", "m"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ParseError(f"--{name} must be non-negative, got {clip(value)}")


def _load_json(path: Optional[str]):
    if path is None:
        raise ParseError("provide an input file with --input FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, or no permission
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer of more digits than Python converts
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _load_semiring(args, validate_tables: bool = True):
    if args.inline:
        try:
            obj = json.loads(args.inline)
        except ValueError as exc:
            raise ParseError(f"malformed inline JSON: {exc}") from exc
        return semiring_from_json(obj, validate_tables=validate_tables)
    if args.semiring:
        return semiring_from_json(_load_json(args.semiring), validate_tables=validate_tables)
    raise ParseError("provide a semiring with --semiring FILE or --inline JSON")


def _parse_scalar_arg(text: str):
    """A scalar in its wire format, or a bare rational such as 3/2 or 1.5."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        if text.startswith(("{", "[", '"')):  # meant as JSON, so its error is the one to report
            raise ParseError(f"malformed scalar JSON {clip(text)}: {exc}") from exc
        obj = text
    if isinstance(obj, float):  # a decimal: parse its text exactly
        obj = text
    return scalar_from_json(obj)


def _truncated(args):
    desc = _load_semiring(args)
    if desc.family != TRUNC:
        raise ParseError(f"{args.command} applies to truncated semirings (family 'trunc')")
    return classify_truncated(desc.x, desc.y)


# -- subcommand handlers: each returns (report fields, passed) ------------------


def _cmd_axioms(args):
    # suspect tables are loaded unvalidated so the law failure lands in the
    # report (with its counterexample) rather than in a parse error
    desc = _load_semiring(args, validate_tables=False)
    report = check_axioms(desc, args.seed, args.trials or 1000)
    return check_report_to_json(report), report.passed


def _cmd_classify_element(args):
    desc = _load_semiring(args)
    element = _parse_scalar_arg(args.element)
    order = order_to_json(element_order(desc, element))
    cls = monogenic_class_to_json(classify_monogenic(desc, element))
    return {"element": scalar_to_json(element), "order": order, "classification": cls}, True


def _cmd_classify_semiring(args):
    return classification_to_json(_truncated(args)), True


def _cmd_product(args):
    seq = matrices_from_json(_load_json(args.input))
    return {"length": len(seq), "product": matrix_to_json(seq_product(seq))}, True


def _cmd_permute(args):
    seq = matrices_from_json(_load_json(args.input))
    witness = find_preserving_permutation(seq, SearchPolicy(random_trials=args.trials or 0, seed=args.seed))
    return {"length": len(seq), **witness_to_json(witness)}, isinstance(witness, (Found, IdentityOnly))


def _cmd_witness(args):
    if args.family == "bicyclic_rho":
        if args.input:
            elements = [BicyclicElement(i, j) for i, j in _bicyclic_pairs(_load_json(args.input))]
        else:
            rng = derive_rng(args.seed, "witness", "bicyclic_rho")
            elements = [BicyclicElement(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(args.m or 6)]
        seq = [bicyclic_rho(e) for e in elements]
        closed = bicyclic_rho(reduce(bicyclic_mul, elements))
        params: dict = {"elements": [[e.i, e.j] for e in elements]}
    else:
        if args.m is None:
            raise ParseError("this family needs --m")
        family, params, extra = RIGID_FAMILIES[args.family], {"m": args.m}, {}
        if args.family == "m3_trunc":
            z = parse_rational(args.z) if args.z else 3
            eps = parse_rational(args.eps) if args.eps else default_epsilon(Fraction(z))
            extra = {"z": z, "eps": eps}
            params.update(z=str(Fraction(z)), eps=str(Fraction(eps)))
        seq = family.sequence(args.m, **extra)
        closed = family.partial_product(args.m, args.m, **extra)
    fields = {"family": args.family, "params": params, "closed_form": matrix_to_json(closed)}
    return {**fields, "matrices": matrices_to_json(seq)}, True


def _bicyclic_pairs(obj) -> list:
    """The input of ``witness bicyclic_rho``: a non-empty list of [i, j] integer pairs."""
    if isinstance(obj, list) and obj and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in obj
    ):
        return obj
    raise ParseError("bicyclic_rho input must be a non-empty list of [i, j] integer pairs")


def _cmd_quotient(args):
    desc = _load_semiring(args)
    values = _load_json(args.input)
    if not isinstance(values, list):
        raise ParseError("quotient input must be a JSON list of scalars")
    quotient = protecting_congruence(desc, [scalar_from_json(v) for v in values])
    verification = verify_congruence(quotient)
    fields = {"quotient": quotient_to_json(quotient), "classes": len(quotient.classes)}
    return {**fields, "verification": check_report_to_json(verification)}, verification.passed


def _cmd_iso(args):
    cl = _truncated(args)
    report = verify_iso(cl.map, cl.source, cl.target, seed=args.seed, trials=args.trials or 1000)
    return {**classification_to_json(cl), "verification": check_report_to_json(report)}, report.passed


def _cmd_verify_all(args):
    try:
        report = acceptance.run_acceptance(seed=args.seed, items=args.item or None, trials=args.trials)
    except KeyError as exc:
        raise ParseError(str(exc)) from exc
    for item in report["items"]:
        print(f"{'PASS' if item['passed'] else 'FAIL'}  {item['name']}", file=sys.stderr)
    return report, report["passed"]


# -- the command table -----------------------------------------------------------


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # flags of _OPTIONS, in the order --help lists them
    handler: Callable[[argparse.Namespace], tuple[dict, bool]]
    arguments: tuple[tuple[str, dict], ...] = ()  # the command's own (flag, settings)
    header: bool = True  # whether main puts {"schema", "command"} in front


_OPTIONS: dict[str, dict] = {
    "--semiring": {"help": "path to a semiring JSON file"},
    "--inline": {"help": "semiring JSON given inline"},
    "--input": {"help": "path to an input JSON file"},
    "--out": {"help": "write the JSON report here instead of stdout"},
    "--seed": {"type": int, "default": DEFAULT_SEED, "help": f"root seed (default {DEFAULT_SEED})"},
    "--trials": {"type": int, "help": "trial count / fast-mode scale"},
}
_SEMIRING = ("--semiring", "--inline")

COMMANDS: dict[str, Command] = {
    "axioms": Command(
        "verify the semiring laws of one semiring", (*_SEMIRING, "--out", "--seed", "--trials"), _cmd_axioms
    ),
    "classify-element": Command(
        "order and monogenic class of one element",
        (*_SEMIRING, "--out"),
        _cmd_classify_element,
        (("element", {"help": 'scalar literal: 5, "3/2", "-inf", or {"atom": 3}'}),),
    ),
    "classify-semiring": Command(
        "canonical form of a truncated semiring", (*_SEMIRING, "--out"), _cmd_classify_semiring
    ),
    "product": Command("product of a matrix sequence file", ("--input", "--out"), _cmd_product),
    "permute": Command(
        "search for a product-preserving permutation", ("--input", "--out", "--seed", "--trials"), _cmd_permute
    ),
    "witness": Command(
        "generate a named witness family",
        ("--input", "--out", "--seed"),
        _cmd_witness,
        (
            ("family", {"choices": [*RIGID_FAMILIES, "bicyclic_rho"]}),
            ("--m", {"type": int, "help": "sequence length"}),
            ("--z", {"help": "truncation bound (rational, m3_trunc)"}),
            ("--eps", {"help": "perturbation (rational, m3_trunc)"}),
        ),
    ),
    "quotient": Command(
        "build and verify a protecting congruence",
        (*_SEMIRING, "--input", "--out"),
        _cmd_quotient,
    ),
    "iso": Command(
        "classify a truncated semiring and verify the map", (*_SEMIRING, "--out", "--seed", "--trials"), _cmd_iso
    ),
    # the acceptance report carries its own header, with the seed and mode
    "verify-all": Command(
        "run the acceptance suite",
        ("--out", "--seed", "--trials"),
        _cmd_verify_all,
        (("--item", {"action": "append", "help": "run only this item (repeatable)"}),),
        header=False,
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line and exit code 2, like every other input error; ``--help`` is unchanged."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bipermute",
        description="Exact computations in matrix semigroups over bipotent semirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.options:
            p.add_argument(flag, **_OPTIONS[flag])
        for flag, settings in command.arguments:
            p.add_argument(flag, **settings)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        _check_counts(args)
        fields, passed = command.handler(args)
        report = {"schema": SCHEMA_VERSION, "command": args.command, **fields} if command.header else fields
        text = json.dumps(report, indent=2) + "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
        return 0 if passed else 1
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BipermuteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a report number past Python's int-to-text digit limit; any other is a bug
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the report has a number too long to print: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
