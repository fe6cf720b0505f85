"""End-to-end CLI behaviour: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bipermute import acceptance, cli, permutability, semirings
from bipermute.cli import main
from bipermute.errors import InvariantViolation
from bipermute.semirings import adjoin_zero, chain, check_axioms, tropical, trunc_nat, trunc_neg_nat

ROOT = Path(__file__).resolve().parent.parent


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def load(path):
    return json.loads(path.read_text())


def test_axioms_pass_and_fail(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["axioms", "--inline", '{"family":"boolean"}', "--out", str(out)]) == 0
    assert load(out)["passed"] is True

    bad = write(
        tmp_path / "bad.json",
        {
            "family": "table",
            "size": 3,
            "add": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
            "mul": [[0, 2, 1], [1, 1, 1], [1, 1, 2]],
        },
    )
    assert main(["axioms", "--semiring", bad, "--out", str(out)]) == 1
    rep = load(out)
    assert rep["passed"] is False
    failing = [c for c in rep["checks"] if not c["passed"]]
    assert failing and all(c["counterexample"] for c in failing)

    assert main(["axioms", "--inline", '{"family":"trunc","x":"1","y":"2"}', "--trials", "400", "--out", str(out)]) == 0
    assert load(out)["mode"] == "sampled"


def test_product_and_permute(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", "u3_nmax", "--m", "5", "--out", str(out)]) == 0
    wobj = load(out)
    assert len(wobj["matrices"]) == 5
    assert wobj["closed_form"]["entries"][0][1] == 5

    prod_out = tmp_path / "p.json"
    assert main(["product", "--input", str(out), "--out", str(prod_out)]) == 0
    assert load(prod_out)["product"] == wobj["closed_form"]

    perm_out = tmp_path / "perm.json"
    assert main(["permute", "--input", str(out), "--out", str(perm_out)]) == 0
    assert load(perm_out)["kind"] == "identity_only"

    # an equal pair is found immediately
    pair = {"matrices": wobj["matrices"] + [wobj["matrices"][0]]}
    pair_file = write(tmp_path / "pair.json", pair)
    assert main(["permute", "--input", pair_file, "--out", str(perm_out)]) == 0
    assert load(perm_out)["strategy"] == "equal_pair"


def test_permute_none_found_is_nonzero(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "u3_nmax", "--m", "10", "--out", str(out)])
    perm_out = tmp_path / "perm.json"
    # a sweep of ten 3x3 matrices exceeds the search budget and no cheap rung applies
    rc = main(["permute", "--input", str(out), "--out", str(perm_out)])
    assert rc == 1
    assert load(perm_out)["kind"] == "none"


def test_permute_sweeps_the_longest_tuple_the_budget_admits(tmp_path):
    out = tmp_path / "w.json"
    main(["witness", "u3_nmax", "--m", "9", "--out", str(out)])
    perm_out = tmp_path / "perm.json"
    # W(9, 3) = 39,696,480 scalar products fits the budget of 4 * 10^7
    assert main(["permute", "--input", str(out), "--out", str(perm_out)]) == 0
    assert load(perm_out)["kind"] == "identity_only"


def test_witness_families_and_errors(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", "m3_trunc", "--m", "4", "--z", "3", "--eps", "1/2", "--out", str(out)]) == 0
    assert load(out)["params"] == {"m": 4, "z": "3", "eps": "1/2"}
    assert main(["witness", "m3_trunc", "--m", "4", "--z", "3", "--eps", "5", "--out", str(out)]) == 2
    assert main(["witness", "u3_nmax", "--out", str(out)]) == 2  # missing --m
    assert main(["witness", "bicyclic_rho", "--m", "4", "--out", str(out)]) == 0
    obj = load(out)
    assert len(obj["matrices"]) == 4 and len(obj["params"]["elements"]) == 4

    pairs = write(tmp_path / "pairs.json", [[0, 1], [1, 0]])
    assert main(["witness", "bicyclic_rho", "--input", pairs, "--out", str(out)]) == 0
    assert load(out)["closed_form"]["entries"] == [[0, 0], ["-inf", 0]]  # p q = 1


def test_quotient_and_iso(tmp_path):
    out = tmp_path / "q.json"
    xfile = write(tmp_path / "x.json", ["3/2"])
    assert main([
        "quotient", "--inline", '{"family":"trunc","x":"1","y":"2"}',
        "--input", xfile, "--out", str(out),
    ]) == 0
    rep = load(out)
    assert rep["classes"] == 5 and rep["verification"]["passed"]

    chain_x = write(tmp_path / "cx.json", [{"atom": 3}, {"atom": 7}])
    assert main(["quotient", "--inline", '{"family":"chain","size":10}', "--input", chain_x, "--out", str(out)]) == 0
    assert load(out)["verification"]["mode"] == "certified"

    assert main(["iso", "--inline", '{"family":"trunc","x":"2","y":"5"}', "--trials", "300", "--out", str(out)]) == 0
    rep = load(out)
    assert rep["canonical"] == "T1_2p5" and rep["verification"]["passed"]
    assert main(["classify-semiring", "--inline", '{"family":"trunc","x":"2","y":"4"}', "--out", str(out)]) == 0
    assert load(out)["canonical"] == "T12"
    assert main(["classify-semiring", "--inline", '{"family":"boolean"}']) == 2


def test_classify_element(tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify-element", "--inline", '{"family":"trunc","x":"1","y":"3"}', "1", "--out", str(out)]) == 0
    rep = load(out)
    assert rep["order"] == {"kind": "finite", "order": 3, "stabilization_index": 3}
    assert rep["classification"] == {"kind": "trunc_nat", "k": 3}
    assert main(["classify-element", "--inline", '{"family":"nat_max"}', "2", "--out", str(out)]) == 0
    assert load(out)["classification"] == {"kind": "n_max"}
    assert main(["classify-element", "--inline", '{"family":"chain","size":4}', '{"atom": 2}', "--out", str(out)]) == 0
    assert load(out)["order"]["order"] == 1


def test_classify_element_gives_any_order_in_closed_form(tmp_path, capsys):
    out = tmp_path / "c.json"
    started = time.perf_counter()
    assert main(["classify-element", "--inline", '{"family":"trunc_nat","k":1000000000000}', "1",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - started < 1
    rep = load(out)
    assert rep["order"] == {"kind": "finite", "order": 10**12, "stabilization_index": 10**12}
    assert rep["classification"] == {"kind": "trunc_nat", "k": 10**12}
    # the order needs no cap, and the command takes none
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify-element", "--inline", '{"family":"trunc","x":"1","y":"3"}', "1", "--cap", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("error: unrecognized arguments: --cap 5"), captured.err


def test_classify_element_reports_the_scalar_error(tmp_path, capsys):
    chain4 = '{"family":"chain","size":4}'
    capsys.readouterr()
    assert main(["classify-element", "--inline", chain4, '{"atom": "x"}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad atom encoding: {'atom': 'x'}\n"
    # an argument meant as JSON reports the decoder's error, not the fallback's
    assert main(["classify-element", "--inline", chain4, '{"atom": 3']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scalar JSON '{\"atom\": 3': Expecting ',' delimiter"), err
    # bare rationals, decimals and integers still parse
    out = tmp_path / "c.json"
    trunc13 = '{"family":"trunc","x":"1","y":"3"}'
    for text in ("1.5", "3/2", '"3/2"'):
        assert main(["classify-element", "--inline", trunc13, text, "--out", str(out)]) == 0
        assert load(out)["element"] == "3/2"
    assert main(["classify-element", "--inline", '{"family":"nat_max"}', "5", "--out", str(out)]) == 0
    assert load(out)["element"] == 5


def test_classify_element_takes_no_seed(capsys):
    # the order and class of one element are computed exactly; no draw could read a seed
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify-element", "--inline", '{"family":"trunc","x":"1","y":"3"}', "3/2", "--seed", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("error: unrecognized arguments: --seed 5"), captured.err


def test_product_of_uni_matrices_over_a_genuine_zero(tmp_path):
    chain4 = {"family": "chain", "size": 4}
    zero, top = {"atom": 0}, {"atom": 3}
    seq = [
        {"n": 2, "family": "uni", "semiring": chain4, "entries": [["id", {"atom": a}], [zero, "id"]]}
        for a in (1, 2, 0)
    ]
    out = tmp_path / "p.json"
    assert main(["product", "--input", write(tmp_path / "uni.json", seq), "--out", str(out)]) == 0
    assert load(out)["product"]["entries"] == [["id", {"atom": 2}], [zero, "id"]]
    seq[2]["entries"][0][1] = top
    assert main(["permute", "--input", write(tmp_path / "uni.json", seq), "--out", str(out)]) == 0
    assert load(out)["kind"] == "found"


def test_verify_all_fast_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify-all", "--trials", "3", "--item", "noidentity", "--item", "axioms",
            "--item", "pigeonhole_boolean", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reports
    rep = load(out1)
    assert rep["mode"] == "fast" and rep["schema"] == 1
    assert [i["name"] for i in rep["items"]] == ["noidentity", "axioms", "pigeonhole_boolean"]


def test_parse_errors_exit_2(tmp_path):
    assert main(["axioms", "--inline", "{not json"]) == 2
    assert main(["axioms", "--semiring", str(tmp_path / "missing.json")]) == 2
    assert main(["product", "--input", write(tmp_path / "bad.json", {"matrices": []})]) == 2


def _bicyclic(pairs):
    return lambda tmp: ["witness", "bicyclic_rho", "--input", write(tmp / "pairs.json", pairs)]


def _bad_bytes(tmp):
    path = tmp / "latin1.json"
    path.write_bytes(b'{"family": "caf\xe9"}')
    return ["axioms", "--semiring", str(path)]


_MALFORMED_INPUTS = {
    "x_divides_by_zero": lambda tmp: ["axioms", "--inline", '{"family":"trunc","x":"1/0","y":"3"}'],
    "k_overflows": lambda tmp: ["axioms", "--inline", '{"family":"trunc_nat","k":1e400}'],
    "size_overflows": lambda tmp: ["axioms", "--inline", '{"family":"chain","size":1e400}'],
    "adjoined_zero_no": lambda tmp: ["axioms", "--inline", '{"family":"nat_max","adjoined_zero":"no"}'],
    "adjoined_zero_false_string": lambda tmp: ["axioms", "--inline", '{"family":"nat_max","adjoined_zero":"false"}'],
    "matrix_n_not_a_number": lambda tmp: ["product", "--input", write(
        tmp / "m.json", [{"n": "x", "family": "full", "semiring": {"family": "tropical"}, "entries": [[0]]}])],
    # integer fields accept JSON integers only: no float or boolean is truncated
    "k_is_a_float": lambda tmp: ["axioms", "--inline", '{"family":"trunc_nat","k":2.5}'],
    "k_is_a_boolean": lambda tmp: ["axioms", "--inline", '{"family":"trunc_nat","k":true}'],
    "size_is_a_float": lambda tmp: ["axioms", "--inline", '{"family":"chain","size":3.7}'],
    "matrix_n_is_a_float": lambda tmp: ["product", "--input", write(
        tmp / "m.json", [{"n": 1.9, "family": "full", "semiring": {"family": "tropical"}, "entries": [[0]]}])],
    "table_entry_is_a_float": lambda tmp: [
        "axioms", "--inline", '{"family":"table","size":2,"add":[[0,1],[1,1]],"mul":[[0,0],[0,1.9]]}'],
    "bicyclic_empty": _bicyclic([]),
    "bicyclic_flat": _bicyclic([1, 2]),
    "bicyclic_not_an_integer": _bicyclic([[1, "a"]]),
    "bicyclic_float": _bicyclic([[1.5, 2]]),
    # a later matrix repeats the first one's semiring object with a float k, equal in Python
    "later_matrix_k_is_a_float": lambda tmp: ["product", "--input", write(tmp / "m.json", [
        {"n": 1, "family": "full", "semiring": {"family": "trunc_nat", "k": k}, "entries": [[1]]} for k in (2, 2.0)])],
    "input_is_a_directory": lambda tmp: ["product", "--input", str(tmp)],
    "input_not_utf8": _bad_bytes,
    "out_in_missing_directory": lambda tmp: ["witness", "u3_nmax", "--m", "2", "--out", str(tmp / "no" / "w.json")],
    "product_without_input": lambda tmp: ["product"],
    "permute_without_input": lambda tmp: ["permute"],
    "quotient_without_input": lambda tmp: ["quotient", "--inline", '{"family":"chain","size":4}'],
    "quotient_input_is_a_number": lambda tmp: [
        "quotient", "--inline", '{"family":"chain","size":4}', "--input", write(tmp / "x.json", 5)],
    "scalar_is_malformed_json": lambda tmp: [
        "classify-element", "--inline", '{"family":"chain","size":5}', '{"atom": 3'],
    "quotient_input_is_an_object": lambda tmp: [
        "quotient", "--inline", '{"family":"chain","size":4}', "--input", write(tmp / "x.json", {"atom": 1})],
}


@pytest.mark.parametrize("case", list(_MALFORMED_INPUTS))
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    argv = _MALFORMED_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


def _one_entry(entry):
    return lambda tmp: ["product", "--input", write(
        tmp / "m.json", [{"n": 1, "family": "full", "semiring": {"family": "tropical"}, "entries": [[entry]]}])]


def _write_text(path, text):
    path.write_text(text)
    return path


_HUGE_INT = "9" * 5000  # past the 4,300 digits Python converts between int and str

# each is refused from its text: building the number would take minutes, or could not be printed
_HOSTILE_INPUTS = {
    "entry_exponent": _one_entry("1e30000000"),
    "trunc_bound_exponent": lambda tmp: [
        "classify-semiring", "--inline", '{"family":"trunc","x":"1","y":"1e30000000"}'],
    "witness_z_exponent": lambda tmp: ["witness", "m3_trunc", "--m", "3", "--z", "1e30000000"],
    "element_exponent": lambda tmp: ["classify-element", "--inline", '{"family":"tropical"}', "1e300000"],
    "entry_long_json_integer": lambda tmp: ["product", "--input", str(_write_text(
        tmp / "m.json", '[{"n": 1, "family": "full", "semiring": {"family": "tropical"}, "entries": [[%s]]}]'
        % _HUGE_INT))],
    "inline_long_json_integer": lambda tmp: ["axioms", "--inline", '{"family":"trunc_nat","k":%s}' % _HUGE_INT],
    "element_long_integer": lambda tmp: ["classify-element", "--inline", '{"family":"tropical"}', _HUGE_INT],
    # each entry is accepted, but their 4,301-digit sum cannot be printed
    "product_past_the_digit_limit": lambda tmp: ["product", "--input", str(_write_text(tmp / "m.json", json.dumps(
        [{"n": 1, "family": "full", "semiring": {"family": "tropical"}, "entries": [[int("9" * 4300)]]}] * 2)))],
    # an exponent Python will not convert, in a literal of 5,002 characters
    "element_long_malformed_literal": lambda tmp: [
        "classify-element", "--inline", '{"family":"tropical"}', "1e" + _HUGE_INT],
}


_LONG = "x" * 5000

# each echoes a value of its input in the error message, clipped to 40 characters
_LONG_ECHOES = {
    "semiring_family": lambda tmp: ["axioms", "--inline", json.dumps({"family": _LONG})],
    "atom_encoding": lambda tmp: [
        "classify-element", "--inline", '{"family":"chain","size":4}', json.dumps({"atom": _LONG})],
    "scalar_json": lambda tmp: ["classify-element", "--inline", '{"family":"tropical"}', "[" + " " * 5000],
    "size_not_an_integer": lambda tmp: ["axioms", "--inline", json.dumps({"family": "chain", "size": _LONG})],
    "adjoined_zero_not_a_boolean": lambda tmp: [
        "axioms", "--inline", json.dumps({"family": "nat_max", "adjoined_zero": _LONG})],
    "matrix_family": lambda tmp: ["product", "--input", write(
        tmp / "m.json", [{"n": 1, "family": _LONG, "semiring": {"family": "tropical"}, "entries": [[0]]}])],
    "nat_max_element": lambda tmp: ["classify-element", "--inline", '{"family":"nat_max"}', "-" + "9" * 4000],
    "semiring_object": lambda tmp: ["axioms", "--inline", json.dumps({"family": "trunc", "x": "1", "pad": _LONG})],
    "matrix_object": lambda tmp: ["product", "--input", write(
        tmp / "m.json", [{"n": 1, "family": "full", "semiring": {"family": "tropical"}, "pad": _LONG}])],
}


@pytest.mark.parametrize("case", [*_HOSTILE_INPUTS, *_LONG_ECHOES])
def test_oversized_numbers_are_one_error_line(tmp_path, case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    argv = {**_HOSTILE_INPUTS, **_LONG_ECHOES}[case](tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bipermute.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=5)
    assert time.perf_counter() - started < 1
    assert proc.returncode == 2, proc.stderr[-300:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-300:]
    assert len(proc.stderr.encode()) <= 300, proc.stderr[-300:]


def test_negative_counts_exit_2(tmp_path, capsys):
    tropical = '{"family":"tropical"}'
    cases = [
        ["axioms", "--inline", tropical, "--trials", "-5"],
        ["iso", "--inline", '{"family":"trunc","x":"2","y":"5"}', "--trials", "-1"],
        ["witness", "bicyclic_rho", "--m", "-3"],
        ["permute", "--input", str(tmp_path / "unused.json"), "--trials", "-1"],
        ["verify-all", "--trials", "-2", "--item", "noidentity"],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --") and captured.err.count("\n") == 1, captured.err
    # the search budget is worked out from the tuple, so permute takes no --cap
    with pytest.raises(SystemExit) as exc:
        main(["permute", "--input", str(tmp_path / "unused.json"), "--cap", "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --cap 8\n")

    # 0 keeps its meaning: the command's default count
    default, zero = tmp_path / "default.json", tmp_path / "zero.json"
    assert main(["axioms", "--inline", tropical, "--out", str(default)]) == 0
    assert main(["axioms", "--inline", tropical, "--trials", "0", "--out", str(zero)]) == 0
    assert zero.read_bytes() == default.read_bytes()


def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    def broken(seq):
        raise InvariantViolation("pigeonhole violated")

    monkeypatch.setattr(acceptance, "kerperm_find_swap", broken)
    capsys.readouterr()
    assert main(["verify-all", "--item", "kerperm", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: pigeonhole violated\n"

    # an exhaustive hit that does not multiply out to the product is a bug too
    rigid = str(tmp_path / "w.json")
    assert main(["witness", "u3_nmax", "--m", "5", "--out", rigid]) == 0
    monkeypatch.setattr(permutability, "_exhaustive_search", lambda seq, target: (1, 0, 2, 3, 4))
    capsys.readouterr()
    assert main(["permute", "--input", rigid]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: exhaustive hit (1, 0, 2, 3, 4) does not preserve the product (implementation bug)\n"


def test_exhaustive_checks_stop_at_the_carrier_budget(monkeypatch):
    # check_axioms picks the mode from the carrier: every case of at most 64 elements, else draws
    checked = []
    monkeypatch.setattr(semirings, "_check_on_every_case", lambda laws, carrier: checked.append(carrier) or ())
    finite = {chain(64): True, chain(65): False, trunc_neg_nat(64): True,
              adjoin_zero(trunc_nat(63)): True, adjoin_zero(trunc_nat(64)): False}
    for desc, exhaustive in finite.items():
        assert desc.carrier_size == len(desc.carrier_elements())  # counted, not built
        checked.clear()
        assert check_axioms(desc, trials=1).mode == ("exhaustive" if exhaustive else "sampled"), desc
        assert checked == ([desc.carrier_elements()] if exhaustive else []), desc
    assert tropical().carrier_size is None
    monkeypatch.undo()
    # and the reports say which check ran
    assert check_axioms(chain(65), trials=10).mode == "sampled"
    assert check_axioms(tropical(), trials=10).mode == "sampled"
    assert check_axioms(chain(4), trials=10).mode == "exhaustive"


# exhaustive checks of these carriers would take 10^9 cases and more
_LARGE_CARRIERS = {
    "axioms_trunc_nat_100000": lambda tmp: ["axioms", "--inline", '{"family":"trunc_nat","k":100000}'],
    "axioms_chain_2000": lambda tmp: ["axioms", "--inline", '{"family":"chain","size":2000}'],
    # a sampled draw builds only the atoms it draws, never the carrier
    "axioms_chain_10_12": lambda tmp: [
        "axioms", "--inline", '{"family":"chain","size":1000000000000}', "--trials", "5"],
}


@pytest.mark.parametrize("case", list(_LARGE_CARRIERS))
def test_large_finite_carriers_are_sampled(tmp_path, case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bipermute.cli", *_LARGE_CARRIERS[case](tmp_path)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report.get("verification", report)["mode"] == "sampled"


def test_quotient_of_a_chain_of_10_12_is_certified_at_once(tmp_path):
    # the congruence is checked on a 17-point skeleton, never on the carrier
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    protected = write(tmp_path / "x.json", [{"atom": 5}, {"atom": 10**9}])
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bipermute.cli", "quotient", "--inline",
                           '{"family":"chain","size":1000000000000}', "--input", protected],
                          env=env, capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - started < 1
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["classes"] == 5 and report["verification"]["mode"] == "certified"


def test_quotient_takes_no_seed_and_no_trials(capsys):
    with pytest.raises(SystemExit):
        main(["quotient", "--help"])
    usage = capsys.readouterr().out
    assert "--input" in usage and "--seed" not in usage and "--trials" not in usage


_TROPICAL_SEQ = [
    {"n": 2, "family": "full", "semiring": {"family": "tropical"}, "entries": entries}
    for entries in ([[0, 1], [2, "-inf"]], [[1, 0], ["-inf", 3]], [["1/2", 0], [0, 2]], [[2, -1], [0, 0]])
]

_NOTHING = hashlib.sha256(b"").hexdigest()

# one invocation per subcommand: (argv, SHA-256 of stdout, SHA-256 of stderr, exit code),
# the digests taken from the reports before the command table was introduced
_PINNED_REPORTS = {
    "axioms": (lambda tmp: ["axioms", "--inline", json.dumps(
        {"family": "table", "size": 3, "add": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
         "mul": [[0, 2, 1], [1, 1, 1], [1, 1, 2]]})],
        "dc283fc69153b95ee957b9fecbf25d81cba05ebef2a8a6950f82dac3ad4b4c9a",
        _NOTHING, 1),
    "classify-element": (lambda tmp: [
        "classify-element", "--inline", '{"family":"trunc","x":"1","y":"3"}', "3/2"],
        "00b447fdd26d5d29ea9a5a9c3b53974b659a5e0dc0443b60fb7af4ace794ed3c",
        _NOTHING, 0),
    "classify-semiring": (lambda tmp: [
        "classify-semiring", "--inline", '{"family":"trunc","x":"3/2","y":"7/2"}'],
        "a1beaa39fe1c47e36598727b1f9d39a87e4069501d05202be171f1906d2ab061",
        _NOTHING, 0),
    "product": (lambda tmp: ["product", "--input", write(tmp / "seq.json", _TROPICAL_SEQ)],
        "7171c6431f7e3a25b8340471ed7f80ea7146be18c47569df11a0f50ca84c904c",
        _NOTHING, 0),
    "permute": (lambda tmp: [
        "permute", "--input", write(tmp / "seq.json", _TROPICAL_SEQ), "--trials", "5", "--seed", "3"],
        "077be43a7b5f0aa1eb20891319a060c7e6d26a2e44253838ae906b70bb3f3aca",
        _NOTHING, 0),
    "witness": (lambda tmp: ["witness", "m3_trunc", "--m", "3", "--z", "7/2", "--eps", "1/3"],
        "cf7a62b45db24e814b258c51d80fe19c1873049641464d954bc1018ea38124cf",
        _NOTHING, 0),
    "quotient": (lambda tmp: [
        "quotient", "--inline", '{"family":"trunc","x":"1","y":"2"}',
        "--input", write(tmp / "x.json", ["3/2", "7/4"])],
        "3c222ebd78a0d1de86d46d2adf144f77891f20d2eaab0ab98b291fecc9b4ddb9",
        _NOTHING, 0),
    "iso": (lambda tmp: ["iso", "--inline", '{"family":"trunc","x":"2","y":"5"}', "--trials", "20"],
        "28940b4efc575b471e716d92494e896137ee1c8f1f066a69ae90b5655f700aa4",
        _NOTHING, 0),
    "verify-all": (lambda tmp: ["verify-all", "--trials", "2", "--item", "noidentity"],
        "11041f8d54b769808a6b8ffe20f10a5300723390febdb6a9b28fd23bd572d739",
        "de2c10a8e847058e6333a01d42bafd5934d7a43c97aa8a0f602564743825b8e0", 0),
}


# the quotient above is over the truncation [1, 2]; this one is over a chain
_PINNED = {**_PINNED_REPORTS, "quotient_exhaustive": (
    lambda tmp: ["quotient", "--inline", '{"family":"chain","size":10}',
                 "--input", write(tmp / "x.json", [{"atom": 3}, {"atom": 7}])],
    "0b624bed002fd9720a418dc436778e21a7f9f2bc2e3cf426d7f321ab8fb1461f",
    _NOTHING, 0)}


def test_pinned_reports_cover_every_command():
    assert list(_PINNED_REPORTS) == list(cli.COMMANDS)


@pytest.mark.parametrize("command", list(_PINNED))
def test_report_bytes_are_pinned(tmp_path, capsys, command):
    make_argv, out_sha, err_sha, code = _PINNED[command]
    capsys.readouterr()
    assert main(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha
