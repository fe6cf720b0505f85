"""Benchmark of the bipermute library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` beside this
directory.  Load is one process and one thread: a closed loop with a single
caller, each op starting when the last one (and its untimed output check)
has ended.  The loop runs whole rotations of the workload's op kinds until
the ops' own time reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs ops
untraced for half of ``--seconds``, then the same ops again with every
public library function wrapped (see ``spans.py``), prints the per-layer
metrics and writes the spans under ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "bipermute"
SETUP_REPEATS = 9

# per-layer metrics reported as the layer's self time, as a share of op time
SELF_SHARES = (
    "sampling.sample_matrix", "sampling.sample_trunc_value", "matrices.Matrix.make",
    "matrices.mat_mul", "matrices.seq_product", "matrices.prefix_suffix_products",
    "permutability.find_preserving_permutation", "permutability.apply_perm_product",
    "quotients.kerperm_find_swap", "quotients.CongruenceQuotient.class_of",
    "quotients.chain_congruence", "quotients.trunc12_congruence",
    "trunciso.classify_truncated", "trunciso.verify_iso", "trunciso.apply_iso",
    "serialize.matrices_from_json", "serialize.witness_to_json", "cli.main",
)
# per-layer metrics reported as exact call counts
CALL_COUNTS = (
    "sampling.sample_matrix", "sampling.sample_trunc_value", "matrices.Matrix.make",
    "permutability.find_preserving_permutation", "permutability.apply_perm_product",
    "quotients.CongruenceQuotient.class_of", "trunciso.apply_iso",
)
OUTCOMES = ("equal_pair", "adjacent", "transposition", "exhaustive", "identity_only", "kernel_pair")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import bipermute from this checkout's src/ and nowhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import bipermute

    if Path(bipermute.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        fail(f"imported bipermute from {bipermute.__file__}, not from {SRC}")


def purge_library() -> None:
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "cpu": platform.machine(), "python": platform.python_version()}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))


# A shared machine slows down by up to a half, for seconds or minutes at a
# time, when other tenants load it.  A fixed pure-Python job, the checker's
# own product loop over Fractions, is timed around each setup and between
# ops, and every time the benchmark reports is scaled by
# REF_NOMINAL_S / (reference time around that step): times are given at the
# speed at which the reference job takes 4 ms, as it does on an unloaded
# 2.1 GHz Xeon core under CPython 3.11.  A change to the library moves the
# scaled times exactly as much as the raw ones; a slow spell of the machine
# moves the reference job too and largely cancels.  Raw figures are printed
# beside them.
REF_NOMINAL_S = 0.004
_REF_OPS = check.Ops("trunc", Fraction(3))
_REF_SEQ = [((Fraction(i % 7 + 1, 3), Fraction(i % 5, 2) + 1), (None, Fraction(i % 3 + 2, 4)))
            for i in range(240)]


def reference(samples: int = 1) -> float:
    """Median time of ``samples`` runs of the reference job."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        check.product(_REF_OPS, _REF_SEQ)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Record:
    index: int
    latency: float
    digest: str
    failure: Optional[str]
    ref: float = 0.0  # mean reference time just before and just after the op

    @property
    def scaled(self) -> float:
        return self.latency * REF_NOMINAL_S / self.ref


def run_one(wl, i: int, verify: bool = True) -> Record:
    t0 = time.perf_counter()
    try:
        raw = wl.op(i)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        latency = time.perf_counter() - t0
        text = failure = f"raised {type(exc).__name__}: {exc}"
    else:
        latency = time.perf_counter() - t0
        try:
            text, failure = wl.settle(i, raw, verify)
        except Exception as exc:
            text = failure = f"check raised {type(exc).__name__}: {exc}"
    if failure is not None:
        print(f"FAILED op {i} ({wl.op_label(i)}): {failure}", file=sys.stderr)
    return Record(i, latency, hashlib.sha256(text.encode()).hexdigest(), failure)


def run_ops(wl, indices: Iterable[int], verify: bool = True, tracer=None) -> Iterator[Record]:
    """Run ops in order, timing the reference job before the first op and after each."""
    before = reference()
    for i in indices:
        if tracer is not None:
            tracer.op_id = i
        rec = run_one(wl, i, verify)
        after = reference()
        rec.ref, before = (before + after) / 2, after
        yield rec


def run_for(wl, seconds: float) -> list[Record]:
    """Whole rotations of ops until the ops' own time reaches ``seconds``."""
    records: list[Record] = []
    busy = 0.0
    for rec in run_ops(wl, itertools.count()):
        records.append(rec)
        busy += rec.latency
        if len(records) % wl.rotation == 0 and busy >= seconds:
            return records
    raise AssertionError("unreachable: the op indices never run out")


def digest(records: list[Record]) -> str:
    return hashlib.sha256("".join(r.digest for r in records).encode()).hexdigest()


def setup(cls, seed: int, repeats: int):
    """Build the workload ``repeats`` times from a fresh import.

    Returns the last build, every build's time and the reference time around each.
    """
    times, refs = [], []
    for _ in range(repeats):
        purge_library()
        workdir = OUT / "work" / cls.name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()  # each build starts from a clean heap, not the last build's garbage
        before = reference(3)
        t0 = time.perf_counter()
        wl = cls(seed, workdir)
        times.append(time.perf_counter() - t0)
        refs.append((before + reference(3)) / 2)
    return wl, times, refs


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct`` percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cls, seed: int, seconds: float) -> tuple[list[Record], dict]:
    wl, setup_raw, setup_refs = setup(cls, seed, SETUP_REPEATS)
    records = run_for(wl, seconds)
    setup_times = [t * REF_NOMINAL_S / ref for t, ref in zip(setup_raw, setup_refs)]
    raw = [r.latency for r in records]
    lat = [r.scaled for r in records]
    pct = cls.tail_pct
    tail_s, beyond = tail(lat, pct)
    print(f"setup_s runs, raw: {', '.join(f'{t:.4f}' for t in setup_raw)}")
    refs = [r.ref * 1000 for r in records]
    print(f"reference job: min {min(refs):.3f} ms, median {statistics.median(refs):.3f} ms, max {max(refs):.3f} ms")
    print(f"raw: ops per busy second {len(raw) / sum(raw)}, op p50 {statistics.median(raw) * 1000} ms, "
          f"op p{pct:g} {tail(raw, pct)[0] * 1000} ms")
    print(f"op_tail_ms is p{pct:g} of {len(lat)} ops ({beyond} ops beyond it"
          f"{'' if beyond >= 10 else '; fewer than 10, the run was short'})")
    return records, {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": metric(tail_s * 1000, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced(cls, seed: int, seconds: float) -> tuple[list[Record], dict]:
    from spans import Tracer

    wl = setup(cls, seed, 1)[0]
    plain = run_for(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        again = list(run_ops(wl, [r.index for r in plain], verify=False, tracer=tracer))
    finally:
        tracer.uninstall()
    for a, b in zip(plain, again):
        if a.digest != b.digest and b.failure is None:
            b.failure = "traced output differs from the untraced output"
            print(f"FAILED op {b.index}: {b.failure}", file=sys.stderr)
    records = plain + again

    s = tracer.summary()
    busy = sum(r.latency for r in again)
    overhead = sum(r.scaled for r in again) - sum(r.scaled for r in plain)
    calls, self_s, tags = s["calls"], s["self_s"], s["tags"]
    searches = calls["permutability.find_preserving_permutation"]
    in_search = sum(s["products_by_op"].values())
    by_label: dict[str, set] = {}
    for r in again:
        by_label.setdefault(wl.op_label(r.index), set()).add(s["products_by_op"][r.index])
    for label in sorted(by_label):
        if by_label[label] != {0}:
            print(f"products per search [{label}]: {sorted(by_label[label])}")
    for name in sorted(self_s, key=self_s.get, reverse=True)[:12]:
        print(f"self {self_s[name]:9.4f} s  {calls[name]:>9} calls  {name}")
    print(f"spans: {s['spans']}, ops: {len(again)}, untraced digest: {digest(plain)}, traced digest: {digest(again)}, "
          f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    tracer.write(OUT / "trace" / cls.name)

    metrics = {}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
    for n in (2, 3):
        metrics[f"matrices.mat_mul.calls.n{n}"] = metric(tags[f"matrices.mat_mul.calls.n{n}"], "count")
    metrics["matrices.mat_mul.scalar_ops_computed"] = metric(
        sum(tags[f"matrices.mat_mul.calls.n{n}"] * (n**3 + n * n * (n - 1)) for n in range(1, 7)), "count")
    metrics["permutability.products_per_search"] = metric(in_search / searches if searches else 0, "count")
    for o in OUTCOMES:
        metrics[f"permutability.outcome.{o}"] = metric(tags[f"permutability.outcome.{o}"], "count")
    for name in SELF_SHARES:
        metrics[f"{name}.self_share"] = metric(100 * self_s[name] / busy, "%")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["src.lines"] = metric(src_lines(), "count")
    return records, metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    info = machine()
    print(f"workload {cls.name}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}; "
          f"nproc {info['nproc']}, cpu {info['cpu']}, python {info['python']}")
    if args.trace:
        records, metrics = traced(cls, args.seed, args.seconds)
    else:
        records, metrics = end_to_end(cls, args.seed, args.seconds)
    failed = sum(r.failure is not None for r in records)
    print(f"failed_ops = {failed}/{len(records)}, digest of all ops {digest(records)}, "
          f"of the first rotation {digest(records[:cls.rotation])}, src.lines {src_lines()}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    shutil.rmtree(OUT / "work", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
