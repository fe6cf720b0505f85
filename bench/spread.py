"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workloads rigid_sweep,iso_verify --seeds 1-10 [--out FILE]

Runs are sequential, one process at a time.  The spread is the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, the figure each end-to-end bound must stay well above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"machine": {**bench.machine(), "cpu": cpu_model()}, "run_seconds": seconds, "trace": args.trace}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "values": vals}
            print(f"{workload:13} {name:16} median {med:12.5g}  spread {rows[name]['spread']:7.2%}", flush=True)
        print(f"{workload:13} failed ops: {failed}", flush=True)
        report[workload] = {"seeds": seeds(args.seeds), "failed": failed, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
