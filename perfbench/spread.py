#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

Every workload in BENCHMARK.json runs untraced once per seed; runs are
interleaved across workloads (seed 1 of every workload, then seed 2, ...),
so slow spells of the host spread over all of them.  For every end-to-end
metric it prints the median, the quartile spread (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``, and whether that spread is under a
third of the bound in BENCHMARK.json; it exits 1 if any is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    """One untraced benchmark run: its metric values and its wall seconds."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed checks: {done.stdout.splitlines()[-2]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            metrics, wall = run_once(spec, workload, seed)
            values[workload].append(metrics)
            print(f"{workload} seed {seed} ({wall:.1f} s): {json.dumps(metrics)}", flush=True)

    steady = True
    for workload, runs in values.items():
        print(f"\n{workload} ({len(runs)} runs)")
        for metric in spec["end_to_end"]:
            series = [run[metric["name"]] for run in runs]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3.0
            steady = steady and ok
            print(f"  {metric['name']:16s} median {median:.6g} {metric['unit']:4s} "
                  f"spread {spread:.4f} (bound {metric['bound']}) {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
