#!/usr/bin/env python3
"""harmbohr benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload scan-series --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``scan-series``  -- in-process ``harmbohr.cli.main`` 1001-point CSV scans
  of wh-alpha and gh-k-alpha (k = 2); one operation is both scans.
* ``verify-full``  -- in-process ``harmbohr.cli.main(["verify"])``, all 51
  checks; one operation is one suite.  It has no generated inputs.
* ``radius-cold``  -- ``radius`` in a fresh interpreter per call, one at a
  time, cycling through all seven class tags; one operation is one process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds of the same work and prints the per-layer
metrics.  Every printed record is checked against the independent
reference in ``reference.py``; the last stdout line is the result JSON.
The harmbohr sources are taken from ``src`` next to this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference
import tracer
from calibrate import IMPORT_PROBE, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLI_BOOT = "from harmbohr.cli import entrypoint; entrypoint()"
IMPORT_BOOT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import harmbohr.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
SETUP_PROBES = 16
IMPORT_PROBES = 5
RADIUS_CYCLES = 400  # generated per seed; a run uses as many as its seconds allow
CHILD_TIMEOUT_S = 10
VERIFY_CHECKS = 51
CSV_HEADER = "class,param_name,param_value,radius,residual,method"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("scan-series", "verify-full", "radius-cold")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment


def child_env() -> tuple[dict, int]:
    """Environment for every harmbohr process, and its BLAS/OpenMP thread cap."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BOHR_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in THREAD_VARS:
        if env.get(var, "").isdigit() and 0 < int(env[var]) < cap:
            cap = int(env[var])
    for var in THREAD_VARS:
        env[var] = str(cap)
    return env, cap


def machine_facts(cap: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_cap": cap,
    }


def spawn(argv: list[str], env: dict, stdin: str | None = None, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion; returns (wall seconds, CompletedProcess or None)."""
    t0 = perf_counter()
    try:
        done = subprocess.run(
            argv, input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None
    return perf_counter() - t0, done


def probe(code: str, env: dict) -> tuple[float, str]:
    seconds, done = spawn([sys.executable, "-c", code], env)
    if done is None or done.returncode != 0:
        detail = "timed out" if done is None else done.stderr.strip()[-500:]
        raise BenchError(f"python -c {code!r} failed: {detail}")
    return seconds, done.stdout


def setup_seconds(env: dict) -> tuple[float, float]:
    """Import time of harmbohr.cli in a fresh interpreter: the median over
    SETUP_PROBES interpreters in reference seconds (see calibrate.py), and
    the median of the raw in-interpreter seconds.

    A bare spawn is timed between interpreters, as in ``cold_round``."""
    probe("import harmbohr.cli", env)  # compiles the bytecode caches once
    bare = [probe("pass", env)[0]]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        seconds, loop_s = map(float, probe(IMPORT_PROBE, env)[1].split())
        bare.append(probe("pass", env)[0])
        scaled.append(reference_seconds(seconds, loop_s, 0.5 * (bare[-2] + bare[-1])))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def import_layers(env: dict) -> dict:
    spawn_s = [probe("pass", env)[0] for _ in range(IMPORT_PROBES)]
    splits = [tuple(map(float, probe(IMPORT_BOOT, env)[1].split())) for _ in range(IMPORT_PROBES)]
    return {
        "import.spawn_s": statistics.median(spawn_s),
        "import.numpy_s": statistics.median(s[0] for s in splits),
        "import.harmbohr_s": statistics.median(s[1] for s in splits),
    }


# ---------------------------------------------------------------------------
# checking printed records against the reference


class Checker:
    """Counts attempted and failed records; never skips one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []
        self._memo: dict = {}

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.examples) < 5:
            self.examples.append(why)

    def radius_ok(self, tag: str, params: dict, radius: float) -> bool:
        key = (tag, tuple(sorted(params.items())), radius)
        if key not in self._memo:
            self._memo[key] = reference.check_radius(tag, params, radius)
        return self._memo[key]

    def scan(self, job: dict, op: dict) -> int:
        """Checks one CSV scan; returns the number of records it printed."""
        n = len(job["values"])
        self.attempted += n
        lines = op["stdout"].splitlines()
        rows = lines[1:]
        if op["code"] != 0 or lines[:1] != [CSV_HEADER] or len(rows) != n:
            self._fail(n, f"{job['tag']} scan exit {op['code']}, {len(rows)} rows: "
                          f"{op['stderr'][-200:]}")
            return len(rows)
        for row, value in zip(rows, job["values"]):
            fields = row.split(",")
            try:
                ok = (
                    len(fields) == 6
                    and fields[:3] == [job["tag"], job["name"], f"{value:.12g}"]
                    and self.radius_ok(
                        job["tag"], {**job["params"], job["name"]: value}, float(fields[3])
                    )
                )
            except ValueError:
                ok = False
            if not ok:
                self._fail(1, f"bad record: {row}")
        return n

    def verify(self, op: dict) -> int:
        self.attempted += VERIFY_CHECKS
        lines = op["stdout"].splitlines()
        passes = sum(line.startswith("PASS ") for line in lines)
        summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
        if op["code"] != 0 or passes != VERIFY_CHECKS or summary not in lines:
            fails = [line for line in lines if line.startswith("FAIL ")]
            self._fail(max(VERIFY_CHECKS - passes, 1), f"verify exit {op['code']}: {fails[:3]}")
        return sum(line.startswith(("PASS ", "FAIL ")) for line in lines)

    def radius(self, job: dict, op: dict) -> int:
        self.attempted += 1
        try:
            record = json.loads(op["stdout"]) if op["code"] == 0 else None
        except ValueError:
            record = None
        ok = (
            isinstance(record, dict)
            and record.get("class") == job["tag"]
            and record.get("params") == job["params"]
            and isinstance(record.get("radius"), float)
            and self.radius_ok(job["tag"], job["params"], record["radius"])
        )
        if not ok:
            self._fail(1, f"{job['argv']} -> exit {op['code']}: {(op['stdout'] + op['stderr'])[-200:]}")
        return int(record is not None)


# ---------------------------------------------------------------------------
# workloads: each returns rounds of ops, ops with seconds, code, stdout, stderr


def in_process(argvs: list[list[str]], warmup: list[list[str]], seconds: float,
               trace: bool, env: dict) -> tuple[list[dict], list[str]]:
    job = {"argvs": argvs, "warmup": warmup, "seconds": seconds, "trace": trace}
    _, done = spawn([sys.executable, str(HERE / "worker.py")], env, json.dumps(job),
                    timeout=seconds + 90)
    if done is None or done.returncode != 0:
        detail = "timed out" if done is None else done.stderr.strip()[-800:]
        raise BenchError(f"worker failed: {detail}")
    *rounds, last = map(json.loads, done.stdout.splitlines())
    return rounds, last["absent"]


def cold_round(jobs: list[dict], traced: bool, env: dict) -> dict:
    """One process per job, each timed from spawn to exit.

    A bare interpreter (``python -c pass``) is timed between processes; the
    mean of the bare spawns just before and just after a process is that
    process's host unit (see calibrate.py).
    """
    ops, raw, absent = [], {}, []
    bare = [probe("pass", env)[0]]
    for job in jobs:
        if traced:
            argv = [sys.executable, str(HERE / "worker.py"), "--traced-cli", *job["argv"]]
        else:
            argv = [sys.executable, "-c", CLI_BOOT, *job["argv"]]
        seconds, done = spawn(argv, env)
        bare.append(probe("pass", env)[0])
        unit_s = 0.5 * (bare[-2] + bare[-1])
        if done is None:
            ops.append({"seconds": seconds, "unit_s": unit_s, "code": None, "stdout": "",
                        "stderr": "timed out"})
            continue
        stderr = done.stderr
        if traced:
            head, _, last = stderr.rstrip("\n").rpartition("\n")
            try:
                counters = json.loads(last)
                tracer.add_raw(raw, counters["raw"])
                absent = counters["absent"]
                stderr = head
            except (ValueError, KeyError):
                pass
        ops.append({"seconds": seconds, "unit_s": unit_s, "code": done.returncode,
                    "stdout": done.stdout, "stderr": stderr})
    return {"traced": traced, "ops": ops, "raw": raw, "absent": absent}


def cold(jobs: list[dict], seconds: float, trace: bool, env: dict):
    cycle = len(inputs.RADIUS_TAGS)
    rounds, absent = [], []
    start = perf_counter()
    for i in range(0, len(jobs), cycle):
        if rounds and perf_counter() - start >= seconds:
            break
        batch = jobs[i:i + cycle]
        rounds.append(dict(cold_round(batch, False, env), jobs=batch))
        if trace:
            traced = cold_round(batch, True, env)
            absent = traced["absent"]
            rounds.append(dict(traced, jobs=batch))
    return rounds, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """Returns the rounds, each with its jobs, the absent names and the inputs digest."""
    if name == "radius-cold":
        jobs = inputs.radius_jobs(seed, RADIUS_CYCLES)
        spawn([sys.executable, "-c", CLI_BOOT, *jobs[0]["argv"]], env)  # warm bytecode caches
        rounds, absent = cold(jobs, seconds, trace, env)
        return rounds, absent, inputs.digest(jobs)
    if name == "scan-series":
        jobs = inputs.scan_jobs(seed)
        warmup = [[*job["argv"][:-3], "0.5:0.502:0.001", *job["argv"][-2:]] for job in jobs]
    else:
        jobs = [{"argv": ["verify"]}]
        warmup = [["verify", "--only", "radius-ph-alpha-0-reference"]]
    rounds, absent = in_process([job["argv"] for job in jobs], warmup, seconds, trace, env)
    for r in rounds:
        r["jobs"] = jobs
    return rounds, absent, inputs.digest(jobs)


# ---------------------------------------------------------------------------
# metrics


def op_times(name: str, rounds: list[dict], calibrated: bool = False) -> list[float]:
    """Time per operation: a pair of scans, a suite, or a process.

    Wall seconds, or with ``calibrated`` each call's wall time divided by
    the host unit measured with it (see calibrate.py).
    """
    def t(op):
        return op["seconds"] / op["unit_s"] if calibrated else op["seconds"]

    if name == "radius-cold":
        return [t(op) for r in rounds for op in r["ops"]]
    return [sum(t(op) for op in r["ops"]) for r in rounds]


def check_rounds(name: str, rounds: list[dict], checker: Checker) -> int:
    """Checks every op; returns the number of records printed."""
    records = 0
    for r in rounds:
        for job, op in zip(r["jobs"], r["ops"]):
            if name == "scan-series":
                records += checker.scan(job, op)
            elif name == "verify-full":
                records += checker.verify(op)
            else:
                records += checker.radius(job, op)
    return records


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(name: str, rounds: list[dict], records: int, setup: tuple[float, float],
               checker: Checker):
    ops = op_times(name, rounds)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "op_p50_cal": statistics.median(op_times(name, rounds, calibrated=True)),
        "peak_rss_mb": peak_mb,
        "setup_s": setup[0],
    }
    # Wall-clock figures, under the names a reader of the workload would use.
    report = {
        "op_p50_s": statistics.median(ops),
        "records_per_s": records / sum(ops),
        "host_unit_p50_s": statistics.median(op["unit_s"] for r in rounds for op in r["ops"]),
        "setup_wall_s": setup[1],
        "failed_frac": checker.failed / checker.attempted,
        "operations": len(ops),
    }
    if name == "scan-series":
        report["scan_points_per_s"] = report["records_per_s"]
    elif name == "verify-full":
        report["verify_s"] = report["op_p50_s"]
    else:
        report["radius_p50_s"] = report["op_p50_s"]
        report["radius_tail_s"] = tail(ops)
    return metrics, report


def per_layer(name: str, rounds: list[dict], env: dict) -> tuple[dict, dict]:
    """Per-layer metrics, and whether the counts of traced rounds that ran
    the same inputs as the first one agree exactly."""
    traced = [r for r in rounds if r["traced"]]
    layers = [tracer.layer_metrics(r["raw"]) for r in traced]
    # Counts come from the first traced round, whose inputs depend only on
    # the seed; times are medians over all traced rounds.
    metrics = dict(layers[0])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(layer[key] for layer in layers)
    ratios = [
        sum(op["seconds"] for op in under["ops"]) / sum(op["seconds"] for op in plain["ops"])
        for plain, under in zip(rounds[::2], rounds[1::2])
    ]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics.update(import_layers(env))

    def counts(layer):
        return {k: v for k, v in layer.items() if not k.endswith("_s")}

    same = [layer for r, layer in zip(traced, layers) if r["jobs"] == traced[0]["jobs"]]
    repeat = {"rounds": len(same), "identical": all(counts(x) == counts(same[0]) for x in same)}
    return metrics, repeat


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "harmbohr" / "cli.py").is_file():
        raise BenchError(f"harmbohr sources not found under {SRC}")
    units = declared(bool(args.trace))
    env, cap = child_env()
    facts = machine_facts(cap)
    setup = None if args.trace else setup_seconds(env)

    rounds, absent, digest = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), env)
    checker = Checker()
    records = check_rounds(args.workload, rounds, checker)
    info = {
        "workload": args.workload,
        "seed": args.seed if args.workload != "verify-full" else "unused",
        "inputs_sha256": digest,
        "machine": facts,
        "rounds": len(rounds),
        "absent": absent,
        "failures": checker.examples,
    }
    if args.trace:
        metrics, info["counts_repeat"] = per_layer(args.workload, rounds, env)
    else:
        metrics, info["report"] = end_to_end(args.workload, rounds, records, setup, checker)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps(info))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
