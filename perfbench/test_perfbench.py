"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmbohr
import inputs
import reference
import run
import tracer
from harmbohr import cli, solver, verifier
from harmbohr.classes import Family, make_spec
from harmbohr.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent

ITERATIVE_CASES = [
    ("ph-alpha", {"alpha": 0.0}),
    ("ph-alpha", {"alpha": 0.95}),
    ("wh-alpha", {"alpha": 0.0}),
    ("wh-alpha", {"alpha": 0.37}),
    ("wh-alpha", {"alpha": 1.0}),
    ("gh-k-alpha", {"k": 1, "alpha": 0.1}),
    ("gh-k-alpha", {"k": 2, "alpha": 1.3}),
    ("gh-k-alpha", {"k": 8, "alpha": 10.0}),
    ("ph-m", {"m": 0.05}),
    ("ph-m", {"m": 1.29}),
]


def _run_traced(argv):
    with tracer.Tracer() as t, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, tracer.layer_metrics(t.raw), t


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("tag,params", ITERATIVE_CASES)
def test_reference_d_star_matches_high_precision(tag, params):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    if tag == "gh-k-alpha":
        ka = params["k"] * params["alpha"]
        exact = 1 + 2 * mpmath.nsum(lambda j: (-1) ** j / (1 + j * ka), [1, mpmath.inf])
    else:
        c = {
            "ph-alpha": lambda n: 2 * (1 - params.get("alpha", 0)) / n,
            "wh-alpha": lambda n: 2 / (n * (1 + params.get("alpha", 0) * (n - 1))),
            "ph-m": lambda n: 2 * params.get("m", 0) / (n * (n - 1)),
        }[tag]
        exact = 1 + mpmath.nsum(lambda n: (-1) ** (n - 1) * c(n), [2, mpmath.inf])
    value, err = reference.d_star(tag, params)
    assert abs(value - float(exact)) <= err
    assert err < 1e-12


@pytest.mark.parametrize("tag,params", ITERATIVE_CASES)
def test_reference_bohr_sum_matches_high_precision(tag, params):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    r = 0.6
    n0 = reference.first_index(tag, params)
    terms = mpmath.nsum(
        lambda n: mpmath.mpf(float(reference.coefficients(tag, params, np.float64(n)))) * r**n,
        [n0, mpmath.inf],
    )
    value, err = reference.bohr_sum(tag, params, r)
    assert abs(value - float(r + terms)) <= err + 1e-16
    assert err < 1e-12


@pytest.mark.parametrize("tag,params", ITERATIVE_CASES)
def test_reference_accepts_program_radius_and_rejects_shifted_ones(tag, params):
    radius = solver.solve_radius(make_spec(Family(tag), **params)).radius
    assert reference.check_radius(tag, params, radius)
    assert not reference.check_radius(tag, params, radius + 3 * reference.DELTA)
    assert not reference.check_radius(tag, params, radius - 3 * reference.DELTA)


@pytest.mark.parametrize(
    "tag,params",
    [("gt-beta", {"beta": 0.0}), ("gt-beta", {"beta": 0.31}), ("tb-m", {"m": 1.7}),
     ("tb-m-jacobian", {"m": 0.2})],
)
def test_reference_closed_forms_match_bit_for_bit(tag, params):
    radius = cli.compute_record(tag, params, SolverConfig(), 1e-12).radius
    assert reference.check_radius(tag, params, radius)
    assert not reference.check_radius(tag, params, math.nextafter(radius, 1.0))


def test_inputs_repeat_per_seed_and_stay_in_domain():
    assert inputs.scan_jobs(7) == inputs.scan_jobs(7)
    assert inputs.radius_jobs(7, 3) == inputs.radius_jobs(7, 3)
    assert inputs.digest(inputs.scan_jobs(7)) != inputs.digest(inputs.scan_jobs(8))
    for seed in range(30):
        for job in inputs.scan_jobs(seed):
            grid = job["argv"][job["argv"].index("--format") - 1]
            assert cli.parse_grid(grid) == job["values"]
            assert len(job["values"]) == inputs.SCAN_POINTS
        for job in inputs.radius_jobs(seed, 2):
            tag = "tb-m" if job["tag"] == "tb-m-jacobian" else job["tag"]
            make_spec(Family(tag), **job["params"])  # raises outside the domain


def test_tracer_binds_every_importing_module_and_restores_it():
    original = solver.bohr_sum
    with tracer.Tracer():
        assert solver.bohr_sum is verifier.bohr_sum is harmbohr.bohr_sum
        assert solver.bohr_sum is not original
        assert cli.solve_radius is verifier.solve_radius is solver.solve_radius
        assert cli.distance_bound.__wrapped__ is harmbohr.classes.distance_bound.__wrapped__
    assert solver.bohr_sum is original is verifier.bohr_sum is harmbohr.classes.bohr_sum
    assert not hasattr(cli.solve_radius, "__wrapped__")


def test_tracer_reports_a_missing_function_without_breaking_the_run(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "kernels.gone", ("harmbohr._kernels", "no_such_kernel"))
    code, metrics, t = _run_traced(["radius", "--class", "wh-alpha", "--alpha", "0.5"])
    assert code == 0
    assert t.absent == ["harmbohr._kernels.no_such_kernel"]
    assert metrics["kernels.gone.calls"] == 0
    assert metrics["cli.compute_record.calls"] == 1


def test_exact_counts_repeat_and_scan_touches_no_kernel():
    argv = ["scan", "--class", "wh-alpha", "--alpha", "0.1:0.3:0.02", "--format", "csv"]
    code, first, _ = _run_traced(argv)
    assert code == 0
    assert _counts(_run_traced(argv)[1]) == _counts(first)
    assert first["cli.compute_record.calls"] == 11
    assert first["classes.distance_bound_per_point"] == 2.0
    assert 40 <= first["solver.h_evals_per_solve"] <= 45
    assert 39 <= first["solver.iterations_per_solve"] <= 44
    assert all(v == 0 for k, v in first.items() if k.startswith("kernels."))
    assert first["classes.bohr_sum.self_s"] > 0


def test_exact_kernel_work_repeats_on_a_verify_check():
    argv = ["verify", "--only", "envelope-tb-m"]
    code, first, t = _run_traced(argv)
    assert code == 0
    json.dumps(t.raw)  # the worker sends the counters as JSON
    assert _counts(_run_traced(argv)[1]) == _counts(first)
    # 3 specs x 5 radii x 24 points x 10^4 coefficients, as envelope_check sets it up.
    assert first["kernels.abs_on_circle.terms_x_points"] == 3 * 5 * 24 * 10_000
    assert first["kernels.eval_point.terms"] == 3 * 5 * 2 * 10_000
    assert first["verifier.envelope_s"] > 0


def test_checker_counts_every_bad_record():
    job = inputs.scan_jobs(3)[0]
    cfg = SolverConfig()
    rows = [cli.compute_record(job["tag"], {"alpha": v}, cfg, 1e-12).to_csv_row()
            for v in job["values"][:20]]
    good = {"code": 0, "stdout": "\n".join([run.CSV_HEADER, *rows]), "stderr": ""}
    short = dict(job, values=job["values"][:20])
    checker = run.Checker()
    assert checker.scan(short, good) == 20 and checker.failed == 0
    fields = rows[5].split(",")
    fields[3] = f"{float(fields[3]) + 1e-9:.12g}"
    bad = dict(good, stdout="\n".join([run.CSV_HEADER, *rows[:5], ",".join(fields), *rows[6:]]))
    checker.scan(short, bad)
    assert checker.failed == 1 and checker.attempted == 40
    checker.scan(short, dict(good, code=3))
    assert checker.failed == 21

    radius_job = inputs.radius_jobs(3, 1)[1]
    checker = run.Checker()
    checker.radius(radius_job, {"code": 2, "stdout": "", "stderr": "error"})
    assert (checker.attempted, checker.failed) == (1, 1)

    lines = [f"PASS check-{i}: ok" for i in range(50)] + ["FAIL last: no", "50/51 checks passed"]
    checker = run.Checker()
    checker.verify({"code": 1, "stdout": "\n".join(lines), "stderr": ""})
    assert (checker.attempted, checker.failed) == (51, 1)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radius-cold", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_worker_streams_each_round_and_alternates_traced_rounds():
    env, _ = run.child_env()
    argv = ["radius", "--class", "gt-beta", "--beta", "0.25"]
    rounds, absent = run.in_process([argv], [], 0.2, True, env)
    assert absent == []
    assert len(rounds) >= 2 and len(rounds) % 2 == 0
    assert [r["traced"] for r in rounds[:2]] == [False, True]
    assert "raw" in rounds[1]
    for r in rounds:
        (op,) = r["ops"]
        assert op["code"] == 0 and op["seconds"] > 0 and op["unit_s"] > 0
        assert json.loads(op["stdout"])["class"] == "gt-beta"
