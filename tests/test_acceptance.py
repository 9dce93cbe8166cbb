"""Acceptance gate: eleven numbered criteria covering the radius solver,
the closed forms, the sharpness and oracle evidence, the CLI domain guard,
and the property suites.  Each test prints one PASS line when it holds
(visible with ``pytest -s``); the test outcome itself is the gate.
"""

import math
import time

import pytest

from harmbohr.classes import (
    bohr_sum,
    distance_bound,
    gh_k_alpha,
    gt_beta,
    ph_alpha,
    ph_m,
    tb_m,
    wh_alpha,
)
from harmbohr.cli import main as cli_main
from harmbohr.solver import (
    SolverConfig,
    jacobian_radius,
    solve_radius,
)
from harmbohr.verifier import (
    STANDARD_GRIDS,
    WH_ALPHA1_REFERENCE_DECIMAL,
    distance_oracle,
    run_suite,
    sharpness_check,
)


def test_criterion_01_base_class_reference_radius():
    t0 = time.perf_counter()
    result = solve_radius(ph_alpha(0.0))
    elapsed = time.perf_counter() - t0
    assert result.radius == pytest.approx(0.285194, abs=1e-4)
    assert result.residual <= 1e-10
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS — radius {result.radius:.12f} matches 0.285194 "
        f"within 1e-4, residual {result.residual:.2e} <= 1e-10, {elapsed:.3f} s"
    )


def test_criterion_02_weighted_class_reduces_to_base():
    base = solve_radius(ph_alpha(0.0)).radius
    reduced = solve_radius(wh_alpha(0.0)).radius
    assert abs(reduced - base) <= 1e-9
    print(f"ACCEPTANCE 2 PASS — reduction agrees within {abs(reduced - base):.2e} <= 1e-9")


def test_criterion_03_lacunary_class_reduces_to_base():
    base = solve_radius(ph_alpha(0.0)).radius
    reduced = solve_radius(gh_k_alpha(1, 1.0)).radius
    assert abs(reduced - base) <= 1e-9
    print(f"ACCEPTANCE 3 PASS — reduction agrees within {abs(reduced - base):.2e} <= 1e-9")


def test_criterion_04_quotient_family_closed_form_vs_bisection():
    worst = 0.0
    for i in range(10):
        beta = round(0.05 * i, 2)
        spec = gt_beta(beta)
        closed = solve_radius(spec, SolverConfig(prefer_closed_form=True)).radius
        iterated = solve_radius(spec, SolverConfig(prefer_closed_form=False)).radius
        worst = max(worst, abs(closed - iterated))
        assert abs(closed - iterated) <= 1e-10
    assert solve_radius(gt_beta(0.0)).radius == 0.0
    print(
        f"ACCEPTANCE 4 PASS — closed form vs bisection within {worst:.2e} <= 1e-10 "
        f"on 10 grid points; radius at the degenerate end is exactly 0"
    )


def test_criterion_05_quadratic_family_residual():
    worst = 0.0
    for i in range(10):
        m = round(0.1 + 0.2 * i, 2)
        r = solve_radius(tb_m(m)).radius
        residual = abs(m * r * r + 2.0 * r + (m - 2.0))
        worst = max(worst, residual)
        assert residual <= 1e-12
    sqrt2_gap = abs(solve_radius(tb_m(1.0)).radius - (math.sqrt(2.0) - 1.0))
    assert sqrt2_gap <= 1e-12
    print(
        f"ACCEPTANCE 5 PASS — quadratic residual <= {worst:.2e} (limit 1e-12); "
        f"radius at unit mass is sqrt(2)-1 within {sqrt2_gap:.2e}"
    )


def test_criterion_06_jacobian_half_identity():
    worst = 0.0
    for i in range(10):
        m = round(0.1 + 0.2 * i, 2)
        # The textbook root of 4m r^2 + 4r + (m - 2) = 0, half the root of
        # m r^2 + 2r + (m - 2) = 0.
        gap = abs(jacobian_radius(m) - (math.sqrt(1.0 + 2.0 * m - m * m) - 1.0) / (2.0 * m))
        worst = max(worst, gap)
        assert gap <= 1e-15
    print(f"ACCEPTANCE 6 PASS — half identity holds within {worst:.2e} <= 1e-15")


def test_criterion_07_sharpness_on_standard_grids():
    n_checked = 0
    worst = 0.0
    for specs in STANDARD_GRIDS.values():
        for spec in specs:
            report = sharpness_check(spec)
            assert report.passed, f"sharpness failed for {spec}"
            assert abs(report.gap) <= 1e-9
            worst = max(worst, abs(report.gap))
            n_checked += 1
    print(
        f"ACCEPTANCE 7 PASS — |bohr_sum(r_f) - d*| <= {worst:.2e} (limit 1e-9) "
        f"across {n_checked} parameter points"
    )


def test_criterion_08_distance_oracle_converges():
    t0 = time.perf_counter()
    spec = ph_alpha(0.3)
    d_star = distance_bound(spec).value
    assert d_star == pytest.approx(1.0 + 1.4 * (math.log(2.0) - 1.0), abs=1e-14)
    errors = []
    for rho in (0.9, 0.99, 0.999):
        est = distance_oracle(spec, rho=rho, grid=720, n=100_000)
        errors.append(abs(est.value - d_star))
    elapsed = time.perf_counter() - t0
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 5e-3
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 8 PASS — oracle errors {errors[0]:.2e} > {errors[1]:.2e} > "
        f"{errors[2]:.2e} (final <= 5e-3), {elapsed:.2f} s < 30 s"
    )


def test_criterion_09_weighted_class_root_report(capsys):
    result = solve_radius(wh_alpha(1.0))
    cfg = SolverConfig()
    b = bohr_sum(wh_alpha(1.0), result.radius)
    d = distance_bound(wh_alpha(1.0))
    residual = abs(b.value - d.value) + b.error_bound + d.error_bound
    assert residual <= 1e-10
    agreement = abs(result.radius - WH_ALPHA1_REFERENCE_DECIMAL) <= 1e-4
    flag = "AGREES" if agreement else "DISAGREES"
    print(
        f"ACCEPTANCE 9 PASS — computed root {result.radius:.12f} with equation "
        f"residual {residual:.2e} <= 1e-10; root {flag} with the reference "
        f"decimal {WH_ALPHA1_REFERENCE_DECIMAL}"
    )
    # The gate binds to the equation residual; the divergent reference
    # decimal must be surfaced, not silently dropped.
    assert not agreement


def test_criterion_10_mass_supremum_enforced_at_cli(capsys):
    rc = cli_main(["radius", "--class", "ph-m", "--m", "1.3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "1.294350" in captured.err
    rc_ok = cli_main(["radius", "--class", "ph-m", "--m", "1.29"])
    capsys.readouterr()  # drain the accepted record; only the verdict matters here
    assert rc_ok == 0
    print(
        "ACCEPTANCE 10 PASS — mass 1.3 rejected with exit code 2 and the "
        "supremum in the message; 1.29 accepted"
    )


def test_criterion_11_property_suites_fully_green():
    t0 = time.perf_counter()
    report = run_suite()
    elapsed = time.perf_counter() - t0
    failures = ", ".join(r.name for r in report.failures)
    assert report.passed, f"failing checks: {failures}"
    for fragment in (
        "h-monotone-",
        "single-sign-change-",
        "generic-sum-agreement-",
        "alt-engine-vs-direct-sum",
        "radius-parameter-monotonicity",
    ):
        assert any(fragment in r.name for r in report.results)
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 11 PASS — {len(report.results)}/{len(report.results)} named "
        f"checks green in {elapsed:.2f} s < 120 s"
    )
