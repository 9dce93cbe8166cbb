"""Tests for the verification toolkit: extremal evaluation, the boundary
distance oracle, sharpness and envelope checks, grid scans, and the named
check suite."""

import math

import numpy as np
import pytest

from harmbohr.classes import (
    ExtremalFunction,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    gt_beta,
    growth_envelope,
    majorant_tail_bound,
    ph_alpha,
    ph_m,
    tb_m,
    wh_alpha,
)
from harmbohr.errors import DomainError
from harmbohr.series import CoefficientRule, alt_constant, alt_log_tail, log_tail
from harmbohr.solver import closed_form_radius, solve_radius
from harmbohr.verifier import (
    STANDARD_GRIDS,
    WH_ALPHA1_REFERENCE_DECIMAL,
    _direct_alt_pair_average,
    bohr_scan,
    default_sharpness_tol,
    distance_oracle,
    envelope_check,
    evaluate_extremal,
    lower_touch_angle,
    run_suite,
    sharpness_check,
)


class TestEvaluateExtremal:
    def test_origin_is_zero(self):
        ext = extremal_coefficients(ph_alpha(0.0), 100)
        assert evaluate_extremal(ext, 0.0) == 0.0

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_ph_alpha_along_positive_axis(self, r):
        # On the positive axis the extremal value is r + 2 * log-tail(r),
        # up to the truncation tail.
        spec = ph_alpha(0.0)
        n = 2000
        ext = extremal_coefficients(spec, n)
        expect = r + 2.0 * log_tail(r)
        slack = majorant_tail_bound(spec, n, r) + 1e-13
        assert abs(evaluate_extremal(ext, r) - expect) <= slack

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_ph_alpha_along_negative_axis(self, r):
        spec = ph_alpha(0.0)
        n = 2000
        ext = extremal_coefficients(spec, n)
        expect = abs(r + 2.0 * alt_log_tail(r))  # |f(-r)| = |2 ln(1+r) - r|
        slack = majorant_tail_bound(spec, n, r) + 1e-13
        assert abs(evaluate_extremal(ext, -r) - expect) <= slack

    def test_doubling_truncation_within_tail_bound(self):
        spec = wh_alpha(0.5)
        r = 0.9
        for n in (50, 100, 200):
            a = evaluate_extremal(extremal_coefficients(spec, n), r)
            b = evaluate_extremal(extremal_coefficients(spec, 2 * n), r)
            assert abs(a - b) <= majorant_tail_bound(spec, n, r)

    def test_co_analytic_part_contributes(self):
        # f(z) = z + 0.5 conj(z)^2 at z = 0.5: 0.5 + 0.5*0.25 = 0.625.
        ext = ExtremalFunction(
            analytic=np.array([1.0]), co_analytic=np.array([0.5]), truncation=2
        )
        assert evaluate_extremal(ext, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_unit_disc_boundary_rejected(self):
        ext = extremal_coefficients(ph_alpha(0.0), 10)
        with pytest.raises(DomainError):
            evaluate_extremal(ext, 1.0)
        with pytest.raises(DomainError):
            evaluate_extremal(ext, 0.8 + 0.7j)


class TestDistanceOracle:
    def test_quadratic_extremal_exact_minimum(self):
        # f(z) = z + z^2/2 has min |f| on |z| = rho at z = -rho, value
        # rho - rho^2/2; the 720-point grid contains the angle pi exactly.
        est = distance_oracle(tb_m(1.0), rho=0.99, grid=720, n=2)
        assert est.value == pytest.approx(0.99 - 0.5 * 0.99**2, abs=1e-12)
        assert est.value == pytest.approx(0.499950, abs=1e-7)
        assert est.truncation_n == 2
        assert est.grid_size == 720
        assert est.rho == 0.99

    def test_argmin_on_negative_axis(self):
        est = distance_oracle(ph_alpha(0.3), rho=0.9, grid=360, n=5000)
        step = 2.0 * math.pi / 360
        dist = min(abs(est.argmin_theta - math.pi), abs(2.0 * math.pi - est.argmin_theta - math.pi))
        assert dist <= step / 2 + 1e-12

    def test_error_decreases_as_rho_rises(self):
        spec = ph_alpha(0.3)
        d = distance_bound(spec).value
        errors = [
            abs(distance_oracle(spec, rho=rho, grid=360, n=30_000).value - d)
            for rho in (0.9, 0.99, 0.999)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 5e-3

    def test_estimate_stays_above_envelope_floor(self):
        for spec in (ph_alpha(0.0), ph_m(1.0), gt_beta(0.25)):
            est = distance_oracle(spec, rho=0.1, grid=128, n=2000)
            floor = growth_envelope(spec, 0.1).lower
            assert est.value >= floor - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            distance_oracle(ph_alpha(0.0), rho=1.0)
        with pytest.raises(DomainError):
            distance_oracle(ph_alpha(0.0), grid=4)
        with pytest.raises(DomainError):
            distance_oracle(ph_alpha(0.0), n=1)


class TestSharpness:
    def test_ph_alpha_sharp(self):
        report = sharpness_check(ph_alpha(0.0))
        assert report
        assert abs(report.gap) <= 1e-9
        assert report.violation_gap > 0.0
        assert report.bohr_at_radius == pytest.approx(report.d_star, abs=1e-9)

    def test_gt_beta_sharp_to_round_off(self):
        report = sharpness_check(gt_beta(0.25))
        assert report.passed
        assert abs(report.gap) <= 1e-10

    def test_tb_polynomial_sharp_to_round_off(self):
        report = sharpness_check(tb_m(1.0))
        assert report.passed
        assert abs(report.gap) <= 1e-12

    def test_default_tolerances_by_family(self):
        assert default_sharpness_tol(wh_alpha(0.5)) == 1e-9
        assert default_sharpness_tol(gh_k_alpha(2, 1.0)) == 1e-9
        assert default_sharpness_tol(ph_alpha(0.0)) == 1e-12

    def test_radius_matches_solver(self):
        report = sharpness_check(ph_m(0.7))
        assert report.radius == solve_radius(ph_m(0.7)).radius


class TestBohrScan:
    def test_ph_alpha_localises_radius(self):
        report = bohr_scan(ph_alpha(0.0), r_max=0.5, steps=500)
        assert report.first_violation == pytest.approx(0.2852, abs=1e-3)

    def test_gt_beta_zero_violates_immediately(self):
        report = bohr_scan(gt_beta(0.0), r_max=0.5, steps=100)
        # d* = 0: the majorant exceeds it from the first positive grid point.
        assert report.first_violation == pytest.approx(0.5 / 99, abs=1e-12)
        assert report.grid[0].satisfied

    def test_tb_heavy_mass_tiny_radius(self):
        report = bohr_scan(tb_m(1.9), r_max=0.2, steps=400)
        expect = closed_form_radius(tb_m(1.9))
        step = 0.2 / 399
        assert expect == pytest.approx(0.047827, abs=1e-6)
        assert abs(report.first_violation - expect) <= step + 1e-12

    def test_rows_inside_radius_are_satisfied(self):
        spec = wh_alpha(0.5)
        r_f = solve_radius(spec).radius
        report = bohr_scan(spec, r_max=0.6, steps=200)
        for row in report.grid:
            if row.r <= r_f:
                assert row.satisfied
        assert report.first_violation > r_f - 1e-9

    def test_no_violation_below_radius_window(self):
        spec = ph_alpha(0.5)
        r_f = solve_radius(spec).radius
        report = bohr_scan(spec, r_max=0.9 * r_f, steps=50)
        assert report.first_violation is None
        assert all(row.satisfied for row in report.grid)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bohr_scan(ph_alpha(0.0), r_max=1.0, steps=10)
        with pytest.raises(DomainError):
            bohr_scan(ph_alpha(0.0), r_max=0.5, steps=1)


class TestEnvelopeCheck:
    def test_ph_alpha_touch_points(self):
        report = envelope_check(ph_alpha(0.5), samples=(0.5,), truncation=10_000)
        assert report.passed
        row = report.rows[0]
        assert row.at_upper_point == pytest.approx(row.upper, abs=1e-8)
        assert row.at_lower_point == pytest.approx(row.lower, abs=1e-8)
        assert row.contained

    def test_tb_polynomial_exact(self):
        report = envelope_check(tb_m(0.5), samples=(0.3,), truncation=4, tol=1e-12)
        assert report.passed

    def test_ph_m_near_boundary_sample(self):
        report = envelope_check(ph_m(1.0), samples=(0.9,), truncation=10_000, tol=1e-6)
        assert report.passed

    def test_lacunary_touch_at_rotated_angle(self):
        assert lower_touch_angle(gh_k_alpha(2, 1.0)) == pytest.approx(math.pi / 2, abs=0.0)
        assert lower_touch_angle(gh_k_alpha(4, 0.5)) == pytest.approx(math.pi / 4, abs=0.0)
        assert lower_touch_angle(ph_alpha(0.0)) == math.pi
        report = envelope_check(gh_k_alpha(2, 1.0), samples=(0.3, 0.7), truncation=10_000)
        assert report.passed

    def test_bad_sample_rejected(self):
        with pytest.raises(DomainError):
            envelope_check(ph_alpha(0.0), samples=(0.0,))


class TestDirectAlternatingOracle:
    def test_agrees_with_accelerated_engine(self):
        rule = CoefficientRule(lambda n: 2.0 / n, start=2)
        direct = _direct_alt_pair_average(rule, 1_000_000, first_sign=-1)
        fast = alt_constant(rule, tol=1e-12, first_sign=-1)
        assert abs(direct - fast.value) <= 1e-10

    def test_known_value(self):
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        got = _direct_alt_pair_average(rule, 1_000_000, first_sign=+1)
        assert got == pytest.approx(math.log(2.0), abs=1e-10)


class TestStandardGrids:
    def test_cover_every_family(self):
        from harmbohr.classes import Family, validate

        assert set(STANDARD_GRIDS) == set(Family)
        for specs in STANDARD_GRIDS.values():
            assert len(specs) >= 5
            for spec in specs:
                validate(spec)

    def test_reference_decimal_recorded(self):
        assert WH_ALPHA1_REFERENCE_DECIMAL == 0.58387765


class TestRunSuite:
    def test_sharpness_selection_passes(self):
        report = run_suite(only="sharpness")
        assert len(report.results) == 6
        assert report.passed
        assert all(r.name.startswith("sharpness-") for r in report.results)

    def test_family_filter(self):
        report = run_suite(family="gt-beta")
        assert report.results
        assert report.passed

    def test_unknown_selection_is_empty(self):
        report = run_suite(only="no-such-check")
        assert report.results == ()

    def test_reference_radius_check(self):
        report = run_suite(only="radius-ph-alpha-0-reference")
        assert len(report.results) == 1
        assert report.results[0].passed
        assert "0.28519" in report.results[0].detail

    def test_divergent_reference_is_reported_not_hidden(self):
        report = run_suite(only="wh-alpha-1-root-report")
        assert len(report.results) == 1
        result = report.results[0]
        assert result.passed
        assert "DISAGREES" in result.detail
        assert "0.58387765" in result.detail
        assert "2Li2(r) - r = pi^2/12" in result.detail

    def test_details_are_deterministic(self):
        a = run_suite(only="closed-vs-bisection")
        b = run_suite(only="closed-vs-bisection")
        assert [(r.name, r.passed, r.detail) for r in a.results] == [
            (r.name, r.passed, r.detail) for r in b.results
        ]

    def test_failures_property(self):
        report = run_suite(only="jacobian")
        assert report.failures == ()

    def test_jacobian_containment_fails_below_the_functional(self, monkeypatch):
        # An extremal whose terms fall short of the functional (a_2 = m/3
        # instead of m/2) must fail, not only one that exceeds it.
        from harmbohr import verifier

        def short_extremal(spec, truncation):
            ext = extremal_coefficients(spec, truncation)
            analytic = ext.analytic.copy()
            analytic[1] = spec.m / 3.0
            return ExtremalFunction(analytic, ext.co_analytic, ext.truncation)

        monkeypatch.setattr(verifier, "extremal_coefficients", short_extremal)
        (result,) = run_suite(only="jacobian-majorant-deficit-tb-m").results
        assert not result.passed
        assert "containment slack = 2.50e-01" in result.detail
