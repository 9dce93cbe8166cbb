"""Tests for the verification toolkit: extremal evaluation, the boundary
distance oracle, sharpness and envelope checks, grid scans, and the named
check suite."""

import dataclasses
import inspect
import math

import mpmath
import numpy as np
import pytest

from harmbohr._kernels import abs_on_circle
from harmbohr.classes import (
    FAMILIES,
    Family,
    bohr_sum,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    gt_beta,
    growth_envelope,
    ph_alpha,
    ph_m,
    tb_m,
    wh_alpha,
)
from harmbohr.errors import ConvergenceError, DomainError
from harmbohr.series import CoefficientRule, SeriesValue, alt_log_tail, log_tail
from harmbohr.solver import SolverConfig, closed_form_radius, solve_radii, solve_radius
from harmbohr.verifier import (
    STANDARD_GRIDS,
    WH_ALPHA1_REFERENCE_DECIMAL,
    _EULER_K,
    _ORACLE_TERMS,
    _d_stars,
    _direct_alt_euler_mean,
    _first_violation,
    _on_grids,
    _scan_window,
    _sharpness_grids,
    _sharpness_report,
    _tail_bound,
    distance_oracle,
    envelope_check,
    run_suite,
    sharpness_check,
)

_EPS = float(np.finfo(np.float64).eps)


def _bits(value):
    """The bytes of every field of a result of floats or float arrays."""
    return [np.asarray(getattr(value, f.name), np.float64).tobytes() for f in dataclasses.fields(value)]


@pytest.fixture(scope="module")
def full_suite():
    """(name, passed, detail) of every check of one full suite, in order."""
    return [(r.name, r.passed, r.detail) for r in run_suite().results]


class TestEvaluateExtremal:
    """The truncated extremal on circles, through the one circle kernel."""

    THETAS = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)

    def test_origin_is_zero(self):
        ext = extremal_coefficients(ph_alpha(0.0), 100)
        assert not abs_on_circle(ext, 0.0, self.THETAS).any()

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_ph_alpha_along_positive_axis(self, r):
        # Point 0 is z = r, where the extremal value is r + 2 * log-tail(r),
        # up to the truncation tail.
        spec = ph_alpha(0.0)
        n = 2000
        at_zero = abs_on_circle(extremal_coefficients(spec, n), r, self.THETAS)[0]
        expect = r + 2.0 * log_tail(r)
        slack = _tail_bound(spec, n, r) + 1e-13
        assert abs(at_zero - expect) <= slack

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_ph_alpha_along_negative_axis(self, r):
        # Point 12 of the 24 is z = -r.
        spec = ph_alpha(0.0)
        n = 2000
        at_pi = abs_on_circle(extremal_coefficients(spec, n), r, self.THETAS)[12]
        expect = abs(r + 2.0 * alt_log_tail(r))  # |f(-r)| = |2 ln(1+r) - r|
        slack = _tail_bound(spec, n, r) + 1e-13
        assert abs(at_pi - expect) <= slack

    def test_doubling_truncation_within_tail_bound(self):
        spec = wh_alpha(0.5)
        r = 0.9
        for n in (50, 100, 200):
            a = abs_on_circle(extremal_coefficients(spec, n), r, self.THETAS)
            b = abs_on_circle(extremal_coefficients(spec, 2 * n), r, self.THETAS)
            assert np.max(np.abs(a - b)) <= _tail_bound(spec, n, r)


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

    def test_wh_alpha_fails_when_b_moves_by_1e_10(self, monkeypatch):
        # Every family, wh-alpha's power series too, is held to 1e-12: B
        # raised by 1e-10 where the verifier reads it must fail.
        from harmbohr import verifier

        bohr_sum = verifier.bohr_sum

        def raised(spec, r):
            b = bohr_sum(spec, r)
            return dataclasses.replace(b, value=b.value + 1e-10)

        name = "sharpness-wh-alpha"
        (result,) = run_suite(only=name).results
        assert result.passed
        monkeypatch.setattr(verifier, "bohr_sum", raised)
        (result,) = run_suite(only=name).results
        assert not result.passed

    def test_radius_matches_solver(self):
        report = sharpness_check(ph_m(0.7))
        assert report.radius == solve_radius(ph_m(0.7)).radius

    @pytest.mark.parametrize("family", ["wh-alpha", "gh-k-alpha", "tb-m"])
    def test_batched_reports_equal_one_spec_checks(self, family):
        # B of every spec from one call, as the suite evaluates it.
        specs = list(STANDARD_GRIDS[Family(family)])
        results = solve_radii(specs)
        bs = _on_grids(bohr_sum, specs, _sharpness_grids(results, ()))
        batched = [_sharpness_report(s, res, b, 1e-12) for s, res, b in zip(specs, results, bs)]
        assert batched == [sharpness_check(spec) for spec in specs]


class TestBohrScan:
    """The first point of a uniform r grid where B(r) exceeds d*, read off
    B and d* as the suite hands them to ``scan-localisation-*``."""

    @staticmethod
    def first_violation(spec, r_max, steps):
        from harmbohr import verifier

        rs = np.linspace(0.0, r_max, steps)
        (b,), (d,) = _on_grids(verifier.bohr_sum, [spec], [rs]), _d_stars([spec])
        return _first_violation(rs, b, d)

    def test_ph_alpha_localises_radius(self):
        fv = self.first_violation(ph_alpha(0.0), 0.5, 500)
        assert fv == pytest.approx(0.2852, abs=1e-3)

    def test_gt_beta_zero_violates_immediately(self):
        # d* = 0: r = 0 satisfies the inequality, and the majorant exceeds
        # d* from the first positive grid point on.
        fv = self.first_violation(gt_beta(0.0), 0.5, 100)
        assert fv == pytest.approx(0.5 / 99, abs=1e-12)

    def test_tb_heavy_mass_tiny_radius(self):
        fv = self.first_violation(tb_m(1.9), 0.2, 400)
        expect = closed_form_radius(tb_m(1.9))
        step = 0.2 / 399
        assert expect == pytest.approx(0.047827, abs=1e-6)
        assert abs(fv - expect) <= step + 1e-12

    def test_rows_inside_radius_are_satisfied(self):
        # Every grid point at or below the radius satisfies the inequality.
        spec = wh_alpha(0.5)
        r_f = solve_radius(spec).radius
        assert self.first_violation(spec, 0.6, 200) > r_f

    def test_no_violation_below_radius_window(self):
        spec = ph_alpha(0.5)
        r_f = solve_radius(spec).radius
        assert self.first_violation(spec, 0.9 * r_f, 50) is None

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_first_violation_read_off_the_mask_matches_rows(self, index):
        # The wh-alpha specs and windows of scan-localisation-wh-alpha,
        # against B and d* evaluated one grid point at a time.
        spec = STANDARD_GRIDS[Family.WH_ALPHA][index]
        r_f = solve_radius(spec).radius
        rs = _scan_window(r_f)
        assert rs.size == 400 and rs[-1] == min(1.5 * r_f, 0.95)
        d = distance_bound(spec)
        rows = ((r, bohr_sum(spec, r)) for r in rs.tolist())
        expect = next(
            r for r, b in rows
            if not b.value <= d.value + b.error_bound + d.error_bound + 1e-15
        )
        (b,) = _on_grids(bohr_sum, [spec], [rs])
        assert _first_violation(rs, b, d) == expect

    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_grouped_lanes_equal_one_spec_calls(self, family):
        # Three specs with grids of different sizes, in one group; the
        # gh-k-alpha specs differ in k, so their lane spec has a k column.
        # A spec of the next family, put between them, is a group of its
        # own: one lane.
        families = list(Family)
        group = STANDARD_GRIDS[Family(family)]
        lone = STANDARD_GRIDS[families[(families.index(Family(family)) + 1) % len(families)]][2]
        specs = [group[0], lone, group[-1], group[1]]
        grids = [np.linspace(0.0, r_max, n) for r_max, n in ((0.5, 40), (0.7, 5), (0.9, 7), (0.3, 2))]
        got = zip(
            _on_grids(bohr_sum, specs, grids), _on_grids(growth_envelope, specs, grids), _d_stars(specs)
        )
        for spec, rs, (b, env, d) in zip(specs, grids, got):
            assert _bits(b) == _bits(bohr_sum(spec, rs))
            assert _bits(env) == _bits(growth_envelope(spec, rs))
            assert _bits(d) == _bits(distance_bound(spec))

    def test_one_lane_call_per_family(self, monkeypatch):
        from harmbohr import verifier

        calls = []

        def counted(name):
            engine = getattr(verifier, name)

            def call(*args, **kwargs):
                calls.append(name)
                return engine(*args, **kwargs)

            monkeypatch.setattr(verifier, name, call)

        counted("bohr_sum")
        counted("distance_bound")
        specs = [wh_alpha(0.0), gh_k_alpha(2, 1.0), wh_alpha(1.0), gh_k_alpha(3, 3.0)]
        rs = np.linspace(0.0, 0.6, 100)
        bs = _on_grids(verifier.bohr_sum, specs, [rs] * len(specs))
        found = [_first_violation(rs, b, d) for b, d in zip(bs, _d_stars(specs))]
        assert sorted(calls) == ["bohr_sum"] * 2 + ["distance_bound"] * 2
        calls.clear()
        assert found == [self.first_violation(s, 0.6, 100) for s in specs]
        assert len(calls) == 8

    def test_domain_errors(self, monkeypatch):
        # A grid outside B's domain, or a family whose d* raises, gives the
        # error in place of each of its specs' values, and the other
        # families are evaluated as before.
        from harmbohr import verifier

        specs = [ph_alpha(0.0), wh_alpha(0.5), ph_alpha(0.5)]
        grids = [np.linspace(0.0, 1.0, 10), np.linspace(0.0, 0.5, 3), np.linspace(0.0, 0.5, 3)]
        bad, b, bad_too = _on_grids(bohr_sum, specs, grids)
        assert isinstance(bad, DomainError) and bad is bad_too
        assert b == bohr_sum(wh_alpha(0.5), grids[1])

        def failing(spec):
            if spec.family is Family.PH_ALPHA:
                raise DomainError("forced")
            return distance_bound(spec)

        monkeypatch.setattr(verifier, "distance_bound", failing)
        bad, d, bad_too = _d_stars(specs)
        assert str(bad) == "forced" and bad is bad_too
        assert d == distance_bound(wh_alpha(0.5))


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

    def test_lacunary_touch_at_rotated_angle(self, monkeypatch):
        # The lower envelope is attained at angle pi/k: point 12 of the one
        # 24 k-point grid, the upper one at point 0.  A gap beyond the
        # truncation leaves z alone, |f| = r everywhere, on 24 points.
        from harmbohr import _kernels

        grids = []

        def recorded(coeffs, rho, thetas):
            grids.append(thetas.size)
            return abs_on_circle(coeffs, rho, thetas)

        monkeypatch.setattr(_kernels, "abs_on_circle", recorded)
        for spec, points in (
            (ph_alpha(0.0), 24),
            (gh_k_alpha(2, 1.0), 48),
            (gh_k_alpha(4, 0.5), 96),
            (gh_k_alpha(5, 1.0), 120),
            (gh_k_alpha(10**17, 1.0), 24),
        ):
            grids.clear()
            report = envelope_check(spec, samples=(0.3, 0.7), truncation=10_000)
            assert report.passed
            assert grids == [points, points]
            for row in report.rows:
                assert row.at_lower_point == pytest.approx(row.lower, abs=1e-8)
                assert row.at_upper_point == pytest.approx(row.upper, abs=1e-8)

    def test_bad_sample_rejected(self):
        with pytest.raises(DomainError):
            envelope_check(ph_alpha(0.0), samples=(0.0,))


class TestDirectAlternatingOracle:
    @staticmethod
    def one(rule, n_terms=_ORACLE_TERMS, k=_EULER_K):
        found = _direct_alt_euler_mean([rule], n_terms, k)
        return float(found.value[0]), float(found.error_bound[0])

    def test_agrees_with_accelerated_engine(self):
        # c_n = 2/n from n = 2 are wh-alpha's at alpha = 0, whose d* - 1 is
        # their alternating sum, by the Boole engine.
        rule = CoefficientRule(lambda n: 2.0 / n, start=2)
        direct, bound = self.one(rule)
        fast = distance_bound(wh_alpha(0.0))
        assert abs(direct - (fast.value - 1.0)) <= bound + fast.error_bound
        assert bound <= 1e-13

    def test_known_value(self):
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        # 1 - 1/2 + 1/3 - ... = ln 2, negated by the leading minus sign.
        got, bound = self.one(rule)
        assert abs(got + math.log(2.0)) <= bound + _EPS

    @pytest.mark.parametrize(
        "func, start, expect",
        [
            # sum_{n>=2} (-1)^(n-1) 2/n and sum_{n>=2} (-1)^(n-1) 2/(n(n-1)).
            (lambda n: 2.0 / n, 2, 2.0 * (math.log(2.0) - 1.0)),
            (lambda n: 2.0 / (n * (n - 1.0)), 2, 2.0 * (1.0 - math.log(4.0))),
        ],
        ids=["2/n", "2/(n(n-1))"],
    )
    def test_closed_forms_within_bound(self, func, start, expect):
        got, bound = self.one(CoefficientRule(func, start))
        # The closed form itself is a few roundings off in floats.
        assert abs(got - expect) <= bound + 4.0 * _EPS
        assert bound <= 1e-13

    @pytest.mark.parametrize("n_terms", [1_000_000, 999_999])
    def test_error_is_the_pair_average_truncation(self, n_terms):
        # k = 1 is the mean of the last two partial sums of
        # sum (-1)^(n+1)/n, off ln 2 by about 1/(4N^2) = 2.5e-13; its bound,
        # |Delta a_N| / 2 plus rounding, covers that at either parity of N.
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        got, bound = self.one(rule, n_terms, 1)
        assert abs(got + math.log(2.0)) <= min(2.6e-13, bound)
        assert bound <= 6e-13

    @pytest.mark.parametrize(
        "n_terms, expect",
        [(1, 0.5), (2, 0.75), (3, 2.0 / 3.0), (4, (7.0 / 12.0 + 5.0 / 6.0) / 2.0)],
    )
    def test_short_sums_average_the_last_two_partial_sums(self, n_terms, expect):
        # Partial sums of 1 - 1/2 + 1/3 - 1/4: 1, 1/2, 5/6, 7/12 (S_0 = 0).
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        assert self.one(rule, n_terms, 1)[0] == pytest.approx(-expect, abs=1e-15)

    @staticmethod
    def one_shot(rule, n_terms, first_sign):
        # The mean of the last two partial sums with S_{n-1} summed exactly
        # (math.fsum), with the given sign on the first term.
        c = rule.terms(np.arange(rule.start, rule.start + n_terms, dtype=np.float64))
        signed = np.where(np.arange(n_terms) % 2 == 0, c, -c)
        head = math.fsum(signed[:-1].tolist())
        magnitude = float(np.sum(np.abs(c[:-1:2] - c[1::2]))) + abs(float(c[-1]))
        return first_sign * (head + 0.5 * float(signed[-1])), magnitude

    @pytest.mark.parametrize("first_sign", [+1, -1])
    @pytest.mark.parametrize(
        "n_terms",
        [1, 2, 3, 4, 2**14 - 1, 2**14, 2**14 + 1, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3, 999_999, 1_000_000],
    )
    def test_blocks_agree_with_one_shot_sum(self, n_terms, first_sign):
        # k = 1, its partial sum taken as pair differences summed by numpy,
        # against the exactly summed one, at both parities and about powers
        # of two.
        rule = CoefficientRule(lambda n: 1.0 / (1.0 + 0.5 * n), 1)
        expect, magnitude = self.one_shot(rule, n_terms, first_sign)
        # The oracle's first term is negative: negate it for first_sign = +1.
        got = -first_sign * self.one(rule, n_terms, 1)[0]
        assert abs(got - expect) <= 4.0 * np.spacing(magnitude)

    def test_rules_share_blocks_and_keep_their_own_starts(self):
        # Rules from n = 1 and n = 2 summed in one call, each bit for bit
        # as its own call, and each within its bound of the exact sum.
        rules = [
            CoefficientRule(lambda n: 1.0 / n, start=1),
            CoefficientRule(lambda n: 2.0 / n, start=2),
            CoefficientRule(lambda n: 2.0 / (n * (n - 1.0)), start=2),
        ]
        exact = [-math.log(2.0), 2.0 * (math.log(2.0) - 1.0), 2.0 * (1.0 - math.log(4.0))]
        got = _direct_alt_euler_mean(rules, _ORACLE_TERMS, _EULER_K)
        for rule, value, bound, expect in zip(
            rules, got.value.tolist(), got.error_bound.tolist(), exact
        ):
            assert (value, bound) == self.one(rule)
            assert abs(value - expect) <= bound + 4.0 * _EPS

    # mpmath forms of the rules, the exact sums against which the bound is
    # held: (float rule, mpmath coefficient, start).
    MP_RULES = {
        "1/n": (lambda n: 1.0 / n, lambda n: 1 / mpmath.mpf(n), 1),
        "1/(1+n/2)": (lambda n: 1.0 / (1.0 + 0.5 * n), lambda n: 1 / (1 + mpmath.mpf(n) / 2), 1),
        "2/(n(n-1))": (lambda n: 2.0 / (n * (n - 1.0)), lambda n: 2 / (mpmath.mpf(n) * (n - 1)), 2),
    }

    @pytest.mark.parametrize("n_plain, k", [(64, 1), (200, 3)])
    @pytest.mark.parametrize("name", list(MP_RULES))
    def test_bound_holds_against_mpmath(self, name, n_plain, k):
        # The error lies between half of and all of 2^-k |Delta^k a_N|,
        # which far exceeds the rounding at these N; the returned bound
        # covers it.
        func, coeff, start = self.MP_RULES[name]
        got, bound = self.one(CoefficientRule(func, start), n_plain + k, k)
        with mpmath.workdps(40):
            exact = -mpmath.nsum(lambda j: (-1) ** int(j) * coeff(start + j), [0, mpmath.inf])
            diff = sum(
                math.comb(k, i) * (-1) ** (k - i) * coeff(start + n_plain + i)
                for i in range(k + 1)
            )
            truncation = float(abs(diff) / 2**k)
            error = float(abs(got - exact))
        assert error <= bound
        assert 0.5 * truncation <= error * (1.0 + 1e-6)
        assert bound <= 1.01 * truncation

    @pytest.mark.parametrize("n_terms", [0, -1, 2.5])
    def test_fewer_than_one_term_rejected(self, n_terms):
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        with pytest.raises(DomainError):
            _direct_alt_euler_mean([rule], n_terms, 1)

    @pytest.mark.parametrize("n_terms, k", [(2, 3), (3, 4), (10, 0), (10, -1), (10, 1.5)])
    def test_bad_order_or_fewer_terms_than_order_rejected(self, n_terms, k):
        rule = CoefficientRule(lambda n: 1.0 / n, start=1)
        with pytest.raises(DomainError):
            _direct_alt_euler_mean([rule], n_terms, k)

    @pytest.mark.parametrize("shift", [2e-13, -2e-13])
    def test_check_fails_when_the_engine_is_off_by_2e_13(self, shift):
        # Every spec's d* bound plus oracle bound is below 1.4e-13, so a d*
        # off by 2e-13 fails the check; it passed the old 1e-10.  Each Boole
        # engine's sum is shifted by half that: d* = 1 - 2 * the sum.
        from harmbohr import classes

        (result,) = run_suite(only="alt-engine-vs-direct-sum").results
        assert result.passed
        for engine in ("_wh_alt", "alt_lerch_sum"):
            summed = getattr(classes, engine)

            def shifted(*args, summed=summed):
                sv = summed(*args)
                return dataclasses.replace(sv, value=sv.value - 0.5 * shift)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classes, engine, shifted)
                (result,) = run_suite(only="alt-engine-vs-direct-sum").results
            assert not result.passed, engine
            assert result.detail.startswith("max |d* - 1 - direct| = 2.00e-13;")


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

    def test_every_check_takes_one_radius_per_spec_it_solves(self):
        # run_suite calls fn with one argument per spec for each kind it
        # reads (radius, d*, engine value), a kind for all the specs before
        # the next: a check whose arguments do not match its specs fails
        # here without running.  A check reads an engine exactly when it
        # names its grids, and only a solving check forces Newton.
        from harmbohr import verifier

        for check in verifier._build_registry():
            kinds = check.solves + check.d_stars + (check.engine is not None)
            inspect.signature(check.fn).bind(*check.specs * kinds)
            assert (check.engine is None) == (check.grids is None), check.name
            assert check.solves or not check.newton, check.name
            assert check.specs or check.fams, check.name

    def test_details_are_deterministic(self):
        a = run_suite(only="closed-vs-bisection")
        b = run_suite(only="closed-vs-bisection")
        assert [(r.name, r.passed, r.detail) for r in a.results] == [
            (r.name, r.passed, r.detail) for r in b.results
        ]

    def test_closed_vs_bisection_fails_on_a_nan_radius(self, monkeypatch):
        # One spec of each check's grid solves to NaN.
        from harmbohr import verifier

        solve_each = verifier._solve_each
        nan_specs = (gt_beta(0.15), tb_m(0.4))

        def nan_lane(specs, cfg):
            return [
                dataclasses.replace(res, radius=float("nan")) if spec in nan_specs else res
                for spec, res in zip(specs, solve_each(specs, cfg))
            ]

        monkeypatch.setattr(verifier, "_solve_each", nan_lane)
        results = run_suite(only="closed-vs-bisection").results
        assert len(results) == 2
        assert not any(r.passed for r in results)

    def test_closed_vs_bisection_needs_an_exact_zero(self, monkeypatch):
        # gt_beta(0.0) has closed-form radius 0; a lane that solves to 1e-300
        # instead is within 1e-10 of it but must still fail.
        from harmbohr import verifier

        solve_each = verifier._solve_each

        def off_zero(specs, cfg):
            return [
                dataclasses.replace(res, radius=1e-300) if spec == gt_beta(0.0) else res
                for spec, res in zip(specs, solve_each(specs, cfg))
            ]

        monkeypatch.setattr(verifier, "_solve_each", off_zero)
        gt, tb = run_suite(only="closed-vs-bisection").results
        assert (gt.name, gt.passed) == ("closed-vs-bisection-gt-beta", False)
        assert (tb.name, tb.passed) == ("closed-vs-bisection-tb-m", True)
        assert gt.detail == "max |closed - bisection| = 2.78e-17"

    @pytest.mark.parametrize("name", ["reduction-wh-to-ph", "reduction-gh-to-ph"])
    def test_reduction_fails_when_the_reduced_radius_moves(self, monkeypatch, name):
        from harmbohr import verifier

        solve_each = verifier._solve_each

        def moved(specs, cfg):
            return [
                res if spec == ph_alpha(0.0) else dataclasses.replace(res, radius=res.radius + 1e-8)
                for spec, res in zip(specs, solve_each(specs, cfg))
            ]

        monkeypatch.setattr(verifier, "_solve_each", moved)
        (result,) = run_suite(only=name).results
        assert not result.passed
        assert result.detail.endswith("= 1.00e-08")

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda m: closed_form_radius(tb_m(m)),  # the closed form, not halved
            lambda m: closed_form_radius(tb_m(m)) / 2.0 + 1e-14,
        ],
        ids=["unhalved", "shifted-1e-14"],
    )
    def test_jacobian_half_identity_fails_off_the_textbook_root(self, monkeypatch, mutant):
        from harmbohr import verifier

        (result,) = run_suite(only="jacobian-half-identity-tb-m").results
        assert result.passed
        monkeypatch.setattr(verifier, "jacobian_radius", mutant)
        (result,) = run_suite(only="jacobian-half-identity-tb-m").results
        assert not result.passed

    def test_failures_property(self):
        report = run_suite(only="jacobian")
        assert report.failures == ()

    def test_jacobian_containment_fails_below_the_functional(self, monkeypatch):
        # An extremal whose terms fall short of the functional (a_2 = m/3
        # instead of m/2) must fail, not only one that exceeds it.
        from harmbohr import verifier

        def short_extremal(spec, truncation):
            ext = extremal_coefficients(spec, truncation)
            ext[1] = spec.m / 3.0
            return ext

        monkeypatch.setattr(verifier, "extremal_coefficients", short_extremal)
        (result,) = run_suite(only="jacobian-majorant-deficit-tb-m").results
        assert not result.passed
        assert "containment slack = 2.50e-01" in result.detail

    def test_scan_localisation_fails_when_the_root_moves(self, monkeypatch):
        # One grid step of the 400-point window is about 1e-3 in r, so the
        # check localises the root to that step: B raised by 1e-6 moves it
        # by under 1e-6 and still passes, B raised by 1e-2 moves every
        # wh-alpha root by more than a step and must fail.
        from harmbohr import verifier

        bohr_sum = verifier.bohr_sum

        def raised(spec, r):
            b = bohr_sum(spec, r)
            return dataclasses.replace(b, value=b.value + 1e-2)

        monkeypatch.setattr(verifier, "bohr_sum", raised)
        (result,) = run_suite(only="scan-localisation-wh-alpha").results
        assert not result.passed


    def test_generic_sum_gh_fails_when_the_lerch_majorant_moves(self, monkeypatch):
        # gh-k-alpha's B is a Lerch sum, independent of the direct sum the
        # check makes from c_n: B raised by 1e-11 must fail it.
        fam = FAMILIES[Family.GH_K_ALPHA]

        def raised(spec, r):
            b, slope = fam.majorant(spec, r)
            return dataclasses.replace(b, value=b.value + 1e-11), slope

        name = "generic-sum-agreement-gh-k-alpha"
        (result,) = run_suite(only=name).results
        assert result.passed
        monkeypatch.setitem(FAMILIES, Family.GH_K_ALPHA, dataclasses.replace(fam, majorant=raised))
        (result,) = run_suite(only=name).results
        assert not result.passed
        assert float(result.detail.split(" = ")[1].split()[0]) >= 1e-11 - 1e-13

    def test_generic_sum_wh_fails_when_the_power_series_moves(self, monkeypatch):
        # wh-alpha's B - r is the power series of c_n, summed by Euler-
        # Maclaurin in ``_wh_sums``; the check's plain 400-term dot does not
        # go through it, so a shift of 1e-11 in that sum must fail it.
        from harmbohr import classes

        wh_sums = classes._wh_sums

        def shifted(r, alpha):
            s, slope = wh_sums(r, alpha)
            return dataclasses.replace(s, value=s.value + 1e-11), slope

        name = "generic-sum-agreement-wh-alpha"
        (result,) = run_suite(only=name).results
        assert result.passed
        monkeypatch.setattr(classes, "_wh_sums", shifted)
        (result,) = run_suite(only=name).results
        assert not result.passed
        assert float(result.detail.split(" = ")[1].split()[0]) >= 2e-11 - 1e-13

    def test_g_alt_monotonicity_fails_when_d_star_stops_increasing(self, monkeypatch):
        # gh-k-alpha's d* is increasing in alpha; a d* that falls at
        # alpha = 4 must fail the check, under the same name and detail.
        # The check reads the four alphas of every k as one lane spec, so
        # only the alpha = 4 lanes are lowered.
        from harmbohr import verifier

        name = "g-alt-alpha-monotonicity"
        detail = "strictly increasing toward 0 in alpha for k in {1,2,3}"
        (result,) = run_suite(only=name).results
        assert (result.name, result.passed, result.detail) == (name, True, detail)

        def falling(spec):
            d = distance_bound(spec)
            return dataclasses.replace(d, value=np.where(spec.alpha == 4.0, d.value - 0.5, d.value))

        monkeypatch.setattr(verifier, "distance_bound", falling)
        (result,) = run_suite(only=name).results
        assert (result.name, result.passed, result.detail) == (name, False, detail)

    @pytest.mark.parametrize("side,shift", [("lower", 1e-6), ("upper", -1e-6)])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_envelope_fails_when_a_side_moves_inward(self, monkeypatch, family, side, shift):
        # Each side is attained by the extremal, so moving it inward by
        # 1e-6, far beyond the check's 1e-8, leaves a touch point outside.
        from harmbohr import verifier

        name = f"envelope-{family.value}"
        (result,) = run_suite(only=name).results
        assert result.passed

        def moved(spec, r):
            env = growth_envelope(spec, r)
            return dataclasses.replace(env, **{side: getattr(env, side) + shift})

        monkeypatch.setattr(verifier, "growth_envelope", moved)
        (result,) = run_suite(only=name).results
        assert not result.passed

    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.3), gt_beta(0.2), wh_alpha(0.5), gh_k_alpha(2, 1.0), tb_m(1.0), ph_m(0.5)],
        ids=lambda s: s.family.value,
    )
    def test_a_slip_in_lower_moves_d_star_and_fails_the_envelope_check(self, monkeypatch, spec):
        # d* is the family's lower envelope at r = 1, and envelope-* checks
        # that envelope at the extremal's touch points; so a 1% slip in
        # ``lower`` moves d* and fails the check.
        fam = FAMILIES[spec.family]

        def slipped(s, r):
            low = fam.lower(s, r)
            return dataclasses.replace(low, value=1.01 * low.value)

        before = distance_bound(spec)
        monkeypatch.setitem(FAMILIES, spec.family, dataclasses.replace(fam, lower=slipped))
        assert distance_bound(spec).value == 1.01 * before.value != before.value
        (result,) = run_suite(only=f"envelope-{spec.family.value}").results
        assert not result.passed


class TestLaneCallsPerSuite:
    """verify solves every check's radii and evaluates every d*, B and
    envelope the checks read in lane calls: one full suite makes a fixed,
    small number of engine calls, so a per-point or per-check loop that
    comes back shows here."""

    @staticmethod
    def counted_engines(monkeypatch):
        """Calls from now on of the verifier's three engines and of the
        series engines behind them, by name."""
        from harmbohr import classes, verifier

        counts = dict.fromkeys(
            ("growth_envelope", "bohr_sum", "distance_bound", "lerch_sum", "_wh_sums",
             "alt_lerch_sum", "_wh_alt"),
            0,
        )

        def counted(module, name):
            engine = getattr(module, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return engine(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        for name in ("growth_envelope", "bohr_sum", "distance_bound"):
            counted(verifier, name)
        for name in ("lerch_sum", "_wh_sums", "alt_lerch_sum", "_wh_alt"):
            counted(classes, name)
        return counts

    def test_engine_calls_of_one_full_suite(self, monkeypatch):
        counts = self.counted_engines(monkeypatch)
        report = run_suite()
        assert len(report.results) == 51 and report.passed
        # One call per engine and family for every check, whatever the k
        # of its specs (30, 24 and 12 when each check made its own calls).
        assert counts["growth_envelope"] == 6
        assert counts["bohr_sum"] == 6
        assert counts["distance_bound"] == 6
        # Behind them, and behind the solve's majorant passes.
        assert counts["lerch_sum"] == 6
        assert counts["_wh_sums"] == 5
        assert counts["alt_lerch_sum"] == 3
        assert counts["_wh_alt"] == 3

    def test_a_filtered_suite_evaluates_only_what_its_checks_read(self, monkeypatch):
        counts = self.counted_engines(monkeypatch)
        assert run_suite(only="quadratic-residual").passed
        assert not any(counts.values())
        assert run_suite(only="h-monotone-wh-alpha").passed
        assert (counts["distance_bound"], counts["bohr_sum"], counts["growth_envelope"]) == (1, 1, 0)


    @staticmethod
    def counted_passes(monkeypatch):
        """Every ``solver._solve_lanes`` call from now on, as (lane spec,
        config) pairs."""
        from harmbohr import solver

        passes, solve_lanes = [], solver._solve_lanes

        def counted(spec, cfg):
            passes.append((spec, cfg))
            return solve_lanes(spec, cfg)

        monkeypatch.setattr(solver, "_solve_lanes", counted)
        return passes

    @staticmethod
    def lanes_of(passes):
        """The (family, k, swept value, config) of every lane solved."""
        lanes = []
        for spec, cfg in passes:
            values = list(spec.params().values())[-1].tolist()
            ks = spec.k.tolist() if isinstance(spec.k, np.ndarray) else [spec.k] * len(values)
            lanes += [(spec.family, k, value, cfg) for k, value in zip(ks, values)]
        return lanes

    def test_a_full_suite_solves_each_spec_once(self, monkeypatch):
        # 46 STANDARD_GRIDS specs with the closed-form preference and 29
        # gt-beta/tb-m specs with Newton forced: one pass per family and
        # config, 8 in all, gh-k-alpha's nine specs in one pass whatever
        # their k (10 passes when each k had its own, and 27 passes over
        # 121 lanes when each check solved its own specs).
        passes = self.counted_passes(monkeypatch)
        report = run_suite()
        assert len(report.results) == 51 and report.passed
        lanes = self.lanes_of(passes)
        assert len(passes) == 8
        assert len(lanes) == len(set(lanes)) == 75
        groups = {(spec.family, cfg) for spec, cfg in passes}
        assert len(groups) == len(passes)
        (gh,) = [spec for spec, _ in passes if spec.family is Family.GH_K_ALPHA]
        assert gh.k.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        # The shared solve and evaluation are timed once, apart from every
        # check's seconds.
        assert report.shared_seconds > 0.0

    def test_a_filtered_suite_solves_only_what_its_checks_need(self, monkeypatch):
        passes = self.counted_passes(monkeypatch)
        assert run_suite(only="quadratic-residual").passed
        assert passes == []
        assert run_suite(family="gt-beta").passed
        assert {spec.family for spec, _ in passes} == {Family.GT_BETA}
        passes.clear()
        # tb-m's checks include radius-parameter-monotonicity, which also
        # reads the ph-alpha and ph-m grids.
        assert run_suite(family="tb-m").passed
        lanes = self.lanes_of(passes)
        assert len(lanes) == len(set(lanes)) == 10 + 5 + 7 + 19
        assert {spec.family for spec, _ in passes} == {Family.TB_M, Family.PH_ALPHA, Family.PH_M}

    def test_a_failing_spec_fails_exactly_the_checks_that_solve_it(self, monkeypatch):
        # A ConvergenceError on the lane of wh_alpha(1.0) fails the three
        # checks that solve it, with that error as their detail, and leaves
        # every other check as it was.
        from harmbohr import solver

        before = run_suite().results
        solve_lanes = solver._solve_lanes

        def failing(spec, cfg):
            lanes, errors = solve_lanes(spec, cfg)
            if spec.family is Family.WH_ALPHA:
                for i in np.flatnonzero(spec.alpha == 1.0).tolist():
                    errors[i] = ConvergenceError("forced at alpha = 1")
            return lanes, errors

        monkeypatch.setattr(solver, "_solve_lanes", failing)
        after = run_suite().results
        failed = ("sharpness-wh-alpha", "wh-alpha-1-root-report", "scan-localisation-wh-alpha")
        assert [r.name for r in after] == [r.name for r in before]
        for old, new in zip(before, after):
            if new.name in failed:
                assert (new.passed, new.detail) == (
                    False, "raised ConvergenceError: forced at alpha = 1"
                )
            else:
                assert (new.passed, new.detail) == (old.passed, old.detail)

    @pytest.mark.parametrize(
        "engine, family, changed",
        [
            (
                "bohr_sum",
                Family.WH_ALPHA,
                {"sharpness-wh-alpha", "h-monotone-wh-alpha", "single-sign-change-wh-alpha",
                 "generic-sum-agreement-wh-alpha", "scan-localisation-wh-alpha"},
            ),
            (
                "growth_envelope",
                Family.GH_K_ALPHA,
                {"envelope-gh-k-alpha", "oracle-above-lower-envelope"},
            ),
            (
                "distance_bound",
                Family.WH_ALPHA,
                {"h-monotone-wh-alpha", "single-sign-change-wh-alpha", "alt-engine-vs-direct-sum",
                 "scan-localisation-wh-alpha"},
            ),
        ],
        ids=["bohr_sum-wh-alpha", "growth_envelope-gh-k-alpha", "distance_bound-wh-alpha"],
    )
    def test_an_engine_error_fails_exactly_the_checks_that_read_it(
        self, monkeypatch, full_suite, engine, family, changed
    ):
        # An engine that raises for one family fails each check that reads
        # a value of that family from it, with that error as its detail,
        # and leaves every other check as it was.
        from harmbohr import verifier

        original = getattr(verifier, engine)

        def forced(spec, *args):
            if spec.family is family:
                raise DomainError("forced")
            return original(spec, *args)

        monkeypatch.setattr(verifier, engine, forced)
        after = run_suite().results
        assert [r.name for r in after] == [name for name, _, _ in full_suite]
        for (name, passed, detail), new in zip(full_suite, after):
            if name in changed:
                assert (new.passed, new.detail) == (False, "raised DomainError: forced"), name
            else:
                assert (new.passed, new.detail) == (passed, detail), name

    @pytest.mark.parametrize(
        "selection",
        [{"family": f} for f in Family] + [{"only": "sharpness"}, {"only": "envelope"}],
        ids=[f.value for f in Family] + ["only-sharpness", "only-envelope"],
    )
    def test_a_filtered_suite_matches_the_full_suite(self, full_suite, selection):
        # A filtered suite evaluates smaller unions of specs and grids, and
        # each of its checks still gives the full suite's verdict and detail.
        got = [(r.name, r.passed, r.detail) for r in run_suite(**selection).results]
        names = {name for name, _, _ in got}
        assert got and got == [row for row in full_suite if row[0] in names]


class TestWorstCaseFoldsFailOnNaN:
    """A NaN in any folded worst case fails its check instead of vanishing."""

    @staticmethod
    def run_one(name):
        (result,) = run_suite(only=name).results
        assert result.name == name
        return result

    def test_direct_oracle_nan(self, monkeypatch):
        from harmbohr import verifier

        nan = SeriesValue(np.full(6, np.nan), np.zeros(6))
        monkeypatch.setattr(verifier, "_direct_alt_euler_mean", lambda *a, **k: nan)
        result = self.run_one("alt-engine-vs-direct-sum")
        assert not result.passed
        assert result.detail.startswith("max |d* - 1 - direct| = nan;")

    def test_jacobian_radius_nan(self, monkeypatch):
        from harmbohr import verifier

        monkeypatch.setattr(verifier, "jacobian_radius", lambda m: float("nan"))
        assert not self.run_one("jacobian-half-identity-tb-m").passed

    def test_jacobian_functional_nan(self, monkeypatch):
        from harmbohr import verifier

        monkeypatch.setattr(verifier, "jacobian_functional", lambda m, r: float("nan"))
        result = self.run_one("jacobian-majorant-deficit-tb-m")
        assert not result.passed
        assert result.detail == "max functional deficit = nan; containment slack = nan"

    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_generic_sum_nan(self, monkeypatch, family):
        # A NaN in the direct sum's coefficients.
        from harmbohr import verifier

        coefficient_rule = verifier.coefficient_rule

        def nan_rule(spec):
            rule = coefficient_rule(spec)
            return dataclasses.replace(rule, func=lambda n, *p: np.full_like(n, np.nan))

        monkeypatch.setattr(verifier, "coefficient_rule", nan_rule)
        result = self.run_one(f"generic-sum-agreement-{family}")
        assert not result.passed
        assert result.detail.startswith("max |B - direct sum| = nan")

    def test_quadratic_root_nan(self, monkeypatch):
        from harmbohr import verifier

        closed_form_radius = verifier.closed_form_radius

        reference = self.run_one("quadratic-residual-tb-m").detail.split("; ")[1]

        def nan_off_one(spec):
            # NaN on every lane of a lane spec but m = 1, and on a float
            # spec unless m = 1.
            return np.where(spec.m == 1.0, closed_form_radius(spec), np.nan)[()]

        monkeypatch.setattr(verifier, "closed_form_radius", nan_off_one)
        result = self.run_one("quadratic-residual-tb-m")
        assert not result.passed
        assert result.detail == f"max quadratic residual = nan; {reference}"
