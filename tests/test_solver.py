"""Tests for the radius equation and root solver.

Independent oracles: closed-form majorants rooted with scipy's brentq, the
dilogarithm via scipy.special.spence, and adaptive quadrature at tight
tolerance for series-backed constants.  Frozen decimals in this file were
produced by those oracles and agree with them to the last bit or two.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import spence

from harmbohr.classes import (
    FAMILIES,
    Family,
    bohr_sum,
    distance_bound,
    gh_k_alpha,
    gt_beta,
    ph_alpha,
    ph_m,
    tb_m,
    wh_alpha,
)
from harmbohr.errors import ConvergenceError, DomainError, ValidationError
from harmbohr.series import SeriesValue
from harmbohr.solver import (
    Method,
    SolverConfig,
    closed_form_radius,
    jacobian_functional,
    jacobian_radius,
    solve_radii,
    solve_radius,
)

LN2 = math.log(2.0)


def brentq_root(h, lo=1e-12, hi=0.999999):
    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


def ph_h(alpha):
    span = 2.0 * (1.0 - alpha)
    d = 1.0 + span * (LN2 - 1.0)
    return lambda r: r + span * (-math.log1p(-r) - r) - d


def ph_m_h(m):
    d = 1.0 + 2.0 * m * (1.0 - math.log(4.0))
    return lambda r: r + 2.0 * m * (r + (1.0 - r) * math.log1p(-r)) - d


def gt_h(beta):
    return lambda r: r + 2.0 * (1.0 - beta) * r * r / (1.0 - r) - beta


def h(spec, r):
    """H(r) = B(r) - d* with its error bound."""
    b = bohr_sum(spec, r)
    d = distance_bound(spec)
    return SeriesValue(b.value - d.value, b.error_bound + d.error_bound)


def h_prime(spec, r):
    """The family's upper bound on H'(r), as the solver's Newton steps use it."""
    return FAMILIES[spec.family].majorant(spec, r)[1]


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-12
        assert cfg.prefer_closed_form

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"max_iter": True},
            {"max_iter": math.nan},
            {"max_iter": math.inf},
            {"tol": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

    def test_integral_float_max_iter_is_stored_as_an_int(self):
        # A float budget would reach range(); 2.0 solves as 2 does.
        cfg = SolverConfig(max_iter=2.0)
        assert type(cfg.max_iter) is int and cfg.max_iter == 2
        as_int = SolverConfig(max_iter=2)
        assert solve_radius(wh_alpha(0.5), cfg) == solve_radius(wh_alpha(0.5), as_int)

    @pytest.mark.parametrize(
        "tol,message",
        [
            (True, "tol must be a real number, got True"),
            ("1e-9", "tol must be a real number, got '1e-9'"),
            (None, "tol must be a real number, got None"),
            (math.nan, "tol must be > 0, got nan"),
            (math.inf, "tol must be finite, got inf"),
            (0, "tol must be > 0, got 0"),
            (-1e-12, "tol must be > 0, got -1e-12"),
        ],
        ids=["true", "string", "none", "nan", "inf", "zero", "negative"],
    )
    def test_rejects_each_bad_tolerance(self, tol, message):
        # A bool is no tolerance, and a string must not escape as a
        # TypeError from the comparison.
        with pytest.raises(DomainError, match=f"^{message}$"):
            SolverConfig(tol=tol)

    def test_integral_tol_is_stored_as_a_float(self):
        cfg = SolverConfig(tol=1)
        assert type(cfg.tol) is float and cfg.tol == 1.0

    @pytest.mark.parametrize("name", ["tol"])
    def test_rejects_infinite_tolerances(self, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got inf$"):
            SolverConfig(**{name: math.inf})



class TestEquation:
    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.3), gt_beta(0.2), wh_alpha(0.5), gh_k_alpha(2, 1.0), tb_m(1.0), ph_m(0.9)],
    )
    def test_h_at_zero_is_minus_distance(self, spec):
        d = distance_bound(spec)
        assert h(spec, 0.0).value == pytest.approx(-d.value, abs=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.3), gt_beta(0.2), wh_alpha(0.5), gh_k_alpha(2, 1.0), tb_m(1.0), ph_m(0.9)],
    )
    def test_derivative_matches_finite_difference(self, spec):
        eps = 1e-6
        for r in (0.1, 0.4, 0.7):
            fd = (h(spec, r + eps).value - h(spec, r - eps).value) / (2.0 * eps)
            assert h_prime(spec, r) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.3), gt_beta(0.2), wh_alpha(0.5), gh_k_alpha(2, 1.0), tb_m(1.0), ph_m(0.9)],
    )
    def test_derivative_at_least_one(self, spec):
        for r in (0.0, 0.3, 0.6, 0.9):
            assert h_prime(spec, r) >= 1.0 - 1e-12


class TestClosedFormRadius:
    def test_gt_formula(self):
        # 2 beta / ((1+beta) + sqrt(1 + 6 beta - 7 beta^2)) solves
        # (2 - beta) r^2 + ... = 0; cross-check against brentq on H itself.
        for beta in (0.1, 0.25, 0.45):
            got = closed_form_radius(gt_beta(beta))
            assert got == pytest.approx(brentq_root(gt_h(beta)), abs=1e-13)

    def test_tb_formula_and_sqrt2_point(self):
        # r + (M/2) r^2 = 1 - M/2 at M=1 gives r = sqrt(2) - 1.
        got = closed_form_radius(tb_m(1.0))
        assert got == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    def test_absent_for_series_families(self):
        for spec in (ph_alpha(0.3), wh_alpha(0.5), gh_k_alpha(2, 1.0), ph_m(0.9)):
            assert closed_form_radius(spec) is None


class TestSolveRadiusAgainstOracles:
    @pytest.mark.parametrize(
        "alpha,frozen",
        [
            (0.0, 0.28519408763722219),
            (0.2, 0.36574280165048919),
            (0.4, 0.45220130117056464),
            (0.6, 0.55287956426884596),
            (0.8, 0.68723319287000788),
        ],
    )
    def test_ph_alpha_grid(self, alpha, frozen):
        result = solve_radius(ph_alpha(alpha))
        oracle = brentq_root(ph_h(alpha))
        assert result.radius == pytest.approx(oracle, abs=1e-12)
        assert result.radius == pytest.approx(frozen, abs=1e-12)
        assert result.residual <= 1e-10

    @pytest.mark.parametrize(
        "m,frozen",
        [
            (0.1, 0.82035280432963453),
            (0.5, 0.47621121763755085),
            (1.0, 0.18914061712770422),
            (1.2, 0.067327569515260753),
        ],
    )
    def test_ph_m_grid(self, m, frozen):
        result = solve_radius(ph_m(m))
        oracle = brentq_root(ph_m_h(m))
        assert result.radius == pytest.approx(oracle, abs=1e-12)
        assert result.radius == pytest.approx(frozen, abs=1e-12)

    def test_wh_alpha_one_against_dilogarithm(self):
        # With alpha=1 the majorant telescopes into the dilogarithm:
        # H(r) = 2 Li2(r) - r - (pi^2/6 - 1), Li2(x) = spence(1-x).
        assert spence(1.0) == 0.0
        assert spence(0.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
        oracle = brentq_root(
            lambda r: 2.0 * spence(1.0 - r) - r - (math.pi**2 / 6.0 - 1.0)
        )
        result = solve_radius(wh_alpha(1.0))
        assert result.radius == pytest.approx(oracle, abs=1e-9)
        assert result.radius == pytest.approx(0.48888791970419893, abs=1e-10)
        assert result.residual <= 1e-10

    def test_wh_alpha_half_against_partial_fractions(self):
        # c_n = 4/(n(n+1)) telescopes: B(r) = r + 4[(L-r) - (L-r-r^2/2)/r]
        # with L = -ln(1-r); the constant collapses to 8 ln 2 - 5.
        def h(r):
            big_l = -math.log1p(-r)
            return (
                r
                + 4.0 * ((big_l - r) - (big_l - r - r * r / 2.0) / r)
                - (8.0 * LN2 - 5.0)
            )

        result = solve_radius(wh_alpha(0.5))
        assert result.radius == pytest.approx(brentq_root(h, lo=1e-6), abs=1e-9)
        assert result.radius == pytest.approx(0.40569587176282461, abs=1e-10)

    def test_gh_2_1_against_log_closed_form(self):
        # k=2, alpha=1: c_n = 2/n for n >= 3, so
        # H(r) = r + 2(-ln(1-r) - r - r^2/2) - (pi/2 - 1).
        def h(r):
            return r + 2.0 * (-math.log1p(-r) - r - r * r / 2.0) - (math.pi / 2.0 - 1.0)

        result = solve_radius(gh_k_alpha(2, 1.0))
        assert result.radius == pytest.approx(brentq_root(h, lo=1e-6), abs=1e-9)
        assert result.radius == pytest.approx(0.46557701777634225, abs=1e-10)

    def test_gh_3_half_against_quadrature(self):
        # k=3, alpha=0.5: c_n = 4/(n+1) for n >= 4 gives a log closed form;
        # the constant comes from quadrature of t^1.5/(1+t^1.5).
        integral, _ = quad(
            lambda t: t**1.5 / (1.0 + t**1.5), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14
        )
        d_star = 1.0 - 2.0 * integral

        def h(r):
            return (
                r
                + (4.0 / r) * (-math.log1p(-r) - r - r * r / 2.0 - r**3 / 3.0 - r**4 / 4.0)
                - d_star
            )

        result = solve_radius(gh_k_alpha(3, 0.5))
        assert result.radius == pytest.approx(brentq_root(h, lo=1e-6), abs=1e-9)
        assert result.radius == pytest.approx(0.44426892025056923, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_gt_beta_grid(self, beta):
        result = solve_radius(gt_beta(beta))
        assert result.method is Method.CLOSED_FORM
        assert result.radius == pytest.approx(brentq_root(gt_h(beta)), abs=1e-12)

    def test_gt_beta_zero_is_exactly_zero(self):
        result = solve_radius(gt_beta(0.0))
        assert result.radius == 0.0
        assert result.method is Method.CLOSED_FORM
        assert result.iterations == 0

    def test_zero_radius_lanes_name_the_method_of_their_family(self):
        # d* within its error bound gives radius 0 with no step, but the
        # method is the family's: gt-beta's closed form unless it is turned
        # off, and gh-k-alpha's iteration, whose d* (here 0 as summed, the
        # alternating sum 1/2 within 4e-15) is reported as at least 0.
        assert solve_radius(gt_beta(0.0), SolverConfig(prefer_closed_form=False)).method is (
            Method.BISECTION_NEWTON
        )
        tiny, ordinary = solve_radii([gh_k_alpha(1, 1e-300), gh_k_alpha(1, 1.0)])
        assert (tiny.radius, tiny.iterations, tiny.method) == (0.0, 0, Method.BISECTION_NEWTON)
        assert tiny.d_star.value == 0.0
        assert tiny.residual == 0.0 < tiny.d_star.error_bound <= 4e-15
        assert ordinary == solve_radius(gh_k_alpha(1, 1.0))

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_tb_quadratic_residual(self, m):
        result = solve_radius(tb_m(m))
        r = result.radius
        # Plug the root back into r + (m/2) r^2 - (1 - m/2).
        assert abs(r + 0.5 * m * r * r - (1.0 - 0.5 * m)) <= 1e-12

    def test_tb_sqrt2_point(self):
        assert solve_radius(tb_m(1.0)).radius == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-12
        )


# The iterative parameter points of the benchmark's reference checks.
ITERATIVE_CASES = [
    ph_alpha(0.0),
    ph_alpha(0.95),
    wh_alpha(0.0),
    wh_alpha(0.37),
    wh_alpha(1.0),
    gh_k_alpha(1, 0.1),
    gh_k_alpha(2, 1.3),
    gh_k_alpha(8, 10.0),
    ph_m(0.05),
    ph_m(1.29),
]


class TestSolveRadiusContracts:
    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.4), gt_beta(0.3), wh_alpha(0.75), gh_k_alpha(2, 2.0), tb_m(1.9), ph_m(1.2)]
        + ITERATIVE_CASES,
    )
    def test_certificates(self, spec):
        cfg = SolverConfig()
        result = solve_radius(spec, cfg)
        assert 0.0 < result.radius < 1.0
        assert result.bracket_lo <= result.radius <= result.bracket_hi
        assert result.bracket_hi - result.bracket_lo <= cfg.tol
        assert result.residual <= cfg.tol
        assert result.iterations <= 10
        assert result.d_star == distance_bound(spec)
        if result.method is Method.BISECTION_NEWTON:
            # The bracket ends carry the signs that enclose the root.
            h_lo, h_hi = h(spec, result.bracket_lo), h(spec, result.bracket_hi)
            assert h_lo.value <= h_lo.error_bound
            assert h_hi.value >= -h_hi.error_bound

    def test_bisection_agrees_with_closed_form(self):
        for spec in (gt_beta(0.3), tb_m(0.7)):
            closed = solve_radius(spec, SolverConfig(prefer_closed_form=True))
            iterated = solve_radius(spec, SolverConfig(prefer_closed_form=False))
            assert closed.method is Method.CLOSED_FORM
            assert iterated.method is Method.BISECTION_NEWTON
            assert abs(closed.radius - iterated.radius) <= 1e-10

    def test_series_families_use_iteration(self):
        result = solve_radius(ph_alpha(0.3))
        assert result.method is Method.BISECTION_NEWTON
        assert result.iterations > 0

    def test_loose_tolerance_still_brackets(self):
        cfg = SolverConfig(tol=1e-3)
        tight = solve_radius(ph_alpha(0.2))
        loose = solve_radius(ph_alpha(0.2), cfg)
        assert abs(loose.radius - tight.radius) <= 1e-3

    def test_iteration_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            solve_radius(ph_alpha(0.2), SolverConfig(max_iter=1))

    def test_ph_alpha_next_to_one(self):
        # d* = 0.99999999939 lies within 1e-9 of 1; the root is still bracketed.
        alpha = 0.999999999
        result = solve_radius(ph_alpha(alpha))
        oracle = brentq_root(ph_h(alpha), lo=0.5, hi=1.0 - 1e-12)
        assert result.radius == pytest.approx(oracle, abs=1e-12)
        assert result.radius == pytest.approx(0.9999999669366164, abs=1e-12)
        assert result.bracket_lo <= result.radius <= result.bracket_hi

    def test_newton_starts_where_d_star_sits_next_to_one(self):
        # At r = d* the majorant's power series would need more than 2^20
        # terms; the Lerch sum evaluates H there, and Newton starts from it.
        spec = gh_k_alpha(1, 1e5)
        d = distance_bound(spec)
        assert h(spec, d.value).error_bound <= 1e-14
        result = solve_radius(spec)
        assert result.radius == pytest.approx(0.9998143378169674, abs=1e-12)
        assert result.bracket_lo <= result.radius <= result.bracket_hi
        assert result.bracket_hi - result.bracket_lo <= 1e-12

    # Roots of mpmath's H = r + 2 r^(k+1) lerchphi(r, 1, k + 1/alpha)/alpha - d*,
    # with d* = 1 + 2 sum (-1)^n/(1 + n k alpha) by mpmath.nsum, at 40 digits.
    @pytest.mark.parametrize(
        "k,alpha,root",
        [
            (1_000_000, 1.0, 0.99999002935826),
            (1, 1e7, 0.99999729713770),
            (1, 1e9, 0.99999996431655),
            (2, 1e7, 0.99999754704706),
        ],
    )
    def test_roots_next_to_one_match_mpmath(self, k, alpha, root):
        result = solve_radius(gh_k_alpha(k, alpha))
        assert result.radius == pytest.approx(root, abs=1e-12)
        assert result.bracket_lo <= result.radius <= result.bracket_hi
        assert result.bracket_hi - result.bracket_lo <= 1e-12

    def test_d_star_rounding_to_one(self):
        # k = 10^17: d* rounds to 1 and H' reaches 10^11 next to 1, where a
        # Newton step stalls under half an ulp; the midpoint still brackets
        # the root to tol.
        spec = gh_k_alpha(10**17, 1.0)
        assert distance_bound(spec).value == 1.0
        result = solve_radius(spec)
        assert 0.0 < result.radius < 1.0
        assert result.bracket_lo <= result.radius <= result.bracket_hi
        assert result.bracket_hi - result.bracket_lo <= 1e-12

    def test_far_corner_of_lacunary_domain(self):
        # Large k*alpha pushes the root toward 1; the solver must still
        # certify it without the series engine blowing up.
        result = solve_radius(gh_k_alpha(5, 10.0))
        assert 0.8 < result.radius < 1.0
        assert result.residual <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_residual_contract_random_alpha(self, alpha):
        cfg = SolverConfig()
        result = solve_radius(ph_alpha(alpha), cfg)
        hv = h(ph_alpha(alpha), result.radius)
        assert abs(hv.value) <= cfg.tol + hv.error_bound

    def test_monotone_in_ph_alpha(self):
        radii = [solve_radius(ph_alpha(a)).radius for a in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert radii == sorted(radii)

    def test_monotone_in_tb_m(self):
        radii = [solve_radius(tb_m(m)).radius for m in (0.1, 0.5, 1.0, 1.5, 1.9)]
        assert radii == sorted(radii, reverse=True)

    def test_monotone_in_ph_m(self):
        radii = [solve_radius(ph_m(m)).radius for m in (0.1, 0.5, 0.9, 1.2)]
        assert radii == sorted(radii, reverse=True)

    def test_cross_family_reductions(self):
        base = solve_radius(ph_alpha(0.0)).radius
        assert solve_radius(wh_alpha(0.0)).radius == pytest.approx(base, abs=1e-9)
        assert solve_radius(gh_k_alpha(1, 1.0)).radius == pytest.approx(base, abs=1e-9)

    def test_invalid_spec_propagates(self):
        with pytest.raises(ValidationError):
            solve_radius(ph_alpha(1.0))


class TestSolveRadii:
    def test_equals_one_lane_solves(self):
        # Lanes of several families, closed forms, d* = 0 and a root next
        # to 1, in one call.
        specs = (
            [wh_alpha(a) for a in (0.0, 0.3, 1.0)]
            + [gh_k_alpha(2, a) for a in (0.5, 1.3, 40.0)]
            + [gh_k_alpha(1, 1e5), gh_k_alpha(1, 0.01)]
            + [ph_alpha(0.2), ph_m(0.7), gt_beta(0.0), gt_beta(0.3), tb_m(1.2)]
        )
        assert solve_radii(specs) == [solve_radius(s) for s in specs]
        assert solve_radii(specs[::-1]) == [solve_radius(s) for s in specs[::-1]]

    def test_empty(self):
        assert solve_radii([]) == []

    def test_raises_the_first_failure_in_order(self):
        # One step localises no iterative root: the closed forms solve, and
        # the first iterative spec in the given order is the error raised.
        cfg = SolverConfig(max_iter=1)
        specs = [gt_beta(0.3), gh_k_alpha(1, 1e8), wh_alpha(0.5), gh_k_alpha(1, 1e7)]
        with pytest.raises(ConvergenceError) as lanes:
            solve_radii(specs, cfg)
        with pytest.raises(ConvergenceError) as alone:
            solve_radius(specs[1], cfg)
        with pytest.raises(ConvergenceError) as other:
            solve_radius(specs[3], cfg)
        assert str(lanes.value) == str(alone.value) != str(other.value)
        assert lanes.value.achieved == alone.value.achieved

    def test_lane_arrays_and_lane_errors(self):
        from harmbohr.classes import stack_lanes
        from harmbohr.solver import _solve_lanes

        # From the warm start alpha = 0.01 localises its root in 1 step,
        # 1e9 and 1.0 need more.
        cfg = SolverConfig(max_iter=1)
        specs = [gh_k_alpha(1, 0.01), gh_k_alpha(1, 1e9), gh_k_alpha(1, 1.0)]
        lanes, errors = _solve_lanes(stack_lanes(specs), cfg)
        assert list(errors) == [1, 2]
        assert "within 1 iterations" in str(errors[1])
        alone = solve_radius(specs[0], cfg)
        first = (lanes.radius[0], lanes.residual[0], lanes.bracket_lo[0], lanes.bracket_hi[0])
        assert (*first, lanes.iterations[0]) == (
            alone.radius, alone.residual, alone.bracket_lo, alone.bracket_hi, alone.iterations,
        )
        assert lanes.method is Method.BISECTION_NEWTON and alone.method is Method.BISECTION_NEWTON
        d = lanes.d_star
        assert (d.value[0], d.error_bound[0]) == (alone.d_star.value, alone.d_star.error_bound)

    @pytest.mark.parametrize(
        "specs,prefer_closed_form,method",
        [
            ([ph_alpha(a) for a in (0.0, 0.5, 0.9)], True, Method.BISECTION_NEWTON),
            ([gt_beta(0.0), gt_beta(0.2)], True, Method.CLOSED_FORM),
            ([gt_beta(0.0), gt_beta(0.2)], False, Method.BISECTION_NEWTON),
            ([wh_alpha(a) for a in (0.0, 0.5, 1.0)], True, Method.BISECTION_NEWTON),
            ([gh_k_alpha(1, 1e-300), gh_k_alpha(1, 1.0)], True, Method.BISECTION_NEWTON),
            ([tb_m(m) for m in (0.1, 1.0, 1.9)], True, Method.CLOSED_FORM),
            ([ph_m(m) for m in (0.1, 0.5, 1.2)], True, Method.BISECTION_NEWTON),
        ],
        ids=["ph-alpha", "gt-beta", "gt-beta-iterated", "wh-alpha", "gh-k-alpha", "tb-m", "ph-m"],
    )
    def test_lane_record_equals_one_lane_solves(self, specs, prefer_closed_form, method):
        # Every field of the lane record, lane by lane, is solve_radius's
        # for that spec, degenerate d* = 0 lanes (gt-beta at beta = 0,
        # gh-k-alpha at alpha = 1e-300) included; the one method is the
        # family's, and every lane's.
        from harmbohr.classes import stack_lanes
        from harmbohr.solver import _solve_lanes

        cfg = SolverConfig(prefer_closed_form=prefer_closed_form)
        lanes, errors = _solve_lanes(stack_lanes(specs), cfg)
        assert not errors and lanes.method is method
        assert lanes.iterations.dtype == np.int64
        for j, spec in enumerate(specs):
            alone = solve_radius(spec, cfg)
            assert alone.method is method
            assert lanes.radius[j] == alone.radius
            assert lanes.residual[j] == alone.residual
            assert lanes.bracket_lo[j] == alone.bracket_lo
            assert lanes.bracket_hi[j] == alone.bracket_hi
            assert lanes.iterations[j] == alone.iterations
            assert lanes.d_star.value[j] == alone.d_star.value
            assert lanes.d_star.error_bound[j] == alone.d_star.error_bound
        if specs[0] in (gt_beta(0.0), gh_k_alpha(1, 1e-300)):
            assert (lanes.radius[0], lanes.iterations[0], lanes.d_star.value[0]) == (0.0, 0, 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=-2.0, max_value=5.0),
    )
    def test_lacunary_bracket_encloses_the_root(self, k, log_alpha):
        # The bracket starts at [0, d*]; it must end enclosing the root
        # with the right signs.
        spec = gh_k_alpha(k, 10.0**log_alpha)
        result = solve_radius(spec)
        h_lo, h_hi = h(spec, result.bracket_lo), h(spec, result.bracket_hi)
        assert h_lo.value <= h_lo.error_bound
        assert h_hi.value >= -h_hi.error_bound
        assert result.bracket_hi - result.bracket_lo <= 1e-12


class TestOneMajorantPerStep:
    """Each Newton step gets B and its H' bound from one majorant call, so
    gh-k-alpha sums one Lerch sum per step, plus one for the final residual,
    and wh-alpha one call of ``_wh_sums``, its value and slope together."""

    @staticmethod
    def count_lerch(monkeypatch):
        # Calls of either Euler-Maclaurin engine: ``lerch_sum`` and
        # ``_wh_sums``.
        from harmbohr import classes

        calls = []
        for name in ("lerch_sum", "_wh_sums"):
            engine = getattr(classes, name)

            def counted(*args, engine=engine):
                calls.append(args)
                return engine(*args)

            monkeypatch.setattr(classes, name, counted)
        return calls

    @pytest.mark.parametrize(
        "k,alpha", [(1, 1.0), (2, 0.5), (3, 2.0), (1, 1e5), (1_000_000, 1.0)]
    )
    def test_gh_one_lerch_sum_per_step(self, monkeypatch, k, alpha):
        calls = self.count_lerch(monkeypatch)
        result = solve_radius(gh_k_alpha(k, alpha))
        assert result.iterations <= len(calls) <= result.iterations + 1

    @pytest.mark.parametrize(
        "spec,passes,lerch,steps",
        [(gh_k_alpha(2, 1.0), 4, 4, 3), (wh_alpha(0.5), 3, 3, 2)],
        ids=["gh-k-alpha", "wh-alpha"],
    )
    def test_scan_grid(self, monkeypatch, spec, passes, lerch, steps):
        # A 1001-lane grid in three (gh-k-alpha) or two (wh-alpha) steps
        # from the warm start, where six and five steps from d* took 7 and
        # 5 majorant passes, and one more pass for the residual of the
        # lanes that stopped on a step: each pass makes one Euler-Maclaurin
        # call, a Lerch sum for gh-k-alpha and ``_wh_sums`` for wh-alpha,
        # whose slope is r times the same Lerch sum.
        import dataclasses

        from harmbohr.classes import sweep_lanes
        from harmbohr.solver import _solve_lanes

        grid = np.linspace(0.5, 2.0, 1001) if spec.k else np.linspace(0.0, 1.0, 1001)
        lanes, _ = sweep_lanes(spec, "alpha", grid)
        calls = self.count_lerch(monkeypatch)
        family = FAMILIES[spec.family]
        majorants = []

        def counted(*args):
            majorants.append(args)
            return family.majorant(*args)

        monkeypatch.setitem(FAMILIES, spec.family, dataclasses.replace(family, majorant=counted))
        out, errors = _solve_lanes(lanes, SolverConfig())
        assert not errors
        assert (len(majorants), len(calls)) == (passes, lerch)
        assert int(out.iterations.max()) == steps


def mp_b_prime(spec, r):
    """B'(r) at 40 digits: closed forms for ph-alpha and ph-m, and
    sum n c_n r^(n-1) summed until its terms fall under 1e-45 for wh-alpha
    and gh-k-alpha."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r = mp.mpf(r)
    if spec.family is Family.PH_ALPHA:
        return 1 + 2 * (1 - mp.mpf(spec.alpha)) * r / (1 - r)
    if spec.family is Family.PH_M:
        return 1 - 2 * mp.mpf(spec.m) * mp.log1p(-r)
    a = mp.mpf(spec.alpha)
    # c_n = 2/(n (1 + a(n - 1))) from n = 2 (wh), 2/(1 + (n - 1) a) from n = k + 1 (gh).
    n = 2 if spec.family is Family.WH_ALPHA else spec.k + 1
    total, power = mp.mpf(1), r ** (n - 1)
    while power * n > mp.mpf(10) ** -45 or n < 4:
        c = 2 / (n * (1 + a * (n - 1))) if spec.family is Family.WH_ALPHA else 2 / (1 + (n - 1) * a)
        total += n * c * power
        n, power = n + 1, power * r
    return total


SLOPE_RS = (0.0, 1e-12, 1e-8, 1e-5, 0.3, 0.645, 0.9)


class TestSlopeBoundsBPrime:
    """Every Newton family's H' bound, with the 2 eps the solver adds to it
    where it bounds the bracket, lies above B' by mpmath."""

    @pytest.mark.parametrize(
        "spec",
        [ph_alpha(0.0), ph_alpha(0.7), ph_m(0.9), ph_m(1e-3), wh_alpha(0.0), wh_alpha(0.5),
         gh_k_alpha(1, 1.0), gh_k_alpha(2, 0.5), gh_k_alpha(3, 1e5), gh_k_alpha(1, 1e-300)],
        ids=lambda s: f"{s.family.value}-{s.params()}",
    )
    def test_with_the_solver_allowance(self, spec):
        for r in SLOPE_RS:
            assert h_prime(spec, r) * (1.0 + 2.0 * 2.0**-52) >= mp_b_prime(spec, r), r

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 0.5, 1.0])
    def test_wh_alpha_alone(self, alpha):
        # wh-alpha's slope is 1 + 2 r times its Lerch sum plus that sum's
        # bound, rounded up: it bounds B' with no allowance, and stays
        # within 1e-13 of it.
        spec = wh_alpha(alpha)
        for r in SLOPE_RS:
            exact = mp_b_prime(spec, r)
            assert exact <= h_prime(spec, r) <= exact * (1 + 1e-13), r


class TestSlopeAllowance:
    def test_a_slope_one_ulp_short_keeps_the_root_bracketed(self, monkeypatch):
        # H(r) = S r - D exactly, with B - r = (S - 1) r.  The majorant
        # reports B high by 0.9 of the solver's rounding allowance, which
        # that allowance covers, and H' one ulp short, which the 2 eps on the
        # slope covers.  From r = d* the convexity step puts the bracket's
        # right end 11 eps (relative) above the root; without the 2 eps it
        # lands 6.6 eps below it.
        import dataclasses
        from fractions import Fraction

        from harmbohr import solver
        from harmbohr.classes import stack_lanes

        s, d, eps = 8.1875, 0.7, 2.0**-52

        def majorant(spec, r):
            tail = (s - 1.0) * r
            high = 0.9 * 8.0 * eps * (np.abs(r + tail - d) + 2.0 * d)
            return SeriesValue(tail + high, np.zeros_like(r)), np.full_like(r, np.nextafter(s, 0.0))

        tb = dataclasses.replace(FAMILIES[Family.TB_M], majorant=majorant)
        monkeypatch.setitem(FAMILIES, Family.TB_M, tb)
        monkeypatch.setattr(solver, "_warm_start", lambda spec, target, hi: hi.copy())
        d_star = SeriesValue(np.array([d]), np.array([0.0]))
        _, _, lo, hi, _, errors = solver._newton(stack_lanes([tb_m(1.0)]), d_star, SolverConfig())
        assert not errors
        assert Fraction(float(lo[0])) <= Fraction(d) / Fraction(s) <= Fraction(float(hi[0]))

    def test_bracket_ends_hold_the_root_at_the_edge_of_the_error_model(self, monkeypatch):
        # H(r) = S r - D exactly.  The majorant reports B as high as the
        # solver's error model allows (the true H not below v - e, for the
        # v and e the solver forms) and H' one ulp short; the first Newton
        # step starts at x between the root and D.  Without the one-ulp
        # widening of each computed end, the convexity bound rounds below
        # the exact rational root in 4 of these 600 cases.
        import dataclasses
        from fractions import Fraction

        from harmbohr import solver

        rounding = solver._ROUNDING

        def highest_tail(s, d, x):
            true_h = Fraction(s) * Fraction(x) - Fraction(d)
            t = (s - 1.0) * x + 2.0 * rounding * (abs(s * x - d) + 2.0 * d)
            while True:
                v = (x + t) - d
                e = rounding * (abs(v) + 2.0 * d)
                if Fraction(v) - Fraction(e) <= true_h:
                    return t
                t = np.nextafter(t, -np.inf)

        rng = np.random.default_rng(7)
        cfg = SolverConfig(prefer_closed_form=False)
        outside = []
        for _ in range(600):
            s, d = rng.uniform(1.0, 8.0), rng.uniform(0.01, 0.9)
            x0 = d / s * rng.uniform(1.0, s)

            def majorant(spec, r, s=s, d=d):
                tail = np.array([highest_tail(s, d, float(x)) for x in r])
                return SeriesValue(tail, np.zeros_like(r)), np.full_like(r, np.nextafter(s, 0.0))

            def lower(spec, r, d=d):
                # The same d at every r, so d* = d.
                return SeriesValue(np.full(np.shape(spec.m), d), np.zeros(np.shape(spec.m)))

            tb = dataclasses.replace(FAMILIES[Family.TB_M], majorant=majorant, lower=lower)
            monkeypatch.setitem(FAMILIES, Family.TB_M, tb)
            monkeypatch.setattr(solver, "_warm_start", lambda spec, t, hi, x0=x0: np.minimum(x0, hi))
            res = solve_radius(tb_m(1.0), cfg)
            root = Fraction(d) / Fraction(s)
            if not Fraction(res.bracket_lo) <= root <= Fraction(res.bracket_hi):
                outside.append((s, d, x0))
        assert outside == []


class TestWarmStart:
    """The first iterate: Newton on the majorant's first 16 terms from the
    bracket's right end."""

    @staticmethod
    def bracket_end(spec):
        from harmbohr.solver import _BELOW_ONE

        d = distance_bound(spec)
        target = d.value + d.error_bound
        return target, np.minimum(target, _BELOW_ONE)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0).map(wh_alpha),
            st.builds(
                lambda k, e: gh_k_alpha(k, 10.0**e),
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=-3.0, max_value=3.0),
            ),
        )
    )
    def test_starts_right_of_the_root(self, spec):
        # The start the solver takes, copied from inside solve_radius
        # before the iteration moves it.
        from harmbohr import solver

        starts = []

        def recorded(*args):
            x = warm_start(*args)
            starts.append(x.copy())
            return x

        warm_start = solver._warm_start
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_warm_start", recorded)
            solve_radius(spec)
        _, hi = self.bracket_end(spec)
        (x,) = starts[0]
        assert 0.0 < x <= hi
        hx = h(spec, float(x))
        assert hx.value >= -hx.error_bound

    def test_memory_per_lane_is_below_one_majorant_pass(self):
        import tracemalloc

        from harmbohr.classes import sweep_lanes
        from harmbohr.solver import _WARM_TERMS, _warm_start

        lanes = 10**5
        spec, _ = sweep_lanes(wh_alpha(0.5), "alpha", np.linspace(0.0, 1.0, lanes))
        target, hi = self.bracket_end(spec)

        def peak(f):
            tracemalloc.start()
            try:
                return f(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        x, warm = peak(lambda: _warm_start(spec, target, hi))
        _, majorant = peak(lambda: FAMILIES[Family.WH_ALPHA].majorant(spec, x))
        # The coefficient rows, one temporary of their size while the rule
        # computes them, and a few Horner temporaries: lane vectors all.
        assert warm <= (2 * _WARM_TERMS + 8) * 8 * lanes
        assert warm < majorant


class TestJacobian:
    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_half_identity(self, m):
        # 4m r^2 + 4r + (m-2) = 0 halves the root of m r^2 + 2r + (m-2) = 0;
        # measured against the textbook root of the former.
        textbook = (math.sqrt(1.0 + 2.0 * m - m * m) - 1.0) / (2.0 * m)
        assert abs(jacobian_radius(m) - textbook) <= 1e-15

    def test_bit_identical_to_the_reference_formula(self):
        # The tb-m-jacobian records must equal the benchmark's reference
        # (2 - m) / (2 (1 + sqrt(1 + 2m - m^2))) bit for bit, here on 10^5
        # random m in (0, 2) plus subnormals and the floats just below 2.
        rng = np.random.default_rng(9)
        below_two = 2.0 - np.arange(1, 2001) * 2.0**-52
        ms = np.concatenate([
            rng.uniform(0.0, 2.0, 100_000),
            np.array([5e-324, 1e-320, 1e-310, 2.0**-1022, 1e-300, 1e-200, 1e-17]),
            below_two,
            2.0 - rng.uniform(0.0, 1e-6, 2000),
        ])
        ms = ms[(ms > 0.0) & (ms < 2.0)]
        reference = [
            (2.0 - m) / (2.0 * (1.0 + math.sqrt(1.0 + 2.0 * m - m * m))) for m in ms.tolist()
        ]
        assert jacobian_radius(ms).tolist() == reference
        assert [jacobian_radius(m) for m in ms.tolist()] == reference

    def test_sqrt2_point(self):
        assert jacobian_radius(1.0) == pytest.approx(
            0.5 * (math.sqrt(2.0) - 1.0), abs=1e-15
        )

    def test_functional_hits_distance_constant(self):
        for m in (0.2, 1.0, 1.8):
            r_j = jacobian_radius(m)
            assert jacobian_functional(m, r_j) == pytest.approx(1.0 - 0.5 * m, abs=1e-13)

    def test_functional_values(self):
        assert jacobian_functional(1.0, 0.25) == pytest.approx(0.625, abs=1e-16)
        assert jacobian_functional(0.5, 0.0) == 0.0

    def test_shrinks_toward_upper_mass_limit(self):
        assert jacobian_radius(1.999999) < 1e-6

    def test_lanes_are_their_points(self):
        ms = [0.1, 0.5, 1.0, 1.5, 1.999999]
        radii = jacobian_radius(np.array(ms))
        assert radii.tolist() == [jacobian_radius(m) for m in ms]
        values = jacobian_functional(np.array(ms), radii)
        assert values.tolist() == [jacobian_functional(m, r) for m, r in zip(ms, radii.tolist())]
        with pytest.raises(ValidationError, match="got 2.0"):
            jacobian_radius(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="got 1.0"):
            jacobian_functional(np.array(ms[:2]), np.array([0.5, 1.0]))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            jacobian_radius(2.0)
        with pytest.raises(ValidationError):
            jacobian_radius(0.0)
        with pytest.raises(DomainError):
            jacobian_functional(1.0, 1.0)


class TestHonestTolerance:
    """A radius comes back only with a certified bracket at most ``tol``
    wide: where Newton stops inside H's error bound with a wider bracket,
    the lane raises ConvergenceError naming the width reached, which is the
    least tol that passes."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15, 1e-16])
    def test_seeded_fuzz_over_every_family(self, tol):
        # One lane pass per family, on the iterative path for all six, at 40
        # seeded points of its domain.
        from harmbohr.classes import PH_M_SUP, sweep_lanes
        from harmbohr.solver import _solve_lanes

        rng = np.random.default_rng(26)
        k = int(rng.integers(1, 6))
        draws = [
            (ph_alpha(0.5), "alpha", rng.uniform(0.0, 1.0, 40)),
            (gt_beta(0.2), "beta", rng.uniform(0.0, 0.5, 40)),
            (wh_alpha(0.5), "alpha", rng.uniform(0.0, 1.0, 40)),
            (gh_k_alpha(k, 1.0), "alpha", 10.0 ** rng.uniform(-3.0, 3.0, 40)),
            (tb_m(1.0), "m", rng.uniform(0.0, 2.0, 40)),
            (ph_m(0.5), "m", rng.uniform(0.0, PH_M_SUP, 40)),
        ]
        cfg = SolverConfig(tol=tol, prefer_closed_form=False)
        failures = 0
        for spec, name, values in draws:
            lanes, n = sweep_lanes(spec, name, values)
            assert n == values.size
            result, errors = _solve_lanes(lanes, cfg)
            width = result.bracket_hi - result.bracket_lo
            passed = np.ones(n, dtype=bool)
            passed[list(errors)] = False
            assert np.all(width[passed] <= tol), spec.family
            for i, exc in errors.items():
                w = float(width[i])
                assert w > tol and exc.achieved.error_bound == w
                assert f"{w:.3g} wide" in str(exc) and f"passes is {w!r}" in str(exc)
            failures += len(errors)
        # The check has teeth: below 1e-15 most brackets end wider.
        if tol <= 1e-15:
            assert failures > 0

    def test_a_stop_wider_than_tol_is_no_radius(self):
        # ph-alpha at 0.3 stops where H is within its bound, with a bracket
        # 3.33e-15 wide: tol 1e-16 fails, and that width passes.
        with pytest.raises(ConvergenceError, match="is 3.33e-15 wide") as exc_info:
            solve_radius(ph_alpha(0.3), SolverConfig(tol=1e-16))
        width = exc_info.value.achieved.error_bound
        result = solve_radius(ph_alpha(0.3), SolverConfig(tol=width))
        assert result.bracket_hi - result.bracket_lo <= width
