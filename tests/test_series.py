"""Tests for the power-series and alternating-sum engines.

Every expected value here is either a closed form checked by hand or an
independent oracle computed in-test (plain partial sums with rigorous
remainder bounds, or adaptive quadrature at tight tolerance).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from harmbohr import series
from harmbohr.classes import coefficient_rule, distance_bound, gh_k_alpha, ph_alpha, ph_m
from harmbohr.errors import ConvergenceError, DomainError
from harmbohr.series import (
    CoefficientRule,
    SeriesValue,
    alt_constant,
    alt_log_tail,
    alt_nn1_tail,
    lerch_sum,
    log_tail,
    nn1_tail,
    sum_power_series,
)

RULE_LOG = CoefficientRule(lambda n: 1.0 / n, start=2, name="1/n")
RULE_SQUARE = CoefficientRule(lambda n: 1.0 / n**2, start=2, name="1/n^2")
RULE_NN1 = CoefficientRule(lambda n: 1.0 / (n * (n - 1.0)), start=2, name="1/(n(n-1))")
RULE_CONST = CoefficientRule(lambda n: np.full_like(n, 0.75), start=2, name="const")
RULE_FROM_ONE = CoefficientRule(lambda n: 0.5 / n, start=1, name="1/(2n) from n=1")


def direct_power_sum(rule: CoefficientRule, x: float, n_terms: int) -> float:
    """Plain partial sum oracle; caller supplies enough terms for the tail."""
    ns = np.arange(rule.start, rule.start + n_terms, dtype=np.float64)
    return float(np.dot(rule.terms(ns), np.power(x, ns)))


def direct_alt_oracle(
    rule: CoefficientRule, first_sign: int, n_plain: int = 1 << 14, k: int = 3
) -> tuple[float, float]:
    """Euler's k-th mean of the partial sums S_N .. S_{N+k}, N = n_plain
    (DLMF 3.9(ii)), and a bound on its error.

    For coefficients that are moments of a positive measure on [0, 1], the
    mean is off the sum by at most 2^-k |Delta^k c_N|, the k-th forward
    difference at the first term left out.  S_N is summed exactly
    (math.fsum), so the rounding left is that of the coefficients, a few
    ulps each, and of the k-term mean.
    """
    ns = np.arange(rule.start, rule.start + n_plain + k + 1, dtype=np.float64)
    c = rule.terms(ns)
    signed = np.where(np.arange(c.size) % 2 == 0, c, -c)
    partial = math.fsum(signed[:n_plain].tolist()) + np.cumsum(np.r_[0.0, signed[n_plain:-1]])
    mean = float(np.array([math.comb(k, i) for i in range(k + 1)]) @ partial) / 2**k
    truncation = abs(float(np.diff(c[n_plain:], k)[0])) / 2**k
    rounding = 8.0 * np.finfo(np.float64).eps * float(np.sum(c))
    return first_sign * mean, truncation + rounding


class TestSeriesValue:
    def test_fields(self):
        sv = SeriesValue(1.5, 1e-12)
        assert sv.value == 1.5
        assert sv.error_bound == 1e-12

    def test_zero_error_allowed(self):
        assert SeriesValue(2.0, 0.0).error_bound == 0.0

    def test_negative_error_rejected(self):
        with pytest.raises(DomainError):
            SeriesValue(1.0, -1e-16)

    def test_floats_compare_and_hash_as_their_fields(self):
        sv = SeriesValue(1.5, 1e-12)
        assert sv == SeriesValue(1.5, 1e-12) and sv != SeriesValue(1.5, 2e-12)
        assert hash(sv) == hash((1.5, 1e-12))
        assert sv != (1.5, 1e-12)
        nan = float("nan")
        # As a tuple compares its items: one NaN object equals itself.
        assert SeriesValue(nan, 0.0) == SeriesValue(nan, 0.0)
        assert SeriesValue(nan, 0.0) != SeriesValue(float("nan"), 0.0)

    def test_arrays_compare_by_shape_and_entries(self):
        a = SeriesValue(np.array([1.0, 2.0]), np.zeros(2))
        assert (a == SeriesValue(np.array([1.0, 2.0]), np.zeros(2))) is True
        assert a != SeriesValue(np.array([1.0, 3.0]), np.zeros(2))
        assert a != SeriesValue(np.array([1.0]), np.zeros(1))
        assert a != SeriesValue(1.0, 0.0)
        assert SeriesValue(np.array([np.nan]), np.zeros(1)) != SeriesValue(np.array([np.nan]), np.zeros(1))
        with pytest.raises(TypeError):
            hash(a)


class TestCoefficientRule:
    def test_terms_vectorised(self):
        got = RULE_LOG.terms(np.array([2.0, 4.0, 5.0]))
        assert np.allclose(got, [0.5, 0.25, 0.2], rtol=0.0, atol=0.0)

    def test_term_scalar(self):
        assert RULE_SQUARE.term(3) == pytest.approx(1.0 / 9.0, abs=1e-16)

    def test_start_below_one_rejected(self):
        with pytest.raises(DomainError):
            CoefficientRule(lambda n: 1.0 / n, start=0)


class TestSumPowerSeries:
    def test_zero_argument_is_exact_zero(self):
        sv, _ = sum_power_series(RULE_LOG, 0.0)
        assert sv.value == 0.0
        assert sv.error_bound == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_log_closed_form(self, r):
        sv, _ = sum_power_series(RULE_LOG, r, tol=1e-13)
        assert sv.error_bound <= 1e-13
        assert abs(sv.value - log_tail(r)) <= sv.error_bound + 1e-15

    @pytest.mark.parametrize("r", [0.2, 0.6, 0.95])
    def test_matches_nn1_closed_form(self, r):
        sv, _ = sum_power_series(RULE_NN1, r, tol=1e-13)
        assert abs(sv.value - nn1_tail(r)) <= sv.error_bound + 1e-15

    @pytest.mark.parametrize("r", [0.25, 0.8])
    def test_matches_geometric_closed_form(self, r):
        # sum_{n>=2} 0.75 r^n = 0.75 r^2 / (1 - r)
        sv, _ = sum_power_series(RULE_CONST, r, tol=1e-13)
        expect = 0.75 * r * r / (1.0 - r)
        assert abs(sv.value - expect) <= sv.error_bound + 4e-16 * expect

    def test_error_bound_is_honest(self):
        # Compare against a much longer plain sum whose own tail is < 1e-18.
        r = 0.5
        sv, _ = sum_power_series(RULE_SQUARE, r, tol=1e-12)
        oracle = direct_power_sum(RULE_SQUARE, r, 80)
        assert abs(sv.value - oracle) <= sv.error_bound + 1e-15

    def test_domain_rejects_negative(self):
        with pytest.raises(DomainError):
            sum_power_series(RULE_LOG, -0.1)

    def test_domain_rejects_one(self):
        with pytest.raises(DomainError):
            sum_power_series(RULE_LOG, 1.0)

    def test_domain_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            sum_power_series(RULE_LOG, 0.5, tol=0.0)

    def test_convergence_error_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(series, "_MAX_TERMS", 64)
        with pytest.raises(ConvergenceError) as exc_info:
            sum_power_series(RULE_LOG, 0.999, tol=1e-12)
        achieved = exc_info.value.achieved
        assert isinstance(achieved, SeriesValue)
        assert achieved.error_bound > 1e-12
        # The message names the argument and the terms tried (n = 2..64).
        assert "at x=0.999 " in str(exc_info.value)
        assert "with 63 terms" in str(exc_info.value)
        # The partial value is still in the right neighbourhood.
        assert abs(achieved.value - log_tail(0.999)) <= achieved.error_bound

    # sum_{n>=start} n c_n r^(n-1) in closed form, for mpmath.
    DERIVATIVES = {
        RULE_LOG.name: lambda r, mp: r / (1 - r),
        RULE_SQUARE.name: lambda r, mp: (-mp.log1p(-r) - r) / r if r else mp.mpf(0),
        RULE_NN1.name: lambda r, mp: -mp.log1p(-r),
        RULE_CONST.name: lambda r, mp: 0.75 * (1 / (1 - r) ** 2 - 1),
        RULE_FROM_ONE.name: lambda r, mp: 0.5 / (1 - r),
    }

    @pytest.mark.parametrize("tol", [1e-13, 1e-4])
    @pytest.mark.parametrize(
        "rule", [RULE_LOG, RULE_SQUARE, RULE_NN1, RULE_CONST, RULE_FROM_ONE], ids=lambda u: u.name
    )
    def test_slope_bounds_the_derivative(self, rule, tol):
        # RULE_CONST's n c_n grows; tol = 1e-4 cuts the sums short, so the
        # slope's tail bound carries a visible share.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rs = np.array([0.0, 1e-8, 1e-5, 0.3, 0.645, 0.9])
        _, slope = sum_power_series(rule, rs, tol=tol)
        for r, got in zip(rs, slope):
            exact = self.DERIVATIVES[rule.name](mp.mpf(r), mp)
            assert exact <= got <= exact * (1 + 1e-12) + 100 * tol, (r, got)
        # At r = 0 it is the derivative exactly: 0 from start 2 on, else c_1.
        assert slope[0] == self.DERIVATIVES[rule.name](mp.mpf(0), mp)
        assert sum_power_series(rule, 0.0, tol=tol)[1] == slope[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_monotone_in_r(self, r):
        lo, _ = sum_power_series(RULE_LOG, r, tol=1e-12)
        hi, _ = sum_power_series(RULE_LOG, min(r + 0.01, 0.96), tol=1e-12)
        assert hi.value >= lo.value - lo.error_bound - hi.error_bound


class TestSignedPowerSeries:
    """sum c_n x^n for -1 < x < 1: ``sum_power_series`` for x >= 0, and for
    x < 0 minus ``alt_constant(rule, -x)``, whose first term is negative."""

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_matches_alt_log_closed_form(self, r):
        sv = alt_constant(RULE_LOG, r, tol=1e-13)
        # sum_{n>=2} (-1)^(n-1) r^n / n = ln(1+r) - r, and
        # sum_{n>=2} (-r)^n / n is minus that, r - ln(1+r).
        assert sv.error_bound <= 1e-13
        assert abs(-sv.value - (r - math.log1p(r))) <= sv.error_bound + 1e-15
        assert abs(sv.value - alt_log_tail(r)) <= sv.error_bound + 1e-15

    def test_domain_rejects_abs_one(self):
        # No series takes a negative argument, and the alternating sum stops at 1.
        for x in (-1.0, -0.5, 1.0 + 1e-12, float("nan")):
            with pytest.raises(DomainError):
                alt_constant(RULE_LOG, x)
        with pytest.raises(DomainError):
            sum_power_series(RULE_LOG, -0.5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=-0.9, max_value=0.9))
    def test_agrees_with_direct_sum(self, x):
        if x >= 0.0:
            sv, _ = sum_power_series(RULE_SQUARE, x, tol=1e-12)
        else:
            alt = alt_constant(RULE_SQUARE, -x, tol=1e-12)
            sv = SeriesValue(-alt.value, alt.error_bound)
        # 2000 plain terms leave a tail below 0.9^2000 ~ 1e-92.
        oracle = direct_power_sum(RULE_SQUARE, x, 2000)
        assert abs(sv.value - oracle) <= sv.error_bound + 1e-14


class TestClosedFormTails:
    def test_log_tail_values(self):
        assert log_tail(0.0) == 0.0
        assert log_tail(0.5) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)

    def test_alt_log_tail_values(self):
        assert alt_log_tail(0.0) == 0.0
        assert alt_log_tail(1.0) == pytest.approx(math.log(2.0) - 1.0, abs=1e-15)

    def test_nn1_tail_values(self):
        assert nn1_tail(0.0) == 0.0
        assert nn1_tail(1.0) == pytest.approx(1.0, abs=1e-15)
        # sum r^n/(n(n-1)) = r + (1-r) ln(1-r): at r=0.5, 0.5 - 0.5 ln 2.
        assert nn1_tail(0.5) == pytest.approx(0.5 - 0.5 * math.log(2.0), abs=1e-15)

    def test_alt_nn1_tail_values(self):
        assert alt_nn1_tail(0.0) == 0.0
        assert alt_nn1_tail(1.0) == pytest.approx(1.0 - math.log(4.0), abs=1e-15)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize(
        "fn,rule,sign",
        [
            (log_tail, RULE_LOG, 1.0),
            (nn1_tail, RULE_NN1, 1.0),
        ],
    )
    def test_closed_forms_match_partial_sums(self, r, fn, rule, sign):
        for n_terms in (10, 100, 1000):
            partial = direct_power_sum(rule, sign * r, n_terms)
            # Remaining tail of the partial sum, geometric bound.
            n_next = rule.start + n_terms
            tail = rule.term(n_next) * r**n_next / (1.0 - r)
            assert abs(fn(r) - partial) <= tail + 1e-14

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 1.0])
    def test_alternating_closed_forms_match_partial_sums(self, r):
        # Alternating remainder is bounded by the first omitted term.
        for fn, rule in ((alt_log_tail, RULE_LOG), (alt_nn1_tail, RULE_NN1)):
            partial = -direct_power_sum(rule, -r, 1000)
            first_omitted = rule.term(rule.start + 1000) * r ** (rule.start + 1000)
            assert abs(fn(r) - partial) <= first_omitted + 1e-14

    def test_log_tail_domain(self):
        with pytest.raises(DomainError):
            log_tail(1.0)
        with pytest.raises(DomainError):
            log_tail(-0.2)

    @pytest.mark.parametrize("fn", [alt_log_tail, alt_nn1_tail])
    def test_alternating_tails_are_elementwise(self, fn):
        # Each entry is the scalar call bit for bit, 0 and 1 included.
        rs = np.concatenate([[0.0, 5e-324, 1e-200, 1.0], np.linspace(0.0, 1.0, 1001)])
        values = fn(rs)
        assert values.shape == rs.shape
        assert values.tolist() == [fn(r) for r in rs.tolist()]

    @pytest.mark.parametrize("fn", [alt_log_tail, alt_nn1_tail])
    def test_alternating_tails_name_the_first_bad_lane(self, fn):
        with pytest.raises(DomainError, match="got 1.5"):
            fn(np.array([0.5, 1.5, -0.5]))
        with pytest.raises(DomainError, match="got nan"):
            fn(np.array([0.5, np.nan]))

    def test_unit_argument_allowed_only_where_finite(self):
        # The three tails that converge at r=1 accept it; beyond is rejected.
        for fn in (alt_log_tail, nn1_tail, alt_nn1_tail):
            fn(1.0)
            with pytest.raises(DomainError):
                fn(1.0 + 1e-12)


class TestLanes:
    """One sum per lane: argument arrays and per-lane rule parameters."""

    RULE_LANES = CoefficientRule(
        lambda n, a: 2.0 / (n * (1.0 + a * (n - 1.0))),
        start=2,
        name="per-lane",
        params=(np.array([[0.0], [0.5], [1.0], [3.0]]),),
    )

    def test_argument_array_is_its_points(self):
        xs = np.array([0.0, 0.3, 0.5, 0.97, 0.2, 1e-160])
        power, slope = sum_power_series(RULE_SQUARE, xs, tol=1e-13)
        alt = alt_constant(RULE_SQUARE, np.append(xs, 1.0), tol=1e-13)
        assert alt.value.shape == (xs.size + 1,)
        for i, x in enumerate(xs):
            assert (SeriesValue(power.value[i], power.error_bound[i]), slope[i]) == sum_power_series(
                RULE_SQUARE, x, tol=1e-13
            )
            assert SeriesValue(alt.value[i], alt.error_bound[i]) == alt_constant(
                RULE_SQUARE, x, tol=1e-13
            )
        assert SeriesValue(alt.value[-1], alt.error_bound[-1]) == alt_constant(RULE_SQUARE, tol=1e-13)

    def test_per_lane_parameters_are_their_rules(self):
        xs = np.array([0.1, 0.6, 0.9, 0.3])
        power, slope = sum_power_series(self.RULE_LANES, xs, tol=1e-13)
        alt = alt_constant(self.RULE_LANES, tol=1e-13)
        alt_x = alt_constant(self.RULE_LANES, xs, tol=1e-13)
        for i, a in enumerate((0.0, 0.5, 1.0, 3.0)):
            rule = CoefficientRule(lambda n, a=a: 2.0 / (n * (1.0 + a * (n - 1.0))), start=2)
            assert (SeriesValue(power.value[i], power.error_bound[i]), slope[i]) == sum_power_series(
                rule, xs[i], tol=1e-13
            )
            assert SeriesValue(alt.value[i], alt.error_bound[i]) == alt_constant(rule, tol=1e-13)
            assert SeriesValue(alt_x.value[i], alt_x.error_bound[i]) == alt_constant(
                rule, xs[i], tol=1e-13
            )

    def test_failure_names_first_lane_and_carries_all(self, monkeypatch):
        monkeypatch.setattr(series, "_MAX_TERMS", 64)
        xs = np.array([0.5, 0.999, 0.9995])
        with pytest.raises(ConvergenceError, match="at x=0.999 ") as exc_info:
            sum_power_series(RULE_LOG, xs, tol=1e-12)
        achieved = exc_info.value.achieved
        assert achieved.error_bound[0] <= 1e-12 < achieved.error_bound[1]
        assert achieved.value[0] == sum_power_series(RULE_LOG, 0.5, tol=1e-12)[0].value


class TestLerchSum:
    """sum_{m>=0} r^m / (c + s m) against mpmath's Lerch transcendent,
    (1/s) Phi(r, 1, c/s), inside the sum's own error bound."""

    RS = (0.0, 0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12)
    # (c, s): the shapes the families use (c = 1 + k alpha, s = alpha, and
    # c = 1 + alpha, s = alpha with alpha = 0), a steep and a flat decay;
    # (400, 1) at r = 0.999 puts E1's argument at 0.43, on its power series.
    CS = ((1.0, 1.0), (3.5, 1.0), (1.0, 1e-3), (4e2, 1.0), (1e3, 1.0), (1e9 + 1.0, 1e9),
          (2.0, 0.0), (1e17, 1.0))

    @staticmethod
    def reference(r, c, s):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        if r == 0.0:
            return mp.mpf(1) / c
        if s == 0.0:
            return 1 / (c * (1 - mp.mpf(r)))
        return mp.lerchphi(mp.mpf(r), 1, mp.mpf(c) / mp.mpf(s)) / mp.mpf(s)

    @pytest.mark.parametrize("c,s", CS)
    def test_within_its_bound_of_mpmath(self, c, s):
        got = lerch_sum(np.array(self.RS), c, s)
        for r, value, bound in zip(self.RS, got.value, got.error_bound):
            ref = self.reference(r, c, s)
            assert abs(value - ref) <= bound, (r, c, s)
            # The bound itself is a few ulps of the value.
            assert bound <= 1e-14 * abs(value)

    def test_zero_argument_is_the_first_term(self):
        assert lerch_sum(0.0, 4.0, 3.0).value == 0.25
        assert lerch_sum(0.0, 3.0, 0.0).value == 1.0 / 3.0

    def test_zero_slope_is_geometric(self):
        # s = 0 (wh-alpha at alpha = 0) is 1/(c(1 - r)), with no division by s.
        for r in (0.3, 0.9, 1.0 - 1e-9):
            got = lerch_sum(r, 2.0, 0.0)
            assert abs(got.value - 1.0 / (2.0 * (1.0 - r))) <= got.error_bound

    def test_lanes_are_their_points(self):
        rs = np.array([0.0, 0.2, 0.9, 1.0 - 1e-10, 0.5])
        cs = np.array([1.0, 5.0, 1e6, 2.0, 3.0])
        ss = np.array([1.0, 0.0, 1e-3, 1e9, 2.0])
        got = lerch_sum(rs, cs, ss)
        for i in range(rs.size):
            assert SeriesValue(got.value[i], got.error_bound[i]) == lerch_sum(rs[i], cs[i], ss[i])
        assert isinstance(lerch_sum(0.5, 1.0, 1.0).value, float)

    def test_head_in_lane_blocks(self, monkeypatch):
        # Blocks of two lanes sum every lane as the one-block call does.
        rs = np.linspace(0.0, 0.999, 7)
        whole = lerch_sum(rs, 1.5, 0.5)
        monkeypatch.setattr(series, "_BLOCK", 2 * len(series._LERCH_M))
        blocked = lerch_sum(rs, 1.5, 0.5)
        assert np.array_equal(blocked.value, whole.value)
        assert np.array_equal(blocked.error_bound, whole.error_bound)

    def test_domain(self):
        for r in (-0.1, 1.0, float("nan")):
            with pytest.raises(DomainError):
                lerch_sum(r, 1.0, 1.0)


class TestAltConstant:
    def test_log_rule_equals_two_log_two_minus_two(self):
        # sum_{n>=2} (-1)^(n-1) 2/n = 2(ln 2 - 1).
        rule = CoefficientRule(lambda n: 2.0 / n, start=2)
        sv = alt_constant(rule, tol=1e-13)
        expect = 2.0 * (math.log(2.0) - 1.0)
        assert abs(sv.value - expect) <= sv.error_bound + 1e-15
        assert sv.error_bound <= 1e-13

    def test_square_rule_equals_basel_remainder(self):
        # sum_{n>=2} (-1)^(n-1) 2/n^2 = 2(pi^2/12 - 1).
        rule = CoefficientRule(lambda n: 2.0 / n**2, start=2)
        sv = alt_constant(rule, tol=1e-13)
        expect = 2.0 * (math.pi**2 / 12.0 - 1.0)
        assert abs(sv.value - expect) <= sv.error_bound + 1e-15

    def test_nn1_rule_equals_one_minus_log_four(self):
        # sum_{n>=2} (-1)^(n-1) 2/(n(n-1)) = 2(1 - ln 4).
        rule = CoefficientRule(lambda n: 2.0 / (n * (n - 1.0)), start=2)
        sv = alt_constant(rule, tol=1e-13)
        expect = 2.0 * (1.0 - math.log(4.0))
        assert abs(sv.value - expect) <= sv.error_bound + 1e-15

    @pytest.mark.parametrize(
        "rule,first_sign",
        [
            (CoefficientRule(lambda n: 2.0 / n, start=2), -1),
            (CoefficientRule(lambda n: 2.0 / (n * (1.0 + 0.5 * (n - 1.0))), start=2), -1),
            (CoefficientRule(lambda n: 1.0 / (1.0 + 2.0 * n), start=1), -1),
        ],
    )
    def test_agrees_with_euler_mean_direct_sum(self, rule, first_sign):
        # first_sign is the oracle's: alt_constant's first term is negative.
        sv = alt_constant(rule, tol=1e-12)
        oracle, bound = direct_alt_oracle(rule, first_sign)
        assert abs(sv.value - oracle) <= sv.error_bound + bound

    def test_increasing_terms_rejected(self):
        rule = CoefficientRule(lambda n: n, start=2)
        with pytest.raises(DomainError):
            alt_constant(rule)

    def test_nonpositive_terms_rejected(self):
        rule = CoefficientRule(lambda n: n - 10.0, start=2)
        with pytest.raises(DomainError):
            alt_constant(rule)

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            alt_constant(RULE_LOG, tol=-1e-12)

    def test_unreachable_tol_raises_with_partial(self):
        with pytest.raises(ConvergenceError) as exc_info:
            alt_constant(RULE_LOG, tol=1e-18)
        achieved = exc_info.value.achieved
        assert achieved is not None
        expect = math.log(2.0) - 1.0  # sum_{n>=2} (-1)^(n-1)/n
        assert abs(achieved.value - expect) <= 1e-10

    def test_error_bound_within_requested_tol(self):
        for tol in (1e-8, 1e-10, 1e-13):
            sv = alt_constant(RULE_LOG, tol=tol)
            assert sv.error_bound <= tol

    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_argument_matches_the_ph_closed_forms(self, x):
        # c_n x^n are moments when the c_n are: the ph-alpha and ph-m lower
        # envelopes, sum c_n (-1)^(n-1) x^n, in closed form.
        cases = (
            (coefficient_rule(ph_alpha(0.3)), 1.4 * alt_log_tail(x)),
            (coefficient_rule(ph_m(1.0)), 2.0 * alt_nn1_tail(x)),
        )
        for rule, expect in cases:
            sv = alt_constant(rule, x, tol=1e-13)
            assert sv.error_bound <= 1e-13
            assert abs(sv.value - expect) <= sv.error_bound + 4.0 * np.finfo(float).eps * x

    def test_zero_argument_is_exact_zero(self):
        sv = alt_constant(RULE_LOG, 0.0)
        assert (sv.value, sv.error_bound) == (0.0, 0.0)


class TestUnderflow:
    """Where r^start is subnormal the terms are only as exact as the
    subnormal grid: each bound still holds, against mpmath at 40 digits,
    for 1/n from n = 2 (r^2 from 1e-310 down to below the least subnormal)."""

    RS = (1e-155, 1e-160, 1e-162)

    @staticmethod
    def exact(r, sign):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        r = mp.mpf(r)
        return mp.fsum(sign ** (n - 1) * r**n / n for n in range(2, 12)), r / (1 - r)

    @pytest.mark.parametrize("r", RS)
    def test_power_series_and_slope(self, r):
        sv, slope = sum_power_series(RULE_LOG, r, tol=1e-13)
        value, derivative = self.exact(r, 1)
        assert abs(sv.value - value) <= sv.error_bound
        assert slope >= derivative

    @pytest.mark.parametrize("r", RS)
    def test_alternating_sum(self, r):
        sv = alt_constant(RULE_LOG, r, tol=1e-13)
        value, _ = self.exact(r, -1)
        assert abs(sv.value - value) <= sv.error_bound


class TestGAltConstant:
    """gh-k-alpha's d* - 1 = 2 sum_{n>=1} (-1)^n / (1 + n k alpha), the
    alternating sum of its lacunary rule."""

    def test_ka_one_equals_log_two_minus_one(self):
        # sum_{n>=1} (-1)^n / (1+n) = ln 2 - 1.
        d = distance_bound(gh_k_alpha(1, 1.0))
        assert abs(d.value - (1.0 + 2.0 * (math.log(2.0) - 1.0))) <= d.error_bound + 2e-15

    def test_ka_two_equals_quarter_pi_minus_one(self):
        # sum_{n>=1} (-1)^n / (1+2n) = pi/4 - 1 (Leibniz).
        d = distance_bound(gh_k_alpha(2, 1.0))
        assert abs(d.value - (1.0 + 2.0 * (math.pi / 4.0 - 1.0))) <= d.error_bound + 2e-15

    def test_depends_only_on_product(self):
        d = lambda k, a: distance_bound(gh_k_alpha(k, a)).value  # noqa: E731
        assert d(4, 0.5) == d(2, 1.0)
        assert d(1, 3.0) == d(3, 1.0)

    @pytest.mark.parametrize("ka", [0.05, 0.5, 1.0, 3.0, 12.0])
    def test_matches_integral_oracle(self, ka):
        # sum_{n>=1} (-1)^n/(1+n*ka) = -int_0^1 t^ka / (1 + t^ka) dt.
        d = distance_bound(gh_k_alpha(1, ka))
        integral, quad_err = quad(
            lambda t: t**ka / (1.0 + t**ka), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13
        )
        assert abs(d.value - (1.0 - 2.0 * integral)) <= d.error_bound + 2.0 * quad_err + 2e-12

    def test_monotone_toward_zero_in_alpha(self):
        values = [distance_bound(gh_k_alpha(1, a)).value - 1.0 for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(v < 0.0 for v in values)
        assert values == sorted(values)  # increasing toward 0
