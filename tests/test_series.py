"""Tests for the Euler-Maclaurin and Boole engines.

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
from harmbohr.classes import distance_bound, gh_k_alpha
from harmbohr.errors import DomainError
from harmbohr.series import (
    CoefficientRule,
    SeriesValue,
    _wh_alt,
    _wh_sums,
    alt_lerch_sum,
    alt_log_tail,
    alt_nn1_tail,
    lerch_sum,
    log_tail,
    nn1_tail,
)

RULE_LOG = CoefficientRule(lambda n: 1.0 / n, start=2, name="1/n")
RULE_SQUARE = CoefficientRule(lambda n: 1.0 / n**2, start=2, name="1/n^2")
RULE_NN1 = CoefficientRule(lambda n: 1.0 / (n * (n - 1.0)), start=2, name="1/(n(n-1))")


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
    """wh-alpha's power series S = sum_{n>=2} r^n / (n (1 - alpha + alpha n)),
    the one power series the package sums, and its derivative S', both by
    ``_wh_sums`` at a fixed cost: alpha = 0 gives sum r^n / n and
    sum r^(n-1), alpha = 1 gives sum r^n / n^2."""

    def test_zero_argument_is_exact_zero(self):
        for alpha in (0.0, 0.3, 1.0):
            s, slope = _wh_sums(0.0, alpha)
            assert (s.value, s.error_bound) == (0.0, 0.0)
            assert (slope.value, slope.error_bound) == (0.0, 0.0)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_log_closed_form(self, r):
        sv, _ = _wh_sums(r, 0.0)
        assert sv.error_bound <= 1e-13
        assert abs(sv.value - log_tail(r)) <= sv.error_bound + 1e-15

    @pytest.mark.parametrize("r", [0.2, 0.6, 0.95])
    def test_matches_nn1_closed_form(self, r):
        # 1/(n(n-1)) = 1/(n-1) - 1/n turns sum r^n/(n(n-1)) into
        # r (S + r) - S = r^2 - (1 - r) S with S = sum r^n / n, alpha = 0.
        sv, _ = _wh_sums(r, 0.0)
        got = r * r - (1.0 - r) * sv.value
        assert abs(got - nn1_tail(r)) <= (1.0 - r) * sv.error_bound + 4e-16

    @pytest.mark.parametrize("r", [0.25, 0.8])
    def test_matches_geometric_closed_form(self, r):
        # At alpha = 0, S' = sum_{n>=2} r^(n-1) = r / (1 - r).
        _, slope = _wh_sums(r, 0.0)
        expect = r / (1.0 - r)
        assert abs(slope.value - expect) <= slope.error_bound + 4e-16 * expect

    def test_error_bound_is_honest(self):
        # Compare against a much longer plain sum whose own tail is < 1e-18.
        r = 0.5
        sv, _ = _wh_sums(r, 1.0)
        oracle = direct_power_sum(RULE_SQUARE, r, 80)
        assert abs(sv.value - oracle) <= sv.error_bound + 1e-15

    def test_domain_rejects_negative(self):
        with pytest.raises(DomainError):
            _wh_sums(-0.1, 0.5)

    def test_domain_rejects_one(self):
        with pytest.raises(DomainError):
            _wh_sums(1.0, 0.5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_monotone_in_r(self, r):
        lo, _ = _wh_sums(r, 0.0)
        hi, _ = _wh_sums(min(r + 0.01, 0.96), 0.0)
        assert hi.value >= lo.value - lo.error_bound - hi.error_bound


class TestSignedPowerSeries:
    """sum c_n x^n for -1 < x <= 0: ``_wh_alt(-x, alpha)``, wh-alpha's
    alternating sum sum_{n>=2} (-1)^n r^n / (n (1 - alpha + alpha n)),
    which is sum r^n / n at alpha = 0 and sum r^n / n^2 at alpha = 1."""

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_matches_alt_log_closed_form(self, r):
        sv = _wh_alt(r, 0.0)
        # sum_{n>=2} (-1)^(n-1) r^n / n = ln(1+r) - r, and
        # sum_{n>=2} (-r)^n / n is minus that, r - ln(1+r).
        assert sv.error_bound <= 1e-13
        assert abs(sv.value - (r - math.log1p(r))) <= sv.error_bound + 1e-15
        assert abs(-sv.value - alt_log_tail(r)) <= sv.error_bound + 1e-15

    def test_domain_rejects_abs_one(self):
        # No series takes a negative argument, and the alternating sums stop at 1.
        for x in (-1.0, -0.5, 1.0 + 1e-12, float("nan")):
            with pytest.raises(DomainError, match="0 <= r <= 1"):
                _wh_alt(x, 0.0)
            with pytest.raises(DomainError, match="0 <= r <= 1"):
                alt_lerch_sum(x, 1.0, 1.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=-0.9, max_value=0.0))
    def test_agrees_with_direct_sum(self, x):
        alt = _wh_alt(-x, 1.0)
        # 2000 plain terms leave a tail below 0.9^2000 ~ 1e-92.
        oracle = direct_power_sum(RULE_SQUARE, x, 2000)
        assert abs(alt.value - oracle) <= alt.error_bound + 1e-14


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
    """One sum per lane: argument arrays and per-lane parameters."""

    @staticmethod
    def lane(sv, i):
        return SeriesValue(sv.value[i], sv.error_bound[i])

    def test_argument_array_is_its_points(self):
        xs = np.array([0.0, 0.3, 0.5, 0.97, 0.2, 1e-160])
        s, slope = _wh_sums(xs, 0.5)
        ends = np.append(xs, 1.0)
        alt, lerch = _wh_alt(ends, 1.0), alt_lerch_sum(ends, 3.0, 2.0)
        assert alt.value.shape == lerch.value.shape == (xs.size + 1,)
        for i, x in enumerate(xs):
            assert (self.lane(s, i), self.lane(slope, i)) == _wh_sums(x, 0.5)
        for i, x in enumerate(ends):
            assert self.lane(alt, i) == _wh_alt(x, 1.0)
            assert self.lane(lerch, i) == alt_lerch_sum(x, 3.0, 2.0)

    def test_per_lane_parameters_are_their_rules(self):
        xs = np.array([0.1, 0.6, 0.9, 1.0])
        alphas = np.array([0.0, 0.5, 1.0, 0.25])
        cs, ss = 1.0 + 3.0 * alphas + 1e-3, 3.0 * alphas + 1e-3
        # wh-alpha's sums take one alpha per lane, in [0, 1].
        s, slope = _wh_sums(xs[:3], alphas[:3])
        alt, alt_one = _wh_alt(xs, alphas), _wh_alt(1.0, alphas)
        lerch, lerch_one = alt_lerch_sum(xs, cs, ss), alt_lerch_sum(1.0, cs, ss)
        for i, a in enumerate(alphas):
            if i < 3:
                assert (self.lane(s, i), self.lane(slope, i)) == _wh_sums(xs[i], a)
            assert self.lane(alt, i) == _wh_alt(xs[i], a)
            assert self.lane(alt_one, i) == _wh_alt(1.0, a)
            assert self.lane(lerch, i) == alt_lerch_sum(xs[i], cs[i], ss[i])
            assert self.lane(lerch_one, i) == alt_lerch_sum(1.0, cs[i], ss[i])


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


class TestWhSums:
    """wh-alpha's S = sum_{n>=2} r^n / (n (1 - alpha + alpha n)) and
    S' = sum_{n>=2} r^(n-1) / (1 - alpha + alpha n) against mpmath's exact
    forms at 40 digits, inside their own bounds, up to r = 1 - 1e-12."""

    RS = (1e-3, 0.2, 0.4, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)

    @staticmethod
    def reference(r, alpha):
        # With L = -ln(1 - r) - r: S = L and S' = r/(1 - r) at alpha = 0 (and
        # at alpha = 1e-300, which moves them by under 1e-288); at alpha = 1,
        # S = Li2(r) - r and S' = L/r.  Otherwise partial fractions give
        # S = (L - alpha r^2 P)/(1 - alpha) and S' = r P, with
        # P = sum_m r^m/(1 + alpha + alpha m) = Phi(r, 1, (1 + alpha)/alpha)/alpha.
        # mpmath's lerchphi breaks at alpha = 1e-300, and nsum misses the sum
        # near r = 1 (10.346 for 12.8155 at alpha = 0, r = 1 - 1e-6).
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        r, a = mp.mpf(r), mp.mpf(alpha)
        log = -mp.log1p(-r) - r
        if alpha < 1e-9:
            return log, r / (1 - r)
        if alpha == 1.0:
            return mp.polylog(2, r) - r, log / r
        p = mp.lerchphi(r, 1, (1 + a) / a) / a
        return (log - a * r * r * p) / (1 - a), r * p

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 0.49, 0.5, 0.51, 1.0 - 1e-9, 1.0])
    def test_within_its_bound_of_mpmath(self, alpha):
        s, slope = _wh_sums(np.array(self.RS), alpha)
        for i, r in enumerate(self.RS):
            value, derivative = self.reference(r, alpha)
            assert abs(s.value[i] - value) <= s.error_bound[i], (r, alpha)
            assert abs(slope.value[i] - derivative) <= slope.error_bound[i], (r, alpha)
            # The bounds are a few ulps of the magnitudes summed.
            assert s.error_bound[i] <= 1e-12 and slope.error_bound[i] <= 1e-13 * float(derivative)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_slope_is_r_times_the_lerch_sum(self, alpha):
        rs = np.array([0.0, 0.3, 0.9, 1.0 - 1e-9])
        _, slope = _wh_sums(rs, alpha)
        lerch = lerch_sum(rs, 1.0 + alpha, alpha)
        assert np.array_equal(slope.value, rs * lerch.value)
        assert np.all(slope.error_bound >= rs * lerch.error_bound)

    def test_head_in_lane_blocks(self, monkeypatch):
        # Blocks of two lanes sum every lane as the one-block call does.
        rs, alphas = np.linspace(0.0, 0.999, 7), np.linspace(0.0, 1.0, 7)
        whole = _wh_sums(rs, alphas)
        monkeypatch.setattr(series, "_BLOCK", 2 * len(series._LERCH_M))
        assert _wh_sums(rs, alphas) == whole


class TestAltConstant:
    """The alternating constants: sum_{n>=start} (-1)^(n-start+1) c_n, the
    first term negative, summed by the two Boole engines.  wh-alpha's
    c_n = 2/(n (1 + (n - 1) alpha)) give -2 ``_wh_alt(1, alpha)``, and
    c_n = 1/(c + s (n - 1)) from n = 1 give -``alt_lerch_sum(1, c + s, s)``."""

    # Each rule's alternating constant, from the engines, as (value, bound).
    ENGINES = {
        "2/n": lambda: _scaled(-2.0, _wh_alt(1.0, 0.0)),
        "2/(n(1+(n-1)/2))": lambda: _scaled(-2.0, _wh_alt(1.0, 0.5)),
        "1/(1+2n)": lambda: _scaled(-1.0, alt_lerch_sum(1.0, 3.0, 2.0)),
    }

    def test_log_rule_equals_two_log_two_minus_two(self):
        # sum_{n>=2} (-1)^(n-1) 2/n = 2(ln 2 - 1).
        value, bound = self.ENGINES["2/n"]()
        expect = 2.0 * (math.log(2.0) - 1.0)
        assert abs(value - expect) <= bound + 1e-15
        assert bound <= 1e-13

    def test_square_rule_equals_basel_remainder(self):
        # sum_{n>=2} (-1)^(n-1) 2/n^2 = 2(pi^2/12 - 1).
        value, bound = _scaled(-2.0, _wh_alt(1.0, 1.0))
        expect = 2.0 * (math.pi**2 / 12.0 - 1.0)
        assert abs(value - expect) <= bound + 1e-15

    def test_nn1_rule_equals_one_minus_log_four(self):
        # sum_{n>=2} (-1)^(n-1) 2/(n(n-1)) = 2(1 - ln 4): 1/(n(n-1)) =
        # 1/(n-1) - 1/n makes it 2 (sum_m (-1)^m/(m + 2) - sum_m (-1)^m/(m + 1)).
        first, second = alt_lerch_sum(1.0, 2.0, 1.0), alt_lerch_sum(1.0, 1.0, 1.0)
        value = 2.0 * (first.value - second.value)
        bound = 2.0 * (first.error_bound + second.error_bound)
        expect = 2.0 * (1.0 - math.log(4.0))
        assert abs(value - expect) <= bound + 1e-15

    @pytest.mark.parametrize(
        "rule,first_sign",
        [
            (CoefficientRule(lambda n: 2.0 / n, start=2, name="2/n"), -1),
            (
                CoefficientRule(
                    lambda n: 2.0 / (n * (1.0 + 0.5 * (n - 1.0))), start=2, name="2/(n(1+(n-1)/2))"
                ),
                -1,
            ),
            (CoefficientRule(lambda n: 1.0 / (1.0 + 2.0 * n), start=1, name="1/(1+2n)"), -1),
        ],
    )
    def test_agrees_with_euler_mean_direct_sum(self, rule, first_sign):
        # first_sign is the oracle's: each constant's first term is negative.
        value, bound = self.ENGINES[rule.name]()
        oracle, oracle_bound = direct_alt_oracle(rule, first_sign)
        assert abs(value - oracle) <= bound + oracle_bound

    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_argument_matches_the_ph_closed_forms(self, x):
        # The ph-alpha and ph-m lower envelopes, sum c_n (-1)^(n-1) x^n, in
        # closed form: c_n = 1.4/n is -1.4 times _wh_alt at alpha = 0, and
        # c_n = 2/(n(n-1)) is 2 x^2 (sum (-1)^m x^m/(m + 2) - sum (-1)^m
        # x^m/(m + 1)).
        log = _scaled(-1.4, _wh_alt(x, 0.0))
        first, second = alt_lerch_sum(x, 2.0, 1.0), alt_lerch_sum(x, 1.0, 1.0)
        nn1 = (
            2.0 * x * x * (first.value - second.value),
            2.0 * x * x * (first.error_bound + second.error_bound),
        )
        for (value, bound), expect in ((log, 1.4 * alt_log_tail(x)), (nn1, 2.0 * alt_nn1_tail(x))):
            assert bound <= 1e-13
            assert abs(value - expect) <= bound + 4.0 * np.finfo(float).eps * x

    def test_zero_argument_is_exact_zero(self):
        for alpha in (0.0, 0.5, 1.0):
            sv = _wh_alt(0.0, alpha)
            assert (sv.value, sv.error_bound) == (0.0, 0.0)
        # The Lerch form starts at its first term, 1/c, and x^32 = 0 clears its tail.
        sv = alt_lerch_sum(0.0, 3.0, 2.0)
        assert abs(sv.value - 1.0 / 3.0) <= sv.error_bound <= 2e-15


def _scaled(factor, sv):
    """factor times a SeriesValue, as (value, bound)."""
    return factor * sv.value, abs(factor) * sv.error_bound


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
        # wh-alpha's S at alpha = 0 is sum r^n / n, and S' = r / (1 - r).
        sv, slope = _wh_sums(r, 0.0)
        value, derivative = self.exact(r, 1)
        assert abs(sv.value - value) <= sv.error_bound
        assert abs(slope.value - derivative) <= slope.error_bound

    @pytest.mark.parametrize("r", RS)
    def test_alternating_sum(self, r):
        # wh-alpha's alternating sum at alpha = 0 is sum (-1)^n r^n / n.
        sv = _wh_alt(r, 0.0)
        value, _ = self.exact(r, -1)
        assert abs(-sv.value - value) <= sv.error_bound


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


class TestBoole:
    """Boole's tail and the two alternating engines it closes:
    ``alt_lerch_sum`` (gh-k-alpha's lower side) and ``_wh_alt``
    (wh-alpha's), against mpmath at 30 digits, inside their own bounds on
    all of [0, 1], the ends and an underflowing argument included."""

    XS = (0.0, 1e-160, 0.01, 0.2, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-9, 1.0)
    # (c, s): gh-k-alpha's (1 + k alpha, k alpha) from k alpha = 1e-12 to
    # 1e9, and the shapes of TestLerchSum.
    CS = ((1.0 + 1e-12, 1e-12), (1001.0, 1000.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0),
          (1.5, 0.5), (1e9 + 1.0, 1e9), (1.0, 1e-3), (4e2, 1.0))
    ALPHAS = (0.0, 1e-300, 0.1, 0.25, 0.49, 0.5, 0.51, 0.75, 1.0 - 1e-9, 1.0)

    @staticmethod
    def alt_lerch(x, c, s):
        # 1/(c + s m) = int_0^1 t^(c + s m - 1) dt, so the sum is
        # int_0^1 t^(c - 1)/(1 + x t^s) dt, or with u = t^s,
        # (1/s) int_0^1 u^(c/s - 1)/(1 + x u) du, which is smoother when
        # c/s is moderate.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x, c, s = mp.mpf(x), mp.mpf(c), mp.mpf(s)
        if c / s <= 1e6:
            return mp.quad(lambda u: u ** (c / s - 1) / (1 + x * u), [0, 1]) / s
        return mp.quad(lambda t: t ** (c - 1) / (1 + x * t**s), [0, 1])

    @classmethod
    def wh_alt(cls, r, alpha):
        # Up to r = 0.2, 80 plain terms (the rest is under 0.2^80 of the
        # first).  Beyond, partial fractions 1/(n q) = (1/n - alpha/q)/(1 -
        # alpha), q = 1 - alpha + alpha n, with sum_{n>=2} (-1)^n r^n/n =
        # r - ln(1 + r); Li2 at alpha = 1.  alpha = 1e-300 moves the sum by
        # under 1e-299.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        r = mp.mpf(r)
        if r <= 0.2:
            q = lambda n: 1 - mp.mpf(alpha) + mp.mpf(alpha) * n  # noqa: E731
            return mp.fsum((-r) ** n / (n * q(n)) for n in range(2, 82))
        log = r - mp.log1p(r)
        if alpha < 1e-9:
            return log
        if alpha == 1.0:
            return mp.polylog(2, -r) + r
        a = mp.mpf(alpha)
        lerch = cls.alt_lerch(r, 1 + a, a)
        mp.mp.dps = 30
        return (log - a * r * r * lerch) / (1 - a)

    def test_weights_are_boole_s(self):
        # -E_k(0)/(2 k!) for k = 1, 3, .., 13, from the Euler numbers'
        # values at 0: -1/2, 1/4, -1/2, 17/8, -31/2, 691/4, -5461/2.
        from fractions import Fraction

        e0 = [Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 2), Fraction(17, 8),
              Fraction(-31, 2), Fraction(691, 4), Fraction(-5461, 2)]
        exact = [-e / (2 * math.factorial(2 * j + 1)) for j, e in enumerate(e0)]
        assert exact[:3] == [Fraction(1, 4), Fraction(-1, 48), Fraction(1, 480)]
        got = series._BOOLE.ravel().tolist()
        assert all(abs(g - float(w)) <= 4e-16 * abs(float(w)) for g, w in zip(got, exact))

    @pytest.mark.parametrize("c,s", CS)
    def test_alt_lerch_sum_within_its_bound_of_mpmath(self, c, s):
        got = alt_lerch_sum(np.array(self.XS), c, s)
        for x, value, bound in zip(self.XS, got.value, got.error_bound):
            assert abs(value - self.alt_lerch(x, c, s)) <= bound, (x, c, s)
            # The bound is a few ulps of the value.
            assert bound <= 1e-14 * value

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_wh_alt_within_its_bound_of_mpmath(self, alpha):
        got = _wh_alt(np.array(self.XS), alpha)
        for x, value, bound in zip(self.XS, got.value, got.error_bound):
            assert abs(value - self.wh_alt(x, alpha)) <= bound, (x, alpha)
            assert bound <= 1e-14 * value + 1e-320

    def test_remainder_is_twice_the_seventh_correction(self):
        # f(x) = 1/(x + 1) from N = 32 at lam = 0: e_k = k!/33^k, and the
        # bound Boole's remainder takes is |E_13(0)|/13! e_13 f(N).
        ratios = series._ratios(np.zeros((13, 1)), np.array([1.0 / 33.0]))
        _, remainder, _ = series._boole(0.0, np.array([1.0 / 33.0]), ratios)
        expect = 5461.0 / 2.0 / math.factorial(13) * (math.factorial(13) / 33.0**13) / 33.0
        assert remainder[0] == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_head_in_lane_blocks(self, monkeypatch):
        # Blocks of two lanes sum every lane as the one-block call does.
        xs, alphas = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7)
        whole = alt_lerch_sum(xs, 1.0 + alphas, alphas + 0.5), _wh_alt(xs, alphas)
        monkeypatch.setattr(series, "_BLOCK", 2 * len(series._LERCH_M))
        assert (alt_lerch_sum(xs, 1.0 + alphas, alphas + 0.5), _wh_alt(xs, alphas)) == whole


# Each engine's head: the builder of its terms, and their width.
HEADS = {
    lerch_sum: ("_lerch_terms", series._LERCH_M.size),
    _wh_sums: ("_wh_terms", series._LERCH_M.size),
    alt_lerch_sum: ("_alt_pairs", series._PAIR_M.size),
    _wh_alt: ("_wh_alt_pairs", series._PAIR_M.size),
}


def _engine_lanes(engine, n):
    """n lanes of ``engine``'s arguments across its domain, the ends
    included: r = 0, r next to 1 (and r = 1 for the alternating sums),
    alpha = 0 and 1, s = 0."""
    rng = np.random.default_rng(n)
    r, alpha = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    r[:3] = 0.0, 1.0 - 1e-12, 0.999
    alpha[3:5] = 0.0, 1.0
    if engine in (alt_lerch_sum, _wh_alt):
        r[5] = 1.0
    if engine is lerch_sum:
        return r, rng.uniform(0.1, 10.0, n), np.where(np.arange(n) == 6, 0.0, 5.0 * alpha)
    if engine is alt_lerch_sum:
        return r, 1.0 + alpha, 0.5 + alpha
    return r, alpha


def _lane_values(result):
    """A result's SeriesValues: one, or _wh_sums' pair."""
    return result if isinstance(result, tuple) else (result,)


class TestHeadBlocks:
    """Each engine builds and sums its 32-term head in blocks of
    _BLOCK // width lanes, width being the head's 32 terms or 16 pairs.
    Around a block and over several, every lane is its own one-lane call
    bit for bit, and no block a term builder makes is larger than that."""

    @pytest.mark.parametrize("engine", HEADS, ids=lambda f: f.__name__)
    def test_lanes_at_block_edges_are_their_points(self, engine):
        block = series._BLOCK // HEADS[engine][1]
        args = _engine_lanes(engine, 3 * block + 5)
        alone = [_lane_values(engine(*(a[i] for a in args))) for i in range(args[0].size)]
        for n in (block - 1, block, block + 1, 3 * block + 5):
            got = _lane_values(engine(*(a[:n] for a in args)))
            for i in range(n):
                lane = tuple(SeriesValue(v.value[i], v.error_bound[i]) for v in got)
                assert lane == alone[i], (n, i)

    @pytest.mark.parametrize("engine", HEADS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("blocks", [1, 3, 40])
    def test_no_block_exceeds_its_bound(self, monkeypatch, engine, blocks):
        # builder name -> the shapes of the arrays of each block it made.
        made = {name: [] for name, _ in HEADS.values()}

        def watched(name, builder):
            def build(*lanes):
                arrays = builder(*lanes)
                made[name].append([a.shape for a in _lane_values(arrays)])
                return arrays

            return build

        for name in made:
            monkeypatch.setattr(series, name, watched(name, getattr(series, name)))
        # A block's temporaries stay within 64 KB, as measured (CHANGES.md).
        assert series._BLOCK * np.dtype(np.float64).itemsize <= 1 << 16
        own, width = HEADS[engine]
        block = series._BLOCK // width
        engine(*_engine_lanes(engine, blocks * block + 5))
        shapes = [shape for calls in made.values() for arrays in calls for shape in arrays]
        assert shapes and all(w == width and lanes <= block for lanes, w in shapes)
        # Full blocks, then the rest: every lane is summed once.
        assert [arrays[0][0] for arrays in made[own]] == [block] * blocks + [5]
