"""Tests for the circle-evaluation kernel."""

import math

import numpy as np
import pytest

from harmbohr import extremal_coefficients, gh_k_alpha, ph_alpha
from harmbohr._kernels import abs_on_circle
from harmbohr.errors import DomainError

COEFFS = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
THETAS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


def naive_abs(coeffs, rho, thetas):
    z = rho * np.exp(1j * thetas)
    total = np.zeros_like(z)
    for j, a in enumerate(coeffs, start=1):
        total = total + a * z**j
    return np.abs(total)


def full_fold_abs(coeffs, rho, thetas):
    # The circle fold over every coefficient, underflowing terms included.
    m = thetas.size
    j = np.arange(1, coeffs.size + 1)
    folded = np.bincount(j % m, weights=coeffs * rho**j, minlength=m)
    return np.abs(np.fft.ifft(folded) * m)


def horner_abs(coeffs, rho, thetas):
    # Horner over the coefficient index, vectorised across the grid.
    z = rho * np.exp(1j * thetas)
    acc = np.zeros_like(z)
    for a in coeffs[::-1]:
        acc = acc * z + a
    return np.abs(acc * z)


class TestAbsOnCircle:
    def test_matches_naive_evaluation(self):
        got = abs_on_circle(COEFFS, 0.8, THETAS)
        assert np.allclose(got, naive_abs(COEFFS, 0.8, THETAS), rtol=0.0, atol=1e-13)

    def test_folds_more_terms_than_grid_points(self):
        # 500 terms on 64 points: every bin receives 7 or 8 terms, and
        # 500 mod 64 != 0 leaves the bins unevenly filled.
        rng = np.random.default_rng(12345)
        coeffs = rng.uniform(-1.0, 1.0, size=500) / np.arange(1, 501)
        got = abs_on_circle(coeffs, 0.95, THETAS)
        assert np.allclose(got, naive_abs(coeffs, 0.95, THETAS), rtol=0.0, atol=1e-13)

    def test_oracle_size_matches_horner(self):
        # The size the distance oracle runs at: 10^5 terms, 720 points.
        coeffs = extremal_coefficients(ph_alpha(0.3), 100_000)
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        got = abs_on_circle(coeffs, 0.999, thetas)
        expect = horner_abs(coeffs, 0.999, thetas)
        assert np.max(np.abs(got - expect)) <= 1e-13
        assert np.argmin(got) == np.argmin(expect)

    @pytest.mark.parametrize("m", [24, 72, 720])
    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_dropping_underflowed_terms_changes_no_bit(self, rho, m):
        # Only terms with max|c| rho^j below 2^-1022 are skipped: each is
        # zero or subnormal and cannot move a bin holding normal terms.
        thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        for spec in (ph_alpha(0.3), gh_k_alpha(2, 1.0)):
            coeffs = extremal_coefficients(spec, 10_000)
            got = abs_on_circle(coeffs, rho, thetas)
            assert np.array_equal(got, full_fold_abs(coeffs, rho, thetas))

    def test_zero_radius_gives_zeros(self):
        out = abs_on_circle(COEFFS, 0.0, THETAS)
        assert out.shape == THETAS.shape
        assert not out.any()

    def test_large_coefficient_beyond_underflow_counts(self):
        # 0.5^1040 = 2^-1040 is subnormal, but 2^100 times it is 2^-940:
        # the cutoff follows max|c|, not the powers alone.
        coeffs = np.zeros(1_100)
        coeffs[1_039] = 2.0**100
        out = abs_on_circle(coeffs, 0.5, THETAS)
        assert np.allclose(out, 2.0**-940, rtol=1e-12, atol=0.0)

    def test_smallest_normal_term_counts(self):
        # 0.5^1022 = 2^-1022 is the last term the cutoff must keep.
        coeffs = np.zeros(1_100)
        coeffs[1_021] = 1.0
        out = abs_on_circle(coeffs, 0.5, THETAS)
        assert np.allclose(out, 2.0**-1022, rtol=1e-12, atol=0.0)

    def test_non_uniform_grid_rejected(self):
        for thetas in (
            np.linspace(0.0, 2.0 * math.pi, 64),  # endpoint included
            np.linspace(0.1, 0.1 + 2.0 * math.pi, 64, endpoint=False),  # shifted
            np.sort(np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, 64)),
        ):
            with pytest.raises(DomainError):
                abs_on_circle(COEFFS, 0.5, thetas)

    def test_positive_coefficients_peak_at_angle_zero(self):
        values = abs_on_circle(COEFFS, 0.9, THETAS)
        assert np.argmax(values) == 0
        expect = float(np.dot(COEFFS, 0.9 ** np.arange(1, 6)))
        assert values[0] == pytest.approx(expect, abs=1e-14)

    def test_empty_coefficients_give_zero(self):
        out = abs_on_circle(np.array([]), 0.5, THETAS)
        assert out.shape == THETAS.shape
        assert not out.any()

    def test_single_coefficient_is_scaled_radius(self):
        out = abs_on_circle(np.array([2.0]), 0.25, THETAS)
        assert np.allclose(out, 0.5, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), THETAS[17] + 2e-12])
    def test_one_bad_theta_rejected(self, bad):
        thetas = THETAS.copy()
        thetas[17] = bad
        with pytest.raises(DomainError):
            abs_on_circle(COEFFS, 0.5, thetas)

    def test_offset_within_grid_tolerance_accepted(self):
        thetas = THETAS.copy()
        thetas[17] += 5e-13
        got = abs_on_circle(COEFFS, 0.5, thetas)
        assert np.array_equal(got, abs_on_circle(COEFFS, 0.5, THETAS))

    def test_empty_grid_gives_empty_result(self):
        out = abs_on_circle(COEFFS, 0.5, np.array([]))
        assert out.shape == (0,)
