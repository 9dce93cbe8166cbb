"""Series evaluation with explicit absolute error bounds.

Every infinite sum in the package flows through here: positive power series
truncated against a geometric tail bound, alternating constant series summed
by iterated averaging of partial sums, and the elementary closed forms for
the logarithmic coefficient families.

All evaluators return a :class:`SeriesValue`, a float paired with a rigorous
absolute error bound, so downstream code (the root solver, the verifier) can
propagate numerical uncertainty instead of guessing at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(np.float64).eps)

DEFAULT_MAX_TERMS = 1 << 20


@dataclass(frozen=True)
class SeriesValue:
    """A numeric value with a rigorous absolute error bound."""

    value: float
    error_bound: float

    def __post_init__(self):
        if not self.error_bound >= 0.0:
            raise DomainError(f"error_bound must be >= 0, got {self.error_bound}")


@dataclass(frozen=True)
class CoefficientRule:
    """A coefficient map n -> c_n, defined for integer n >= start.

    ``func`` must accept a float64 numpy array and return the coefficients
    elementwise.  The evaluators in this module require c_n >= 0 and
    nonincreasing on n >= start: that is what validates the geometric tail
    bound c_{N+1} r^{N+1} / (1 - r) and the alternating remainder bound.
    """

    func: Callable[[np.ndarray], np.ndarray]
    start: int
    name: str = ""

    def __post_init__(self):
        if self.start < 1:
            raise DomainError(f"start must be >= 1, got {self.start}")

    def terms(self, n) -> np.ndarray:
        return np.asarray(self.func(np.asarray(n, dtype=np.float64)), dtype=np.float64)

    def term(self, n: int) -> float:
        return float(self.terms(np.array([float(n)]))[0])


def _geometric_tail(rule: CoefficientRule, n_last: int, x_abs: float) -> float:
    # Valid for nonnegative nonincreasing c_n: the tail is dominated by
    # c_{N+1} * x^{N+1} * (1 + x + x^2 + ...).
    return rule.term(n_last + 1) * x_abs ** (n_last + 1) / (1.0 - x_abs)


def signed_power_series(
    rule: CoefficientRule,
    x: float,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """sum_{n>=start} c_n x^n for -1 < x < 1, with error_bound <= tol."""
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if not -1.0 < x < 1.0:
        raise DomainError(f"argument must satisfy |x| < 1, got {x}")
    if x == 0.0:
        return SeriesValue(0.0, 0.0)

    x_abs = abs(x)
    n_last = max(rule.start + 8, 16)
    while _geometric_tail(rule, n_last, x_abs) > 0.25 * tol and n_last < max_terms:
        n_last = min(2 * n_last, max_terms)
    tail = _geometric_tail(rule, n_last, x_abs)

    ns = np.arange(rule.start, n_last + 1, dtype=np.float64)
    coeffs = rule.terms(ns)
    powers = np.power(x, ns)
    value = float(np.dot(coeffs, powers))
    s_abs = float(np.sum(np.abs(coeffs * powers)))
    # Rounding budget: pairwise summation (log-depth) plus a couple of ulps
    # per term for the power and product.
    rounding = _EPS * (math.log2(ns.size) + 8.0) * s_abs
    err = tail + rounding

    if err > tol:
        achieved = SeriesValue(value, err)
        name = f" {rule.name!r}" if rule.name else ""
        raise ConvergenceError(
            f"power series{name} at x={x!r} did not reach tol={tol:g} "
            f"with {ns.size} terms (error bound {err:g})",
            achieved=achieved,
        )
    return SeriesValue(value, err)


def sum_power_series(
    rule: CoefficientRule,
    r: float,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesValue:
    """sum_{n>=start} c_n r^n for 0 <= r < 1, with error_bound <= tol."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"argument must satisfy 0 <= r < 1, got {r}")
    return signed_power_series(rule, r, tol=tol, max_terms=max_terms)


def log_tail(r: float) -> float:
    """sum_{n>=2} r^n / n = -ln(1-r) - r for 0 <= r < 1."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"argument must satisfy 0 <= r < 1, got {r}")
    return -math.log1p(-r) - r


def alt_log_tail(r: float) -> float:
    """sum_{n>=2} (-1)^(n-1) r^n / n = ln(1+r) - r for 0 <= r <= 1.

    Converges at r = 1 (value ln 2 - 1) by the alternating series test.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"argument must satisfy 0 <= r <= 1, got {r}")
    return math.log1p(r) - r


def nn1_tail(r: float) -> float:
    """sum_{n>=2} r^n / (n(n-1)) = r + (1-r) ln(1-r) for 0 <= r <= 1.

    Continuous up to r = 1 where the value is 1.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"argument must satisfy 0 <= r <= 1, got {r}")
    if r == 1.0:
        return 1.0
    return r + (1.0 - r) * math.log1p(-r)


def alt_nn1_tail(r: float) -> float:
    """sum_{n>=2} (-1)^(n-1) r^n / (n(n-1)) = r - (1+r) ln(1+r) for 0 <= r <= 1."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"argument must satisfy 0 <= r <= 1, got {r}")
    return r - (1.0 + r) * math.log1p(r)


def _averaging_triangle(terms: np.ndarray) -> tuple[float, float, float]:
    """Collapse alternating partial sums by repeated pairwise averaging.

    For term sequences that are moments of a measure on [0, 1] (every rule
    in this package is of that form), each averaging level produces a row of
    values that bracket the limit, so half the final gap is a rigorous
    truncation bound.  Returns (value, half_gap, scale) where scale bounds
    the magnitude of every intermediate quantity for rounding analysis.
    """
    s = np.cumsum(terms)
    scale = float(np.max(np.abs(s)))
    while s.shape[0] > 2:
        s = 0.5 * (s[:-1] + s[1:])
    value = 0.5 * float(s[0] + s[1])
    half_gap = 0.5 * abs(float(s[1] - s[0]))
    return value, half_gap, scale


def alt_constant(
    rule: CoefficientRule,
    tol: float = 1e-12,
    first_sign: int = -1,
    max_terms: int = 100_000,
) -> SeriesValue:
    """sum_{n>=start} s(n) c_n where signs alternate and s(start) = first_sign.

    Requires c_n > 0, nonincreasing, and c_n -> 0; the positivity and
    monotonicity preconditions are checked on the window actually used.
    Acceleration by iterated averaging means a few hundred terms reach
    near machine precision even for slowly decaying c_n.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if first_sign not in (-1, 1):
        raise DomainError(f"first_sign must be -1 or +1, got {first_sign}")

    best: SeriesValue | None = None
    m = 32
    while True:
        m = min(m, max_terms)
        ns = np.arange(rule.start, rule.start + m, dtype=np.float64)
        c = rule.terms(ns)
        if not np.all(c > 0.0):
            raise DomainError("alternating sum requires strictly positive terms")
        if np.any(np.diff(c) > _EPS * c[0]):
            raise DomainError("alternating sum requires nonincreasing terms")
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        value, half_gap, scale = _averaging_triangle(signs * c)
        rounding = 2.0 * _EPS * (m + 2) * scale
        err = half_gap + rounding
        best = SeriesValue(first_sign * value, err)
        if err <= tol:
            return best
        if m >= max_terms or rounding > tol:
            raise ConvergenceError(
                f"alternating sum did not reach tol={tol:g} with {m} terms "
                f"(error bound {err:g})",
                achieved=best,
            )
        m *= 2


def g_alt_constant(k: int, alpha: float, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=1} (-1)^n / (1 + n*k*alpha) for integer k >= 1 and alpha > 0.

    Equals -integral_0^1 t^(k*alpha) / (1 + t^(k*alpha)) dt, which makes a
    convenient independent cross-check; the accelerated alternating sum is
    the implementation.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    ka = float(k) * float(alpha)
    rule = CoefficientRule(lambda n: 1.0 / (1.0 + n * ka), start=1, name="g-alt")
    return alt_constant(rule, tol=tol, first_sign=-1)
