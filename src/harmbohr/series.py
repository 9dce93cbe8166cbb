"""Series evaluation with explicit absolute error bounds, for one lane or many.

Every infinite sum in the package flows through here: positive power series
truncated against a geometric tail bound, Lerch sums sum_m r^m/(c + s m)
by Euler-Maclaurin at a fixed cost, alternating constant series summed by the
Cohen-Rodriguez Villegas-Zagier (CRVZ) acceleration, and the elementary
closed forms for the logarithmic coefficient families.

A lane is one sum: one argument, with one set of coefficient parameters.
The evaluators take a 1-D array of arguments and a rule whose parameters are
per-lane columns, and sum all lanes in one numpy pass.  Each lane still picks
its own term count and keeps its own error bound, and lanes are never mixed
in a reduction (no BLAS dot across lanes, whose accumulation order depends
on the batch shape), so every lane's value is bit for bit what it would be
alone.  A scalar call is the one-lane case.

All evaluators return a :class:`SeriesValue`, a value paired with a rigorous
absolute error bound (floats for a scalar call, arrays over lanes), so
downstream code (the root solver, the verifier) can propagate numerical
uncertainty instead of guessing at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(np.float64).eps)

# Most terms a power series sums per lane.
_MAX_TERMS = 1 << 20

# Largest lanes x terms block summed at once: no more than one lane of
# _MAX_TERMS, so that many lanes near r = 1 do not exhaust memory.
_BLOCK = 1 << 20

# CRVZ convergence rate per term, and the most terms an alternating sum uses:
# 2 / (3 + sqrt 8)^40 is below 1e-30, far under any reachable rounding.
_CRVZ_RATE = 3.0 + math.sqrt(8.0)
_CRVZ_MAX_TERMS = 40

# The m of the terms a Lerch sum adds directly, before its Euler-Maclaurin
# tail from N = 32.
_LERCH_M = np.arange(32.0)

# B_2j / (2j)! for j = 1..7, as a column: six Euler-Maclaurin corrections,
# and the seventh as the remainder bound.
_BERNOULLI = np.array([[1 / 6], [-1 / 30], [1 / 42], [-1 / 30], [5 / 66], [-691 / 2730], [7 / 6]])
_BERNOULLI /= [[math.factorial(2 * j)] for j in range(1, 8)]

# Rounding allowance of a Lerch sum per unit of the magnitudes it adds:
# against mpmath its error stays below 3 eps of them, for r up to 1 - 1e-12
# and c/s from 1e-9 to 1e9.
_LERCH_ROUNDING = 16.0 * _EPS

# (-1)^(n+1) / (n n!) for n = 1..20, the coefficients of E1's power series
# below y = 1 (the 21st is under 1e-21).
_E1_SERIES_N = np.arange(1.0, 21.0)
_E1_SERIES = (-1.0) ** (_E1_SERIES_N + 1) / (_E1_SERIES_N * np.cumprod(_E1_SERIES_N))


@dataclass(frozen=True)
class SeriesValue:
    """A numeric value with a rigorous absolute error bound, or arrays of
    both with one entry per lane."""

    value: float
    error_bound: float

    def __post_init__(self):
        ok = self.error_bound >= 0.0
        if not (ok if isinstance(ok, bool) else ok.all()):
            raise DomainError(f"error_bound must be >= 0, got {self.error_bound}")


@dataclass(frozen=True)
class CoefficientRule:
    """A coefficient map n -> c_n, defined for integer n >= start.

    ``func(n, *params)`` must accept a float64 numpy array n and return the
    coefficients elementwise.  Each of ``params`` is a scalar, or a column of
    shape (L, 1) holding one value per lane, which ``func`` broadcasts
    against n to give one row of coefficients per lane.  The evaluators in
    this module require c_n >= 0 and nonincreasing on n >= start: that is
    what validates the geometric tail bound c_{N+1} r^{N+1} / (1 - r) and the
    alternating remainder bound.
    """

    func: Callable[..., np.ndarray]
    start: int
    name: str = ""
    params: tuple = ()

    def __post_init__(self):
        if self.start < 1:
            raise DomainError(f"start must be >= 1, got {self.start}")

    def terms(self, n) -> np.ndarray:
        return np.asarray(
            self.func(np.asarray(n, dtype=np.float64), *self.params), dtype=np.float64
        )

    def term(self, n: int) -> float:
        return float(self.terms(np.array([float(n)]))[0])

    @property
    def per_lane(self) -> bool:
        return any(np.ndim(p) for p in self.params)

    def lanes(self, idx) -> "CoefficientRule":
        """The rule restricted to the lanes ``idx``."""
        if not self.per_lane:
            return self
        params = tuple(p if np.ndim(p) == 0 else p[idx] for p in self.params)
        return CoefficientRule(self.func, self.start, self.name, params)


def as_param(value):
    """A rule parameter: scalars stay scalars, a 1-D array of lane values
    becomes a column of shape (L, 1)."""
    return value if np.ndim(value) == 0 else np.asarray(value, dtype=np.float64)[:, None]


def require(ok, values, message: str, error=DomainError) -> None:
    """Raise ``error`` naming the first of ``values`` where ``ok`` (a bool,
    or a boolean array of the same shape) is False."""
    if not (ok if isinstance(ok, bool) else ok.all()):
        first = np.reshape(values, -1)[np.argmin(np.reshape(ok, -1))]
        raise error(f"{message}, got {float(first)}")


def _blocks(idx: np.ndarray, width: int):
    """``idx`` in runs of at most _BLOCK // width lanes."""
    step = max(1, _BLOCK // width)
    for i in range(0, idx.size, step):
        yield idx[i : i + step]


def signed_power_series(rule: CoefficientRule, x, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=start} c_n x^n for -1 < x < 1, with error_bound <= tol.

    ``x`` is a float, or a 1-D array with one entry per lane.  Each lane
    sums terms up to the first N of the ladder max(start + 8, 16), doubled up
    to _MAX_TERMS, whose geometric tail is at most tol / 4.  If any lane
    misses tol, ConvergenceError names the first such lane and carries every
    lane's value and bound.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    xs = np.asarray(x, dtype=np.float64).reshape(-1)
    x_abs = np.abs(xs)
    require(x_abs < 1.0, xs, "argument must satisfy |x| < 1")

    n_last = [max(rule.start + 8, 16)]
    while n_last[-1] < _MAX_TERMS:
        n_last.append(min(2 * n_last[-1], _MAX_TERMS))
    # Each lane's term count: the first N on the ladder whose tail bound
    # c_{N+1} x^{N+1} / (1 - x) is at most tol / 4, valid for nonnegative
    # nonincreasing c_n.
    level = np.zeros(xs.size, dtype=np.int64)
    err = rule.terms(np.array([n_last[0] + 1.0])).reshape(-1) * (
        x_abs ** (n_last[0] + 1) / (1.0 - x_abs)
    )
    grow = np.flatnonzero(err > 0.25 * tol)
    for j in range(1, len(n_last)):
        if grow.size == 0:
            break
        n, ax = n_last[j] + 1, x_abs[grow]
        part = rule if grow.size == xs.size else rule.lanes(grow)
        err[grow] = part.terms(np.array([float(n)])).reshape(-1) * (
            ax**n / (1.0 - ax)
        )
        level[grow] = j
        grow = grow[err[grow] > 0.25 * tol]

    value = np.zeros_like(xs)
    levels = sorted(set(level.tolist()))
    for j in levels:
        ns = np.arange(rule.start, n_last[j] + 1, dtype=np.float64)
        # Rounding budget: pairwise summation (log-depth) plus a couple of
        # ulps per term for the power and product.
        rounding = _EPS * (math.log2(ns.size) + 8.0)
        lanes = np.arange(xs.size) if len(levels) == 1 else np.flatnonzero(level == j)
        for idx in _blocks(lanes, ns.size):
            part = rule if idx.size == xs.size else rule.lanes(idx)
            terms = part.terms(ns) * np.power(xs[idx, None], ns)
            value[idx] = terms.sum(axis=1)
            err[idx] += rounding * np.abs(terms).sum(axis=1)

    result = lane_value(value.reshape(np.shape(x)), err.reshape(np.shape(x)))
    failed = np.flatnonzero(err > tol)
    if failed.size:
        i = failed[0]
        name = f" {rule.name!r}" if rule.name else ""
        raise ConvergenceError(
            f"power series{name} at x={float(xs[i])!r} did not reach tol={tol:g} "
            f"with {n_last[level[i]] - rule.start + 1} terms (error bound {float(err[i]):g})",
            achieved=result,
        )
    return result


def sum_power_series(rule: CoefficientRule, r, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=start} c_n r^n for 0 <= r < 1 (a float or one r per lane), with error_bound <= tol."""
    rs = np.asarray(r, dtype=np.float64)
    require((0.0 <= rs) & (rs < 1.0), rs, "argument must satisfy 0 <= r < 1")
    return signed_power_series(rule, rs, tol=tol)


def lane_value(value, error_bound) -> SeriesValue:
    """A SeriesValue of floats for a 0-d value; else of arrays over lanes,
    with the error bound broadcast to the value's shape."""
    if np.ndim(value) == 0:
        return SeriesValue(float(value), float(error_bound))
    value = np.asarray(value, dtype=np.float64)
    return SeriesValue(value, np.zeros_like(value) + error_bound)


def log_tail(r):
    """sum_{n>=2} r^n / n = -ln(1-r) - r for 0 <= r < 1, elementwise on arrays."""
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r < 1.0), r, "argument must satisfy 0 <= r < 1")
    return (-np.log1p(-r) - r)[()]


def alt_log_tail(r: float) -> float:
    """sum_{n>=2} (-1)^(n-1) r^n / n = ln(1+r) - r for 0 <= r <= 1.

    Converges at r = 1 (value ln 2 - 1) by the alternating series test.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"argument must satisfy 0 <= r <= 1, got {r}")
    return math.log1p(r) - r


def nn1_tail(r):
    """sum_{n>=2} r^n / (n(n-1)) = r + (1-r) ln(1-r) for 0 <= r <= 1, elementwise on arrays.

    Continuous up to r = 1 where the value is 1.
    """
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r <= 1.0), r, "argument must satisfy 0 <= r <= 1")
    inside = np.where(r < 1.0, r, 0.0)
    return np.where(r < 1.0, inside + (1.0 - inside) * np.log1p(-inside), 1.0)[()]


def alt_nn1_tail(r: float) -> float:
    """sum_{n>=2} (-1)^(n-1) r^n / (n(n-1)) = r - (1+r) ln(1+r) for 0 <= r <= 1."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"argument must satisfy 0 <= r <= 1, got {r}")
    return r - (1.0 + r) * math.log1p(r)


def _scaled_e1(z):
    """G = y e^y E1(y) for y = 1/z > 0, with G = 1 at z = 0; z a 1-D array.

    For y >= 1, the even contraction of E1's continued fraction (DLMF 6.9.1),
    G = 1/(1 + (1 - t_1) z) with t_n = n^2 / (y + 2n + 1 - t_(n+1)), cut
    after 8 + ceil(100 z) terms: within an ulp of mpmath.  Each lane's term
    count is its own.  For y < 1, the power series E1(y) = -gamma - ln y +
    sum (-1)^(n+1) y^n/(n n!) (DLMF 6.6.2): within 4 eps of mpmath there.
    """
    g = np.empty_like(z)
    near, far = np.flatnonzero(z <= 1.0), np.flatnonzero(z > 1.0)
    if near.size:
        zn = z[near]
        terms = 8.0 + np.ceil(100.0 * zn)
        y = 1.0 / np.maximum(zn, 1e-300)
        ns = np.arange(terms.max(), 0.0, -1.0)
        t = np.zeros_like(zn)
        # t stays 0 down to each lane's own last term.
        for n, takes in zip(ns, ns[:, None] <= terms):
            t = (n * n) * takes / ((y + (2 * n + 1)) - t)
        g[near] = 1.0 / (1.0 + (1.0 - t) * zn)
    if far.size:
        y = 1.0 / z[far]
        ein = (np.power(y[:, None], _E1_SERIES_N) * _E1_SERIES).sum(axis=1)
        g[far] = y * np.exp(y) * ((ein - np.euler_gamma) - np.log(y))
    return g


def lerch_sum(r, c, s) -> SeriesValue:
    """sum_{m>=0} r^m / (c + s m) for 0 <= r < 1, c > 0 and s >= 0, at a fixed cost.

    With s = 1 this is the Lerch transcendent Phi(r, 1, c) (DLMF 25.14.1).
    r, c and s broadcast against each other, one lane per entry; floats give
    a SeriesValue of floats.  Each lane is summed alone, so its value and
    bound do not depend on the other lanes.

    The first 32 terms are added directly.  The rest is Euler-Maclaurin's
    tail (DLMF 2.10.1) of f(x) = e^(-lam x)/(c + s x), lam = -ln r: the
    integral of f from N = 32, plus f(N)/2, plus six Bernoulli corrections.
    f is completely monotone, so the remainder is at most the seventh
    correction (DLMF 2.10(i)); that, plus 16 eps of the magnitudes added, is
    the error bound.  The integral is f(N) G(y)/lam, with G(y) = y e^y E1(y)
    at y = lam w/s, w = c + sN, taken from z = 1/y = s/(lam w): s = 0 (a
    geometric series, G = 1) needs no division by s.  At r = 0, r^N = 0
    clears the whole tail and the sum is 1/c exactly.
    """
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r < 1.0), r, "argument must satisfy 0 <= r < 1")
    shape = np.broadcast(r, c, s).shape
    r, c, s = (np.ravel(v) for v in (r, c, s))
    # c + s m past the float range is inf, and its term the limit 0.
    with np.errstate(over="ignore"):
        head = (np.power(r[:, None], _LERCH_M) / (c[:, None] + s[:, None] * _LERCH_M)).sum(axis=1)
        w = c + s * _LERCH_M.size
    # Finite at r = 0 too, where r^N = 0 multiplies every use of it.
    lam = -np.log(np.maximum(r, np.finfo(np.float64).smallest_subnormal))
    u = s / w
    f_n = r**_LERCH_M.size / w
    integral = f_n * _scaled_e1(u / lam) / lam
    # Differentiating (c + s x) f(x) = e^(-lam x) k times gives
    # (-1)^k f^(k)(N) = f(N) e_k with e_k = lam^k + k u e_(k-1), e_0 = 1:
    # sums of positive terms, so nothing cancels.
    ks = np.arange(1.0, 2.0 * len(_BERNOULLI))[:, None]
    e, odd = np.ones_like(lam), []
    for k, lam_k, ku in zip(ks[:, 0], lam**ks, ks * u):
        e = lam_k + ku * e
        if k % 2:
            odd.append(e)
    corrections = _BERNOULLI * np.array(odd)
    value = head + integral + f_n * (0.5 + corrections[:-1].sum(axis=0))
    size = head + integral + f_n * (0.5 + np.abs(corrections[:-1]).sum(axis=0))
    error = f_n * np.abs(corrections[-1]) + _LERCH_ROUNDING * size
    return lane_value(value.reshape(shape), error.reshape(shape))


@lru_cache(maxsize=None)
def _crvz_weights(n: int) -> np.ndarray:
    """Weights w_k with sum_{k<n} w_k a_k the CRVZ estimate of sum_k (-1)^k a_k.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier runs on integers:
    its d = ((3 + sqrt 8)^n + (3 + sqrt 8)^-n) / 2 is the Chebyshev value
    T_n(3), and its b and c are integer polynomial coefficients.  So it runs
    exactly here, and each weight c / d is rounded once.
    """
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
    weights = np.array(weights)
    weights.flags.writeable = False  # shared by every caller through the cache
    return weights


def _tree_sum(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums by pairwise halving, with the sum of |partial sums| per row.

    Each addition errs by at most half an ulp of its result, so the second
    array times eps/2 bounds the rounding of the sum.  Alternating terms
    cancel at the first level, which keeps that bound far below
    eps * sum |terms|.
    """
    width = 1 << (terms.shape[1] - 1).bit_length()
    level = np.zeros((terms.shape[0], width))
    level[:, : terms.shape[1]] = terms
    nodes = np.zeros(terms.shape[0])
    while level.shape[1] > 1:
        level = level[:, 0::2] + level[:, 1::2]
        nodes += np.abs(level).sum(axis=1)
    return level[:, 0], nodes


def alt_constant(rule: CoefficientRule, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=start} (-1)^(n-start+1) c_n: the signs alternate, and the
    first is -1.

    Summed by the CRVZ acceleration (Cohen, Rodriguez Villegas and Zagier,
    *Exp. Math.* 9, 2000, Algorithm 1).  Its precondition is that the c_n
    are moments c_{start+k} = int_0^1 t^k dmu(t) of a positive measure mu on
    [0, 1]; every rule in this package meets it (1/n and 1/(1 + a n) are
    moments, and so are products of moment sequences).  Then n terms leave a
    truncation error of at most 2 c_start / (3 + sqrt 8)^n, so about 20
    terms reach 1e-13; the rounding bound covers the weights, the terms and
    every partial sum.  The consequences c_n > 0 and nonincreasing
    are checked on the terms used.  A rule with per-lane parameters gives
    one sum per lane, each with its own term count.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")

    c0 = rule.terms(np.array([float(rule.start)])).reshape(-1)
    if not np.all(c0 > 0.0):
        raise DomainError("alternating sum requires strictly positive terms")
    # The fewest terms whose truncation bound is at most tol / 8.
    n_terms = np.ceil(np.log(16.0 * c0 / tol) / math.log(_CRVZ_RATE))
    n_terms = np.clip(n_terms, 1, _CRVZ_MAX_TERMS).astype(np.int64)

    value = np.empty_like(c0)
    err = np.empty_like(c0)
    for n in sorted(set(n_terms.tolist())):
        idx = np.flatnonzero(n_terms == n)
        ns = np.arange(rule.start, rule.start + n, dtype=np.float64)
        part = rule if idx.size == c0.size else rule.lanes(idx)
        c = np.atleast_2d(part.terms(ns))
        if not np.all(c > 0.0):
            raise DomainError("alternating sum requires strictly positive terms")
        if np.any(np.diff(c, axis=1) > _EPS * c[:, :1]):
            raise DomainError("alternating sum requires nonincreasing terms")
        terms = _crvz_weights(int(n)) * c
        total, nodes = _tree_sum(terms)
        value[idx] = -total
        # Rounding: an ulp or two each for the weight, the coefficient and
        # the product, and half an ulp of every partial sum in the tree.
        rounding = _EPS * (4.0 * np.abs(terms).sum(axis=1) + nodes)
        err[idx] = 2.0 * c[:, 0] / _CRVZ_RATE**n + rounding

    shape = c0.shape if rule.per_lane else ()
    best = lane_value(value.reshape(shape), err.reshape(shape))
    failed = np.flatnonzero(err > tol)
    if failed.size:
        i = failed[0]
        raise ConvergenceError(
            f"alternating sum did not reach tol={tol:g} with {n_terms[i]} terms "
            f"(error bound {float(err[i]):g})",
            achieved=best,
        )
    return best


def capped_product(k, alpha):
    """k * alpha for integer k >= 1 and alpha > 0, capped at 1e300 so that it
    stays finite: the lacunary sums 1/(1 + n k alpha) are below 1e-300 there."""
    return np.minimum(alpha, 1e300 / float(k)) * float(k)


def g_alt_constant(k: int, alpha, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=1} (-1)^n / (1 + n*k*alpha) for integer k >= 1 and alpha > 0.

    ``alpha`` may be a 1-D array, one sum per lane.  Equals
    -integral_0^1 t^(k*alpha) / (1 + t^(k*alpha)) dt, which makes a
    convenient independent cross-check; the accelerated alternating sum is
    the implementation.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    alpha = np.asarray(alpha, dtype=np.float64)
    require(alpha > 0.0, alpha, "alpha must be > 0")
    ka = as_param(capped_product(k, alpha))
    rule = CoefficientRule(lambda n, ka: 1.0 / (1.0 + n * ka), 1, "g-alt", (ka,))
    return alt_constant(rule, tol=tol)
