"""Series evaluation with explicit absolute error bounds, for one lane or many.

Every infinite sum in the package flows through here: Lerch sums
sum_m r^m/(c + s m), and wh-alpha's sum_n r^n/(n (1 - alpha + alpha n))
with its derivative, by one Euler-Maclaurin engine at a fixed cost, with
0 <= r < 1; alternating series sum (-1)^n c_n x^n with 0 <= x <= 1, summed
by the Cohen-Rodriguez Villegas-Zagier (CRVZ) acceleration, which give the
distance constants (x = 1) and the lower growth envelopes (x = r) by one
path; and the elementary closed forms for the logarithmic coefficient
families.  No evaluator takes a negative argument.

A lane is one sum: one argument, with one set of coefficient parameters.
The evaluators take a 1-D array of arguments and per-lane parameters (a
rule's columns, or arrays), and sum all lanes in one numpy pass.  Each lane
still picks its own term count and keeps its own error bound, and lanes are
never mixed in a reduction (no BLAS dot across lanes, whose accumulation
order depends on the batch shape), so every lane's value is bit for bit
what it would be alone.  A scalar call is the one-lane case.

All evaluators return a :class:`SeriesValue`, a value paired with a rigorous
absolute error bound (floats for a scalar call, arrays over lanes), so
downstream code (the root solver, the verifier) can propagate numerical
uncertainty instead of guessing at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# Largest lanes x terms block of a Lerch sum's head summed at once, so that
# many lanes do not exhaust memory.
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

# k = 1..13, as a column: the orders of the derivative ratios at N.
_KS = np.arange(1.0, 2.0 * len(_BERNOULLI))[:, None]

# wh-alpha's sums add n = 2..33 directly, before their Euler-Maclaurin tail
# from N = 34.
_WH_N = _LERCH_M.size + 2.0

# Terms of the series of wh-alpha's tail integral for alpha >= 1/2, and
# their signs, as a column.
_EP_TERMS = 10
_EP_SIGNS = (-1.0) ** np.arange(_EP_TERMS + 0.0)[:, None]

# The constant parts of one upward step of F_p and of its error bound.
_EP_STEP = np.array([[1.0], [4.0 * _EPS]])

# Rounding allowance of a Lerch sum per unit of the magnitudes it adds:
# against mpmath its error stays below 3 eps of them, for r up to 1 - 1e-12
# and c/s from 1e-9 to 1e9.
_LERCH_ROUNDING = 16.0 * _EPS

# Rounding allowance of wh-alpha's sum S per unit of the magnitudes it adds.
_WH_ROUNDING = 8.0 * _EPS

# (-1)^(n+1) / (n n!) for n = 1..20, the coefficients of E1's power series
# below y = 1 (the 21st is under 1e-21).
_E1_SERIES_N = np.arange(1.0, 21.0)
_E1_SERIES = (-1.0) ** (_E1_SERIES_N + 1) / (_E1_SERIES_N * np.cumprod(_E1_SERIES_N))


def fields_equal(self, other) -> bool:
    """``==`` for a frozen result whose fields are floats or lane arrays:
    field by field, a float as the generated ``==`` compares it, an array
    by shape and every entry (``np.array_equal``, so NaN is unequal)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        np.array_equal(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        else a is b or a == b
        for a, b in pairs
    )


@dataclass(frozen=True)
class SeriesValue:
    """A numeric value with a rigorous absolute error bound, or arrays of
    both with one entry per lane."""

    value: float
    error_bound: float

    # The generated == would ask numpy for the truth of an array.  Floats
    # still hash as the tuple of fields; arrays do not hash.
    __eq__ = fields_equal

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
    against n to give one row of coefficients per lane.  Every rule here has
    c_n >= 0 and nonincreasing on n >= start: that is what validates the
    alternating remainder bound, and the geometric tail bound
    c_{N+1} r^{N+1} / (1 - r) of the verifier's direct sums.
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


def _underflow_floor(x, c_start, count):
    """Absolute error, beyond the relative budgets, of ``count`` terms c_n x^n
    with x >= 0 (a float or an array over lanes).

    A term whose power x^n is subnormal is only as exact as the subnormal
    grid: the power, scaled by c_n <= c_start, and the product each err by
    up to a smallest subnormal, and a term that underflows to 0 loses all of
    itself.  Twice that covers the rounding of the allowance too.  At x = 0
    every term is exactly 0.  Arithmetic on subnormals is slow, so the
    lanes see one product with them.
    """
    return np.where(x > 0.0, (1.0 + c_start) * (2.0 * count * _TINY), 0.0)


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


def alt_log_tail(r):
    """sum_{n>=2} (-1)^(n-1) r^n / n = ln(1+r) - r for 0 <= r <= 1, elementwise on arrays.

    Converges at r = 1 (value ln 2 - 1) by the alternating series test.
    """
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r <= 1.0), r, "argument must satisfy 0 <= r <= 1")
    return (np.log1p(r) - r)[()]


def nn1_tail(r):
    """sum_{n>=2} r^n / (n(n-1)) = r + (1-r) ln(1-r) for 0 <= r <= 1, elementwise on arrays.

    Continuous up to r = 1 where the value is 1.
    """
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r <= 1.0), r, "argument must satisfy 0 <= r <= 1")
    inside = np.where(r < 1.0, r, 0.0)
    return np.where(r < 1.0, inside + (1.0 - inside) * np.log1p(-inside), 1.0)[()]


def alt_nn1_tail(r):
    """sum_{n>=2} (-1)^(n-1) r^n / (n(n-1)) = r - (1+r) ln(1+r) for 0 <= r <= 1,
    elementwise on arrays."""
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r <= 1.0), r, "argument must satisfy 0 <= r <= 1")
    return (r - (1.0 + r) * np.log1p(r))[()]


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


def _flat_lanes(r, *params):
    """The lanes of r and ``params`` broadcast against each other: their
    shape, then r and each parameter as a flat array; 0 <= r < 1."""
    r = np.asarray(r, dtype=np.float64)
    require((0.0 <= r) & (r < 1.0), r, "argument must satisfy 0 <= r < 1")
    shape = np.broadcast(r, *params).shape
    return shape, *(np.broadcast_to(v, shape).ravel() for v in (r, *params))


def _lerch_heads(r, c, s, *divisors):
    """sum_{m<32} r^m / (c + s m) over flat lanes (r, c, s), then the same
    sum with term m divided by d[m] for each array d of ``divisors``: one
    row per sum, with an entry per lane."""
    sums, step = np.empty((1 + len(divisors), r.size)), _BLOCK // _LERCH_M.size
    for start in range(0, r.size, step):
        idx = slice(start, start + step)
        # c + s m past the float range is inf, and its term the limit 0.
        with np.errstate(over="ignore"):
            terms = np.power(r[idx, None], _LERCH_M) / (c[idx, None] + s[idx, None] * _LERCH_M)
        sums[0, idx] = terms.sum(axis=1)
        for row, d in zip(sums[1:], divisors):
            row[idx] = (terms / d).sum(axis=1)
    return sums


def _ratios(first, v):
    """x_k = first[k-1] + k v x_(k-1) for k = 1..13, from x_0 = 1."""
    x, ratios = 1.0, []
    for term, kv in zip(first, _KS * v):
        x = term + kv * x
        ratios.append(x)
    return ratios


def _lerch_tail(r, c, s):
    """What the tail of a Lerch sum from N = 32 starts from, over flat
    lanes: lam = -ln r, r^N, w = c + sN, u = s/w, and the ratios
    e_k = (-1)^k f^(k)(N) / f(N), k = 1..13, of f(x) = e^(-lam x)/(c + s x).

    Differentiating (c + s x) f(x) = e^(-lam x) k times gives
    e_k = lam^k + k u e_(k-1), e_0 = 1: sums of positive terms, so nothing
    cancels.  lam is finite at r = 0 too, where r^N = 0 clears every use.
    """
    with np.errstate(over="ignore"):
        w = c + s * _LERCH_M.size
    lam = -np.log(np.maximum(r, _TINY))
    u = s / w
    return lam, r**_LERCH_M.size, w, u, _ratios(lam**_KS, u)


def _euler_maclaurin(head, f_n, integral, size, ratios):
    """head plus the Euler-Maclaurin tail (DLMF 2.10.1) of a completely
    monotone f from N: its integral from N, f(N)/2 and six Bernoulli
    corrections, given ratios[k-1] = (-1)^k f^(k)(N) / f(N) for k = 1..13.

    Returns the value, the remainder bound (the seventh correction, DLMF
    2.10(i)) and the sum of the magnitudes added, in which ``size`` stands
    for the integral's.
    """
    corrections = np.array(ratios[0::2])
    corrections *= _BERNOULLI
    value = head + integral + f_n * (0.5 + corrections[:-1].sum(axis=0))
    size = head + size + f_n * (0.5 + np.abs(corrections[:-1]).sum(axis=0))
    return value, f_n * np.abs(corrections[-1]), size


def _lerch_close(head, f_n, g, lam, ratios):
    """A Lerch sum's value and bound from its head, f(N) = r^N / w, G, lam
    and its ratios: the integral from N is f(N) G / lam."""
    integral = f_n * g / lam
    value, remainder, size = _euler_maclaurin(head, f_n, integral, integral, ratios)
    return value, remainder + _LERCH_ROUNDING * size


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
    shape, r, c, s = _flat_lanes(r, c, s)
    (head,) = _lerch_heads(r, c, s)
    lam, r_n, w, u, ratios = _lerch_tail(r, c, s)
    value, error = _lerch_close(head, r_n / w, _scaled_e1(u / lam), lam, ratios)
    return lane_value(value.reshape(shape), error.reshape(shape))


def _expint_series(z, f_1, t):
    """sum_{j<10} (-t)^j F_(j+2)(z), with F_p(z) = e^z E_p(z), from F_1 and
    0 <= t <= 1/34, over lanes: the sum, the sum of its terms' magnitudes
    and an error bound.

    F_p comes upward by p F_(p+1) = 1 - z F_p (DLMF 8.19.12), which
    multiplies F_p's error by z/p each step.  A bound b_p on that error
    steps along with it: the true z F_p is below 1 (DLMF 8.19.21), so the
    computed step errs by at most (z b_p (1 + 3 eps) + 4 eps)/p, from
    b_1 = 8 eps F_1.  The terms alternate in sign and shrink, so the
    series' remainder is at most t^10 F_12(z) <= t^10/(z + 11).
    """
    coef = np.array([-z, z * (1.0 + 4.0 * _EPS)])
    state, steps = np.array([f_1, 8.0 * _EPS * f_1]), np.empty((_EP_TERMS, 2, z.size))
    for p in range(1, _EP_TERMS + 1):
        state = steps[p - 1] = (coef * state + _EP_STEP) / p
    weights = np.empty((_EP_TERMS + 1, z.size))
    weights[0], weights[1:] = 1.0, t
    np.cumprod(weights, axis=0, out=weights)
    terms = _EP_SIGNS * weights[:-1] * steps[:, 0]
    bound = (weights[:-1] * steps[:, 1]).sum(axis=0) + weights[-1] / (z + (_EP_TERMS + 1.0))
    return terms.sum(axis=0), np.abs(terms, out=terms).sum(axis=0), bound


def _wh_sums(r, alpha) -> tuple[SeriesValue, SeriesValue]:
    """S = sum_{n>=2} r^n / (n (1 - alpha + alpha n)) and its derivative
    S' = sum_{n>=2} r^(n-1) / (1 - alpha + alpha n) = r lerch_sum(r, 1 + alpha,
    alpha), for 0 <= r < 1 and 0 <= alpha <= 1, at a fixed cost.  Lanes are
    as in ``lerch_sum``, and S' is r times that sum, bit for bit, with r
    times its bound plus the underflow allowance below.

    S is summed as the Lerch sum is, from the same head powers, ratios e_k
    and G: f(x) = e^(-lam x)/(x (1 - alpha + alpha x)) is g(x)/x, with g
    the Lerch sum's f shifted by 2, so n = 2..33 are added directly and the
    Euler-Maclaurin tail runs from N = 34.  f is completely monotone, as a
    product of two such functions, and Leibniz's rule gives its ratios
    d_k = e_k + k d_(k-1)/N, d_0 = 1, all positive.  With z = lam N and
    F_p(z) = e^z E_p(z), F_1 = G(z)/z, f's integral from N is
      * for alpha < 1/2, by partial fractions with c = (1 - alpha)/alpha,
        (E1(z) - e^(lam c) E1(lam (N + c)))/(1 - alpha), the second term
        being alpha r^N G(lam w/alpha)/(lam w) with the Lerch sum's G.  The
        two cancel as alpha nears 1/2 and r nears 1, so the rounding
        allowance counts both;
      * for alpha >= 1/2, expanding 1/(x (x + (1 - alpha)/alpha)) in
        powers of 1/x, r^N/(alpha N) sum_j (-t)^j F_(j+2)(z) with
        t = (1 - alpha)/(alpha N) (``_expint_series``): its F_p carry
        errors that grow by z/p per step, against the tail's factor
        r^N = e^(-z).
    S's error bound is the Euler-Maclaurin remainder and that series'
    bound, plus 8 eps of the magnitudes added (a term is within 3 eps,
    numpy adds 32 terms in a tree of depth 7, and G is within 4 eps), plus
    a few subnormals where the powers underflow.  Against mpmath, S stays
    within 0.27 of its bound for r up to 1 - 1e-12.
    """
    shape, r, a = _flat_lanes(r, alpha)
    c = 1.0 + a
    lerch_head, head = _lerch_heads(r, c, a, _LERCH_M + 2.0)
    lam, r_m, w, u, ratios = _lerch_tail(r, c, a)
    z = _WH_N * lam
    g = _scaled_e1(np.concatenate([u / lam, 1.0 / z]))
    g, f_1 = g[: r.size], g[r.size :] / z
    lerch, lerch_error = _lerch_close(lerch_head, r_m / w, g, lam, ratios)

    # The partial fractions on every lane, with 1 - alpha kept off 0 where
    # the series of E_p is taken instead: E1(z) and
    # alpha e^(lam c) E1(lam (N + c)).
    r_n = r * r * r_m
    first, second = r_n * f_1, a * r_n * g / (lam * w)
    high = a >= 0.5
    one_less = np.where(high, 1.0, 1.0 - a)
    integral, size = (first - second) / one_less, (first + second) / one_less
    a_high, scale = a[high], r_n[high] / (a[high] * _WH_N)
    total, mags, bound = _expint_series(z[high], f_1[high], (1.0 - a_high) / (a_high * _WH_N))
    integral[high], size[high] = scale * total, scale * mags
    f_n = r_n / (_WH_N * w)
    value, remainder, size = _euler_maclaurin(
        r * r * head, f_n, integral, size, _ratios(ratios, 1.0 / _WH_N)
    )
    floor = _underflow_floor(r, 1.0, _LERCH_M.size)
    error = remainder + _WH_ROUNDING * size + floor
    error[high] += scale * bound
    slope = lane_value((r * lerch).reshape(shape), (r * lerch_error + floor).reshape(shape))
    return lane_value(value.reshape(shape), error.reshape(shape)), slope


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


def alt_constant(rule: CoefficientRule, x=1.0, tol: float = 1e-12) -> SeriesValue:
    """sum_{n>=start} (-1)^(n-start+1) c_n x^n for 0 <= x <= 1: the signs
    alternate, and the first is -1.

    Summed by the CRVZ acceleration (Cohen, Rodriguez Villegas and Zagier,
    *Exp. Math.* 9, 2000, Algorithm 1).  Its precondition is that the terms
    are moments c_{start+k} x^(start+k) = int_0^1 t^k dnu(t) of a positive
    measure nu on [0, 1].  Every rule in this package has c_n moments of
    some mu (1/n and 1/(1 + a n) are moments, and so are products of moment
    sequences), and then so are the c_n x^n: nu is x^start times the
    push-forward of mu by t -> x t.  So x = 1 gives the distance constants
    and x = r the lower growth envelopes, by one path.  n terms leave a
    truncation error of at most 2 c_start x^start / (3 + sqrt 8)^n, so
    about 20 terms reach 1e-13; the rounding bound covers the weights, the
    terms and every partial sum, and an absolute allowance covers the terms
    whose power x^n is subnormal.  The consequences c_n > 0 and
    nonincreasing are checked on the c_n used.

    ``x`` is a float or a 1-D array, one sum per lane, and a rule with
    per-lane parameters gives one sum per lane too; each lane has its own
    term count.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    xs = np.asarray(x, dtype=np.float64)
    require((0.0 <= xs) & (xs <= 1.0), xs, "argument must satisfy 0 <= x <= 1")

    c0 = rule.terms(np.array([float(rule.start)])).reshape(-1)
    if not np.all(c0 > 0.0):
        raise DomainError("alternating sum requires strictly positive terms")
    # The first term of each lane.
    first = c0 * xs.reshape(-1) ** rule.start
    # The fewest terms whose truncation bound is at most tol / 8.
    n_terms = np.ceil(np.log(16.0 * np.maximum(first, _TINY) / tol) / math.log(_CRVZ_RATE))
    n_terms = np.clip(n_terms, 1, _CRVZ_MAX_TERMS).astype(np.int64)

    value = np.empty_like(first)
    err = np.empty_like(first)
    for n in sorted(set(n_terms.tolist())):
        idx = np.flatnonzero(n_terms == n)
        ns = np.arange(rule.start, rule.start + n, dtype=np.float64)
        part = rule if idx.size == first.size else rule.lanes(idx)
        c = np.atleast_2d(part.terms(ns))
        if not np.all(c > 0.0):
            raise DomainError("alternating sum requires strictly positive terms")
        if np.any(np.diff(c, axis=1) > _EPS * c[:, :1]):
            raise DomainError("alternating sum requires nonincreasing terms")
        # One x for all lanes, or each lane's own.
        xi = xs[idx] if xs.ndim else xs
        terms = _crvz_weights(int(n)) * np.power(xi[..., None], ns) * c
        total, nodes = _tree_sum(terms)
        value[idx] = -total
        # Rounding: an ulp or two each for the weight, the coefficient, the
        # power and the products, and half an ulp of every partial sum in
        # the tree.
        rounding = _EPS * (4.0 * np.abs(terms).sum(axis=1) + nodes)
        floor = _underflow_floor(xi, c[:, 0], n)
        err[idx] = 2.0 * first[idx] / _CRVZ_RATE**n + rounding + floor

    shape = first.shape if rule.per_lane or np.ndim(x) else ()
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
    """k * alpha for k >= 1 (an integer, or an array of them) and alpha > 0,
    capped at 1e300 so that it stays finite: the sums 1/(1 + n k alpha) are
    below 1e-300 there.  Below the cap it is the plain product."""
    k = np.asarray(k, dtype=np.float64)
    return np.minimum(alpha, 1e300 / k) * k
