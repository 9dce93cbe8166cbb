"""Series evaluation with explicit absolute error bounds, for one lane or many.

Every infinite sum in the package flows through here: power series
sum c_n r^n with 0 <= r < 1, truncated against a geometric tail bound (with
a bound on their derivative from the same terms); Lerch sums
sum_m r^m/(c + s m) by Euler-Maclaurin at a fixed cost; alternating series
sum (-1)^n c_n x^n with 0 <= x <= 1, summed by the Cohen-Rodriguez
Villegas-Zagier (CRVZ) acceleration, which give the distance constants
(x = 1) and the lower growth envelopes (x = r) by one path; and the
elementary closed forms for the logarithmic coefficient families.  No
evaluator takes a negative argument.

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
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

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


def sum_power_series(
    rule: CoefficientRule, r, tol: float = 1e-12
) -> tuple[SeriesValue, float | np.ndarray]:
    """sum_{n>=start} c_n r^n for 0 <= r < 1 (a float or one r per lane), with
    error_bound <= tol, and an upper bound on its derivative
    sum_{n>=start} n c_n r^(n-1) from the same terms.

    Returns (SeriesValue, slope), the slope a float or an array over lanes:
    0 at r = 0 when start >= 2.  It bounds the derivative for the rules the
    engine takes (c_n >= 0 and nonincreasing), even where n c_n grows.

    Each lane sums terms up to the first N of the ladder max(start + 8, 16),
    doubled up to _MAX_TERMS, whose geometric tail is at most tol / 4.  If
    any lane misses tol, ConvergenceError names the first such lane and
    carries every lane's value and bound.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    rs = np.asarray(r, dtype=np.float64).reshape(-1)
    require((0.0 <= rs) & (rs < 1.0), rs, "argument must satisfy 0 <= r < 1")

    n_last = [max(rule.start + 8, 16)]
    while n_last[-1] < _MAX_TERMS:
        n_last.append(min(2 * n_last[-1], _MAX_TERMS))
    # Each lane's term count: the first N on the ladder whose tail bound
    # c_{N+1} r^{N+1} / (1 - r) is at most tol / 4, valid for nonnegative
    # nonincreasing c_n.
    level = np.zeros(rs.size, dtype=np.int64)
    c_next = np.zeros_like(rs) + rule.terms(np.array([n_last[0] + 1.0])).reshape(-1)
    err = c_next * (rs ** (n_last[0] + 1) / (1.0 - rs))
    grow = np.flatnonzero(err > 0.25 * tol)
    for j in range(1, len(n_last)):
        if grow.size == 0:
            break
        n, rg = n_last[j] + 1, rs[grow]
        part = rule if grow.size == rs.size else rule.lanes(grow)
        c_next[grow] = part.terms(np.array([float(n)])).reshape(-1)
        err[grow] = c_next[grow] * (rg**n / (1.0 - rg))
        level[grow] = j
        grow = grow[err[grow] > 0.25 * tol]

    value = np.zeros_like(rs)
    slope = np.zeros_like(rs)
    levels = sorted(set(level.tolist()))
    for j in levels:
        n = n_last[j]
        ns = np.arange(rule.start, n + 1, dtype=np.float64)
        # Rounding budget: pairwise summation (log-depth) plus a couple of
        # ulps per term for the power and product.
        rounding = _EPS * (math.log2(ns.size) + 8.0)
        lanes = np.arange(rs.size) if len(levels) == 1 else np.flatnonzero(level == j)
        for idx in _blocks(lanes, ns.size):
            part = rule if idx.size == rs.size else rule.lanes(idx)
            ri = rs[idx]
            c = part.terms(ns)
            c_start = c[..., 0]
            terms = np.power(ri[:, None], ns)
            terms *= c
            # Every term is >= 0, so the sum is also the sum of magnitudes
            # that the rounding budget scales.
            value[idx] = terms.sum(axis=1)
            err[idx] += rounding * value[idx] + _underflow_floor(ri, c_start, ns.size)
            # The slope: sum n t_n / r over the terms summed, and past N
            # sum_{n>N} n c_n r^(n-1) <= c_{N+1} r^N ((N+1) - N r) / (1 - r)^2,
            # again for nonincreasing c_n.  Twice the rounding budget covers
            # the products by n, the division and the tail; n times each
            # term's underflow allowance covers that.  The terms array
            # becomes n t_n in place.
            head = np.multiply(terms, ns, out=terms).sum(axis=1)
            head += _underflow_floor(ri, c_start, ns.sum())
            tail = c_next[idx] * ri**n * ((n + 1.0) - n * ri) / (1.0 - ri) ** 2
            slope[idx] = (head / np.where(ri > 0.0, ri, 1.0) + tail) * (1.0 + 2.0 * rounding)
    if rule.start == 1:
        # At r = 0 the one term left of the derivative is c_1.
        slope = np.where(rs > 0.0, slope, rule.terms(np.array([1.0])).reshape(-1))

    result = lane_value(value.reshape(np.shape(r)), err.reshape(np.shape(r)))
    failed = np.flatnonzero(err > tol)
    if failed.size:
        i = failed[0]
        name = f" {rule.name!r}" if rule.name else ""
        raise ConvergenceError(
            f"power series{name} at x={float(rs[i])!r} did not reach tol={tol:g} "
            f"with {n_last[level[i]] - rule.start + 1} terms (error bound {float(err[i]):g})",
            achieved=result,
        )
    return result, (slope.reshape(np.shape(r)) if np.ndim(r) else float(slope[0]))


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
    r, c, s = (np.broadcast_to(v, shape).ravel() for v in (r, c, s))
    head = np.empty_like(r)
    # c + s m past the float range is inf, and its term the limit 0.
    with np.errstate(over="ignore"):
        for idx in _blocks(np.arange(r.size), _LERCH_M.size):
            terms = np.power(r[idx, None], _LERCH_M) / (c[idx, None] + s[idx, None] * _LERCH_M)
            head[idx] = terms.sum(axis=1)
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
