"""Series evaluation with explicit absolute error bounds, for one lane or many.

Every infinite sum in the package flows through here, summed by one idea
at a fixed cost: a direct head of 32 terms, then a tail closed from the
ratios (-1)^k f^(k)(N) / f(N) of the completely monotone f whose values
are the terms.  A sum of positive terms takes Euler-Maclaurin's tail
(``_euler_maclaurin``): the Lerch sums sum_m r^m/(c + s m) with 0 <= r < 1,
and wh-alpha's sum_n r^n/(n (1 - alpha + alpha n)) with its derivative.  An
alternating sum takes Boole's tail (``_boole``), its alternating form,
with 0 <= x <= 1: the same two sums with signs (-1)^m, which give the
distance constants (x = 1) and the lower growth envelopes (x = r), and
whose heads are added as pairs that do not cancel.  The elementary closed
forms for the logarithmic coefficient families are here too.  No
evaluator takes a negative argument, and none takes a tolerance: each
returns its own certified bound.

A lane is one sum: one argument, with one set of parameters.  The
evaluators take a 1-D array of arguments and per-lane parameters (arrays
that broadcast against it), and sum all lanes in one numpy pass, the
32-term heads in blocks of lanes (``_head_sums``).  Each lane
keeps its own error bound, and lanes are never mixed in a reduction (no
BLAS dot across lanes, whose accumulation order depends on the batch
shape), so every lane's value is bit for bit what it would be alone.  A
scalar call is the one-lane case.

All evaluators return a :class:`SeriesValue`, a value paired with a rigorous
absolute error bound (floats for a scalar call, arrays over lanes), so
downstream code (the root solver, the verifier) can propagate numerical
uncertainty instead of guessing at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DomainError

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)

# Lanes x terms of a head built and summed at once: each temporary is at
# most 64 KB, so it stays in cache and in memory the allocator already
# holds.  With 128 KB blocks the benchmark's two 1001-point scans take
# about 100 minor page faults per operation, with 8 MB blocks about 600.
_BLOCK = 1 << 13

# The m of the terms a Lerch sum adds directly, before its Euler-Maclaurin
# tail from N = 32.
_LERCH_M = np.arange(32.0)

# B_2j / (2j)! for j = 1..7, as a column: six Euler-Maclaurin corrections,
# and the seventh as the remainder bound.
_BERNOULLI = np.array([[1 / 6], [-1 / 30], [1 / 42], [-1 / 30], [5 / 66], [-691 / 2730], [7 / 6]])
_BERNOULLI /= [[math.factorial(2 * j)] for j in range(1, 8)]

# -E_k(0) / (2 k!) for k = 2j - 1, j = 1..7, as a column: six Boole
# corrections, and the seventh for the remainder bound.  E_k(0) =
# -2 (2^(k+1) - 1) B_(k+1) / (k + 1) (DLMF §24.4) makes them
# (4^j - 1) B_2j / (2j)!: 1/4, -1/48, 1/480, ...
_BOOLE = _BERNOULLI * (4.0 ** np.arange(1.0, 8.0)[:, None] - 1.0)

# k = 1..13, as a column: the orders of the derivative ratios at N.
_KS = np.arange(1.0, 2.0 * len(_BERNOULLI))[:, None]

# wh-alpha's sums add n = 2..33 directly, before their Euler-Maclaurin tail
# from N = 34.
_WH_N = _LERCH_M.size + 2.0

# The even m: an alternating sum adds its 32 direct terms as the pairs
# (m, m + 1).
_PAIR_M = _LERCH_M[0::2]

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
    c_n >= 0 and nonincreasing on n >= start, which validates the geometric
    tail bound c_{N+1} r^{N+1} / (1 - r) of the verifier's direct sums and
    of its envelope checks; and every c_n is a moment of a positive measure
    on [0, 1], which validates the Euler-mean bound of its direct
    alternating oracle.
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


def _flat_lanes(r, *params, closed=False):
    """The lanes of r and ``params`` broadcast against each other: their
    shape, then r and each parameter as a flat array; 0 <= r < 1, or
    0 <= r <= 1 where ``closed``."""
    r = np.asarray(r, dtype=np.float64)
    ok, bound = ((r <= 1.0), "<=") if closed else ((r < 1.0), "<")
    require((0.0 <= r) & ok, r, f"argument must satisfy 0 <= r {bound} 1")
    shape = np.broadcast(r, *params).shape
    return shape, *(np.broadcast_to(v, shape).ravel() for v in (r, *params))


def _head_sums(count, width, terms, *lanes):
    """Per-lane sums of the ``count`` (lanes x width) arrays that ``terms``
    makes from columns of the flat ``lanes``: one row per array.  Lanes go
    in blocks of _BLOCK // width, so that a head's temporaries keep one
    size whatever the lane count.  The builders write their temporaries in
    place, with the operands and the order of the expressions in their
    docstrings, so each lane's terms keep their bits."""
    sums, step = np.empty((count, lanes[0].size)), _BLOCK // width
    for start in range(0, lanes[0].size, step):
        idx = slice(start, start + step)
        for row, block in zip(sums, terms(*(v[idx, None] for v in lanes))):
            block.sum(axis=1, out=row[idx])
    return sums


def _lerch_terms(r, c, s):
    """r^m / (c + s m) for m < 32, a row per lane column."""
    terms, den = np.power(r, _LERCH_M), s * _LERCH_M
    # c + s m past the float range is inf, and its term the limit 0.
    with np.errstate(over="ignore"):
        den += c
        terms /= den
    return terms


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
    At r = 1 (an alternating sum's x = 1) lam is 0, and so are its powers,
    which are left as 0: numpy's power takes a slow path at a zero base.
    """
    with np.errstate(over="ignore"):
        w = c + s * _LERCH_M.size
    lam = -np.log(np.maximum(r, _TINY))
    u = s / w
    powers = np.power(lam, _KS, out=np.zeros((_KS.size, lam.size)), where=lam > 0.0)
    return lam, r**_LERCH_M.size, w, u, _ratios(powers, u)


def _corrections(f_n, ratios, weights):
    """f(N) times: 1/2 plus six corrections weights[j] ratios[2j], 1/2 plus
    their magnitudes, and the seventh correction's magnitude."""
    corrections = np.array(ratios[0::2])
    corrections *= weights
    first = corrections[:-1]
    return (
        f_n * (0.5 + first.sum(axis=0)),
        f_n * (0.5 + np.abs(first).sum(axis=0)),
        f_n * np.abs(corrections[-1]),
    )


def _euler_maclaurin(head, f_n, integral, size, ratios):
    """head plus the Euler-Maclaurin tail (DLMF 2.10.1) of a completely
    monotone f from N: its integral from N, f(N)/2 and six Bernoulli
    corrections, given ratios[k-1] = (-1)^k f^(k)(N) / f(N) for k = 1..13.

    Returns the value, the remainder bound (the seventh correction, DLMF
    2.10(i)) and the sum of the magnitudes added, in which ``size`` stands
    for the integral's.
    """
    tail, magnitudes, remainder = _corrections(f_n, ratios, _BERNOULLI)
    return head + integral + tail, remainder, head + size + magnitudes


def _boole(head, f_n, ratios):
    """head plus the alternating tail sum_{j>=0} (-1)^j f(N + j) of a
    completely monotone f, given ratios[k-1] = e_k = (-1)^k f^(k)(N) / f(N)
    for k = 1..13: f(N) (1/2 + e_1/4 - e_3/48 + e_5/480 - ...), six
    corrections.  Returns the value, the remainder bound and the sum of the
    magnitudes added.

    Boole's summation formula (DLMF 24.17.1 with h = 0, m = 13, and the
    upper end taken to infinity, where every f^(k) vanishes) gives the tail
    as (1/2) sum_{k<13} E_k(0)/k! f^(k)(N) + R, with
      R = 1/(2 * 12!) int_0^inf f^(13)(N + x) E~_12(-x) dx.
    E_k(0) is 0 for even k >= 2, and for odd k the term is
    -E_k(0)/(2 k!) e_k f(N) (``_BOOLE``).  The periodic Euler function
    E~_12 (DLMF 24.2.11) is E_12 on [0, 1) and changes sign with each unit
    step, and E_12 vanishes on [0, 1] only at 0 and 1 (DLMF 24.12(ii)), so
    E~_12(-x) has a single sign on each unit interval and alternates from
    one to the next, with the same magnitude |E_12| on each (E_12(1 - t) =
    E_12(t)).  f is completely monotone, so -f^(13) is too and |f^(13)|
    decreases: the pieces of R on successive intervals alternate in sign
    and shrink, so |R| is at most the first,
      |R| <= |f^(13)(N)|/(2 * 12!) int_0^1 |E_12| = |E_13(0)|/13! e_13 f(N),
    as int_0^1 E_12 = (E_13(1) - E_13(0))/13 = -2 E_13(0)/13.  That is
    twice the seventh correction's magnitude, which is the bound returned.
    """
    tail, magnitudes, seventh = _corrections(f_n, ratios, _BOOLE)
    return head + tail, 2.0 * seventh, head + magnitudes


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
    (head,) = _head_sums(1, _LERCH_M.size, lambda *lane: [_lerch_terms(*lane)], r, c, s)
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


def _wh_terms(r, c, a):
    """The Lerch sum's terms, and those terms over m + 2: S's terms over r^2."""
    terms = _lerch_terms(r, c, a)
    return terms, terms / (_LERCH_M + 2.0)


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
    lerch_head, head = _head_sums(2, _LERCH_M.size, _wh_terms, r, c, a)
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


def _alt_pairs(x, c, s):
    """The pairs (m, m + 1), m even, of sum (-1)^m x^m / (c + s m):
    x^m ((1 - x) + s/(c + s m))/(c + s (m + 1)), all >= 0."""
    pairs, den = np.power(x, _PAIR_M), s * _PAIR_M
    den += c
    mid = np.divide(s, den)
    mid += 1.0 - x
    pairs *= mid
    np.multiply(s, _PAIR_M + 1.0, out=den)
    den += c
    pairs /= den
    return pairs


def alt_lerch_sum(x, c, s) -> SeriesValue:
    """sum_{m>=0} (-1)^m x^m / (c + s m) for 0 <= x <= 1, c > 0 and s >= 0
    (s > 0 at x = 1), at a fixed cost: the alternating ``lerch_sum``.

    Lanes are as in ``lerch_sum``, and so are the parts: the first 32 terms
    are added directly, as 16 pairs that do not cancel (``_alt_pairs``), and
    the rest is Boole's tail (``_boole``) of the same f(x) = e^(-lam x)/(c +
    s x) from N = 32, with the same ratios e_k (``_lerch_tail``).  At x = 1
    lam is 0 and e_k = k! u^k; at x = 0, x^N = 0 clears the tail.  The
    error bound is Boole's remainder plus 16 eps of the magnitudes added;
    against mpmath the sum stays well within it on all of [0, 1].
    """
    shape, x, c, s = _flat_lanes(x, c, s, closed=True)
    (head,) = _head_sums(1, _PAIR_M.size, lambda *lane: [_alt_pairs(*lane)], x, c, s)
    _, x_n, w, _, ratios = _lerch_tail(x, c, s)
    value, remainder, size = _boole(head, x_n / w, ratios)
    return lane_value(value.reshape(shape), (remainder + _LERCH_ROUNDING * size).reshape(shape))


def _wh_alt_pairs(r, c, a):
    """The pairs (n, n + 1), n = m + 2 even, of wh-alpha's alternating sum
    over r^2: with q = 1 - alpha + alpha n = c + alpha m, r^m ((1 - r) n q +
    q + alpha (n + 1))/(n q (n + 1) (q + alpha)), all >= 0."""
    n, q = _PAIR_M + 2.0, a * _PAIR_M
    q += c
    top = (1.0 - r) * n
    top *= q
    top += q
    top += a * (n + 1.0)
    den = q + a
    den *= n + 1.0
    q *= n  # now n q
    den *= q
    pairs = np.power(r, _PAIR_M)
    pairs *= top
    pairs /= den
    return pairs


def _wh_alt(r, alpha) -> SeriesValue:
    """sum_{n>=2} (-1)^n r^n / (n (1 - alpha + alpha n)) for 0 <= r <= 1 and
    0 <= alpha <= 1, at a fixed cost: the alternating form of ``_wh_sums``'s
    S, with its lanes, its head n = 2..33 and its tail from N = 34.

    The head is 16 pairs that do not cancel (``_wh_alt_pairs``), and the
    tail Boole's (``_boole``) for S's f, from the Leibniz ratios d_k of
    ``_wh_sums``.  The error bound is Boole's remainder, 16 eps of the
    magnitudes added and, as for S, a few subnormals where the powers
    underflow.  At r = 0 the sum is exactly 0, bound 0.
    """
    shape, r, a = _flat_lanes(r, alpha, closed=True)
    c = 1.0 + a
    (head,) = _head_sums(1, _PAIR_M.size, lambda *lane: [_wh_alt_pairs(*lane)], r, c, a)
    _, r_m, w, _, ratios = _lerch_tail(r, c, a)
    r_n = r * r * r_m
    value, remainder, size = _boole(r * r * head, r_n / (_WH_N * w), _ratios(ratios, 1.0 / _WH_N))
    error = remainder + _LERCH_ROUNDING * size + _underflow_floor(r, 1.0, _LERCH_M.size)
    return lane_value(value.reshape(shape), error.reshape(shape))


def capped_product(k, alpha):
    """k * alpha for k >= 1 (an integer, or an array of them) and alpha > 0,
    capped at 1e300 so that it stays finite: the sums 1/(1 + n k alpha) are
    below 1e-300 there.  Below the cap it is the plain product."""
    k = np.asarray(k, dtype=np.float64)
    return np.minimum(alpha, 1e300 / k) * k
