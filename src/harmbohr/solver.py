"""Construction and solution of the Bohr-radius equation, one grid at a time.

For each family the radius is the unique root in (0, 1) of H(r) = B(r) - d*,
where B is the majorant sum and d* the distance constant from
:mod:`harmbohr.classes`.  All coefficient bounds are nonnegative, so H is
convex and increasing with H' >= 1, and B(r) >= r puts the root in [0, d*]:
Newton's method started at d* falls monotonically onto it (Fourier's
condition; Ostrowski, *Solution of Equations and Systems of Equations*,
ch. 9), in five to seven steps.  Each H(x) in [v - e, v + e] certifies a
bracket: H' >= 1 gives |x - root| <= |v| + e, and convexity gives
root <= x - (v - e)/H'(x) when v > e.  Steps that leave the bracket fall
back to the midpoint; points where a series cannot be summed lower a
ceiling and the iterate retreats below them.  Two families admit
closed-form radii as roots of explicit quadratics, used both as fast paths
and as cross-checks.

The solver works on lanes.  A lane is one parameter point of one family,
with the family's other parameters fixed; ``solve_radii`` stacks a grid of
points into a lane spec and runs Newton on every lane at once, so each step
is one numpy pass over the lanes still open (one B and one H' evaluation)
instead of one Python solve per point.  Each lane keeps its own bracket,
iterate, ceiling, step count and stopping rule, and lanes never share a
reduction, so every lane ends exactly where it would alone:
``solve_radius`` is the one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .classes import (
    FAMILIES,
    ClassSpec,
    Family,
    bohr_sum,
    distance_bound,
    stack_lanes,
    take_lanes,
    validate,
)
from .errors import ConvergenceError, DomainError
from .series import SeriesValue, require

_EPS = 2.0**-52

# Rounding allowance per unit magnitude of H = B - d*, which neither the
# closed-form majorants (error 0) nor the series bounds include.
_ROUNDING = 8.0 * _EPS

_BELOW_ONE = math.nextafter(1.0, 0.0)


class Method(str, Enum):
    """How a radius was obtained; ``BISECTION_NEWTON`` names the certified
    iterative path (Newton with midpoint fallback), kept for the records."""

    CLOSED_FORM = "CLOSED_FORM"
    BISECTION_NEWTON = "BISECTION_NEWTON"


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets for the root search.

    ``tol`` bounds the final bracket width; ``series_tol`` is passed through
    to every series evaluation; ``max_iter`` bounds the Newton and midpoint
    steps together.
    """

    tol: float = 1e-12
    series_tol: float = 1e-13
    max_iter: int = 200
    prefer_closed_form: bool = True

    def __post_init__(self):
        for name in ("tol", "series_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DomainError(f"{name} must be > 0, got {value}")
            # An infinite tolerance certifies nothing, and JSON cannot carry it.
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise DomainError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class BohrEquation:
    """H(r) = B(r) - d* with its derivative, ready for root finding."""

    spec: ClassSpec
    d_star: SeriesValue
    h: Callable[[float], SeriesValue]
    h_prime: Callable[[float], float]


@dataclass(frozen=True)
class RadiusResult:
    """A solved radius with its certificate.

    ``residual`` is |H(radius)| plus the series error bound at that point;
    ``bracket_lo``/``bracket_hi`` enclose the root; ``iterations`` counts
    Newton and midpoint steps together (0 for closed forms); ``d_star`` is
    the distance constant the equation was solved against.
    """

    radius: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    method: Method
    d_star: SeriesValue


def build_equation(spec: ClassSpec, config: SolverConfig | None = None) -> BohrEquation:
    """Assemble H and an upper bound on H' at the configured tolerances.

    For a lane spec, H and H' take one r per lane and return arrays.
    """
    cfg = config or SolverConfig()
    validate(spec)
    d = distance_bound(spec, tol=cfg.series_tol)
    h_prime = FAMILIES[spec.family].h_prime

    def h(r) -> SeriesValue:
        b = bohr_sum(spec, r, tol=cfg.series_tol)
        return SeriesValue(b.value - d.value, b.error_bound + d.error_bound)

    return BohrEquation(
        spec=spec, d_star=d, h=h, h_prime=lambda r: h_prime(spec, r, cfg.series_tol)
    )


def closed_form_radius(spec: ClassSpec):
    """The radius as an explicit quadratic root, for families that have one.

    Returns None for families without a closed form, and an array for a
    lane spec.  The expressions are arranged to avoid cancellation for small
    parameters.
    """
    validate(spec)
    radius = FAMILIES[spec.family].radius
    return None if radius is None else _float_or_array(radius(spec))


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _h_lanes(spec: ClassSpec, d_value, d_error, x, series_tol: float):
    """H = v +- e at one x per lane, and which lanes B could not be summed at."""
    try:
        b = bohr_sum(spec, x, tol=series_tol)
    except ConvergenceError as exc:
        b = exc.achieved
    return b.value - d_value, b.error_bound + d_error, b.error_bound > series_tol


def _floor(spec: ClassSpec, d_lo: np.ndarray) -> np.ndarray:
    """A certified lower bound on each lane's root, given d* >= d_lo > 0.

    It is 0 unless the family's record gives a closed form U >= B (for
    gh-k-alpha, U(r) = r - (2r/alpha) ln(1-r)); then the root of H lies at
    or above the root of U = d_lo.  U is convex with U' >= 1 and U(r) >= r,
    so Newton started at d_lo (or just below r = 1 where d_lo rounds to 1)
    falls onto that root, which lies at or above r - max(U(r) - d_lo, 0)
    for any r.  Near r = 1 this floor is close to the root, so a root that
    no series can reach is known to be out of reach after one failed point.
    """
    bound = FAMILIES[spec.family].floor
    if bound is None:
        return np.zeros_like(d_lo)
    r = np.minimum(d_lo, _BELOW_ONE)
    for _ in range(30):
        u, slope = bound(spec, r)
        step = (u - d_lo) / slope
        r = r - step
        if np.all(np.abs(step) <= 4.0 * _EPS * r):
            break
    ur = bound(spec, r)[0]
    excess = np.maximum(ur - d_lo + _ROUNDING * (ur + d_lo), 0.0)
    return np.maximum(r - (excess + _ROUNDING * r), 0.0)


def _lane_error(message: str, lo: float, hi: float) -> ConvergenceError:
    return ConvergenceError(message, achieved=SeriesValue(0.5 * (lo + hi), hi - lo))


def _newton(spec: ClassSpec, d: SeriesValue, cfg: SolverConfig):
    """Certified Newton on every lane of a lane spec at once.

    Returns radius, residual, bracket and step arrays over the lanes, and a
    dict from lane index to the ConvergenceError that lane raises.
    """
    dv, de = d.value, d.error_bound
    h_prime = FAMILIES[spec.family].h_prime
    # B(r) >= r puts the root in [lo, d* + error].  Iterates stay at or
    # below ``top``, which points where a series cannot be summed lower;
    # they certify nothing, so they never become ``hi``.
    x = np.minimum(dv + de, _BELOW_ONE)
    hi, top = x.copy(), x.copy()
    lo = _floor(spec, dv - de)
    # A lane retreats first to a floor it has not tried, then by halving.
    fresh = lo > 0.0
    radius, residual = np.zeros_like(dv), np.zeros_like(dv)
    steps = np.zeros(dv.size, dtype=np.int64)
    live = np.ones(dv.size, dtype=bool)
    recheck = np.zeros(dv.size, dtype=bool)  # stopped on a step: evaluate H there
    errors: dict[int, ConvergenceError] = {}
    for step in range(1, cfg.max_iter + 1):
        if (top < hi).any():  # some lane has met a point it cannot sum
            stuck = live & (top < hi) & (top - lo <= cfg.tol)
            for i in np.flatnonzero(stuck):
                errors[int(i)] = _lane_error(
                    f"series cannot be summed beyond r={float(top[i])!r}; the root is only "
                    f"bracketed in [{float(lo[i])!r}, {float(hi[i])!r}]",
                    lo[i], hi[i],
                )
            live &= ~stuck
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        steps[act] = step
        sub = spec if act.size == live.size else take_lanes(spec, act)
        xa = x[act]
        v, hb, failed = _h_lanes(sub, dv[act], de[act], xa, cfg.series_tol)
        if failed.any():
            # Series need more terms the larger r is: retreat left.
            f = act[failed]
            top[f] = x[f]
            x[f] = np.where(fresh[f], lo[f], 0.5 * (lo[f] + top[f]))
            fresh[f] = False
            ok = ~failed
            sub = take_lanes(sub, np.flatnonzero(ok))
            act, xa, v, hb = act[ok], xa[ok], v[ok], hb[ok]

        slope = h_prime(sub, xa, cfg.series_tol)
        av = np.abs(v)
        e = hb + _ROUNDING * (av + 2.0 * dv[act])
        # H' >= 1 gives |x - root| <= |H(x)|; right of the root, convexity
        # puts the root left of the Newton step from x.
        a_lo = np.where(v + e < 0.0, xa, np.maximum(lo[act], xa - (av + e)))
        a_hi = np.minimum(hi[act], xa + (av + e))
        a_hi = np.where(v - e > 0.0, np.minimum(a_hi, xa - (v - e) / slope), a_hi)
        a_top = np.minimum(top[act], a_hi)
        lo[act], hi[act], top[act] = a_lo, a_hi, a_top

        # Series noise: x lies inside the bracket and is the radius.
        noise = av <= hb
        nxt = xa - v / slope
        nxt = np.where((a_lo <= nxt) & (nxt <= a_top), nxt, 0.5 * (a_lo + a_top))
        stop = ~noise & ((a_hi - a_lo <= cfg.tol) | (av <= e) | ((nxt == xa) & (a_top == a_hi)))
        radius[act] = np.where(noise, xa, np.minimum(np.maximum(nxt, a_lo), a_hi))
        residual[act] = av + hb
        recheck[act[stop]] = True
        live[act[noise | stop]] = False
        x[act] = nxt

    for i in np.flatnonzero(live):
        errors[int(i)] = _lane_error(
            f"root not localised to tol={cfg.tol:g} within {cfg.max_iter} iterations",
            lo[i], hi[i],
        )
    # A lane that stopped on its last step reports the residual there.
    idx = np.flatnonzero(recheck)
    if idx.size:
        v, hb, failed = _h_lanes(take_lanes(spec, idx), dv[idx], de[idx], radius[idx], cfg.series_tol)
        residual[idx] = np.abs(v) + hb
        for i in idx[failed]:
            errors[int(i)] = _lane_error(
                f"series cannot be summed at the radius r={float(radius[i])!r}", lo[i], hi[i]
            )
    return radius, residual, lo, hi, steps, errors


def _solve_lanes(spec: ClassSpec, cfg: SolverConfig):
    """Solve every lane of a lane spec at once.

    Returns the lane arrays radius, residual, bracket low and high, steps,
    closed-form flag, d* value and d* error, and a dict from lane index to
    the ConvergenceError that lane raises (its array entries mean nothing).
    """
    try:
        d = distance_bound(spec, tol=cfg.series_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"distance constant d* not certified at series tol {cfg.series_tol:g} "
            f"(requested tol {cfg.tol:g}): {exc}",
            achieved=exc.achieved,
        ) from None
    n = d.value.size
    radius, residual = np.zeros(n), np.abs(d.value)
    lo, hi = np.zeros(n), np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    closed = np.ones(n, dtype=bool)
    errors: dict[int, ConvergenceError] = {}
    # d* <= error: B(0) = 0 already attains the constant; no positive radius
    # exists, and the lane keeps radius 0.
    todo = np.flatnonzero(d.value > d.error_bound)
    sub = take_lanes(spec, todo)
    d_sub = SeriesValue(d.value[todo], d.error_bound[todo])
    r_cf = closed_form_radius(sub) if cfg.prefer_closed_form else None
    if r_cf is not None:
        v, hb, _ = _h_lanes(sub, d_sub.value, d_sub.error_bound, r_cf, cfg.series_tol)
        radius[todo], residual[todo], lo[todo], hi[todo] = r_cf, np.abs(v) + hb, r_cf, r_cf
    elif todo.size:
        out = _newton(sub, d_sub, cfg)
        radius[todo], residual[todo], lo[todo], hi[todo], steps[todo] = out[:5]
        closed[todo] = False
        errors = {int(todo[i]): exc for i, exc in out[5].items()}
    return (radius, residual, lo, hi, steps, closed, d.value, d.error_bound), errors


def solve_radii(specs, config: SolverConfig | None = None) -> list[RadiusResult]:
    """Solve H(r) = 0 for many parameter points at once, one lane each.

    Specs of one family and one k are stacked into a lane spec and solved
    by one ``_solve_lanes`` call; the results are built from its lane
    arrays and come back in the order given, each bit for bit what
    ``solve_radius`` returns for that spec alone.  If any spec fails, this
    raises the error of the first failing spec in that order.
    """
    cfg = config or SolverConfig()
    specs = list(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.family, spec.k), []).append(i)
    results: list[RadiusResult | None] = [None] * len(specs)
    errors: dict[int, ConvergenceError] = {}
    for idx in groups.values():
        lanes, lane_errors = _solve_lanes(stack_lanes(specs[i] for i in idx), cfg)
        errors.update((idx[j], exc) for j, exc in lane_errors.items())
        rows = zip(*(a.tolist() for a in lanes))
        for i, (r, res, b_lo, b_hi, it, c, dval, derr) in zip(idx, rows):
            method = Method.CLOSED_FORM if c else Method.BISECTION_NEWTON
            results[i] = RadiusResult(r, res, b_lo, b_hi, it, method, SeriesValue(dval, derr))
    if errors:
        raise errors[min(errors)]
    return results


def solve_radius(spec: ClassSpec, config: SolverConfig | None = None) -> RadiusResult:
    """Solve H(r) = 0 for the family's sharp radius.

    Degenerate parameters with d* = 0 return radius 0 directly; families
    with quadratic closed forms use them when ``prefer_closed_form`` is set.
    Everything else runs safeguarded Newton from d*, which stops once the
    certified bracket is at most ``tol`` wide or H is below its error bound.
    It raises ConvergenceError when ``max_iter`` steps do not suffice, or
    when the series cannot be summed close enough to the root.  This is the
    one-lane case of ``solve_radii``.
    """
    return solve_radii([spec], config)[0]


def jacobian_radius(m):
    """Root of the quadratic tying the map's Jacobian weight to its majorant.

    This is exactly half of ``closed_form_radius`` for the same m: the
    quadratic 4m r^2 + 4r + (m - 2) = 0 halves the root of
    m r^2 + 2r + (m - 2) = 0.  A 1-D array of m gives one root per lane.
    """
    m = np.asarray(m, dtype=np.float64)
    validate(ClassSpec(Family.TB_M, m=m))
    return _float_or_array((2.0 - m) / (2.0 * (1.0 + np.sqrt(1.0 + 2.0 * m - m * m))))


def jacobian_functional(m, r):
    """The weighted majorant 2m r^2 + 2r whose unit-deficit root is jacobian_radius.

    Lanes as in ``jacobian_radius``, with one r per lane.
    """
    m = np.asarray(m, dtype=np.float64)
    validate(ClassSpec(Family.TB_M, m=m))
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    return _float_or_array(2.0 * m * r * r + 2.0 * r)
