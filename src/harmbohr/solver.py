"""Construction and solution of the Bohr-radius equation, one grid at a time.

For each family the radius is the unique root in (0, 1) of H(r) = B(r) - d*,
where B is the majorant sum and d* the distance constant from
:mod:`harmbohr.classes`.  All coefficient bounds are nonnegative, so H is
convex and increasing with H' >= 1, and B(r) >= r puts the root in [0, d*]:
Newton's method started anywhere right of the root falls monotonically onto
it (Fourier's condition; Ostrowski, *Solution of Equations and Systems of
Equations*, ch. 9).  It starts near the root: the first 16 terms P of B lie
below B, so P's root lies right of B's, and three Newton steps on P, by
Horner from the bracket's right end, give the first iterate
(``_warm_start``).  From there wh-alpha takes two steps and gh-k-alpha two
or three for moderate k alpha, against five to seven from d*.  A start that
rounds left of the root only raises the bracket's left end; the
certificate never depends on it, and ``iterations`` counts only the steps
that evaluate B.  Each H(x) in [v - e, v + e] certifies a
bracket: H' >= 1 gives |x - root| <= |v| + e, and convexity gives
root <= x - (v - e)/H'(x) when v > e; each bracket end computed so moves
one ulp outward for its own rounding.  Steps that leave the bracket fall
back to the midpoint.  A lane stops once its bracket is at most ``tol``
wide or H lies within its error bound, and it succeeds only with a bracket
at most ``tol`` wide: no radius comes back with a tolerance it did not
reach.  Every B can be evaluated wherever Newton goes: the
closed forms, and the Euler-Maclaurin sums of gh-k-alpha and wh-alpha, at
a fixed cost on all of [0, 1).  Each comes with its bound on H' from the
same evaluation: gh-k-alpha's and wh-alpha's from the Lerch sum of that
evaluation.  Where that bound bounds the bracket it gets 2 eps more, since
it may round below H' by up to an ulp.  Two families admit closed-form
radii as roots of explicit quadratics, used both as fast paths and as
cross-checks.

The solver works on lanes.  A lane is one parameter point of one family,
with the family's other parameters fixed; ``solve_radii`` stacks a grid of
points into a lane spec and runs Newton on every lane at once, so each step
is one numpy pass over the lanes still open (one call of the family's
``majorant``, which gives B and a bound on H' together) instead of one
Python solve per point.  Each lane keeps its own bracket, iterate, step
count and stopping rule, and lanes never share a reduction, so every lane
ends exactly where it would alone: ``solve_radius`` is the one-lane case.
The lane pass returns one ``RadiusResult`` whose fields are lane arrays,
with one method for the whole lane spec, and ``solve_radii`` splits it into
one float ``RadiusResult`` per spec.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

import numpy as np

# bohr_sum is no longer called here; perfbench/test_perfbench.py reads it.
from .classes import (
    FAMILIES,
    ClassSpec,
    Family,
    _is_count,
    bohr_sum,  # noqa: F401
    coefficient_rule,
    distance_bound,
    lane_groups,
    lane_power,
    stack_lanes,
    take_lanes,
)
from .errors import ConvergenceError, DomainError, HarmBohrError
from .series import SeriesValue, as_param, fields_equal, require

_EPS = 2.0**-52

# Rounding allowance per unit magnitude of H = B - d*, which neither the
# closed-form majorants (error 0) nor the series bounds include.
_ROUNDING = 8.0 * _EPS

_BELOW_ONE = math.nextafter(1.0, 0.0)

# The warm start: _WARM_STEPS Newton steps on the majorant's first
# _WARM_TERMS terms.
_WARM_TERMS = 16
_WARM_STEPS = 3


class Method(str, Enum):
    """How a radius was obtained; ``BISECTION_NEWTON`` names the certified
    iterative path (Newton with midpoint fallback), kept for the records."""

    CLOSED_FORM = "CLOSED_FORM"
    BISECTION_NEWTON = "BISECTION_NEWTON"


@dataclass(frozen=True)
class SolverConfig:
    """The tolerance and budget of the root search.

    ``tol`` bounds the width of every certified bracket: a lane whose
    bracket ends wider raises ConvergenceError.  ``max_iter`` bounds the
    Newton and midpoint steps together, not counting the warm start's.
    """

    tol: float = 1e-12
    max_iter: int = 200
    prefer_closed_form: bool = True

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise DomainError(f"tol must be a real number, got {self.tol!r}")
        if not self.tol > 0.0:
            raise DomainError(f"tol must be > 0, got {self.tol}")
        # An infinite tolerance certifies nothing, and JSON cannot carry it.
        if not math.isfinite(self.tol):
            raise DomainError(f"tol must be finite, got {self.tol}")
        object.__setattr__(self, "tol", float(self.tol))
        if not _is_count(self.max_iter):
            raise DomainError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))


@dataclass(frozen=True)
class RadiusResult:
    """A solved radius with its certificate.

    ``residual`` is |H(radius)| plus the series error bound at that point;
    ``bracket_lo``/``bracket_hi`` enclose the root; ``iterations`` counts
    Newton and midpoint steps together, each one evaluation of B (0 for
    closed forms; the warm start's steps are not counted); ``d_star`` is
    the distance constant the equation was solved against.

    Floats from ``solve_radius`` and ``solve_radii``; inside the lane pass,
    an array per field with an entry per lane (``d_star`` a lane
    SeriesValue), and one ``method`` for every lane.
    """

    radius: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    method: Method
    d_star: SeriesValue

    __eq__ = fields_equal


# The lane arrays of a lane record, as attrgetter names.
_LANE_FIELDS = (
    "radius", "residual", "bracket_lo", "bracket_hi", "iterations",
    "d_star.value", "d_star.error_bound",
)


def _split_lanes(lanes: RadiusResult) -> list[RadiusResult]:
    """One float RadiusResult per lane of a lane record."""
    rows = zip(*(attrgetter(name)(lanes).tolist() for name in _LANE_FIELDS))
    return [RadiusResult(*row, lanes.method, SeriesValue(dv, de)) for *row, dv, de in rows]


def _lanes_like(part: RadiusResult, n: int) -> RadiusResult:
    """A lane record of ``n`` zero lanes, with the dtypes and the method
    of ``part``, for ``_put_lanes`` to fill.  Zeros, not np.empty: a d*
    error bound must be >= 0."""
    r, res, lo, hi, steps, dv, de = (
        np.zeros(n, attrgetter(name)(part).dtype) for name in _LANE_FIELDS
    )
    return RadiusResult(r, res, lo, hi, steps, part.method, SeriesValue(dv, de))


def _put_lanes(into: RadiusResult, start: int, part: RadiusResult) -> None:
    """Copy the lanes of ``part`` into ``into``, from lane ``start`` on."""
    for name in _LANE_FIELDS:
        lanes = attrgetter(name)(part)
        attrgetter(name)(into)[start : start + lanes.size] = lanes


def closed_form_radius(spec: ClassSpec):
    """The radius as an explicit quadratic root, for families that have one.

    Returns None for families without a closed form, and an array for a
    lane spec.  The expressions are arranged to avoid cancellation for small
    parameters.
    """
    radius = FAMILIES[spec.family].radius
    return None if radius is None else _float_or_array(radius(spec))


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _h_lanes(spec: ClassSpec, d_value, d_error, x):
    """H = v +- e at one x per lane, and an upper bound on H'(x), from one
    ``majorant`` call."""
    require((0.0 <= x) & (x < 1.0), x, "r must satisfy 0 <= r < 1")
    tail, slope = FAMILIES[spec.family].majorant(spec, x)
    return (x + tail.value) - d_value, tail.error_bound + d_error, slope


def _warm_start(spec: ClassSpec, target, hi):
    """The first Newton iterate of every lane: _WARM_STEPS Newton steps on
    P(r) - target from ``hi``, each clipped to [0, hi], where P(r) = r +
    sum c_n r^n over the first _WARM_TERMS coefficient bounds.

    Every c_n >= 0, so P <= B and P's root lies right of B's: Newton from
    there still falls monotonically onto B's root.  P and P' come by Horner
    over the coefficients, one lane vector per index, elementwise.
    """
    rule = coefficient_rule(spec)
    n0 = np.asarray(rule.start, dtype=np.float64)  # one start, or one per lane
    # n of shape (_WARM_TERMS, 1, 1) broadcasts against the (L, 1) lane
    # parameters: row j of coeffs holds c_(n0+j) of every lane.
    coeffs = rule.terms(as_param(n0) + np.arange(_WARM_TERMS).reshape(-1, 1, 1))
    coeffs = coeffs.reshape(_WARM_TERMS, -1)
    x = hi
    for _ in range(_WARM_STEPS):
        # q = sum_j c_(n0+j) x^j and its derivative dq.
        q, dq = np.zeros_like(x) + coeffs[-1], np.zeros_like(x)
        for c in coeffs[-2::-1]:
            dq *= x
            dq += q
            q *= x
            q += c
        lead = lane_power(x, rule.start, lambda x, n: x ** (float(n) - 1.0))
        p = x + lead * x * q
        dp = 1.0 + lead * (n0 * q + x * dq)
        x = np.minimum(np.maximum(x - (p - target) / dp, 0.0), hi)
    return x


def _newton(spec: ClassSpec, d: SeriesValue, cfg: SolverConfig):
    """Certified Newton on every lane of a lane spec at once.

    Returns radius, residual, bracket and step arrays over the lanes, and a
    dict from lane index to the ConvergenceError that lane raises.
    """
    dv, de = d.value, d.error_bound
    # B(r) >= r puts the root in [0, d* + error].
    hi = np.minimum(dv + de, _BELOW_ONE)
    lo = np.zeros_like(dv)
    x = _warm_start(spec, dv + de, hi)
    radius, residual = np.zeros_like(dv), np.zeros_like(dv)
    steps = np.zeros(dv.size, dtype=np.int64)
    live = np.ones(dv.size, dtype=bool)
    recheck = np.zeros(dv.size, dtype=bool)  # stopped on a step: evaluate H there
    for step in range(1, cfg.max_iter + 1):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        steps[act] = step
        sub = spec if act.size == live.size else take_lanes(spec, act)
        xa = x[act]
        v, hb, slope = _h_lanes(sub, dv[act], de[act], xa)
        av = np.abs(v)
        e = hb + _ROUNDING * (av + 2.0 * dv[act])
        # H' >= 1 gives |x - root| <= |H(x)|; right of the root, convexity
        # puts the root left of the Newton step from x.  That step needs
        # H'(x) at most the slope, and a family's bound can round below H'
        # by up to an ulp: 2 eps more covers it.  Each end computed here is
        # moved one ulp outward, for its own rounding.
        a_lo = np.where(
            v + e < 0.0, xa, np.maximum(lo[act], np.nextafter(xa - (av + e), -np.inf))
        )
        a_hi = np.minimum(hi[act], np.nextafter(xa + (av + e), np.inf))
        step_hi = np.nextafter(xa - (v - e) / (slope * (1.0 + 2.0 * _EPS)), np.inf)
        a_hi = np.where(v - e > 0.0, np.minimum(a_hi, step_hi), a_hi)
        lo[act], hi[act] = a_lo, a_hi

        # Series noise: x lies inside the bracket and is the radius.
        noise = av <= hb
        nxt = xa - v / slope
        # A step that leaves the bracket, or stalls under half an ulp while
        # the bracket is still wider than tol (H' too steep), falls back to
        # the midpoint.
        stalled = (nxt == xa) & (a_hi - a_lo > cfg.tol)
        nxt = np.where((a_lo <= nxt) & (nxt <= a_hi) & ~stalled, nxt, 0.5 * (a_lo + a_hi))
        stop = ~noise & ((a_hi - a_lo <= cfg.tol) | (av <= e) | (nxt == xa))
        radius[act] = np.where(noise, xa, np.minimum(np.maximum(nxt, a_lo), a_hi))
        residual[act] = av + hb
        recheck[act[stop]] = True
        live[act[noise | stop]] = False
        x[act] = nxt

    # Every lane that stopped must have its bracket within tol: where H is
    # within its error bound, or Newton stalls, the bracket can end wider.
    width = hi - lo
    errors = {}
    for i in np.flatnonzero(live | (width > cfg.tol)):
        bracket, w = f"[{float(lo[i])!r}, {float(hi[i])!r}]", float(width[i])
        errors[int(i)] = ConvergenceError(
            f"root not localised to tol={cfg.tol:g} within {cfg.max_iter} iterations; "
            f"it is bracketed in {bracket}, {w:.3g} wide"
            if live[i]
            else f"root not certified to tol={cfg.tol:g}: its certified bracket {bracket} "
            f"is {w:.3g} wide, and the least tol that passes is {w!r}",
            achieved=SeriesValue(0.5 * (lo[i] + hi[i]), width[i]),
        )
    # A lane that stopped on its last step reports the residual there.
    idx = np.flatnonzero(recheck)
    if idx.size:
        v, hb, _ = _h_lanes(take_lanes(spec, idx), dv[idx], de[idx], radius[idx])
        residual[idx] = np.abs(v) + hb
    return radius, residual, lo, hi, steps, errors


def _solve_lanes(spec: ClassSpec, cfg: SolverConfig):
    """Solve every lane of a lane spec at once.

    Returns a RadiusResult of lane arrays with the family's one method, and
    a dict from lane index to the ConvergenceError that lane raises (its
    entries in the arrays mean nothing).
    """
    d = distance_bound(spec)
    n = d.value.size
    radius, residual = np.zeros(n), np.abs(d.value)
    lo, hi = np.zeros(n), np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    errors: dict[int, ConvergenceError] = {}
    # d* <= error: B(0) = 0 already attains the constant; no positive radius
    # exists, and the lane keeps radius 0.  Its method is still the one its
    # family takes, and its d* is reported as at least 0, which a distance
    # is, though the sum may round below it.
    todo = np.flatnonzero(d.value > d.error_bound)
    sub = take_lanes(spec, todo)
    d_sub = SeriesValue(d.value[todo], d.error_bound[todo])
    closed = cfg.prefer_closed_form and FAMILIES[spec.family].radius is not None
    if closed:
        # A root within half an ulp of 1 (tb-m at tiny m) rounds to 1.
        r_cf = np.minimum(closed_form_radius(sub), _BELOW_ONE)
        v, hb, _ = _h_lanes(sub, d_sub.value, d_sub.error_bound, r_cf)
        radius[todo], residual[todo], lo[todo], hi[todo] = r_cf, np.abs(v) + hb, r_cf, r_cf
    elif todo.size:
        *lanes, lane_errors = _newton(sub, d_sub, cfg)
        radius[todo], residual[todo], lo[todo], hi[todo], steps[todo] = lanes
        errors = {int(todo[i]): exc for i, exc in lane_errors.items()}
    method = Method.CLOSED_FORM if closed else Method.BISECTION_NEWTON
    d_star = SeriesValue(np.maximum(d.value, 0.0), d.error_bound)
    return RadiusResult(radius, residual, lo, hi, steps, method, d_star), errors


def _by_family(specs: list[ClassSpec], evaluate) -> list:
    """For each spec, its value from ``evaluate(lanes, idx)``, which gives
    one value per spec of a ``lane_groups`` group ``idx`` from ``lanes``,
    the group's specs stacked into one lane spec.  A group whose
    evaluation raises HarmBohrError gets that error in place of each of its
    values, and the other groups are unaffected."""
    found: list = [None] * len(specs)
    for idx in lane_groups(specs):
        try:
            values = evaluate(stack_lanes(specs[i] for i in idx), idx)
        except HarmBohrError as exc:
            values = [exc] * len(idx)
        for i, value in zip(idx, values):
            found[i] = value
    return found


def _solve_each(specs: list[ClassSpec], cfg: SolverConfig) -> list:
    """For each spec, its RadiusResult or the ConvergenceError its lane
    raises, from one ``_solve_lanes`` pass per ``lane_groups`` group."""

    def solve(spec, _):
        lanes, errors = _solve_lanes(spec, cfg)
        return [errors.get(j, result) for j, result in enumerate(_split_lanes(lanes))]

    return _by_family(specs, solve)


def _raise_first(found: list) -> list:
    """``found``, unless it holds an error (a lane's ConvergenceError, say):
    then the first one is raised."""
    for result in found:
        if isinstance(result, HarmBohrError):
            raise result
    return found


def solve_radii(specs, config: SolverConfig | None = None) -> list[RadiusResult]:
    """Solve H(r) = 0 for many parameter points at once, one lane each.

    Specs of one family (``lane_groups``), whatever their k, are stacked
    into a lane spec and solved by one ``_solve_lanes`` call; the results
    are split from its lane record and come back in the order given, each
    bit for bit what ``solve_radius`` returns for that spec alone.  If any
    spec fails, this raises the error of the first failing spec in that
    order.
    """
    return _raise_first(_solve_each(list(specs), config or SolverConfig()))


def solve_radius(spec: ClassSpec, config: SolverConfig | None = None) -> RadiusResult:
    """Solve H(r) = 0 for the family's sharp radius.

    Degenerate parameters with d* = 0 return radius 0 directly; families
    with quadratic closed forms use them when ``prefer_closed_form`` is set.
    Everything else runs safeguarded Newton from its warm start, which stops
    once the certified bracket is at most ``tol`` wide or H is below its
    error bound.  It raises ConvergenceError when ``max_iter`` steps do not
    suffice, or when it stops with a certified bracket wider than ``tol``
    (the message names the width, which is the least ``tol`` that passes):
    so a radius comes back only with a bracket of at most ``tol``.  This is
    the one-lane case of ``solve_radii``.
    """
    return solve_radii([spec], config)[0]


def jacobian_radius(m):
    """Root of the quadratic tying the map's Jacobian weight to its majorant.

    The quadratic 4m r^2 + 4r + (m - 2) = 0 halves the root of
    m r^2 + 2r + (m - 2) = 0, so this is the tb-m ``closed_form_radius``
    halved, which is exact in binary.  A 1-D array of m gives one root per
    lane.
    """
    return closed_form_radius(ClassSpec(Family.TB_M, m=np.asarray(m))) / 2.0


def jacobian_functional(m, r):
    """The weighted majorant 2m r^2 + 2r whose unit-deficit root is jacobian_radius.

    Lanes as in ``jacobian_radius``, with one r per lane.
    """
    # A tb-m spec checks m's domain.
    m = ClassSpec(Family.TB_M, m=np.asarray(m)).m
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    return _float_or_array(2.0 * m * r * r + 2.0 * r)
