"""Construction and solution of the Bohr-radius equation.

For each family the radius is the unique root in (0, 1) of H(r) = B(r) - d*,
where B is the majorant sum and d* the distance constant from
:mod:`harmbohr.classes`.  All coefficient bounds are nonnegative, so H is
convex and increasing with H' >= 1, and B(r) >= r puts the root in [0, d*]:
Newton's method started at d* falls monotonically onto it (Fourier's
condition; Ostrowski, *Solution of Equations and Systems of Equations*,
ch. 9), in five to seven steps.  Each H(x) in [v - e, v + e] certifies a
bracket: H' >= 1 gives |x - root| <= |v| + e, and convexity gives
root <= x - (v - e)/H'(x) when v > e.  Steps that leave the bracket, and
points where a series cannot be summed, fall back to the midpoint.  Two
families admit closed-form radii as roots of explicit quadratics, used both
as fast paths and as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .classes import ClassSpec, Family, bohr_sum, distance_bound, tb_m, validate
from .errors import ConvergenceError, DomainError
from .series import CoefficientRule, SeriesValue, sum_power_series

# Rounding allowance per unit magnitude of H = B - d*, which neither the
# closed-form majorants (error 0) nor the series bounds include.
_ROUNDING = 8.0 * 2.0**-52


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
        if not self.tol > 0.0:
            raise DomainError(f"tol must be > 0, got {self.tol}")
        if not self.series_tol > 0.0:
            raise DomainError(f"series_tol must be > 0, got {self.series_tol}")
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


def _h_prime(spec: ClassSpec, series_tol: float) -> Callable[[float], float]:
    # Upper bounds on H': series-backed families add the series error.
    fam = spec.family
    if fam is Family.PH_ALPHA:
        a = spec.alpha
        return lambda r: 1.0 + 2.0 * (1.0 - a) * r / (1.0 - r)
    if fam is Family.GT_BETA:
        b = spec.beta
        return lambda r: 1.0 + 2.0 * (1.0 - b) * r * (2.0 - r) / (1.0 - r) ** 2
    if fam is Family.TB_M:
        m = spec.m
        return lambda r: 1.0 + m * r
    if fam is Family.PH_M:
        m = spec.m
        return lambda r: 1.0 - 2.0 * m * math.log1p(-r)
    tol = max(series_tol, 1e-11)
    if fam is Family.WH_ALPHA:
        a = spec.alpha
        rule = CoefficientRule(lambda n: 2.0 / (1.0 + a * n), 1, "wh-derivative")

        def h_prime(r: float) -> float:
            s = sum_power_series(rule, r, tol=tol)
            return 1.0 + s.value + s.error_bound

        return h_prime
    # Lacunary family: differentiate term by term and split off the
    # geometric part, valid for every alpha > 0.
    a = spec.alpha
    k = int(spec.k)
    rule = CoefficientRule(lambda n: 1.0 / (1.0 + a * n), k, "gh-derivative")

    def h_prime(r: float) -> float:
        s = sum_power_series(rule, r, tol=tol)
        upper = r**k / (1.0 - r) - (1.0 - a) * s.value + abs(1.0 - a) * s.error_bound
        return 1.0 + (2.0 / a) * upper

    return h_prime


def build_equation(spec: ClassSpec, config: SolverConfig | None = None) -> BohrEquation:
    """Assemble H and an upper bound on H' at the configured tolerances."""
    cfg = config or SolverConfig()
    validate(spec)
    d = distance_bound(spec, tol=cfg.series_tol)

    def h(r: float) -> SeriesValue:
        b = bohr_sum(spec, r, tol=cfg.series_tol)
        return SeriesValue(b.value - d.value, b.error_bound + d.error_bound)

    return BohrEquation(spec=spec, d_star=d, h=h, h_prime=_h_prime(spec, cfg.series_tol))


def closed_form_radius(spec: ClassSpec) -> float | None:
    """The radius as an explicit quadratic root, for families that have one.

    Returns None for families without a closed form.  The expressions are
    arranged to avoid cancellation for small parameters.
    """
    validate(spec)
    if spec.family is Family.GT_BETA:
        b = spec.beta
        disc = 1.0 + 6.0 * b - 7.0 * b * b
        return 2.0 * b / ((1.0 + b) + math.sqrt(disc))
    if spec.family is Family.TB_M:
        m = spec.m
        return (2.0 - m) / (1.0 + math.sqrt(1.0 + 2.0 * m - m * m))
    return None


def _newton(eq: BohrEquation, cfg: SolverConfig) -> RadiusResult:
    d = eq.d_star
    # B(r) >= r puts the root in [0, d* + error].  Iterates stay at or below
    # ``top``, which points where a series cannot be summed lower; they
    # certify nothing, so they never become ``hi``.
    lo, x = 0.0, min(d.value + d.error_bound, math.nextafter(1.0, 0.0))
    hi = top = x
    for step in range(1, cfg.max_iter + 1):
        if top < hi and top - lo <= cfg.tol:
            raise ConvergenceError(
                f"series cannot be summed beyond r={top!r}; the root is only "
                f"bracketed in [{lo!r}, {hi!r}]",
                achieved=SeriesValue(0.5 * (lo + hi), hi - lo),
            )
        try:
            hv, slope = eq.h(x), eq.h_prime(x)
        except ConvergenceError:
            top = x  # series need more terms the larger r is: retreat left
            x = 0.5 * (lo + top)
            continue
        v = hv.value
        e = hv.error_bound + _ROUNDING * (abs(v) + 2.0 * d.value)
        # H' >= 1 gives |x - root| <= |H(x)|; right of the root, convexity
        # puts the root left of the Newton step from x.
        lo, hi = max(lo, x - (abs(v) + e)), min(hi, x + (abs(v) + e))
        if v + e < 0.0:
            lo = x
        elif v - e > 0.0:
            hi = min(hi, x - (v - e) / slope)
        top = min(top, hi)
        if abs(v) <= hv.error_bound:  # series noise: x lies inside the bracket
            residual = abs(v) + hv.error_bound
            return RadiusResult(x, residual, lo, hi, step, Method.BISECTION_NEWTON, d)
        nxt = x - v / slope
        if not lo <= nxt <= top:
            nxt = 0.5 * (lo + top)
        if hi - lo <= cfg.tol or abs(v) <= e or (nxt == x and top == hi):
            radius = min(max(nxt, lo), hi)  # the last step, inside the bracket
            hv = eq.h(radius)
            residual = abs(hv.value) + hv.error_bound
            return RadiusResult(radius, residual, lo, hi, step, Method.BISECTION_NEWTON, d)
        x = nxt
    raise ConvergenceError(
        f"root not localised to tol={cfg.tol:g} within {cfg.max_iter} iterations",
        achieved=SeriesValue(0.5 * (lo + hi), hi - lo),
    )


def solve_radius(spec: ClassSpec, config: SolverConfig | None = None) -> RadiusResult:
    """Solve H(r) = 0 for the family's sharp radius.

    Degenerate parameters with d* = 0 return radius 0 directly; families
    with quadratic closed forms use them when ``prefer_closed_form`` is set.
    Everything else runs safeguarded Newton from d*, which stops once the
    certified bracket is at most ``tol`` wide or H is below its error bound.
    It raises ConvergenceError when ``max_iter`` steps do not suffice, or
    when the series cannot be summed close enough to the root.
    """
    cfg = config or SolverConfig()
    eq = build_equation(spec, cfg)
    d = eq.d_star
    if d.value <= d.error_bound:
        # B(0) = 0 already attains the constant; no positive radius exists.
        return RadiusResult(0.0, abs(d.value), 0.0, 0.0, 0, Method.CLOSED_FORM, d)
    if cfg.prefer_closed_form:
        r_cf = closed_form_radius(eq.spec)
        if r_cf is not None:
            hv = eq.h(r_cf)
            residual = abs(hv.value) + hv.error_bound
            return RadiusResult(r_cf, residual, r_cf, r_cf, 0, Method.CLOSED_FORM, d)
    return _newton(eq, cfg)


def jacobian_radius(m: float) -> float:
    """Root of the quadratic tying the map's Jacobian weight to its majorant.

    This is exactly half of ``closed_form_radius`` for the same m: the
    quadratic 4m r^2 + 4r + (m - 2) = 0 halves the root of
    m r^2 + 2r + (m - 2) = 0.
    """
    spec = tb_m(m)
    return (2.0 - spec.m) / (2.0 * (1.0 + math.sqrt(1.0 + 2.0 * spec.m - spec.m * spec.m)))


def jacobian_functional(m: float, r: float) -> float:
    """The weighted majorant 2m r^2 + 2r whose unit-deficit root is jacobian_radius."""
    spec = tb_m(m)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"r must satisfy 0 <= r < 1, got {r}")
    return 2.0 * spec.m * r * r + 2.0 * r
