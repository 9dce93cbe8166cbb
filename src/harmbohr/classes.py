"""The six harmonic-mapping families, each defined once as a ``FamilyDef`` record.

A family is a parameterised class of sense-preserving harmonic maps
f = h + conj(g) on the unit disk, normalised so f(0) = 0 and h'(0) = 1.
``FAMILIES`` holds one frozen :class:`FamilyDef` per :class:`Family`, and
each record is everything the package knows about its family:

* its parameters, the last of them the one grid commands sweep, and their
  domain (``make_spec``, ``validate``);
* the sharp per-index bound c_n on |a_n| + |b_n| (``coefficient_rule``,
  ``coefficient_bound``), which the extremal map attains
  (``extremal_coefficients``);
* the distance constant d*, a sharp lower bound on the distance from f(0)
  to the boundary of the image (``distance_bound``);
* the majorant B(r) = r + sum c_n r^n, in closed form where one exists and
  otherwise summed from c_n (``bohr_sum``), with an upper bound on H' for
  the solver's Newton steps;
* sharp growth envelopes for |f| on |z| = r (``growth_envelope``);
* the closed-form radius where one exists, and for gh-k-alpha a simpler
  majorant whose root gives the solver a floor under the radius.

Every public function here is a lookup in ``FAMILIES``, so a new family is
one entry; the one per-family branch left is the lacunary extremal of
gh-k-alpha.  The records call the series engine through this module's
globals at call time and never hold a reference to it, so a tool that
rebinds those globals (``perfbench/tracer.py``) sees every call.

The Bohr radius of the family is the unique r with B(r) = d*; solving that
equation is the job of :mod:`harmbohr.solver`, which solves a whole grid of
parameter points (lanes) at once through lane specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .series import (
    CoefficientRule,
    SeriesValue,
    alt_constant,
    alt_log_tail,
    alt_nn1_tail,
    as_param,
    g_alt_constant,
    lane_value,
    log_tail,
    nn1_tail,
    require,
    signed_power_series,
    sum_power_series,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

# Parameter supremum for the PH_M family: the distance constant
# 1 + 2m(1 - ln 4) must stay positive.
PH_M_SUP = 1.0 / (2.0 * (LN4 - 1.0))


class Family(str, Enum):
    """The six families, keyed by their command-line tags."""

    PH_ALPHA = "ph-alpha"
    GT_BETA = "gt-beta"
    WH_ALPHA = "wh-alpha"
    GH_K_ALPHA = "gh-k-alpha"
    TB_M = "tb-m"
    PH_M = "ph-m"


@dataclass(frozen=True)
class ClassSpec:
    """A family together with a concrete parameter choice.

    In a lane spec (see ``stack_lanes``) alpha, beta and m are 1-D arrays
    holding one parameter point per lane; ``bohr_sum``, ``distance_bound``
    and ``coefficient_rule`` then work on all lanes at once.
    """

    family: Family
    alpha: float | None = None
    beta: float | None = None
    m: float | None = None
    k: int | None = None

    def params(self) -> dict[str, float]:
        """The parameters relevant to this family, in canonical order."""
        return {name: getattr(self, name) for name in FAMILIES[self.family].params}


@dataclass(frozen=True)
class FamilyDef:
    """One family's parameters, domain and sharp bounds.

    ``params`` lists the parameter names; the last is the swept one and the
    argument of ``coeff``.  ``domain`` holds (name, test, message) triples,
    checked in order.  The callables take a (lane) spec: ``coeff(n, p)``
    gives c_n, ``d_star(spec, tol)`` the distance constant and
    ``h_prime(spec, r, tol)`` an upper bound on H'(r); ``majorant(spec, r)``
    is B(r) - r in closed form (None: summed from ``coeff``),
    ``envelope(spec, r, tol)`` the growth envelope and ``radius(spec)`` the
    closed-form radius (None: solved).  ``floor(spec, r)`` gives a closed
    form U >= B with its slope U', whose root of U = d* lies under the
    radius (None: the floor is 0).
    """

    params: tuple[str, ...]
    domain: tuple[tuple[str, Callable, str], ...]
    coeff: Callable
    d_star: Callable
    h_prime: Callable
    envelope: Callable
    majorant: Callable | None = None
    radius: Callable | None = None
    floor: Callable | None = None


@dataclass(frozen=True)
class GrowthEnvelope:
    """Sharp bounds on |f(z)| over |z| = r: lower <= |f| <= upper."""

    lower: float
    upper: float
    error_bound: float = 0.0

    def __post_init__(self):
        slack = self.error_bound + 1e-15
        if not (-slack <= self.lower <= self.upper + 2.0 * slack):
            raise DomainError(
                f"envelope must satisfy 0 <= lower <= upper, got ({self.lower}, {self.upper})"
            )


def _is_count(k) -> bool:
    # An integer >= 1, given as an int or an integral float.
    try:
        return not isinstance(k, bool) and int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):
        return False


def _fits_float(k) -> bool:
    try:
        float(k)
    except OverflowError:
        return False
    return True


def _wh_d_star(spec: ClassSpec, tol: float) -> SeriesValue:
    alt = alt_constant(coefficient_rule(spec), tol=tol, first_sign=-1)
    return lane_value(1.0 + alt.value, alt.error_bound)


def _gh_d_star(spec: ClassSpec, tol: float) -> SeriesValue:
    g = g_alt_constant(spec.k, spec.alpha, tol=0.5 * tol)
    return lane_value(1.0 + 2.0 * g.value, 2.0 * g.error_bound)


def _partial(rule: CoefficientRule, r, tol: float) -> SeriesValue:
    # A series that misses tol still carries a rigorous, only looser, bound.
    try:
        return sum_power_series(rule, r, tol=tol)
    except ConvergenceError as exc:
        return exc.achieved


def _wh_h_prime(spec: ClassSpec, r, tol: float):
    a = as_param(spec.alpha)
    rule = CoefficientRule(lambda n, a: 2.0 / (1.0 + a * n), 1, "wh-derivative", (a,))
    s = _partial(rule, r, max(tol, 1e-11))
    return 1.0 + s.value + s.error_bound


def _gh_h_prime(spec: ClassSpec, r, tol: float):
    # Differentiate the lacunary majorant term by term and split off the
    # geometric part, valid for every alpha > 0.
    a, k = spec.alpha, int(spec.k)
    rule = CoefficientRule(lambda n, a: 1.0 / (1.0 + a * n), k, "gh-derivative", (as_param(a),))
    s = _partial(rule, r, max(tol, 1e-11))
    upper = r**k / (1.0 - r) - (1.0 - a) * s.value + np.abs(1.0 - a) * s.error_bound
    return 1.0 + (2.0 / a) * upper


def _gt_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    b = spec.beta
    lower = b * r + (1.0 - b) * r * (1.0 - r) / (1.0 + r)
    upper = b * r + (1.0 - b) * r * (1.0 + r) / (1.0 - r)
    return GrowthEnvelope(lower, upper)


def _wh_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    rule = coefficient_rule(spec)
    plus = sum_power_series(rule, r, tol=0.5 * tol)
    minus = signed_power_series(rule, -r, tol=0.5 * tol)
    return GrowthEnvelope(r - minus.value, r + plus.value, plus.error_bound + minus.error_bound)


def _gh_lacunary_rule(spec: ClassSpec) -> CoefficientRule:
    # Coefficients of the lacunary extremal reindexed by j: term j carries
    # 2 / (1 + j*k*alpha) against y^j with y = r^k.
    ka = int(spec.k) * spec.alpha
    return CoefficientRule(lambda j: 2.0 / (1.0 + j * ka), 1, "gh-lacunary")


def _gh_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    rule = _gh_lacunary_rule(spec)
    y = r**spec.k
    plus = sum_power_series(rule, y, tol=0.5 * tol)
    minus = signed_power_series(rule, -y, tol=0.5 * tol)
    return GrowthEnvelope(
        r * (1.0 + minus.value), r * (1.0 + plus.value), r * (plus.error_bound + minus.error_bound)
    )


def _gh_floor(spec: ClassSpec, r):
    # c_n = 2/(1 + (n-1) alpha) <= 2/((n-1) alpha) for n >= 2, so
    # B(r) <= U(r) = r - (2r/alpha) ln(1-r).
    a = spec.alpha
    log = np.log1p(-r)
    return r - (2.0 * r / a) * log, 1.0 - (2.0 / a) * log + (2.0 * r / a) / (1.0 - r)


FAMILIES: dict[Family, FamilyDef] = {
    Family.PH_ALPHA: FamilyDef(
        params=("alpha",),
        domain=(("alpha", lambda a: (0.0 <= a) & (a < 1.0), "alpha must satisfy 0 <= alpha < 1"),),
        coeff=lambda n, a: 2.0 * (1.0 - a) / n,
        d_star=lambda s, tol: lane_value(1.0 + 2.0 * (1.0 - s.alpha) * (LN2 - 1.0), 0.0),
        h_prime=lambda s, r, tol: 1.0 + 2.0 * (1.0 - s.alpha) * r / (1.0 - r),
        envelope=lambda s, r, tol: GrowthEnvelope(
            r + 2.0 * (1.0 - s.alpha) * alt_log_tail(r), r + 2.0 * (1.0 - s.alpha) * log_tail(r)
        ),
        majorant=lambda s, r: 2.0 * (1.0 - s.alpha) * log_tail(r),
    ),
    Family.GT_BETA: FamilyDef(
        params=("beta",),
        domain=(
            ("beta", lambda b: b >= 0.0, "beta must be >= 0"),
            ("beta", lambda b: b < 0.5, "beta must be < 1/2"),
        ),
        coeff=lambda n, b: 2.0 * (1.0 - b) * np.ones_like(n),
        d_star=lambda s, tol: lane_value(s.beta, 0.0),
        h_prime=lambda s, r, tol: 1.0 + 2.0 * (1.0 - s.beta) * r * (2.0 - r) / (1.0 - r) ** 2,
        envelope=_gt_envelope,
        majorant=lambda s, r: 2.0 * (1.0 - s.beta) * r * r / (1.0 - r),
        # The root of (1 - 2b) r^2 + (1 + b) r - b = 0, free of cancellation
        # for small b.
        radius=lambda s: 2.0 * s.beta / (
            (1.0 + s.beta) + np.sqrt(1.0 + 6.0 * s.beta - 7.0 * s.beta * s.beta)
        ),
    ),
    Family.WH_ALPHA: FamilyDef(
        params=("alpha",),
        domain=(("alpha", lambda a: (0.0 <= a) & (a <= 1.0), "alpha must satisfy 0 <= alpha <= 1"),),
        coeff=lambda n, a: 2.0 / (n * (1.0 + a * (n - 1.0))),
        d_star=_wh_d_star,
        h_prime=_wh_h_prime,
        envelope=_wh_envelope,
    ),
    Family.GH_K_ALPHA: FamilyDef(
        params=("k", "alpha"),
        domain=(
            ("k", _is_count, "k must be an integer >= 1"),
            ("k", _fits_float, "k must convert to a finite float"),
            ("alpha", lambda a: a > 0.0, "alpha must be > 0"),
        ),
        coeff=lambda n, a: 2.0 / (1.0 + (n - 1.0) * a),
        d_star=_gh_d_star,
        h_prime=_gh_h_prime,
        envelope=_gh_envelope,
        floor=_gh_floor,
    ),
    Family.TB_M: FamilyDef(
        params=("m",),
        domain=(("m", lambda m: (0.0 < m) & (m < 2.0), "m must satisfy 0 < m < 2"),),
        coeff=lambda n, m: np.where(n == 2.0, m / 2.0, 0.0),
        d_star=lambda s, tol: lane_value(1.0 - s.m / 2.0, 0.0),
        h_prime=lambda s, r, tol: 1.0 + s.m * r,
        envelope=lambda s, r, tol: GrowthEnvelope(r - 0.5 * s.m * r * r, r + 0.5 * s.m * r * r),
        majorant=lambda s, r: 0.5 * s.m * r * r,
        # The root of m r^2 + 2r + (m - 2) = 0, free of cancellation for small m.
        radius=lambda s: (2.0 - s.m) / (1.0 + np.sqrt(1.0 + 2.0 * s.m - s.m * s.m)),
    ),
    Family.PH_M: FamilyDef(
        params=("m",),
        domain=(
            (
                "m",
                lambda m: (0.0 < m) & (m < PH_M_SUP),
                f"m must satisfy 0 < m < 1/(2*(ln 4 - 1)) = {PH_M_SUP:.6f}",
            ),
        ),
        coeff=lambda n, m: 2.0 * m / (n * (n - 1.0)),
        d_star=lambda s, tol: lane_value(1.0 + 2.0 * s.m * (1.0 - LN4), 0.0),
        h_prime=lambda s, r, tol: 1.0 - 2.0 * s.m * np.log1p(-r),
        envelope=lambda s, r, tol: GrowthEnvelope(
            r + 2.0 * s.m * alt_nn1_tail(r), r + 2.0 * s.m * nn1_tail(r)
        ),
        majorant=lambda s, r: 2.0 * s.m * nn1_tail(r),
    ),
}

# The parameter swept by grid commands, per family.
CANONICAL_PARAM: dict[Family, str] = {fam: d.params[-1] for fam, d in FAMILIES.items()}

# The parameters a lane spec may sweep; k stays one integer for all lanes.
_LANE_PARAMS = ("alpha", "beta", "m")


def _require_finite(name: str, value):
    # A float for one point, a float array for the lanes of a lane spec.
    if value is None:
        raise ValidationError(f"{name} is required for this family")
    if isinstance(value, np.ndarray):
        value = value.astype(np.float64, copy=False)
        _check(np.isfinite(value), value, f"{name} must be finite")
    else:
        value = float(value)
        _check(math.isfinite(value), value, f"{name} must be finite")
    return value


def validate(spec: ClassSpec) -> None:
    """Raise ValidationError naming the violated bound if spec is invalid.

    For a lane spec every lane is checked, and the error names the first
    failing lane's value.
    """
    values: dict = {}
    for name, test, message in FAMILIES[spec.family].domain:
        if name not in values:
            value = getattr(spec, name)
            values[name] = _require_finite(name, value) if name in _LANE_PARAMS else value
        value = values[name]
        if name in _LANE_PARAMS:
            _check(test(value), value, message)
        elif not test(value):
            raise ValidationError(f"{message}, got {_show(value)}")


def _show(value) -> str:
    # An integer too large for a float is named by its size, not its digits.
    if isinstance(value, int) and not _fits_float(value):
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def _check(ok, values, message: str) -> None:
    require(ok, values, message, ValidationError)


def stack_lanes(specs) -> ClassSpec:
    """One lane spec for specs of one family that agree on k.

    A lane spec is a ClassSpec whose swept parameters are 1-D arrays, one
    entry (a lane) per given spec.  It is validated lane by lane.
    """
    specs = list(specs)
    first = specs[0]
    if any(s.family is not first.family or s.k != first.k for s in specs):
        raise DomainError("lanes must share one family and one k")
    lanes = {
        name: np.array([getattr(s, name) for s in specs], dtype=np.float64)
        for name in _LANE_PARAMS
        if getattr(first, name) is not None
    }
    spec = replace(first, **lanes)
    validate(spec)
    return spec


def sweep_lanes(spec: ClassSpec, name: str, values) -> tuple[ClassSpec, int]:
    """``spec`` with ``name`` swept over ``values``, one lane each, stopping
    before the first value the family's domain tests reject; and the count
    of lanes kept."""
    grid = np.array(values, dtype=np.float64)
    ok = np.isfinite(grid)
    for param, test, _ in FAMILIES[spec.family].domain:
        if param == name:
            ok &= test(grid)
    n = grid.size if ok.all() else int(np.argmin(ok))
    return replace(spec, **{name: grid[:n]}), n


def take_lanes(spec: ClassSpec, idx) -> ClassSpec:
    """The lanes ``idx`` of a lane spec."""
    alpha, beta, m = (None if v is None else v[idx] for v in (spec.alpha, spec.beta, spec.m))
    return ClassSpec(spec.family, alpha, beta, m, spec.k)


def _broadcast(spec: ClassSpec, r) -> np.ndarray:
    # One r for every lane, or one r per lane.
    r = np.asarray(r, dtype=np.float64)
    for lanes in (spec.alpha, spec.beta, spec.m):
        if isinstance(lanes, np.ndarray) and r.shape != lanes.shape:
            return np.broadcast_to(r, lanes.shape)
    return r


def _as_count(k):
    # An integral k becomes an int, so records print "k": 2; anything else
    # is left as given for validate to reject.
    try:
        if not isinstance(k, bool) and int(k) == float(k):
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    return k


def make_spec(family: Family, **params) -> ClassSpec:
    """Build and validate a spec from keyword parameters."""
    names = FAMILIES[family].params
    for name in names:
        if name not in params:
            raise ValidationError(f"missing parameter {name!r} for {family.value}")
    values = {
        name: float(params[name]) if name in _LANE_PARAMS else _as_count(params[name])
        for name in names
    }
    spec = ClassSpec(family, **values)
    validate(spec)
    return spec


def ph_alpha(alpha: float) -> ClassSpec:
    return make_spec(Family.PH_ALPHA, alpha=alpha)


def gt_beta(beta: float) -> ClassSpec:
    return make_spec(Family.GT_BETA, beta=beta)


def wh_alpha(alpha: float) -> ClassSpec:
    return make_spec(Family.WH_ALPHA, alpha=alpha)


def gh_k_alpha(k: int, alpha: float) -> ClassSpec:
    return make_spec(Family.GH_K_ALPHA, k=k, alpha=alpha)


def tb_m(m: float) -> ClassSpec:
    return make_spec(Family.TB_M, m=m)


def ph_m(m: float) -> ClassSpec:
    return make_spec(Family.PH_M, m=m)


def start_index(spec: ClassSpec) -> int:
    """First index n with a nonzero coefficient bound beyond the leading z:
    2, or k + 1 past a gap of length k."""
    validate(spec)
    return int(spec.k) + 1 if "k" in FAMILIES[spec.family].params else 2


def coefficient_bound(spec: ClassSpec, n: int) -> float:
    """The sharp bound c_n on |a_n| + |b_n|, defined for n >= start_index."""
    n0 = start_index(spec)
    if int(n) != n or n < n0:
        raise DomainError(f"n must be an integer >= {n0}, got {n!r}")
    return coefficient_rule(spec).term(int(n))


def coefficient_rule(spec: ClassSpec) -> CoefficientRule:
    """The coefficient bounds as a vectorised rule for the series engine,
    with one row of coefficients per lane for a lane spec."""
    n0 = start_index(spec)
    fam = FAMILIES[spec.family]
    p = as_param(getattr(spec, fam.params[-1]))
    return CoefficientRule(fam.coeff, n0, spec.family.value, (p,))


def distance_bound(spec: ClassSpec, tol: float = 1e-12) -> SeriesValue:
    """The distance constant d*: a sharp lower bound on dist(f(0), boundary).

    Closed forms where they exist; accelerated alternating sums otherwise.
    A lane spec gives arrays, one d* per lane.
    """
    validate(spec)
    return FAMILIES[spec.family].d_star(spec, tol)


def bohr_sum(spec: ClassSpec, r, tol: float = 1e-12) -> SeriesValue:
    """The majorant sum B(r) = r + sum_{n>=start} c_n r^n for 0 <= r < 1.

    ``r`` is a float, or an array: a grid of radii for one spec, or one
    radius per lane of a lane spec.  Where a series cannot reach tol, the
    ConvergenceError carries B (not the bare series) for every lane.
    """
    validate(spec)
    r = _broadcast(spec, r)
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    majorant = FAMILIES[spec.family].majorant
    if majorant is not None:
        return lane_value(r + majorant(spec, r), 0.0)
    try:
        s = sum_power_series(coefficient_rule(spec), r, tol=tol)
    except ConvergenceError as exc:
        part = exc.achieved
        raise ConvergenceError(
            str(exc), achieved=lane_value(r + part.value, part.error_bound)
        ) from None
    return lane_value(r + s.value, s.error_bound)


def growth_envelope(spec: ClassSpec, r: float, tol: float = 1e-12) -> GrowthEnvelope:
    """Sharp lower/upper bounds on |f(z)| at |z| = r for the family."""
    validate(spec)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"r must satisfy 0 <= r < 1, got {r}")
    return FAMILIES[spec.family].envelope(spec, r, tol)


@dataclass(frozen=True)
class ExtremalFunction:
    """Truncated coefficients of the map attaining the family's bounds.

    ``analytic[j]`` is the coefficient of z^(j+1) (so analytic[0] = 1);
    ``co_analytic[j]`` is the coefficient of conj(z)^(j+2).  Every family's
    extremal here is analytic, so co_analytic is identically zero.
    """

    analytic: np.ndarray
    co_analytic: np.ndarray
    truncation: int


def extremal_coefficients(spec: ClassSpec, truncation: int) -> ExtremalFunction:
    """Coefficients a_1..a_N (and zero b_2..b_N) of the extremal map.

    It is z + sum c_n z^n, except for gh-k-alpha, whose extremal carries
    only the powers z^(jk+1).
    """
    validate(spec)
    if int(truncation) != truncation or truncation < 1:
        raise DomainError(f"truncation must be an integer >= 1, got {truncation!r}")
    n_top = int(truncation)
    a = np.zeros(n_top, dtype=np.float64)
    a[0] = 1.0
    if spec.family is Family.GH_K_ALPHA:
        k = int(spec.k)
        js = np.arange(1, (n_top - 1) // k + 1, dtype=np.float64)
        a[(js * k).astype(np.int64)] = _gh_lacunary_rule(spec).terms(js)
    elif n_top >= 2:
        ns = np.arange(2, n_top + 1, dtype=np.float64)
        a[1:] = coefficient_rule(spec).terms(ns)
    b = np.zeros(max(n_top - 1, 0), dtype=np.float64)
    return ExtremalFunction(analytic=a, co_analytic=b, truncation=n_top)


def majorant_tail_bound(spec: ClassSpec, n: int, r: float) -> float:
    """Upper bound on the majorant mass beyond index n at radius r."""
    n0 = start_index(spec)
    if int(n) != n or n < n0:
        raise DomainError(f"n must be an integer >= {n0}, got {n!r}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"r must satisfy 0 <= r < 1, got {r}")
    return coefficient_bound(spec, int(n) + 1) * r ** (int(n) + 1) / (1.0 - r)
