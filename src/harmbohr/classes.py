"""The six harmonic-mapping families, each defined once as a ``FamilyDef`` record.

A family is a parameterised class of sense-preserving harmonic maps
f = h + conj(g) on the unit disk, normalised so f(0) = 0 and h'(0) = 1.
``FAMILIES`` holds one frozen :class:`FamilyDef` per :class:`Family`, and
each record is everything the package knows about its family:

* its parameters, the last of them the one grid commands sweep, and their
  domain (``make_spec``, ``validate``);
* the sharp per-index bound c_n on |a_n| + |b_n| (``coefficient_rule``),
  which the extremal map attains (``extremal_coefficients``);
* the distance constant d*, a sharp lower bound on the distance from f(0)
  to the boundary of the image (``distance_bound``): for wh-alpha and
  gh-k-alpha, 1 plus the alternating sum of c_n (``series.alt_constant``);
* the majorant B(r) = r + sum c_n r^n (``bohr_sum``): a closed form for
  four families, a Lerch sum (``series.lerch_sum``) for gh-k-alpha and the
  power series of c_n for wh-alpha, returned by one call together with an
  upper bound on B' for the solver's Newton steps (for wh-alpha, from the
  terms of the same power series);
* sharp growth envelopes for |f| on |z| = r (``growth_envelope``): for
  wh-alpha and gh-k-alpha the lower side is the same alternating sum with
  each term times r^n (or y^j, y = r^k), so d* is its limit at r = 1, and
  gh-k-alpha's upper side is the Lerch sum of its majorant;
* the closed-form radius where one exists.

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

from .errors import DomainError, ValidationError
from .series import (
    CoefficientRule,
    SeriesValue,
    alt_constant,
    alt_log_tail,
    alt_nn1_tail,
    as_param,
    capped_product,
    lane_value,
    lerch_sum,
    log_tail,
    nn1_tail,
    require,
    sum_power_series,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

# Parameter supremum for the PH_M family: the distance constant
# 1 + 2m(1 - ln 4) must stay positive.
PH_M_SUP = 1.0 / (2.0 * (LN4 - 1.0))

# Rounding allowance per unit of the parts of an H' bound that cancel.
_ROUNDING = 8.0 * 2.0**-52

# The least alpha whose gh-k-alpha slope bound is summed by partial
# fractions (see _gh_majorant).
_GH_TINY_ALPHA = 1e-280


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
    gives c_n, ``d_star(spec, tol)`` the distance constant,
    ``majorant(spec, r, tol)`` the pair (B(r) - r as a SeriesValue, an upper
    bound on B'(r)) from one evaluation, ``envelope(spec, r, tol)`` the
    growth envelope and ``radius(spec)`` the closed-form radius (None:
    solved).  ``tol`` bounds the error of the summed series.
    """

    params: tuple[str, ...]
    domain: tuple[tuple[str, Callable, str], ...]
    coeff: Callable
    d_star: Callable
    majorant: Callable
    envelope: Callable
    radius: Callable | None = None


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


def _alt_d_star(rule: CoefficientRule, tol: float) -> SeriesValue:
    # d* is |f| at the extremal's lower touch point on the unit circle:
    # 1 plus the alternating sum of its rule.
    alt = alt_constant(rule, tol=tol)
    return lane_value(1.0 + alt.value, alt.error_bound)


def _wh_majorant(spec: ClassSpec, r, tol: float):
    # B - r is the power series of c_n, and B' - 1 its derivative, bounded
    # from the same terms.  1 + slope may round down by half an ulp, so it
    # is rounded up.
    tail, slope = sum_power_series(coefficient_rule(spec), r, tol=tol)
    return tail, np.nextafter(1.0 + slope, np.inf)


def _gh_majorant(spec: ClassSpec, r, tol: float):
    # c_n = 2/(1 + (n-1) alpha) for n >= k + 1: B - r = 2 r^(k+1) L, with
    # L = sum_{m>=0} r^m / (1 + (k + m) alpha).  B' = 1 + 2 sum_{j>=k} r^j
    # (j + 1)/(1 + j alpha), and (j + 1)/(1 + j alpha) = 1/alpha +
    # (1 - 1/alpha)/(1 + j alpha) gives B' = 1 + 2 r^k [1/(alpha (1 - r)) +
    # (1 - 1/alpha) L].  For alpha < 1 the bracket cancels, so it carries a
    # rounding allowance of 8 eps of its parts.
    a, k = spec.alpha, float(spec.k)
    s = lerch_sum(r, 1.0 + capped_product(spec.k, a), a)
    scale = 2.0 * r ** (k + 1.0)
    tail = lane_value(scale * s.value, scale * s.error_bound)
    # Below _GH_TINY_ALPHA the bracket's parts, up to 2^53/alpha, could
    # overflow; there (j + 1)/(1 + j alpha) <= j + 1 gives the bound
    # B' <= 1 + 2 r^k (1 + k (1 - r))/(1 - r)^2 instead.
    tiny = a < _GH_TINY_ALPHA
    a = np.maximum(a, _GH_TINY_ALPHA)
    geometric = 1.0 / (a * (1.0 - r))
    weight = 1.0 - 1.0 / a
    parts = geometric + np.abs(weight) * s.value
    upper = geometric + weight * s.value + np.abs(weight) * s.error_bound + _ROUNDING * parts
    loose = 1.0 + 2.0 * (r**k * (1.0 + k * (1.0 - r))) / (1.0 - r) ** 2
    return tail, np.where(tiny, loose, 1.0 + 2.0 * r**k * upper)


def _gt_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    b = spec.beta
    lower = b * r + (1.0 - b) * r * (1.0 - r) / (1.0 + r)
    upper = b * r + (1.0 - b) * r * (1.0 + r) / (1.0 - r)
    return GrowthEnvelope(lower, upper)


def _wh_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    # |f(r)| = r + sum c_n r^n and |f(-r)| = r + sum c_n (-1)^(n-1) r^n.
    rule = coefficient_rule(spec)
    plus = sum_power_series(rule, r, tol=0.5 * tol)[0]
    minus = alt_constant(rule, r, tol=0.5 * tol)
    return GrowthEnvelope(r + minus.value, r + plus.value, plus.error_bound + minus.error_bound)


def _gh_lacunary_rule(spec: ClassSpec) -> CoefficientRule:
    # Coefficients of the lacunary extremal reindexed by j: term j carries
    # 2 / (1 + j*k*alpha) against y^j with y = r^k; one row per lane.
    ka = as_param(capped_product(spec.k, spec.alpha))
    return CoefficientRule(lambda j, ka: 2.0 / (1.0 + j * ka), 1, "gh-lacunary", (ka,))


def _gh_envelope(spec: ClassSpec, r: float, tol: float) -> GrowthEnvelope:
    # With y = r^k the extremal is r (1 + sum_j 2 (+-y)^j / (1 + j k alpha)):
    # the + side is 2 y times the Lerch sum of B, the - side alternates.
    y = r**spec.k
    ka = capped_product(spec.k, spec.alpha)
    plus = lerch_sum(y, 1.0 + ka, ka)
    minus = alt_constant(_gh_lacunary_rule(spec), y, tol=0.5 * tol)
    return GrowthEnvelope(
        r * (1.0 + minus.value),
        r * (1.0 + 2.0 * y * plus.value),
        r * (2.0 * y * plus.error_bound + minus.error_bound),
    )


FAMILIES: dict[Family, FamilyDef] = {
    Family.PH_ALPHA: FamilyDef(
        params=("alpha",),
        domain=(("alpha", lambda a: (0.0 <= a) & (a < 1.0), "alpha must satisfy 0 <= alpha < 1"),),
        coeff=lambda n, a: 2.0 * (1.0 - a) / n,
        d_star=lambda s, tol: lane_value(1.0 + 2.0 * (1.0 - s.alpha) * (LN2 - 1.0), 0.0),
        majorant=lambda s, r, tol: (
            lane_value(2.0 * (1.0 - s.alpha) * log_tail(r), 0.0),
            1.0 + 2.0 * (1.0 - s.alpha) * r / (1.0 - r),
        ),
        envelope=lambda s, r, tol: GrowthEnvelope(
            r + 2.0 * (1.0 - s.alpha) * alt_log_tail(r), r + 2.0 * (1.0 - s.alpha) * log_tail(r)
        ),
    ),
    Family.GT_BETA: FamilyDef(
        params=("beta",),
        domain=(
            ("beta", lambda b: b >= 0.0, "beta must be >= 0"),
            ("beta", lambda b: b < 0.5, "beta must be < 1/2"),
        ),
        coeff=lambda n, b: 2.0 * (1.0 - b) * np.ones_like(n),
        d_star=lambda s, tol: lane_value(s.beta, 0.0),
        majorant=lambda s, r, tol: (
            lane_value(2.0 * (1.0 - s.beta) * r * r / (1.0 - r), 0.0),
            1.0 + 2.0 * (1.0 - s.beta) * r * (2.0 - r) / (1.0 - r) ** 2,
        ),
        envelope=_gt_envelope,
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
        d_star=lambda s, tol: _alt_d_star(coefficient_rule(s), tol),
        majorant=_wh_majorant,
        envelope=_wh_envelope,
    ),
    Family.GH_K_ALPHA: FamilyDef(
        params=("k", "alpha"),
        domain=(
            ("k", _is_count, "k must be an integer >= 1"),
            ("k", _fits_float, "k must convert to a finite float"),
            ("alpha", lambda a: a > 0.0, "alpha must be > 0"),
        ),
        # n >= k + 1 >= 2; (n - 1) alpha is capped so that it stays finite.
        coeff=lambda n, a: 2.0 / (1.0 + capped_product(n - 1.0, a)),
        d_star=lambda s, tol: _alt_d_star(_gh_lacunary_rule(s), tol),
        majorant=_gh_majorant,
        envelope=_gh_envelope,
    ),
    Family.TB_M: FamilyDef(
        params=("m",),
        domain=(("m", lambda m: (0.0 < m) & (m < 2.0), "m must satisfy 0 < m < 2"),),
        coeff=lambda n, m: np.where(n == 2.0, m / 2.0, 0.0),
        d_star=lambda s, tol: lane_value(1.0 - s.m / 2.0, 0.0),
        majorant=lambda s, r, tol: (lane_value(0.5 * s.m * r * r, 0.0), 1.0 + s.m * r),
        envelope=lambda s, r, tol: GrowthEnvelope(r - 0.5 * s.m * r * r, r + 0.5 * s.m * r * r),
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
        majorant=lambda s, r, tol: (
            lane_value(2.0 * s.m * nn1_tail(r), 0.0), 1.0 - 2.0 * s.m * np.log1p(-r)
        ),
        envelope=lambda s, r, tol: GrowthEnvelope(
            r + 2.0 * s.m * alt_nn1_tail(r), r + 2.0 * s.m * nn1_tail(r)
        ),
    ),
}

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
    radius per lane of a lane spec.  ``tol`` bounds the power series of
    wh-alpha, the one family summed term by term, which raises
    ConvergenceError where it cannot reach tol (r close to 1).
    """
    validate(spec)
    r = _broadcast(spec, r)
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    tail, _ = FAMILIES[spec.family].majorant(spec, r, tol)
    return lane_value(r + tail.value, tail.error_bound)


def growth_envelope(spec: ClassSpec, r: float, tol: float = 1e-12) -> GrowthEnvelope:
    """Sharp lower/upper bounds on |f(z)| at |z| = r for the family.

    ``error_bound`` bounds the error of the summed series.  ``tol`` bounds
    each power series and alternating sum; gh-k-alpha's upper side is a
    Lerch sum, as its B is, and carries that sum's own bound, which can
    exceed ``tol`` for alpha near 0 and r near 1.
    """
    validate(spec)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"r must satisfy 0 <= r < 1, got {r}")
    return FAMILIES[spec.family].envelope(spec, r, tol)


def extremal_coefficients(spec: ClassSpec, truncation: int) -> np.ndarray:
    """Coefficients a_1..a_N of the extremal map, N = ``truncation``.

    Entry j is the coefficient of z^(j+1), so entry 0 is 1.  The map is
    z + sum c_n z^n, except for gh-k-alpha, whose extremal carries only the
    powers z^(jk+1).  Every family's extremal here is analytic: its
    co-analytic part is zero.
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
    return a
