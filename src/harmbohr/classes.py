"""The six harmonic-mapping families as data plus their sharp bounds.

A family is a parameterised class of sense-preserving harmonic maps
f = h + conj(g) on the unit disk, normalised so f(0) = 0 and h'(0) = 1.
Each family carries:

* a parameter domain (``validate``),
* the sharp per-index bound c_n on |a_n| + |b_n| (``coefficient_bound``),
* the distance constant d*, a sharp lower bound on the distance from f(0)
  to the boundary of the image (``distance_bound``),
* the majorant sum B(r) = r + sum c_n r^n (``bohr_sum``),
* sharp growth envelopes for |f| on |z| = r (``growth_envelope``),
* the coefficients of the extremal map attaining all of the above
  (``extremal_coefficients``).

The Bohr radius of the family is the unique r with B(r) = d*; solving that
equation is the job of :mod:`harmbohr.solver`, which solves a whole grid of
parameter points (lanes) at once through lane specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

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


# The parameter swept by grid commands, per family.
CANONICAL_PARAM: dict[Family, str] = {
    Family.PH_ALPHA: "alpha",
    Family.GT_BETA: "beta",
    Family.WH_ALPHA: "alpha",
    Family.GH_K_ALPHA: "alpha",
    Family.TB_M: "m",
    Family.PH_M: "m",
}


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
        fam = self.family
        if fam is Family.PH_ALPHA or fam is Family.WH_ALPHA:
            return {"alpha": self.alpha}
        if fam is Family.GT_BETA:
            return {"beta": self.beta}
        if fam is Family.GH_K_ALPHA:
            return {"k": self.k, "alpha": self.alpha}
        return {"m": self.m}


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
    fam = spec.family
    if fam is Family.PH_ALPHA:
        a = _require_finite("alpha", spec.alpha)
        _check((0.0 <= a) & (a < 1.0), a, "alpha must satisfy 0 <= alpha < 1")
    elif fam is Family.GT_BETA:
        b = _require_finite("beta", spec.beta)
        _check(b >= 0.0, b, "beta must be >= 0")
        _check(b < 0.5, b, "beta must be < 1/2")
    elif fam is Family.WH_ALPHA:
        a = _require_finite("alpha", spec.alpha)
        _check((0.0 <= a) & (a <= 1.0), a, "alpha must satisfy 0 <= alpha <= 1")
    elif fam is Family.GH_K_ALPHA:
        if spec.k is None or isinstance(spec.k, bool) or int(spec.k) != spec.k:
            raise ValidationError(f"k must be an integer >= 1, got {spec.k!r}")
        if spec.k < 1:
            raise ValidationError(f"k must be an integer >= 1, got {spec.k}")
        a = _require_finite("alpha", spec.alpha)
        _check(a > 0.0, a, "alpha must be > 0")
    elif fam is Family.TB_M:
        m = _require_finite("m", spec.m)
        _check((0.0 < m) & (m < 2.0), m, "m must satisfy 0 < m < 2")
    elif fam is Family.PH_M:
        m = _require_finite("m", spec.m)
        _check(
            (0.0 < m) & (m < PH_M_SUP),
            m,
            f"m must satisfy 0 < m < 1/(2*(ln 4 - 1)) = {PH_M_SUP:.6f}",
        )
    else:  # pragma: no cover - Family is closed
        raise ValidationError(f"unknown family {fam!r}")


def _check(ok, values, message: str) -> None:
    require(ok, values, message, ValidationError)


# The parameters a lane spec may sweep; k stays one integer for all lanes.
_LANE_PARAMS = ("alpha", "beta", "m")


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


def ph_alpha(alpha: float) -> ClassSpec:
    spec = ClassSpec(Family.PH_ALPHA, alpha=float(alpha))
    validate(spec)
    return spec


def gt_beta(beta: float) -> ClassSpec:
    spec = ClassSpec(Family.GT_BETA, beta=float(beta))
    validate(spec)
    return spec


def wh_alpha(alpha: float) -> ClassSpec:
    spec = ClassSpec(Family.WH_ALPHA, alpha=float(alpha))
    validate(spec)
    return spec


def gh_k_alpha(k: int, alpha: float) -> ClassSpec:
    spec = ClassSpec(Family.GH_K_ALPHA, alpha=float(alpha), k=int(k) if not isinstance(k, bool) else k)
    validate(spec)
    return spec


def tb_m(m: float) -> ClassSpec:
    spec = ClassSpec(Family.TB_M, m=float(m))
    validate(spec)
    return spec


def ph_m(m: float) -> ClassSpec:
    spec = ClassSpec(Family.PH_M, m=float(m))
    validate(spec)
    return spec


_CONSTRUCTORS = {
    Family.PH_ALPHA: lambda **p: ph_alpha(p["alpha"]),
    Family.GT_BETA: lambda **p: gt_beta(p["beta"]),
    Family.WH_ALPHA: lambda **p: wh_alpha(p["alpha"]),
    Family.GH_K_ALPHA: lambda **p: gh_k_alpha(p["k"], p["alpha"]),
    Family.TB_M: lambda **p: tb_m(p["m"]),
    Family.PH_M: lambda **p: ph_m(p["m"]),
}


def make_spec(family: Family, **params) -> ClassSpec:
    """Build and validate a spec from keyword parameters."""
    try:
        return _CONSTRUCTORS[family](**params)
    except KeyError as exc:
        raise ValidationError(f"missing parameter {exc.args[0]!r} for {family.value}") from None


def start_index(spec: ClassSpec) -> int:
    """First index n with a nonzero coefficient bound beyond the leading z."""
    validate(spec)
    if spec.family is Family.GH_K_ALPHA:
        return int(spec.k) + 1
    return 2


def coefficient_bound(spec: ClassSpec, n: int) -> float:
    """The sharp bound c_n on |a_n| + |b_n|, defined for n >= start_index."""
    n0 = start_index(spec)
    if int(n) != n or n < n0:
        raise DomainError(f"n must be an integer >= {n0}, got {n!r}")
    n = int(n)
    fam = spec.family
    if fam is Family.PH_ALPHA:
        return 2.0 * (1.0 - spec.alpha) / n
    if fam is Family.GT_BETA:
        return 2.0 * (1.0 - spec.beta)
    if fam is Family.WH_ALPHA:
        return 2.0 / (n * (1.0 + spec.alpha * (n - 1)))
    if fam is Family.GH_K_ALPHA:
        return 2.0 / (1.0 + (n - 1) * spec.alpha)
    if fam is Family.TB_M:
        return spec.m / 2.0 if n == 2 else 0.0
    return 2.0 * spec.m / (n * (n - 1))


def coefficient_rule(spec: ClassSpec) -> CoefficientRule:
    """The coefficient bounds as a vectorised rule for the series engine,
    with one row of coefficients per lane for a lane spec."""
    n0 = start_index(spec)
    fam = spec.family
    if fam is Family.PH_ALPHA:
        a = as_param(spec.alpha)
        return CoefficientRule(lambda n, a: 2.0 * (1.0 - a) / n, n0, "ph-alpha", (a,))
    if fam is Family.GT_BETA:
        b = as_param(spec.beta)
        return CoefficientRule(lambda n, b: 2.0 * (1.0 - b) * np.ones_like(n), n0, "gt-beta", (b,))
    if fam is Family.WH_ALPHA:
        a = as_param(spec.alpha)
        return CoefficientRule(lambda n, a: 2.0 / (n * (1.0 + a * (n - 1.0))), n0, "wh-alpha", (a,))
    if fam is Family.GH_K_ALPHA:
        a = as_param(spec.alpha)
        return CoefficientRule(lambda n, a: 2.0 / (1.0 + (n - 1.0) * a), n0, "gh-k-alpha", (a,))
    if fam is Family.TB_M:
        m = as_param(spec.m)
        return CoefficientRule(lambda n, m: np.where(n == 2.0, m / 2.0, 0.0), n0, "tb-m", (m,))
    m = as_param(spec.m)
    return CoefficientRule(lambda n, m: 2.0 * m / (n * (n - 1.0)), n0, "ph-m", (m,))


def distance_bound(spec: ClassSpec, tol: float = 1e-12) -> SeriesValue:
    """The distance constant d*: a sharp lower bound on dist(f(0), boundary).

    Closed forms where they exist; accelerated alternating sums otherwise.
    A lane spec gives arrays, one d* per lane.
    """
    validate(spec)
    fam = spec.family
    if fam is Family.PH_ALPHA:
        return lane_value(1.0 + 2.0 * (1.0 - spec.alpha) * (LN2 - 1.0), 0.0)
    if fam is Family.GT_BETA:
        return lane_value(spec.beta, 0.0)
    if fam is Family.WH_ALPHA:
        alt = alt_constant(coefficient_rule(spec), tol=tol, first_sign=-1)
        return lane_value(1.0 + alt.value, alt.error_bound)
    if fam is Family.GH_K_ALPHA:
        g = g_alt_constant(spec.k, spec.alpha, tol=0.5 * tol)
        return lane_value(1.0 + 2.0 * g.value, 2.0 * g.error_bound)
    if fam is Family.TB_M:
        return lane_value(1.0 - spec.m / 2.0, 0.0)
    return lane_value(1.0 + 2.0 * spec.m * (1.0 - LN4), 0.0)


def bohr_sum(spec: ClassSpec, r, tol: float = 1e-12) -> SeriesValue:
    """The majorant sum B(r) = r + sum_{n>=start} c_n r^n for 0 <= r < 1.

    ``r`` is a float, or an array: a grid of radii for one spec, or one
    radius per lane of a lane spec.  Where a series cannot reach tol, the
    ConvergenceError carries B (not the bare series) for every lane.
    """
    validate(spec)
    r = _broadcast(spec, r)
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    fam = spec.family
    if fam is Family.PH_ALPHA:
        return lane_value(r + 2.0 * (1.0 - spec.alpha) * log_tail(r), 0.0)
    if fam is Family.GT_BETA:
        return lane_value(r + 2.0 * (1.0 - spec.beta) * r * r / (1.0 - r), 0.0)
    if fam is Family.TB_M:
        return lane_value(r + 0.5 * spec.m * r * r, 0.0)
    if fam is Family.PH_M:
        return lane_value(r + 2.0 * spec.m * nn1_tail(r), 0.0)
    try:
        s = sum_power_series(coefficient_rule(spec), r, tol=tol)
    except ConvergenceError as exc:
        part = exc.achieved
        raise ConvergenceError(
            str(exc), achieved=lane_value(r + part.value, part.error_bound)
        ) from None
    return lane_value(r + s.value, s.error_bound)


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


def _gh_lacunary_rule(spec: ClassSpec) -> CoefficientRule:
    # Coefficients of the lacunary extremal reindexed by j: term j carries
    # 2 / (1 + j*k*alpha) against y^j with y = r^k.
    ka = int(spec.k) * spec.alpha
    return CoefficientRule(lambda j: 2.0 / (1.0 + j * ka), 1, "gh-lacunary")


def growth_envelope(spec: ClassSpec, r: float, tol: float = 1e-12) -> GrowthEnvelope:
    """Sharp lower/upper bounds on |f(z)| at |z| = r for the family."""
    validate(spec)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"r must satisfy 0 <= r < 1, got {r}")
    fam = spec.family
    if fam is Family.PH_ALPHA:
        span = 2.0 * (1.0 - spec.alpha)
        return GrowthEnvelope(r + span * alt_log_tail(r), r + span * log_tail(r))
    if fam is Family.GT_BETA:
        b = spec.beta
        lower = b * r + (1.0 - b) * r * (1.0 - r) / (1.0 + r)
        upper = b * r + (1.0 - b) * r * (1.0 + r) / (1.0 - r)
        return GrowthEnvelope(lower, upper)
    if fam is Family.WH_ALPHA:
        rule = coefficient_rule(spec)
        plus = sum_power_series(rule, r, tol=0.5 * tol)
        minus = signed_power_series(rule, -r, tol=0.5 * tol)
        return GrowthEnvelope(
            r - minus.value, r + plus.value, plus.error_bound + minus.error_bound
        )
    if fam is Family.GH_K_ALPHA:
        rule = _gh_lacunary_rule(spec)
        y = r**spec.k
        plus = sum_power_series(rule, y, tol=0.5 * tol)
        minus = signed_power_series(rule, -y, tol=0.5 * tol)
        return GrowthEnvelope(
            r * (1.0 + minus.value),
            r * (1.0 + plus.value),
            r * (plus.error_bound + minus.error_bound),
        )
    if fam is Family.TB_M:
        half = 0.5 * spec.m * r * r
        return GrowthEnvelope(r - half, r + half)
    span = 2.0 * spec.m
    return GrowthEnvelope(r + span * alt_nn1_tail(r), r + span * nn1_tail(r))


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
    """Coefficients a_1..a_N (and zero b_2..b_N) of the extremal map."""
    validate(spec)
    if int(truncation) != truncation or truncation < 1:
        raise DomainError(f"truncation must be an integer >= 1, got {truncation!r}")
    n_top = int(truncation)
    a = np.zeros(n_top, dtype=np.float64)
    a[0] = 1.0
    fam = spec.family
    if fam is Family.GH_K_ALPHA:
        k = int(spec.k)
        ka = k * spec.alpha
        js = np.arange(1, (n_top - 1) // k + 1, dtype=np.float64)
        a[(js * k).astype(np.int64)] = 2.0 / (1.0 + js * ka)
    elif fam is Family.TB_M:
        if n_top >= 2:
            a[1] = spec.m / 2.0
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
