"""The six harmonic-mapping families, each defined once as a ``FamilyDef`` record.

A family is a parameterised class of sense-preserving harmonic maps
f = h + conj(g) on the unit disk, normalised so f(0) = 0 and h'(0) = 1.
``FAMILIES`` holds one frozen :class:`FamilyDef` per :class:`Family`, and
each record is everything the package knows about its family:

* its parameters, the last of them the one grid commands sweep, and their
  domain, which every :class:`ClassSpec` passes where it is built
  (``validate``), so no function here checks a spec it is given;
* the sharp per-index bound c_n on |a_n| + |b_n| (``coefficient_rule``)
  and the extremal map built from it (``extremal_coefficients``);
* the majorant B(r) = r + sum c_n r^n (``bohr_sum``): a closed form for
  four families, and a fixed-cost Euler-Maclaurin sum for the other two,
  a Lerch sum (``series.lerch_sum``) for gh-k-alpha and for wh-alpha
  ``series._wh_sums``, returned by one call together with an upper bound
  on B' for the solver's Newton steps (for both, from the same Lerch sum);
* the lower growth envelope, |f| at the extremal's lower touch point on
  |z| = r for 0 <= r <= 1 (``lower``): a closed form, or for wh-alpha and
  gh-k-alpha the alternating form of its majorant's sum, summed at a fixed
  cost with a Boole tail (``series._wh_alt``, and ``series.alt_lerch_sum``
  of the lacunary terms in y = r^k).  Its value at r = 1 is the distance
  constant d*, a sharp lower bound on the distance from f(0) to the
  boundary of the image (``distance_bound``);
* the closed-form radius where one exists.

The upper growth envelope is B itself (``growth_envelope`` pairs it with
the lower one), except for gh-k-alpha: for k >= 2 its lacunary extremal
does not attain B, so that record alone sets ``upper``, a Lerch sum in y.
So each d* and each B is written once.

Every public function here is a lookup in ``FAMILIES``, so a new family is
one entry; the one per-family branch left is the lacunary extremal of
gh-k-alpha.  No callable takes a tolerance: closed forms and fixed-cost
sums each return their own certified bound.  The records call the series
engine through this module's globals at call time and never hold a
reference to it, so a tool that rebinds those globals
(``perfbench/tracer.py``) sees every call.

The Bohr radius of the family is the unique r with B(r) = d*; solving that
equation is the job of :mod:`harmbohr.solver`, which solves a whole grid of
parameter points (lanes) at once through lane specs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError
from .series import (
    CoefficientRule,
    SeriesValue,
    _wh_alt,
    _wh_sums,
    alt_lerch_sum,
    alt_log_tail,
    alt_nn1_tail,
    as_param,
    capped_product,
    fields_equal,
    lane_value,
    lerch_sum,
    log_tail,
    nn1_tail,
    require,
)

LN4 = math.log(4.0)

# Parameter supremum for the PH_M family: the distance constant
# 1 + 2m(1 - ln 4) must stay positive.
PH_M_SUP = 1.0 / (2.0 * (LN4 - 1.0))

# Rounding allowance per unit of the parts of an H' bound that cancel.
_ROUNDING = 8.0 * 2.0**-52

# The least alpha whose gh-k-alpha slope bound is summed by partial
# fractions (see _gh_majorant).
_GH_TINY_ALPHA = 1e-280

# The parameters a lane spec may sweep; k stays one integer for all lanes.
_LANE_PARAMS = ("alpha", "beta", "m")


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
    """A family together with a concrete parameter choice, valid by
    construction.

    Building one (directly, by ``dataclasses.replace`` or by any helper
    here) stores alpha, beta and m as floats and an integral k as an int,
    then runs ``validate``: an invalid spec raises ValidationError and is
    never made, so no engine checks a spec again.  In a lane spec (see
    ``stack_lanes``) alpha, beta and m are read-only float64 copies of 1-D
    arrays holding one parameter point per lane; ``bohr_sum``,
    ``distance_bound`` and ``coefficient_rule`` then work on all lanes at
    once.
    """

    family: Family
    alpha: float | None = None
    beta: float | None = None
    m: float | None = None
    k: int | None = None

    # The generated == would ask numpy for the truth of a lane array.
    __eq__ = fields_equal

    def __post_init__(self):
        for name in (*_LANE_PARAMS, "k"):
            _require_real(name, getattr(self, name))
        for name in _LANE_PARAMS:
            value = getattr(self, name)
            if isinstance(value, np.ndarray) and value.ndim:
                value = np.array(value, dtype=np.float64)
                value.flags.writeable = False
            elif value is not None:
                value = float(value)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "k", _as_count(self.k))
        validate(self)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so a
        # copy's lane arrays are read-only and checked like the original's.
        return type(self), (self.family, self.alpha, self.beta, self.m, self.k)

    def params(self) -> dict[str, float]:
        """The parameters relevant to this family, in canonical order."""
        return {name: getattr(self, name) for name in FAMILIES[self.family].params}


@dataclass(frozen=True)
class FamilyDef:
    """One family's parameters, domain and sharp bounds.

    ``params`` lists the parameter names; the last is the swept one and the
    argument of ``coeff``.  ``domain`` holds (name, test, message) triples,
    checked in order.  The callables take a (lane) spec: ``coeff(n, p)``
    gives c_n, ``majorant(spec, r)`` the pair (B(r) - r as a SeriesValue,
    an upper bound on B'(r)) from one evaluation, ``lower(spec, r)`` |f| at
    the extremal's lower touch point on |z| = r as a SeriesValue, for
    0 <= r <= 1, so that d* is its value at r = 1, and ``radius(spec)`` the
    closed-form radius (None: solved).  ``upper(spec, r)``, like ``lower``
    but at the upper touch point, is set only where the extremal's |f|
    there is not r + (B(r) - r): for gh-k-alpha with k >= 2 the lacunary
    extremal does not attain B.  ``r`` is an array (0-d for one radius) or
    the float 1.0, and each entry of a result is computed from its own r
    and lane alone.  Each is a closed form or a sum at a fixed cost, and
    each SeriesValue carries its own certified bound.
    """

    params: tuple[str, ...]
    domain: tuple[tuple[str, Callable, str], ...]
    coeff: Callable
    majorant: Callable
    lower: Callable
    radius: Callable | None = None
    upper: Callable | None = None


@dataclass(frozen=True)
class GrowthEnvelope:
    """Sharp bounds on |f(z)| over |z| = r: lower <= |f| <= upper.

    Floats for one r; for many, arrays of one shape with an entry per r,
    each checked on its own.
    """

    lower: float
    upper: float
    error_bound: float = 0.0

    __eq__ = fields_equal

    def __post_init__(self):
        fields = np.broadcast_arrays(self.lower, self.upper, self.error_bound)
        for name, value in zip(("lower", "upper", "error_bound"), fields):
            value = float(value) if value.ndim == 0 else np.array(value, dtype=np.float64)
            object.__setattr__(self, name, value)
        slack = self.error_bound + 1e-15
        ok = (-slack <= self.lower) & (self.lower <= self.upper + 2.0 * slack)
        if not (ok if isinstance(ok, bool) else ok.all()):
            i = np.argmin(np.reshape(ok, -1))
            lower, upper = (float(np.reshape(v, -1)[i]) for v in (self.lower, self.upper))
            raise DomainError(f"envelope must satisfy 0 <= lower <= upper, got ({lower}, {upper})")


def _require_real(name: str, value) -> None:
    # None, a real number or an array of reals; float() would also take a
    # bool or a numeric string.
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iuf"
    else:
        ok = value is None or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not ok:
        raise ValidationError(f"{name} must be a real number, got {value!r}")


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


def _wh_lower(spec: ClassSpec, r) -> SeriesValue:
    # |f(-r)| = r + sum c_n (-1)^(n-1) r^n, which is
    # r - 2 sum_{n>=2} (-1)^n r^n/(n (1 - alpha + alpha n)).
    alt = _wh_alt(r, spec.alpha)
    return lane_value(r - 2.0 * alt.value, 2.0 * alt.error_bound)


def _wh_majorant(spec: ClassSpec, r):
    # c_n = 2/(n (1 + (n - 1) alpha)): B - r = 2 S and B' = 1 + 2 S', both
    # from one fixed-cost evaluation.  1 + 2 S' may round down by half an
    # ulp, so it is rounded up.
    s, slope = _wh_sums(r, spec.alpha)
    tail = lane_value(2.0 * s.value, 2.0 * s.error_bound)
    return tail, np.nextafter(1.0 + 2.0 * (slope.value + slope.error_bound), np.inf)


def _gh_majorant(spec: ClassSpec, r):
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


def _gh_lacunary_rule(spec: ClassSpec) -> CoefficientRule:
    # Coefficients of the lacunary extremal reindexed by j: term j carries
    # 2 / (1 + j*k*alpha) against y^j with y = r^k; one row per lane.
    ka = as_param(capped_product(spec.k, spec.alpha))
    return CoefficientRule(lambda j, ka: 2.0 / (1.0 + j * ka), 1, "gh-lacunary", (ka,))


def _gh_side(spec: ClassSpec, r, sign: float, lerch) -> SeriesValue:
    # With y = r^k the extremal is r (1 + sum_j 2 (+-y)^j / (1 + j k alpha)),
    # and that sum is +-2 y sum_{m>=0} (+-y)^m / (1 + (m + 1) k alpha): a
    # Lerch sum at the upper touch point, where the signs are all +, and an
    # alternating one at the lower.
    y = r**spec.k
    ka = capped_product(spec.k, spec.alpha)
    sv = lerch(y, 1.0 + ka, ka)
    return lane_value(r * (1.0 + sign * 2.0 * y * sv.value), r * (2.0 * y * sv.error_bound))


FAMILIES: dict[Family, FamilyDef] = {
    Family.PH_ALPHA: FamilyDef(
        params=("alpha",),
        domain=(("alpha", lambda a: (0.0 <= a) & (a < 1.0), "alpha must satisfy 0 <= alpha < 1"),),
        coeff=lambda n, a: 2.0 * (1.0 - a) / n,
        majorant=lambda s, r: (
            lane_value(2.0 * (1.0 - s.alpha) * log_tail(r), 0.0),
            1.0 + 2.0 * (1.0 - s.alpha) * r / (1.0 - r),
        ),
        lower=lambda s, r: lane_value(r + 2.0 * (1.0 - s.alpha) * alt_log_tail(r), 0.0),
    ),
    Family.GT_BETA: FamilyDef(
        params=("beta",),
        domain=(
            ("beta", lambda b: b >= 0.0, "beta must be >= 0"),
            ("beta", lambda b: b < 0.5, "beta must be < 1/2"),
        ),
        coeff=lambda n, b: 2.0 * (1.0 - b) * np.ones_like(n),
        majorant=lambda s, r: (
            lane_value(2.0 * (1.0 - s.beta) * r * r / (1.0 - r), 0.0),
            1.0 + 2.0 * (1.0 - s.beta) * r * (2.0 - r) / (1.0 - r) ** 2,
        ),
        # Exactly beta at r = 1, however small beta is.
        lower=lambda s, r: lane_value(
            s.beta * r + (1.0 - s.beta) * r * (1.0 - r) / (1.0 + r), 0.0
        ),
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
        majorant=_wh_majorant,
        lower=_wh_lower,
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
        majorant=_gh_majorant,
        lower=lambda s, r: _gh_side(s, r, -1.0, alt_lerch_sum),
        upper=lambda s, r: _gh_side(s, r, 1.0, lerch_sum),
    ),
    Family.TB_M: FamilyDef(
        params=("m",),
        domain=(("m", lambda m: (0.0 < m) & (m < 2.0), "m must satisfy 0 < m < 2"),),
        coeff=lambda n, m: np.where(n == 2.0, m / 2.0, 0.0),
        majorant=lambda s, r: (lane_value(0.5 * s.m * r * r, 0.0), 1.0 + s.m * r),
        lower=lambda s, r: lane_value(r - 0.5 * s.m * r * r, 0.0),
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
        majorant=lambda s, r: (
            lane_value(2.0 * s.m * nn1_tail(r), 0.0), 1.0 - 2.0 * s.m * np.log1p(-r)
        ),
        lower=lambda s, r: lane_value(r + 2.0 * s.m * alt_nn1_tail(r), 0.0),
    ),
}

def validate(spec: ClassSpec) -> None:
    """Raise ValidationError naming the violated bound if spec is invalid.

    Every ClassSpec runs this once, when it is built; a later call checks
    it again.  Each float parameter is first required and finite, then
    tested; for a lane spec every lane is checked, and the error names the
    first failing lane's value.
    """
    finite = set()
    for name, test, message in FAMILIES[spec.family].domain:
        value = getattr(spec, name)
        if name in _LANE_PARAMS and name not in finite:
            if value is None:
                raise ValidationError(f"{name} is required for this family")
            _check(np.isfinite(value), value, f"{name} must be finite")
            finite.add(name)
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
    entry (a lane) per given spec.
    """
    specs = list(specs)
    if not specs:
        raise DomainError("lanes need at least one spec, got 0 specs")
    first = specs[0]
    if any(s.family is not first.family or s.k != first.k for s in specs):
        raise DomainError("lanes must share one family and one k")
    lanes = {
        name: np.array([getattr(s, name) for s in specs])
        for name in _LANE_PARAMS
        if getattr(first, name) is not None
    }
    return replace(first, **lanes)


def lane_groups(specs) -> list[list[int]]:
    """The indices of ``specs`` by family and k, in order of first
    appearance: the specs of each group stack into one lane spec."""
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.family, spec.k), []).append(i)
    return list(groups.values())


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
            if r.ndim:
                raise DomainError(
                    "r must be one radius or one per lane, "
                    f"got {r.size} radii for {lanes.size} lanes"
                )
            return np.broadcast_to(r, lanes.shape)
    return r


def _as_count(k):
    # An integral k becomes an int, so records print "k": 2; anything else
    # is left as given for validate to reject.
    try:
        if int(k) == float(k):
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    return k


def make_spec(family: Family, **params) -> ClassSpec:
    """Build a spec from keyword parameters."""
    names = FAMILIES[family].params
    for name in names:
        if name not in params:
            raise ValidationError(f"missing parameter {name!r} for {family.value}")
    return ClassSpec(family, **{name: params[name] for name in names})


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
    return spec.k + 1 if "k" in FAMILIES[spec.family].params else 2


def coefficient_rule(spec: ClassSpec) -> CoefficientRule:
    """The coefficient bounds as a vectorised rule for the series engine,
    with one row of coefficients per lane for a lane spec."""
    n0 = start_index(spec)
    fam = FAMILIES[spec.family]
    p = as_param(getattr(spec, fam.params[-1]))
    return CoefficientRule(fam.coeff, n0, spec.family.value, (p,))


def distance_bound(spec: ClassSpec) -> SeriesValue:
    """The distance constant d*: a sharp lower bound on dist(f(0), boundary).

    d* is the lower growth envelope at r = 1, the limit of the least |f| on
    |z| = r: a closed form where one exists, an alternating sum with a Boole
    tail otherwise, with its certified bound.  A lane spec gives arrays,
    one d* per lane.
    """
    return FAMILIES[spec.family].lower(spec, 1.0)


def bohr_sum(spec: ClassSpec, r) -> SeriesValue:
    """The majorant sum B(r) = r + sum_{n>=start} c_n r^n for 0 <= r < 1.

    ``r`` is a float, or an array: a grid of radii for one spec, or one
    radius per lane of a lane spec.  Every family's majorant is a closed
    form or an Euler-Maclaurin sum at a fixed cost, which never raises
    ConvergenceError: wh-alpha's and gh-k-alpha's carry their own honest
    bound.  For wh-alpha that bound is within 1e-13 up to r = 0.9999;
    beyond, it grows as r nears 1.
    """
    r = _broadcast(spec, r)
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    tail, _ = FAMILIES[spec.family].majorant(spec, r)
    return lane_value(r + tail.value, tail.error_bound)


def growth_envelope(spec: ClassSpec, r) -> GrowthEnvelope:
    """Sharp lower/upper bounds on |f(z)| at |z| = r for the family.

    The lower side is the family's ``lower``; the upper side is r plus the
    majorant's tail, B(r), except for gh-k-alpha, whose ``upper`` is the
    lacunary extremal's own.  ``r`` is a float, giving floats, or an array,
    as for ``bohr_sum``, giving arrays: each entry is bit for bit its own
    float call.  ``error_bound`` is the sum of the two sides' certified
    bounds; an Euler-Maclaurin side (wh-alpha's and gh-k-alpha's upper)
    grows next to r = 1, and for gh-k-alpha at alpha near 0.
    """
    r = _broadcast(spec, r)
    require((0.0 <= r) & (r < 1.0), r, "r must satisfy 0 <= r < 1")
    fam = FAMILIES[spec.family]
    low = fam.lower(spec, r)
    if fam.upper is not None:
        up = fam.upper(spec, r)
    else:
        tail = fam.majorant(spec, r)[0]
        up = SeriesValue(r + tail.value, tail.error_bound)
    return GrowthEnvelope(low.value, up.value, low.error_bound + up.error_bound)


def extremal_coefficients(spec: ClassSpec, truncation: int) -> np.ndarray:
    """Coefficients a_1..a_N of the extremal map, N = ``truncation``.

    Entry j is the coefficient of z^(j+1), so entry 0 is 1.  The map is
    z + sum c_n z^n, except for gh-k-alpha, whose extremal carries only the
    powers z^(jk+1).  Every family's extremal here is analytic: its
    co-analytic part is zero.
    """
    if int(truncation) != truncation or truncation < 1:
        raise DomainError(f"truncation must be an integer >= 1, got {truncation!r}")
    n_top = int(truncation)
    a = np.zeros(n_top, dtype=np.float64)
    a[0] = 1.0
    if spec.family is Family.GH_K_ALPHA:
        k = spec.k
        js = np.arange(1, (n_top - 1) // k + 1, dtype=np.float64)
        a[(js * k).astype(np.int64)] = _gh_lacunary_rule(spec).terms(js)
    elif n_top >= 2:
        ns = np.arange(2, n_top + 1, dtype=np.float64)
        a[1:] = coefficient_rule(spec).terms(ns)
    return a
