"""Independent numerical checks for radii, constants, and envelopes.

Nothing here trusts the solver's own arithmetic: extremal maps are evaluated
directly from their coefficients on circles, boundary distances are estimated
by circle minima, sharpness is checked by recomputing both sides of the
defining equation, and the named check suite behind ``harmbohr verify``
cross-validates closed forms, series engines, and reductions between
families against each other.

The checks are predicates over what the suite hands them, and the
registry is the one place a check names its specs and r grids.  Before
any check runs, ``run_suite`` solves the union of its selected checks'
specs in one lane pass per family and config; then it makes one
``distance_bound`` call per family for every d* a check reads, and one
``bohr_sum`` and one ``growth_envelope`` call per family over every grid
a check asks for, whatever the specs' k: 18 engine calls for the full
suite, the specs of a family stacked into one lane spec (``stack_lanes``,
``lane_groups``).  A grid may come from a spec's radius or from its d*,
so each stage reads the one before.  Each check is handed, in order, the
``RadiusResult`` of each spec it solves, the d* of each spec it reads and
its engine's value over each of its grids.  A check with a spec that
fails to solve asks for nothing and fails with that spec's error; an
engine call that raises fails exactly the checks with lanes in it, with
that error.  Each lane comes out bit for bit as its own call would, so
batching changes no verdict or detail.  The time of all three stages is
``SuiteReport.shared_seconds``, and a check's own ``seconds`` time its
predicate alone.  Circle values come from one ``abs_on_circle`` call per
spec and radius.

Each family's d* - 1, an alternating sum with a Boole tail or a closed
form, is checked against a direct sum of 2^14 of its terms closed by an
Euler mean of the partial sums, which carries its own truncation and
rounding bound: the two may differ by no more than that bound plus d*'s
certified one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import _kernels
from .classes import (
    ClassSpec,
    Family,
    bohr_sum,
    coefficient_rule,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    growth_envelope,
    gt_beta,
    ph_alpha,
    ph_m,
    start_index,
    take_lanes,
    tb_m,
    wh_alpha,
)
from .errors import DomainError, HarmBohrError
from .series import CoefficientRule, SeriesValue
# solve_radius is not called here; perfbench/test_perfbench.py reads it.
from .solver import (
    RadiusResult,
    SolverConfig,
    _by_family,
    _raise_first,
    _solve_each,
    closed_form_radius,
    jacobian_functional,
    jacobian_radius,
    solve_radii,
    solve_radius,  # noqa: F401
)

# Previously reported decimal for the widest-parameter root of the
# odd-coefficient family; the defining equation is the binding quantity and
# its root lands elsewhere, so reports must surface both numbers.
WH_ALPHA1_REFERENCE_DECIMAL = 0.58387765

# Parameter grids used by the named suite; chosen to cover each family's
# domain including its near-degenerate ends.
STANDARD_GRIDS: dict[Family, tuple[ClassSpec, ...]] = {
    Family.PH_ALPHA: tuple(ph_alpha(a) for a in (0.0, 0.2, 0.4, 0.6, 0.8)),
    Family.GT_BETA: tuple(gt_beta(round(0.05 * i, 2)) for i in range(10)),
    Family.WH_ALPHA: tuple(wh_alpha(a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)),
    Family.GH_K_ALPHA: tuple(
        gh_k_alpha(k, a) for k in (1, 2, 3) for a in (0.5, 1.0, 2.0)
    ),
    Family.TB_M: tuple(tb_m(round(0.1 + 0.2 * i, 2)) for i in range(10)),
    Family.PH_M: tuple(ph_m(m) for m in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.25)),
}

# The finer tb-m grid of the closed-form and Jacobian checks.
_TB_MS = tuple(round(0.1 + 0.1 * i, 2) for i in range(19))


@dataclass(frozen=True)
class OracleEstimate:
    """A circle-minimum estimate of the boundary distance."""

    value: float
    truncation_n: int
    grid_size: int
    rho: float
    argmin_theta: float = 0.0


@dataclass(frozen=True)
class SharpnessReport:
    """Evidence that the majorant exactly exhausts the distance at the radius."""

    spec: ClassSpec
    passed: bool
    radius: float
    bohr_at_radius: float
    d_star: float
    gap: float
    violation_gap: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class EnvelopeRow:
    r: float
    lower: float
    upper: float
    at_lower_point: float
    at_upper_point: float
    contained: bool


@dataclass(frozen=True)
class EnvelopeReport:
    spec: ClassSpec
    passed: bool
    rows: tuple[EnvelopeRow, ...]

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    """The results of the checks run, in suite order.  A check's
    ``seconds`` leave out what it is handed: the suite solves every
    check's specs and evaluates every d*, B and envelope the checks read
    once, before the first check runs, in ``shared_seconds``."""

    results: tuple[CheckResult, ...]
    shared_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _tail_bound(spec: ClassSpec, n: int, r):
    """c_{n+1} r^(n+1) / (1 - r): the majorant mass beyond index n at r, for
    a float r or elementwise over an array of them."""
    return coefficient_rule(spec).term(n + 1) * r ** (n + 1) / (1.0 - r)


def distance_oracle(
    spec: ClassSpec, rho: float = 0.999, grid: int = 720, n: int = 100_000
) -> OracleEstimate:
    """Minimum of |f| over the circle |z| = rho for the family's extremal.

    As rho -> 1 the estimate improves monotonically toward the distance
    constant d* for these extremals, approaching it from below along the
    ray of minimum modulus.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must satisfy 0 < rho < 1, got {rho}")
    if int(grid) != grid or grid < 8:
        raise DomainError(f"grid must be an integer >= 8, got {grid!r}")
    n0 = start_index(spec)
    if int(n) != n or n < n0:
        raise DomainError(f"n must be an integer >= {n0}, got {n!r}")
    return _circle_minimum(extremal_coefficients(spec, int(n)), float(rho), int(grid))


def _circle_minimum(ext: np.ndarray, rho: float, grid: int) -> OracleEstimate:
    """``distance_oracle`` on the extremal's coefficients ``ext``, which a
    sweep over rho builds once."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    values = _kernels.abs_on_circle(ext, rho, thetas)
    idx = int(np.argmin(values))
    return OracleEstimate(
        value=float(values[idx]),
        truncation_n=ext.size,
        grid_size=grid,
        rho=rho,
        argmin_theta=float(thetas[idx]),
    )


def sharpness_check(
    spec: ClassSpec, tol: float = 1e-12, config: SolverConfig | None = None
) -> SharpnessReport:
    """Check that bohr_sum(r_f) = d* within tol, and is violated just beyond."""
    results = solve_radii([spec], config)
    (b,) = _raise_first(_on_grids(bohr_sum, [spec], _sharpness_grids(results, ())))
    return _sharpness_report(spec, results[0], b, tol)


# Sharpness reads B at r_f and this far beyond it.
_STEP_OUT = 1e-6


def _sharpness_grids(results: list[RadiusResult], _) -> list[np.ndarray]:
    """B's grid for each sharpness spec: r_f and one step beyond it, or 0
    in place of a step past 1 (radii stay well inside (0, 1), and a step
    past 1 would count as violated)."""
    return [
        np.array([res.radius, res.radius + _STEP_OUT if res.radius + _STEP_OUT < 1.0 else 0.0])
        for res in results
    ]


def _sharpness_report(
    spec: ClassSpec, res: RadiusResult, b: SeriesValue, tol: float
) -> SharpnessReport:
    """``sharpness_check`` of a spec, given its solved radius and B over
    its sharpness grid."""
    d = res.d_star
    value, beyond = b.value.tolist()
    gap = value - d.value
    slack = float(b.error_bound[0]) + d.error_bound
    violation_gap = beyond - d.value if res.radius + _STEP_OUT < 1.0 else float("inf")
    return SharpnessReport(
        spec=spec,
        passed=abs(gap) <= tol + slack and violation_gap > 0.0,
        radius=res.radius,
        bohr_at_radius=value,
        d_star=d.value,
        gap=gap,
        violation_gap=violation_gap,
    )


def _d_stars(specs: list[ClassSpec]) -> list:
    """d* of each spec as floats, from one ``distance_bound`` call per
    family."""

    def family(lanes, _):
        d = distance_bound(lanes)
        return list(map(SeriesValue, d.value.tolist(), d.error_bound.tolist()))

    return _by_family(specs, family)


def _on_grids(engine: Callable, specs: list[ClassSpec], grids: list[np.ndarray]) -> list:
    """``engine(spec, grids[i])`` for each spec i, ``engine`` being
    ``bohr_sum`` or ``growth_envelope``, from one call per family.  Its
    lanes repeat each spec of the family across its grid (picked by index,
    not stacked spec by spec), and each spec gets its part of every field."""

    def family(lanes, idx):
        sizes = [grids[i].size for i in idx]
        each = take_lanes(lanes, np.repeat(np.arange(len(idx)), sizes))
        out = engine(each, np.concatenate([grids[i] for i in idx]))
        cuts = np.cumsum(sizes)[:-1]
        return [
            type(out)(*parts)
            for parts in zip(*(np.split(getattr(out, f.name), cuts) for f in fields(out)))
        ]

    return _by_family(specs, family)


def _first_violation(rs: np.ndarray, b: SeriesValue, d: SeriesValue) -> Optional[float]:
    """The first r of ``rs`` where the Bohr inequality B(r) <= d* fails
    beyond both error bounds (a NaN fails it too), or None; ``b`` is B over
    ``rs``."""
    bad = np.flatnonzero(~(b.value <= d.value + b.error_bound + d.error_bound + 1e-15))
    return float(rs[bad[0]]) if bad.size else None


_ENVELOPE_SAMPLES = (0.1, 0.3, 0.5, 0.7, 0.9)


def envelope_check(
    spec: ClassSpec,
    samples: Iterable[float] = _ENVELOPE_SAMPLES,
    truncation: int = 10_000,
    tol: float = 1e-8,
) -> EnvelopeReport:
    """Check envelope containment and touch-point equality for the extremal.

    Both envelopes at every sample come from one ``growth_envelope`` call,
    which the suite makes once per family for all its ``envelope-*``
    specs.  At each sample radius the extremal is evaluated once, on
    a circle grid of 24 k points, where k is the gap of its powers
    (``start_index`` - 1: 1 for every family but gh-k-alpha).  Containment
    is checked over the whole grid, upper equality at angle 0 (point 0) and lower equality at
    pi/k (point 12), all within tol plus the truncation bound of the
    coefficient cutoff.  A gap of ``truncation`` or more leaves the
    truncated extremal z alone, with |f| = r at every angle, and a grid of
    24 points.
    """
    samples = tuple(float(r) for r in samples)
    if any(not 0.0 < r < 1.0 for r in samples):
        raise DomainError("all samples must lie in (0, 1)")
    rs = np.array(samples)
    (env,) = _raise_first(_on_grids(growth_envelope, [spec], [rs]))
    return _envelope_report(spec, rs, env, truncation, tol)


def _envelope_report(spec: ClassSpec, rs: np.ndarray, env, truncation: int, tol: float) -> EnvelopeReport:
    """``envelope_check`` of a spec, given both its envelopes over the
    sample radii ``rs``."""
    ext = extremal_coefficients(spec, truncation)
    k = start_index(spec) - 1
    thetas = np.linspace(0.0, 2.0 * math.pi, 24 * k if k < truncation else 24, endpoint=False)
    slacks = tol + _tail_bound(spec, truncation, rs) + env.error_bound
    rows = []
    passed = True
    for r, lower, upper, slack in zip(rs.tolist(), env.lower.tolist(), env.upper.tolist(), slacks):
        values = _kernels.abs_on_circle(ext, r, thetas)
        at_upper, at_lower = float(values[0]), float(values[12])
        contained = bool(np.all(values >= lower - slack) and np.all(values <= upper + slack))
        ok = contained and abs(at_upper - upper) <= slack and abs(at_lower - lower) <= slack
        passed = passed and ok
        rows.append(EnvelopeRow(r, lower, upper, at_lower, at_upper, contained))
    return EnvelopeReport(spec=spec, passed=passed, rows=tuple(rows))


# The direct alternating oracle of ``alt-engine-vs-direct-sum``: 2^14 plain
# terms, then Euler's mean of order _EULER_K over the partial sums from there.
_EULER_K = 3
_ORACLE_TERMS = (1 << 14) + _EULER_K

_EPS = float(np.finfo(np.float64).eps)


def _direct_alt_euler_mean(
    rules: Iterable[CoefficientRule], n_terms: int, k: int
) -> SeriesValue:
    """For each rule, sum_{n>=start} (-1)^(n-start+1) c_n, the first term
    negative, as in d* - 1 of every family: Euler's k-th mean of the
    plain partial sums S_N .. S_{N+k} of its first ``n_terms`` = N + k
    terms (DLMF 3.9(ii)), with an error bound; arrays, one lane per rule.

    With a_j = c_{start+j} and S_M = sum_{j<M} (-1)^j a_j, the sum is -S,
    S = lim S_M, and the mean is

        E = 2^-k sum_{i=0}^{k} C(k, i) S_{N+i}
          = S_N + (-1)^N sum_{i<k} (-1)^i w_i a_{N+i},
        w_i = 2^-k sum_{j=i+1}^{k} C(k, j),

    dyadic weights, exact in floats; k = 1 is the mean of the last two
    partial sums.  Truncation: if the a_j are moments int_0^1 t^j dmu(t) of
    a positive measure mu (every coefficient rule of the package is: 1/n
    and 1/(1 + a n) are moments, and so are products of moment sequences),
    then S - S_M = (-1)^M int t^M / (1 + t) dmu, and as
    sum_i C(k, i) (-t)^i = (1 - t)^k,

        E - S = -(-1)^N 2^-k int t^N (1 - t)^k / (1 + t) dmu(t).

    With 1/2 <= 1/(1 + t) <= 1 on [0, 1], |E - S| lies between half of and
    all of 2^-k int t^N (1 - t)^k dmu = 2^-k |Delta^k a_N|, the k-th forward
    difference of the coefficients at N: 2.1e-17 for c_n = 2/n from n = 2 at
    N = 2^14 and k = 3.

    Rounding: each coefficient is taken within 4 eps of its exact value (the
    check's rules take at most four rounded operations, 2 eps).  With A the
    sum of the coefficients summed, that moves E by at most 4 eps A, and
    2^-k Delta^k a_N by at most 4 eps a_N <= 4 eps A; the pair differences
    a_{2i} - a_{2i+1}, Delta^k, the k tail terms and the last additions err
    by at most (2 + 2k) eps A more.  numpy sums the m pair differences
    pairwise: blocks of at most 128 in 8 interleaved partial sums, then
    halving, so each passes through under 26 + log2 m additions of half an
    ulp, covered by (16 + log2 m) eps times their magnitudes.  The error
    bound is the truncation bound plus these.
    """
    if int(k) != k or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if int(n_terms) != n_terms or n_terms < k:
        raise DomainError(f"n_terms must be an integer >= k = {k}, got {n_terms!r}")
    k, n = int(k), int(n_terms) - int(k)
    m = n // 2
    tail_weights = (-1.0) ** np.arange(k) * [
        sum(math.comb(k, j) for j in range(i + 1, k + 1)) / 2.0**k for i in range(k)
    ]
    values, bounds = [], []
    for rule in rules:
        # a_0 .. a_{N+k}: the last one enters Delta^k a_N alone.
        a = rule.terms(np.arange(rule.start, rule.start + n + k + 1, dtype=np.float64))
        pairs = a[0 : 2 * m : 2] - a[1 : 2 * m : 2]
        head = float(np.sum(pairs)) + (float(a[n - 1]) if n % 2 else 0.0)
        s = head + (-1.0) ** n * float(tail_weights @ a[n : n + k])
        truncation = abs(float(np.diff(a[n:], k)[0])) / 2.0**k
        rounding = (10.0 + 2.0 * k) * float(np.sum(a[: n + k]))
        rounding += (16.0 + math.log2(max(m, 1))) * float(np.sum(np.abs(pairs)))
        values.append(-s)
        bounds.append(truncation + _EPS * rounding)
    return SeriesValue(np.array(values), np.array(bounds))


# ---------------------------------------------------------------------------
# Named check suite
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _per_spec(specs: tuple[ClassSpec, ...], handed: tuple) -> Iterable[tuple]:
    """Each spec with what its check is handed for it: the suite hands one
    kind (radii, then d*, then engine values) for every spec before the
    next."""
    n = len(specs)
    return zip(specs, *(handed[i : i + n] for i in range(0, len(handed), n)))


def _check_radius_ph_reference(res: RadiusResult) -> tuple[bool, str]:
    ok = abs(res.radius - 0.285194) <= 1e-4 and res.residual <= 1e-10
    return ok, f"radius={_fmt(res.radius)} residual={res.residual:.2e}"

def _check_reduction(res: RadiusResult, res_ph: RadiusResult) -> tuple[bool, str]:
    """A reduced spec's radius equals that of ph-alpha at alpha = 0."""
    r, r_ph = res.radius, res_ph.radius
    diff = abs(r - r_ph)
    return diff <= 1e-9, f"|{_fmt(r)} - {_fmt(r_ph)}| = {diff:.2e}"

def _check_closed_vs_bisection(specs, *results: RadiusResult) -> tuple[bool, str]:
    """Newton without the closed form lands on the closed-form radius."""
    closed = [closed_form_radius(s) for s in specs]
    # np.max, unlike max(), lets a NaN radius through to fail the check.
    worst = float(np.max([abs(c - res.radius) for c, res in zip(closed, results)]))
    # A closed-form radius of 0 (d* = 0) must solve to exactly 0.
    zero_ok = all(res.radius == 0.0 for c, res in zip(closed, results) if c == 0.0)
    return worst <= 1e-10 and zero_ok, f"max |closed - bisection| = {worst:.2e}"

def _check_tb_quadratic_residual() -> tuple[bool, str]:
    m = np.array(_TB_MS)
    r = closed_form_radius(tb_m(m))
    worst = float(np.max(np.abs(m * r * r + 2.0 * r + (m - 2.0))))
    ref = abs(closed_form_radius(tb_m(1.0)) - (math.sqrt(2.0) - 1.0))
    ok = worst <= 1e-12 and ref <= 1e-12
    return ok, f"max quadratic residual = {worst:.2e}; |r(1) - (sqrt(2)-1)| = {ref:.2e}"

def _check_jacobian_half() -> tuple[bool, str]:
    # The textbook root of 4m r^2 + 4r + (m - 2) = 0, against which the
    # halved tb-m closed form is measured.
    m = np.array(_TB_MS)
    gaps = np.abs(jacobian_radius(m) - (np.sqrt(1.0 + 2.0 * m - m * m) - 1.0) / (2.0 * m))
    # np.max, unlike max(), lets a NaN through to fail the check.
    worst = float(np.max(gaps))
    return worst <= 1e-15, f"max |jacobian - (sqrt(1 + 2m - m^2) - 1)/(2m)| = {worst:.2e}"

def _check_jacobian_deficit() -> tuple[bool, str]:
    m = np.array(_TB_MS)
    worst = float(np.max(np.abs(jacobian_functional(m, jacobian_radius(m)) - (1.0 - 0.5 * m))))
    # The functional is max|f| + r max|h'| + sum_{n>=2} |a_n| r^n of the
    # extremal on |z| = r, each term measured from its coefficients; it must
    # match from both sides.
    slacks = []
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    for m in (0.5, 1.0, 1.5):
        a = extremal_coefficients(tb_m(m), 2)
        ns = np.arange(1, a.size + 1, dtype=np.float64)
        for r in (0.1, 0.3, 0.5):
            max_f = float(np.max(_kernels.abs_on_circle(a, r, thetas)))
            # z h'(z) has the coefficients n a_n: |z h'| = r |h'|.
            r_max_dh = float(np.max(_kernels.abs_on_circle(ns * a, r, thetas)))
            tail = float(np.abs(a[1:]) @ r ** ns[1:])
            lhs = max_f + r_max_dh + tail
            slacks.append(abs(lhs - jacobian_functional(m, r)))
    contain = float(np.max(slacks))
    ok = worst <= 1e-12 and contain <= 1e-12
    return ok, f"max functional deficit = {worst:.2e}; containment slack = {contain:.2e}"

def _check_sharpness(specs: tuple[ClassSpec, ...], *handed) -> tuple[bool, str]:
    reports = [_sharpness_report(spec, res, b, 1e-12) for spec, res, b in _per_spec(specs, handed)]
    ok = all(rep.passed for rep in reports)
    worst = max(abs(rep.gap) for rep in reports)
    return ok, f"max |B(r_f) - d*| = {worst:.2e} over {len(specs)} specs"

def _check_distance_oracle_ph(spec: ClassSpec, d: SeriesValue) -> tuple[bool, str]:
    ext = extremal_coefficients(spec, 100_000)
    errors = [abs(_circle_minimum(ext, rho, 720).value - d.value) for rho in (0.9, 0.99, 0.999)]
    monotone = errors[0] >= errors[1] >= errors[2]
    ok = monotone and errors[-1] <= 5e-3
    return ok, (
        "|estimate - d*| over rho sweep: "
        + ", ".join(f"{e:.2e}" for e in errors)
    )

def _check_oracle_negative_axis() -> tuple[bool, str]:
    details = []
    ok = True
    for spec, expect in (
        (ph_alpha(0.0), math.pi),
        (ph_m(1.0), math.pi),
        (gh_k_alpha(2, 1.0), math.pi / 2.0),
    ):
        est = distance_oracle(spec, rho=0.9, grid=720, n=20_000)
        step = 2.0 * math.pi / est.grid_size
        # Minima come in conjugate pairs; accept either representative.
        dist = min(
            abs(est.argmin_theta - expect),
            abs(2.0 * math.pi - est.argmin_theta - expect),
        )
        ok = ok and dist <= step / 2.0 + 1e-12
        details.append(f"argmin={est.argmin_theta:.6f} (expect +/-{expect:.6f})")
    return ok, "; ".join(details)

def _check_wh_alpha1_report(res: RadiusResult) -> tuple[bool, str]:
    agrees = abs(res.radius - WH_ALPHA1_REFERENCE_DECIMAL) <= 1e-4
    verdict = "AGREES" if agrees else "DISAGREES"
    ok = res.residual <= 1e-10
    detail = (
        f"computed root {_fmt(res.radius)} {verdict} with reference decimal "
        f"{WH_ALPHA1_REFERENCE_DECIMAL}; equation residual {res.residual:.2e}"
    )
    if not agrees:
        # B(r) = 2 Li2(r) - r at alpha = 1: the two decimals solve it for
        # different right-hand sides, so the disagreement lies in d*.
        detail += (
            "; the reference is the root of 2Li2(r) - r = pi^2/12, while this "
            "d* = pi^2/6 - 1 = |f(-1)| for the extremal z + sum 2z^n/n^2 "
            "gives 0.4888879197 (both roots checked with scipy.special.spence)"
        )
    return ok, detail

# The r grid of ``single-sign-change-*``, and the five radii of
# ``generic-sum-agreement-*`` and ``envelope-*``.
_SIGN_RS = np.linspace(0.0, 1.0 - 1e-9, 1000)
_SAMPLE_RS = np.array(_ENVELOPE_SAMPLES)


def _check_h_monotone(specs: tuple[ClassSpec, ...], *handed) -> tuple[bool, str]:
    ok = all(bool(np.all(np.diff(b.value - d.value) > 0.0)) for _, d, b in _per_spec(specs, handed))
    return ok, "H strictly increasing on 100-point grids"

def _sign_near(d: SeriesValue) -> np.ndarray:
    """The points of _SIGN_RS where single-sign-change sums B: elsewhere
    r - d* exceeds d*'s bound, and B(r) >= r makes H(r) = B(r) - d* >= r - d*
    positive, a free certificate that also avoids series evaluation close
    to r = 1."""
    return ~(_SIGN_RS - d.value > d.error_bound + 1e-12)

def _check_sign_change(specs: tuple[ClassSpec, ...], *handed) -> tuple[bool, str]:
    # The sign of H = B - d* on the grid, 0 where |H| is within its error
    # bound.
    ok = True
    counts = []
    for _, d, b in _per_spec(specs, handed):
        signs = np.ones_like(_SIGN_RS)
        h = b.value - d.value
        signs[_sign_near(d)] = np.where(np.abs(h) <= b.error_bound + d.error_bound, 0.0, np.sign(h))
        nonzero = signs[signs != 0.0]
        changes = int(np.count_nonzero(np.diff(nonzero)))
        counts.append(changes)
        # Degenerate parameters sit at the root from the start.
        expected = 0 if d.value == 0.0 else 1
        ok = ok and changes == expected
    return ok, f"sign changes per spec: {counts}"

# Terms of the direct sums of ``generic-sum-agreement-*``: at r <= 0.9
# every family's tail beyond them is below 1e-15.
_DIRECT_TERMS = 400


def _check_generic_sum(specs: tuple[ClassSpec, ...], *bs: SeriesValue) -> tuple[bool, str]:
    # B against r + sum c_n r^n as one plain dot of the first
    # _DIRECT_TERMS coefficient bounds, which no series engine touches;
    # the tail bound certifies the cut-off.  The target is 1e-12.
    gaps, tails = [], []
    for spec, b in _per_spec(specs, bs):
        rule = coefficient_rule(spec)
        ns = np.arange(rule.start, rule.start + _DIRECT_TERMS, dtype=np.float64)
        c = rule.terms(ns)
        for r, b_r in zip(_SAMPLE_RS.tolist(), b.value.tolist()):
            gaps.append(abs(b_r - (r + float(c @ r**ns))))
        tails.append(_tail_bound(spec, int(ns[-1]), _SAMPLE_RS))
    worst, tail = float(np.max(gaps)), float(np.max(tails))
    ok = worst <= 1e-12 and tail <= 1e-15
    return ok, f"max |B - direct sum| = {worst:.2e} (tail <= {tail:.1e})"

def _check_alt_engine_direct(specs: tuple[ClassSpec, ...], *found: SeriesValue) -> tuple[bool, str]:
    # d* - 1 = sum_{n>=start} (-1)^(n-start+1) c_n: for gh-k-alpha at k = 1
    # the lacunary terms 2/(1 + j alpha) are its c_n, n = j + 1.  Each spec
    # passes if d* - 1 and the oracle are within d*'s certified bound plus
    # the oracle's truncation and rounding bound.
    direct = _direct_alt_euler_mean(map(coefficient_rule, specs), _ORACLE_TERMS, _EULER_K)
    gaps = np.abs(np.array([d.value - 1.0 for d in found]) - direct.value)
    allowed = np.array([d.error_bound for d in found]) + direct.error_bound
    # np.max, unlike max(), lets a NaN through to the detail.
    worst, least = float(np.max(gaps)), float(np.min(allowed))
    detail = f"max |d* - 1 - direct| = {worst:.2e}; least allowance = {least:.2e}"
    return bool(np.all(gaps <= allowed)), detail

# The families of ``radius-parameter-monotonicity``, whose standard grids it
# solves in this order.
_MONOTONE_FAMS = (Family.PH_ALPHA, Family.TB_M, Family.PH_M)


def _check_radius_monotonicity(*results: RadiusResult) -> tuple[bool, str]:
    radii = iter([res.radius for res in results])
    ph_radii, tb_radii, phm_radii = (
        [next(radii) for _ in STANDARD_GRIDS[fam]] for fam in _MONOTONE_FAMS
    )
    ok = (
        all(b >= a for a, b in zip(ph_radii, ph_radii[1:]))
        and all(b <= a for a, b in zip(tb_radii, tb_radii[1:]))
        and all(b <= a for a, b in zip(phm_radii, phm_radii[1:]))
    )
    return ok, "nondecreasing in alpha; nonincreasing in m"

def _check_envelope(specs: tuple[ClassSpec, ...], *envs) -> tuple[bool, str]:
    reports = [_envelope_report(s, _SAMPLE_RS, env, 10_000, 1e-8) for s, env in _per_spec(specs, envs)]
    ok = all(rep.passed for rep in reports)
    return ok, "touch-point equality and containment at 5 radii per spec"

def _scan_window(r_f: float) -> np.ndarray:
    """The 400-point r grid of ``scan-localisation-*`` on [0, 1.5 r_f],
    capped at 0.95; a zero radius (d* = 0) is scanned on [0, 0.5]."""
    return np.linspace(0.0, 0.5 if r_f == 0.0 else min(1.5 * r_f, 0.95), 400)

def _check_scan(specs: tuple[ClassSpec, ...], *handed) -> tuple[bool, str]:
    ok = True
    details = []
    for _, res, d, b in _per_spec(specs, handed):
        r_f, rs = res.radius, _scan_window(res.radius)
        fv = _first_violation(rs, b, d)
        grid_step = float(rs[-1]) / 399.0
        if r_f == 0.0:
            ok = ok and fv is not None
            ok = ok and abs(fv - grid_step) <= 1e-12
            details.append("violation at first positive grid point")
            continue
        ok = ok and fv is not None
        if fv is not None:
            # The first violating grid point sits just past the root:
            # above r_f, with the preceding grid point at or below it.
            ok = ok and r_f - 1e-9 < fv and fv - grid_step <= r_f + 1e-12
            details.append(f"violation at {fv:.6f} (r_f {r_f:.6f})")
    return ok, "; ".join(details)

def _check_g_alt_monotonicity(*found: SeriesValue) -> tuple[bool, str]:
    # gh-k-alpha's d* - 1 = 2 sum_{n>=1} (-1)^n / (1 + n k alpha), at four
    # alphas for each k in {1, 2, 3}.
    rows = (np.array([d.value for d in found]) - 1.0).reshape(3, -1).tolist()
    ok = all(all(b > a for a, b in zip(v, v[1:])) and v[-1] < 0.0 for v in rows)
    return ok, "strictly increasing toward 0 in alpha for k in {1,2,3}"

def _check_oracle_envelope_floor(specs: tuple[ClassSpec, ...], *envs) -> tuple[bool, str]:
    ok = True
    worst = float("inf")
    for spec, env in zip(specs, envs):
        est = distance_oracle(spec, rho=0.1, grid=72, n=2_000)
        tail = _tail_bound(spec, 2_000, 0.1)
        margin = est.value - float(env.lower[0] - tail - env.error_bound[0])
        worst = min(worst, margin)
        # Polynomial extremals attain the floor exactly; leave room for
        # round-off on the equality case.
        ok = ok and margin >= -1e-12
    return ok, f"min margin above lower envelope = {worst:.2e}"


class _Check(NamedTuple):
    """A named check: its predicate ``fn``, its specs, and what the suite
    hands ``fn`` for them, in this order: if ``solves``, the RadiusResult
    of each spec, solved with the closed-form preference or, if
    ``newton``, without it; if ``d_stars``, the d* of each spec; and if
    ``engine`` (``bohr_sum`` or ``growth_envelope``) is set, its value for
    each spec over that spec's r grid.  ``grids`` is one r array for every
    spec, or a function of the radii and d* handed that gives one array
    per spec.  ``fn`` returns the verdict and detail.  The check covers
    its specs' families and those of ``fams``."""

    name: str
    fn: Callable
    specs: tuple[ClassSpec, ...] = ()
    solves: bool = False
    newton: bool = False
    d_stars: bool = False
    engine: Optional[Callable] = None
    grids: np.ndarray | Callable | None = None
    fams: tuple[Family, ...] = ()

    def covers(self, family: Family) -> bool:
        return family in self.fams or any(spec.family is family for spec in self.specs)


def _build_registry() -> list[_Check]:
    gt_grid, tb_fine = STANDARD_GRIDS[Family.GT_BETA], tuple(tb_m(m) for m in _TB_MS)
    oracle_spec = ph_alpha(0.3)
    # The first, middle and last spec of each standard grid.
    reps = {fam: (grid[0], grid[len(grid) // 2], grid[-1]) for fam, grid in STANDARD_GRIDS.items()}

    def per_family(prefix, specs, fn, **reads) -> list[_Check]:
        # One check per family on its specs, which ``fn`` takes first.
        return [
            _Check(f"{prefix}-{fam.value}", partial(fn, specs[fam]), specs[fam], **reads)
            for fam in Family
        ]

    registry = [
        _Check(
            "radius-ph-alpha-0-reference", _check_radius_ph_reference, (ph_alpha(0.0),),
            solves=True,
        ),
        _Check(
            "reduction-wh-to-ph", _check_reduction, (wh_alpha(0.0), ph_alpha(0.0)), solves=True
        ),
        _Check(
            "reduction-gh-to-ph", _check_reduction, (gh_k_alpha(1, 1.0), ph_alpha(0.0)),
            solves=True,
        ),
        _Check(
            "closed-vs-bisection-gt-beta",
            partial(_check_closed_vs_bisection, gt_grid),
            gt_grid,
            solves=True,
            newton=True,
        ),
        _Check(
            "closed-vs-bisection-tb-m",
            partial(_check_closed_vs_bisection, tb_fine),
            tb_fine,
            solves=True,
            newton=True,
        ),
        _Check("quadratic-residual-tb-m", _check_tb_quadratic_residual, fams=(Family.TB_M,)),
        _Check("jacobian-half-identity-tb-m", _check_jacobian_half, fams=(Family.TB_M,)),
        _Check("jacobian-majorant-deficit-tb-m", _check_jacobian_deficit, fams=(Family.TB_M,)),
    ]
    registry += per_family(
        "sharpness", STANDARD_GRIDS, _check_sharpness, solves=True, engine=bohr_sum,
        grids=_sharpness_grids,
    )
    registry += [
        _Check(
            "distance-oracle-ph-alpha", partial(_check_distance_oracle_ph, oracle_spec),
            (oracle_spec,), d_stars=True,
        ),
        _Check(
            "distance-oracle-negative-axis",
            _check_oracle_negative_axis,
            fams=(Family.PH_ALPHA, Family.PH_M, Family.GH_K_ALPHA),
        ),
        _Check("wh-alpha-1-root-report", _check_wh_alpha1_report, (wh_alpha(1.0),), solves=True),
    ]
    registry += per_family(
        "h-monotone", reps, _check_h_monotone, d_stars=True, engine=bohr_sum,
        grids=np.linspace(0.0, 0.95, 100),
    )
    registry += per_family(
        "single-sign-change", reps, _check_sign_change, d_stars=True, engine=bohr_sum,
        grids=lambda _, d_stars: [_SIGN_RS[_sign_near(d)] for d in d_stars],
    )
    registry += per_family(
        "generic-sum-agreement", reps, _check_generic_sum, engine=bohr_sum, grids=_SAMPLE_RS
    )
    alt_specs = (ph_alpha(0.3), wh_alpha(0.5), wh_alpha(1.0), ph_m(1.0), gh_k_alpha(1, 0.5),
                 gh_k_alpha(1, 2.0))
    registry += [
        _Check(
            "alt-engine-vs-direct-sum", partial(_check_alt_engine_direct, alt_specs), alt_specs,
            d_stars=True,
        ),
        _Check(
            "radius-parameter-monotonicity",
            _check_radius_monotonicity,
            tuple(s for fam in _MONOTONE_FAMS for s in STANDARD_GRIDS[fam]),
            solves=True,
        ),
    ]
    registry += per_family(
        "envelope", reps, _check_envelope, engine=growth_envelope, grids=_SAMPLE_RS
    )
    registry += per_family(
        "scan-localisation", reps, _check_scan, solves=True, d_stars=True, engine=bohr_sum,
        grids=lambda results, _: [_scan_window(res.radius) for res in results],
    )
    mids = tuple(reps[fam][1] for fam in Family)
    registry += [
        _Check(
            "g-alt-alpha-monotonicity", _check_g_alt_monotonicity,
            tuple(gh_k_alpha(k, a) for k in (1, 2, 3) for a in (0.5, 1.0, 2.0, 4.0)),
            d_stars=True,
        ),
        _Check(
            "oracle-above-lower-envelope", partial(_check_oracle_envelope_floor, mids), mids,
            engine=growth_envelope, grids=np.array([0.1]),
        ),
    ]
    return registry


def _handed(checks: list[_Check], cfg: SolverConfig) -> list[list]:
    """What each check is handed, stage by stage: one lane pass per family
    and config for the radii of every check's distinct specs, one
    ``distance_bound`` call per family for the d* of every check, then one
    call per engine and family for the grids of every check.  A spec that
    fails to solve, or an engine call that raises, leaves its error in
    place of its value, and a check already handed an error asks for
    nothing more."""
    handed: list[list] = [[] for _ in checks]

    def ready():
        return [
            (check, found) for check, found in zip(checks, handed)
            if not any(isinstance(x, HarmBohrError) for x in found)
        ]

    configs = [replace(cfg, prefer_closed_form=False) if check.newton else cfg for check in checks]
    for c in dict.fromkeys(configs):
        wanted = [
            (found, spec) for check, found, of in zip(checks, handed, configs)
            if check.solves and of == c for spec in check.specs
        ]
        unique = list(dict.fromkeys(spec for _, spec in wanted))
        solved = dict(zip(unique, _solve_each(unique, c)))
        for found, spec in wanted:
            found.append(solved[spec])
    wanted = [(found, spec) for check, found in ready() if check.d_stars for spec in check.specs]
    for (found, _), d in zip(wanted, _d_stars([spec for _, spec in wanted])):
        found.append(d)
    asks: dict[Callable, list] = {}
    for check, found in ready():
        if check.engine is not None:
            radii, grids = check.solves * len(check.specs), check.grids
            if callable(grids):
                grids = grids(found[:radii], found[radii:])
            else:
                grids = [grids] * len(check.specs)
            asks.setdefault(check.engine, []).extend(zip([found] * len(grids), check.specs, grids))
    for engine, wanted in asks.items():
        values = _on_grids(engine, [spec for _, spec, _ in wanted], [grid for *_, grid in wanted])
        for (found, _, _), value in zip(wanted, values):
            found.append(value)
    return handed


def run_suite(
    only: str | None = None,
    family: Family | str | None = None,
    config: SolverConfig | None = None,
) -> SuiteReport:
    """Run the named checks, optionally filtered by substring or family.

    The radii, d*, B and envelopes the selected checks read are evaluated
    first, each once, and each check is handed its own."""
    cfg = config or SolverConfig()
    if isinstance(family, str):
        family = Family(family)
    checks = [
        check
        for check in _build_registry()
        if (only is None or only in check.name) and (family is None or check.covers(family))
    ]
    t0 = perf_counter()
    handed = _handed(checks, cfg)
    shared_seconds = perf_counter() - t0
    results = []
    for check, found in zip(checks, handed):
        t0 = perf_counter()
        try:
            passed, detail = check.fn(*_raise_first(found))
        except HarmBohrError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        # A numpy bool would not print through json.
        results.append(CheckResult(check.name, bool(passed), detail, perf_counter() - t0))
    return SuiteReport(tuple(results), shared_seconds)
