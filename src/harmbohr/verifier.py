"""Independent numerical checks for radii, constants, and envelopes.

Nothing here trusts the solver's own arithmetic: extremal maps are evaluated
directly from their coefficients on circles, boundary distances are estimated
by circle minima, sharpness is checked by recomputing both sides of the
defining equation, and the named check suite behind ``harmbohr verify``
cross-validates closed forms, series engines, and reductions between
families against each other.

The checks hand whole grids to the series engines as lane calls: all the
sample radii of a spec in one ``growth_envelope`` or ``bohr_sum`` call, and
specs of one family and k (``lane_groups``) stacked into one lane spec
(``stack_lanes``), unless a spec is alone in its group.  Each lane comes out
bit for bit as its own call would, so batching changes no verdict or detail;
circle values stay one ``abs_on_circle`` call per radius.

Each family's d* - 1, an alternating sum with a Boole tail or a closed
form, is checked against a direct sum of 2^14 of its terms closed by an
Euler mean of the partial sums, which carries its own truncation and
rounding bound: the two may differ by no more than that bound plus d*'s
certified one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Iterable, Optional

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
    lane_groups,
    ph_alpha,
    ph_m,
    stack_lanes,
    start_index,
    take_lanes,
    tb_m,
    wh_alpha,
)
from .errors import DomainError, HarmBohrError
from .series import CoefficientRule, SeriesValue
from .solver import (
    SolverConfig,
    closed_form_radius,
    jacobian_functional,
    jacobian_radius,
    solve_radii,
    solve_radius,
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
    results: tuple[CheckResult, ...]

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
    return _sharpness_reports([spec], tol, config or SolverConfig())[0]


def _sharpness_reports(
    specs: list[ClassSpec], tol: float, cfg: SolverConfig
) -> list[SharpnessReport]:
    """``sharpness_check`` of each spec, with one batched solve for all of
    them and one B evaluation per family and k, at every r_f and one step
    beyond it."""
    specs = list(specs)
    results = solve_radii(specs, cfg)
    reports: list = [None] * len(specs)
    step_out = 1e-6
    for idx in lane_groups(specs):
        radii = np.array([results[i].radius for i in idx])
        # Radii stay well inside (0, 1); a step past 1 would count as violated.
        inside = radii + step_out < 1.0
        rs = np.concatenate([radii, np.where(inside, radii + step_out, 0.0)])
        b = bohr_sum(stack_lanes([specs[i] for i in idx] * 2), rs)
        for j, i in enumerate(idx):
            d = results[i].d_star
            value, beyond = float(b.value[j]), float(b.value[len(idx) + j])
            gap = value - d.value
            slack = float(b.error_bound[j]) + d.error_bound
            violation_gap = beyond - d.value if inside[j] else float("inf")
            reports[i] = SharpnessReport(
                spec=specs[i],
                passed=abs(gap) <= tol + slack and violation_gap > 0.0,
                radius=results[i].radius,
                bohr_at_radius=value,
                d_star=d.value,
                gap=gap,
                violation_gap=violation_gap,
            )
    return reports


def _bohr_on_grids(
    specs: list[ClassSpec], grids: list[np.ndarray]
) -> list[tuple[SeriesValue, SeriesValue]]:
    """(B over ``grids[i]``, d*) for each spec i, from one ``distance_bound``
    and one ``bohr_sum`` per family and k.  A spec alone in its group is
    evaluated as it is, over its grid; a larger group stacks its specs into
    one lane spec for d*, and B's lanes repeat each spec across its grid
    (picked by index, not stacked spec by spec)."""
    found: list = [None] * len(specs)
    for idx in lane_groups(specs):
        if len(idx) == 1:
            (i,) = idx
            found[i] = (bohr_sum(specs[i], grids[i]), distance_bound(specs[i]))
            continue
        lanes = stack_lanes(specs[i] for i in idx)
        d = distance_bound(lanes)
        sizes = [grids[i].size for i in idx]
        each = take_lanes(lanes, np.repeat(np.arange(len(idx)), sizes))
        b = bohr_sum(each, np.concatenate([grids[i] for i in idx]))
        ends = np.cumsum(sizes).tolist()
        for j, i in enumerate(idx):
            part = slice(ends[j] - sizes[j], ends[j])
            found[i] = (
                SeriesValue(b.value[part], b.error_bound[part]),
                SeriesValue(float(d.value[j]), float(d.error_bound[j])),
            )
    return found


def _first_violations(
    specs: Iterable[ClassSpec], r_maxes: Iterable[float], steps: int
) -> list[Optional[float]]:
    """For each spec, the first r of ``steps`` uniform points on
    [0, r_max] where the Bohr inequality B(r) <= d* fails beyond both error
    bounds (a NaN fails it too), or None."""
    specs, r_maxes = list(specs), list(r_maxes)
    for _, r_max in zip(specs, r_maxes, strict=True):
        if not 0.0 < r_max < 1.0:
            raise DomainError(f"r_max must satisfy 0 < r_max < 1, got {r_max}")
    if int(steps) != steps or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    grids = [np.linspace(0.0, r_max, int(steps)) for r_max in r_maxes]
    found = []
    for rs, (b, d) in zip(grids, _bohr_on_grids(specs, grids)):
        bad = np.flatnonzero(~(b.value <= d.value + b.error_bound + d.error_bound + 1e-15))
        found.append(float(rs[bad[0]]) if bad.size else None)
    return found


def envelope_check(
    spec: ClassSpec,
    samples: Iterable[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    truncation: int = 10_000,
    tol: float = 1e-8,
) -> EnvelopeReport:
    """Check envelope containment and touch-point equality for the extremal.

    Both envelopes at every sample come from one ``growth_envelope`` call.
    At each sample radius the extremal is evaluated once, on a circle grid
    of 24 k points, where k is the gap of its powers (``start_index`` - 1:
    1 for every family but gh-k-alpha).  Containment is checked over the
    whole grid, upper equality at angle 0 (point 0) and lower equality at
    pi/k (point 12), all within tol plus the truncation bound of the
    coefficient cutoff.  A gap of ``truncation`` or more leaves the
    truncated extremal z alone, with |f| = r at every angle, and a grid of
    24 points.
    """
    samples = tuple(float(r) for r in samples)
    if any(not 0.0 < r < 1.0 for r in samples):
        raise DomainError("all samples must lie in (0, 1)")
    ext = extremal_coefficients(spec, truncation)
    k = start_index(spec) - 1
    thetas = np.linspace(0.0, 2.0 * math.pi, 24 * k if k < truncation else 24, endpoint=False)
    # Both envelopes and the truncation bound at every sample at once.
    rs = np.array(samples)
    env = growth_envelope(spec, rs)
    slacks = tol + _tail_bound(spec, truncation, rs) + env.error_bound
    rows = []
    passed = True
    for r, lower, upper, slack in zip(samples, env.lower.tolist(), env.upper.tolist(), slacks):
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


def _check_radius_ph_reference(cfg: SolverConfig) -> tuple[bool, str]:
    res = solve_radius(ph_alpha(0.0), cfg)
    ok = abs(res.radius - 0.285194) <= 1e-4 and res.residual <= 1e-10
    return ok, f"radius={_fmt(res.radius)} residual={res.residual:.2e}"

def _make_reduction_check(spec: ClassSpec):
    """The radius of ``spec`` equals that of ph-alpha at alpha = 0."""
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        r, r_ph = (res.radius for res in solve_radii([spec, ph_alpha(0.0)], cfg))
        diff = abs(r - r_ph)
        return diff <= 1e-9, f"|{_fmt(r)} - {_fmt(r_ph)}| = {diff:.2e}"

    return check

def _make_closed_vs_bisection_check(specs: tuple[ClassSpec, ...]):
    """Newton without the closed form lands on the closed-form radius."""
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        results = solve_radii(specs, replace(cfg, prefer_closed_form=False))
        closed = [closed_form_radius(s) for s in specs]
        # np.max, unlike max(), lets a NaN radius through to fail the check.
        worst = float(np.max([abs(c - res.radius) for c, res in zip(closed, results)]))
        # A closed-form radius of 0 (d* = 0) must solve to exactly 0.
        zero_ok = all(res.radius == 0.0 for c, res in zip(closed, results) if c == 0.0)
        return worst <= 1e-10 and zero_ok, f"max |closed - bisection| = {worst:.2e}"

    return check

def _check_tb_quadratic_residual(cfg: SolverConfig) -> tuple[bool, str]:
    residuals = []
    for m in _TB_MS:
        r = closed_form_radius(tb_m(m))
        residuals.append(abs(m * r * r + 2.0 * r + (m - 2.0)))
    worst = float(np.max(residuals))
    ref = abs(closed_form_radius(tb_m(1.0)) - (math.sqrt(2.0) - 1.0))
    ok = worst <= 1e-12 and ref <= 1e-12
    return ok, f"max quadratic residual = {worst:.2e}; |r(1) - (sqrt(2)-1)| = {ref:.2e}"

def _check_jacobian_half(cfg: SolverConfig) -> tuple[bool, str]:
    # The textbook root of 4m r^2 + 4r + (m - 2) = 0, against which the
    # halved tb-m closed form is measured.
    gaps = [
        abs(jacobian_radius(m) - (math.sqrt(1.0 + 2.0 * m - m * m) - 1.0) / (2.0 * m))
        for m in _TB_MS
    ]
    # np.max, unlike max(), lets a NaN through to fail the check.
    worst = float(np.max(gaps))
    return worst <= 1e-15, f"max |jacobian - (sqrt(1 + 2m - m^2) - 1)/(2m)| = {worst:.2e}"

def _check_jacobian_deficit(cfg: SolverConfig) -> tuple[bool, str]:
    deficits = [abs(jacobian_functional(m, jacobian_radius(m)) - (1.0 - 0.5 * m)) for m in _TB_MS]
    worst = float(np.max(deficits))
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

def _make_sharpness_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        reports = _sharpness_reports(list(STANDARD_GRIDS[fam]), 1e-12, cfg)
        ok = all(rep.passed for rep in reports)
        worst = max(abs(rep.gap) for rep in reports)
        return ok, f"max |B(r_f) - d*| = {worst:.2e} over {len(STANDARD_GRIDS[fam])} specs"

    return check

def _check_distance_oracle_ph(cfg: SolverConfig) -> tuple[bool, str]:
    spec = ph_alpha(0.3)
    d = distance_bound(spec).value
    ext = extremal_coefficients(spec, 100_000)
    errors = [abs(_circle_minimum(ext, rho, 720).value - d) for rho in (0.9, 0.99, 0.999)]
    monotone = errors[0] >= errors[1] >= errors[2]
    ok = monotone and errors[-1] <= 5e-3
    return ok, (
        "|estimate - d*| over rho sweep: "
        + ", ".join(f"{e:.2e}" for e in errors)
    )

def _check_oracle_negative_axis(cfg: SolverConfig) -> tuple[bool, str]:
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

def _check_wh_alpha1_report(cfg: SolverConfig) -> tuple[bool, str]:
    res = solve_radius(wh_alpha(1.0), cfg)
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

def _rep_specs(fam: Family) -> tuple[ClassSpec, ...]:
    grid = STANDARD_GRIDS[fam]
    return (grid[0], grid[len(grid) // 2], grid[-1])

def _make_h_monotone_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        specs = list(_rep_specs(fam))
        grids = [np.linspace(0.0, 0.95, 100)] * len(specs)
        for b, d in _bohr_on_grids(specs, grids):
            values = b.value - d.value
            ok = ok and bool(np.all(values[1:] > values[:-1]))
        return ok, "H strictly increasing on 100-point grids"

    return check

def _h_signs(spec: ClassSpec, rs: np.ndarray, d) -> np.ndarray:
    """The sign of H = B - d* on a grid of r, 0 where |H| is within its
    error bound; ``d`` is the spec's d*."""
    # B(r) >= r makes H(r) >= r - d*: a free positivity certificate that
    # also avoids series evaluation close to r = 1 where truncation budgets
    # would blow up.
    signs = np.ones_like(rs)
    near = ~(rs - d.value > d.error_bound + 1e-12)
    b = bohr_sum(spec, rs[near])
    h = b.value - d.value
    signs[near] = np.where(np.abs(h) <= b.error_bound + d.error_bound, 0.0, np.sign(h))
    return signs


def _make_sign_change_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        counts = []
        for spec in _rep_specs(fam):
            d = distance_bound(spec)
            signs = _h_signs(spec, np.linspace(0.0, 1.0 - 1e-9, 1000), d)
            nonzero = signs[signs != 0.0]
            changes = int(np.count_nonzero(np.diff(nonzero)))
            counts.append(changes)
            # Degenerate parameters sit at the root from the start.
            expected = 0 if d.value == 0.0 else 1
            ok = ok and changes == expected
        return ok, f"sign changes per spec: {counts}"

    return check

# Terms of the direct sums of ``generic-sum-agreement-*``: at r <= 0.9
# every family's tail beyond them is below 1e-15.
_DIRECT_TERMS = 400


def _make_generic_sum_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        # B against r + sum c_n r^n as one plain dot of the first
        # _DIRECT_TERMS coefficient bounds, which no series engine touches;
        # the tail bound certifies the cut-off.  The target is 1e-12.
        gaps, tails = [], []
        rs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        for spec in _rep_specs(fam):
            rule = coefficient_rule(spec)
            ns = np.arange(rule.start, rule.start + _DIRECT_TERMS, dtype=np.float64)
            c = rule.terms(ns)
            b = bohr_sum(spec, rs)
            for r, b_r in zip(rs.tolist(), b.value.tolist()):
                gaps.append(abs(b_r - (r + float(c @ r**ns))))
            tails.append(_tail_bound(spec, int(ns[-1]), rs))
        worst, tail = float(np.max(gaps)), float(np.max(tails))
        ok = worst <= 1e-12 and tail <= 1e-15
        return ok, f"max |B - direct sum| = {worst:.2e} (tail <= {tail:.1e})"

    return check

def _check_alt_engine_direct(cfg: SolverConfig) -> tuple[bool, str]:
    # d* - 1 = sum_{n>=start} (-1)^(n-start+1) c_n: for gh-k-alpha at k = 1
    # the lacunary terms 2/(1 + j alpha) are its c_n, n = j + 1.  Each spec
    # passes if d* - 1 and the oracle are within d*'s certified bound plus
    # the oracle's truncation and rounding bound.
    specs = [ph_alpha(0.3), wh_alpha(0.5), wh_alpha(1.0), ph_m(1.0), gh_k_alpha(1, 0.5),
             gh_k_alpha(1, 2.0)]
    found = [distance_bound(spec) for spec in specs]
    direct = _direct_alt_euler_mean(map(coefficient_rule, specs), _ORACLE_TERMS, _EULER_K)
    gaps = np.abs(np.array([d.value - 1.0 for d in found]) - direct.value)
    allowed = np.array([d.error_bound for d in found]) + direct.error_bound
    # np.max, unlike max(), lets a NaN through to the detail.
    worst, least = float(np.max(gaps)), float(np.min(allowed))
    detail = f"max |d* - 1 - direct| = {worst:.2e}; least allowance = {least:.2e}"
    return bool(np.all(gaps <= allowed)), detail

def _check_radius_monotonicity(cfg: SolverConfig) -> tuple[bool, str]:
    fams = (Family.PH_ALPHA, Family.TB_M, Family.PH_M)
    specs = [s for fam in fams for s in STANDARD_GRIDS[fam]]
    radii = iter([res.radius for res in solve_radii(specs, cfg)])
    ph_radii, tb_radii, phm_radii = ([next(radii) for _ in STANDARD_GRIDS[fam]] for fam in fams)
    ok = (
        all(b >= a for a, b in zip(ph_radii, ph_radii[1:]))
        and all(b <= a for a, b in zip(tb_radii, tb_radii[1:]))
        and all(b <= a for a, b in zip(phm_radii, phm_radii[1:]))
    )
    return ok, "nondecreasing in alpha; nonincreasing in m"

def _make_envelope_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        for spec in _rep_specs(fam):
            rep = envelope_check(spec)
            ok = ok and rep.passed
        return ok, "touch-point equality and containment at 5 radii per spec"

    return check

def _make_scan_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        details = []
        specs = _rep_specs(fam)
        radii = [result.radius for result in solve_radii(specs, cfg)]
        # A zero radius (d* = 0) is scanned on [0, 0.5].
        r_maxes = [0.5 if r_f == 0.0 else min(1.5 * r_f, 0.95) for r_f in radii]
        for r_f, r_max, fv in zip(radii, r_maxes, _first_violations(specs, r_maxes, 400)):
            grid_step = r_max / 399.0
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

    return check

def _check_g_alt_monotonicity(cfg: SolverConfig) -> tuple[bool, str]:
    # gh-k-alpha's d* - 1 = 2 sum_{n>=1} (-1)^n / (1 + n k alpha).
    ok = True
    for k in (1, 2, 3):
        lanes = stack_lanes(gh_k_alpha(k, a) for a in (0.5, 1.0, 2.0, 4.0))
        values = (distance_bound(lanes).value - 1.0).tolist()
        ok = ok and all(b > a for a, b in zip(values, values[1:])) and values[-1] < 0.0
    return ok, "strictly increasing toward 0 in alpha for k in {1,2,3}"

def _check_oracle_envelope_floor(cfg: SolverConfig) -> tuple[bool, str]:
    ok = True
    worst = float("inf")
    for fam in Family:
        spec = _rep_specs(fam)[1]
        est = distance_oracle(spec, rho=0.1, grid=72, n=2_000)
        env = growth_envelope(spec, 0.1)
        tail = _tail_bound(spec, 2_000, 0.1)
        margin = est.value - (env.lower - tail - env.error_bound)
        worst = min(worst, margin)
        # Polynomial extremals attain the floor exactly; leave room for
        # round-off on the equality case.
        ok = ok and margin >= -1e-12
    return ok, f"min margin above lower envelope = {worst:.2e}"


def _build_registry() -> list[tuple[str, tuple[Family, ...], Callable]]:
    all_fams = tuple(Family)
    registry: list[tuple[str, tuple[Family, ...], Callable]] = [
        ("radius-ph-alpha-0-reference", (Family.PH_ALPHA,), _check_radius_ph_reference),
        (
            "reduction-wh-to-ph",
            (Family.WH_ALPHA, Family.PH_ALPHA),
            _make_reduction_check(wh_alpha(0.0)),
        ),
        (
            "reduction-gh-to-ph",
            (Family.GH_K_ALPHA, Family.PH_ALPHA),
            _make_reduction_check(gh_k_alpha(1, 1.0)),
        ),
        (
            "closed-vs-bisection-gt-beta",
            (Family.GT_BETA,),
            _make_closed_vs_bisection_check(STANDARD_GRIDS[Family.GT_BETA]),
        ),
        (
            "closed-vs-bisection-tb-m",
            (Family.TB_M,),
            _make_closed_vs_bisection_check(tuple(tb_m(m) for m in _TB_MS)),
        ),
        ("quadratic-residual-tb-m", (Family.TB_M,), _check_tb_quadratic_residual),
        ("jacobian-half-identity-tb-m", (Family.TB_M,), _check_jacobian_half),
        ("jacobian-majorant-deficit-tb-m", (Family.TB_M,), _check_jacobian_deficit),
    ]
    for fam in Family:
        registry.append((f"sharpness-{fam.value}", (fam,), _make_sharpness_check(fam)))
    registry += [
        ("distance-oracle-ph-alpha", (Family.PH_ALPHA,), _check_distance_oracle_ph),
        (
            "distance-oracle-negative-axis",
            (Family.PH_ALPHA, Family.PH_M, Family.GH_K_ALPHA),
            _check_oracle_negative_axis,
        ),
        ("wh-alpha-1-root-report", (Family.WH_ALPHA,), _check_wh_alpha1_report),
    ]
    for fam in Family:
        registry.append((f"h-monotone-{fam.value}", (fam,), _make_h_monotone_check(fam)))
    for fam in Family:
        registry.append(
            (f"single-sign-change-{fam.value}", (fam,), _make_sign_change_check(fam))
        )
    for fam in Family:
        registry.append(
            (f"generic-sum-agreement-{fam.value}", (fam,), _make_generic_sum_check(fam))
        )
    registry += [
        (
            "alt-engine-vs-direct-sum",
            (Family.PH_ALPHA, Family.WH_ALPHA, Family.PH_M, Family.GH_K_ALPHA),
            _check_alt_engine_direct,
        ),
        (
            "radius-parameter-monotonicity",
            (Family.PH_ALPHA, Family.TB_M, Family.PH_M),
            _check_radius_monotonicity,
        ),
    ]
    for fam in Family:
        registry.append((f"envelope-{fam.value}", (fam,), _make_envelope_check(fam)))
    for fam in Family:
        registry.append(
            (f"scan-localisation-{fam.value}", (fam,), _make_scan_check(fam))
        )
    registry += [
        ("g-alt-alpha-monotonicity", (Family.GH_K_ALPHA,), _check_g_alt_monotonicity),
        ("oracle-above-lower-envelope", all_fams, _check_oracle_envelope_floor),
    ]
    return registry


def run_suite(
    only: str | None = None,
    family: Family | str | None = None,
    config: SolverConfig | None = None,
) -> SuiteReport:
    """Run the named checks, optionally filtered by substring or family."""
    cfg = config or SolverConfig()
    if isinstance(family, str):
        family = Family(family)
    results = []
    for name, fams, fn in _build_registry():
        if only is not None and only not in name:
            continue
        if family is not None and family not in fams:
            continue
        t0 = perf_counter()
        try:
            passed, detail = fn(cfg)
        except HarmBohrError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        # A numpy bool would not print through json.
        results.append(CheckResult(name, bool(passed), detail, perf_counter() - t0))
    return SuiteReport(tuple(results))
