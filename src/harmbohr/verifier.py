"""Independent numerical checks for radii, constants, and envelopes.

Nothing here trusts the solver's own arithmetic: extremal maps are evaluated
directly from their coefficients on circles, boundary distances are estimated
by circle minima, sharpness is checked by recomputing both sides of the
defining equation, and the named check suite behind ``harmbohr verify``
cross-validates closed forms, series engines, and reductions between
families against each other.
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
    ph_alpha,
    ph_m,
    start_index,
    tb_m,
    validate,
    wh_alpha,
)
from .errors import DomainError, HarmBohrError
from .series import CoefficientRule, alt_constant
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


def _tail_bound(spec: ClassSpec, n: int, r: float) -> float:
    """c_{n+1} r^(n+1) / (1 - r): the majorant mass beyond index n at r."""
    return coefficient_rule(spec).term(n + 1) * r ** (n + 1) / (1.0 - r)


def distance_oracle(
    spec: ClassSpec, rho: float = 0.999, grid: int = 720, n: int = 100_000
) -> OracleEstimate:
    """Minimum of |f| over the circle |z| = rho for the family's extremal.

    As rho -> 1 the estimate improves monotonically toward the distance
    constant d* for these extremals, approaching it from below along the
    ray of minimum modulus.
    """
    validate(spec)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must satisfy 0 < rho < 1, got {rho}")
    if int(grid) != grid or grid < 8:
        raise DomainError(f"grid must be an integer >= 8, got {grid!r}")
    n0 = start_index(spec)
    if int(n) != n or n < n0:
        raise DomainError(f"n must be an integer >= {n0}, got {n!r}")
    ext = extremal_coefficients(spec, int(n))
    thetas = np.linspace(0.0, 2.0 * math.pi, int(grid), endpoint=False)
    values = _kernels.abs_on_circle(ext, float(rho), thetas)
    idx = int(np.argmin(values))
    return OracleEstimate(
        value=float(values[idx]),
        truncation_n=int(n),
        grid_size=int(grid),
        rho=float(rho),
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
    """``sharpness_check`` of each spec, with one batched solve for all of them."""
    reports = []
    for spec, result in zip(specs, solve_radii(specs, cfg)):
        b = bohr_sum(spec, result.radius, tol=cfg.series_tol)
        d = result.d_star
        gap = b.value - d.value
        slack = b.error_bound + d.error_bound
        step_out = 1e-6
        if result.radius + step_out < 1.0:
            beyond = bohr_sum(spec, result.radius + step_out, tol=cfg.series_tol)
            violation_gap = beyond.value - d.value
        else:  # pragma: no cover - radii stay well inside (0, 1)
            violation_gap = float("inf")
        passed = abs(gap) <= tol + slack and violation_gap > 0.0
        reports.append(
            SharpnessReport(
                spec=spec,
                passed=passed,
                radius=result.radius,
                bohr_at_radius=b.value,
                d_star=d.value,
                gap=gap,
                violation_gap=violation_gap,
            )
        )
    return reports


def _first_violation(
    spec: ClassSpec, r_max: float, steps: int, cfg: SolverConfig
) -> Optional[float]:
    """The first r of ``steps`` uniform points on [0, r_max] where the Bohr
    inequality B(r) <= d* fails beyond both error bounds (a NaN fails it
    too), or None."""
    validate(spec)
    if not 0.0 < r_max < 1.0:
        raise DomainError(f"r_max must satisfy 0 < r_max < 1, got {r_max}")
    if int(steps) != steps or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    d = distance_bound(spec, tol=cfg.series_tol)
    rs = np.linspace(0.0, r_max, int(steps))
    b = bohr_sum(spec, rs, tol=cfg.series_tol)
    bad = np.flatnonzero(~(b.value <= d.value + b.error_bound + d.error_bound + 1e-15))
    return float(rs[bad[0]]) if bad.size else None


def envelope_check(
    spec: ClassSpec,
    samples: Iterable[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    truncation: int = 10_000,
    tol: float = 1e-8,
    config: SolverConfig | None = None,
) -> EnvelopeReport:
    """Check envelope containment and touch-point equality for the extremal.

    At each sample radius the extremal is evaluated once, on a circle grid
    of 24 k points, where k is the gap of its powers (``start_index`` - 1:
    1 for every family but gh-k-alpha).  Containment is checked over the
    whole grid, upper equality at angle 0 (point 0) and lower equality at
    pi/k (point 12), all within tol plus the truncation bound of the
    coefficient cutoff.  A gap of ``truncation`` or more leaves the
    truncated extremal z alone, with |f| = r at every angle, and a grid of
    24 points.
    """
    cfg = config or SolverConfig()
    validate(spec)
    samples = tuple(float(r) for r in samples)
    if any(not 0.0 < r < 1.0 for r in samples):
        raise DomainError("all samples must lie in (0, 1)")
    ext = extremal_coefficients(spec, truncation)
    k = start_index(spec) - 1
    thetas = np.linspace(0.0, 2.0 * math.pi, 24 * k if k < truncation else 24, endpoint=False)
    rows = []
    passed = True
    for r in samples:
        env = growth_envelope(spec, r, tol=cfg.series_tol)
        tail = _tail_bound(spec, truncation, r)
        slack = tol + tail + env.error_bound
        values = _kernels.abs_on_circle(ext, r, thetas)
        at_upper, at_lower = float(values[0]), float(values[12])
        contained = bool(
            np.all(values >= env.lower - slack) and np.all(values <= env.upper + slack)
        )
        ok = (
            contained
            and abs(at_upper - env.upper) <= slack
            and abs(at_lower - env.lower) <= slack
        )
        passed = passed and ok
        rows.append(EnvelopeRow(r, env.lower, env.upper, at_lower, at_upper, contained))
    return EnvelopeReport(spec=spec, passed=passed, rows=tuple(rows))


# Terms per block of the direct alternating oracle.  Even, so that a
# cancelled pair never straddles two blocks.
_ORACLE_BLOCK = 1 << 16


def _direct_alt_pair_average(rule: CoefficientRule, n_terms: int) -> float:
    """Plain alternating partial sums, averaged over the last two, with
    the signs of ``alt_constant`` (the first term negative).

    The averaging of one trailing pair keeps the error of a direct
    ~n_terms-term sum at the level of c'_n ~ c_n / n instead of c_n, which
    is what makes a 1e6-term direct oracle meaningful at 1e-10.

    The coefficients are made and summed in blocks of 2^16 terms, small
    enough to stay in cache, so memory is a few blocks of 512 KiB
    whatever n_terms is.
    """
    if int(n_terms) != n_terms or n_terms < 1:
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    n_terms = int(n_terms)
    # S_{2m}, the sum of the m cancelled pairs, is the partial sum through
    # the last term (n_terms even) or the one before it (odd); either way
    # the mean of the last two partial sums is S_{2m} + c_last / 2.
    pairs = 0.0
    for lo in range(0, n_terms, _ORACLE_BLOCK):
        hi = min(lo + _ORACLE_BLOCK, n_terms)
        c = rule.terms(np.arange(rule.start + lo, rule.start + hi, dtype=np.float64))
        m = c.size // 2
        pairs += float(np.sum(c[0 : 2 * m : 2] - c[1 : 2 * m : 2]))
    return -(pairs + 0.5 * float(c[-1]))


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
    errors = []
    for rho in (0.9, 0.99, 0.999):
        est = distance_oracle(spec, rho=rho, grid=720, n=100_000)
        errors.append(abs(est.value - d))
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
        for spec in _rep_specs(fam):
            d = distance_bound(spec, tol=cfg.series_tol)
            values = bohr_sum(spec, np.linspace(0.0, 0.95, 100), tol=cfg.series_tol).value - d.value
            ok = ok and bool(np.all(values[1:] > values[:-1]))
        return ok, "H strictly increasing on 100-point grids"

    return check

def _h_signs(spec: ClassSpec, rs: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """The sign of H = B - d* on a grid of r, 0 where |H| is within its
    error bound."""
    # B(r) >= r makes H(r) >= r - d*: a free positivity certificate that
    # also avoids series evaluation close to r = 1 where truncation budgets
    # would blow up.
    d = distance_bound(spec, tol=cfg.series_tol)
    signs = np.ones_like(rs)
    near = ~(rs - d.value > d.error_bound + 1e-12)
    b = bohr_sum(spec, rs[near], tol=cfg.series_tol)
    h = b.value - d.value
    signs[near] = np.where(np.abs(h) <= b.error_bound + d.error_bound, 0.0, np.sign(h))
    return signs


def _make_sign_change_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        counts = []
        for spec in _rep_specs(fam):
            signs = _h_signs(spec, np.linspace(0.0, 1.0 - 1e-9, 1000), cfg)
            nonzero = signs[signs != 0.0]
            changes = int(np.count_nonzero(np.diff(nonzero)))
            counts.append(changes)
            # Degenerate parameters sit at the root from the start.
            expected = 0 if distance_bound(spec).value == 0.0 else 1
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
        # the tail bound certifies the cut-off.  The target is 1e-12, and
        # B's own series is summed to half that.
        gaps, tails = [], []
        for spec in _rep_specs(fam):
            rule = coefficient_rule(spec)
            ns = np.arange(rule.start, rule.start + _DIRECT_TERMS, dtype=np.float64)
            c = rule.terms(ns)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9):
                direct = r + float(c @ r**ns)
                gaps.append(abs(bohr_sum(spec, r, tol=5e-13).value - direct))
                tails.append(_tail_bound(spec, int(ns[-1]), r))
        worst, tail = float(np.max(gaps)), float(np.max(tails))
        ok = worst <= 1e-12 and tail <= 1e-15
        return ok, f"max |B - direct sum| = {worst:.2e} (tail <= {tail:.1e})"

    return check

def _check_alt_engine_direct(cfg: SolverConfig) -> tuple[bool, str]:
    rules = [
        coefficient_rule(ph_alpha(0.3)),
        coefficient_rule(wh_alpha(0.5)),
        coefficient_rule(wh_alpha(1.0)),
        coefficient_rule(ph_m(1.0)),
        CoefficientRule(lambda n: 1.0 / (1.0 + 0.5 * n), 1, "g-alt-0.5"),
        CoefficientRule(lambda n: 1.0 / (1.0 + 2.0 * n), 1, "g-alt-2"),
    ]
    gaps = []
    for rule in rules:
        accel = alt_constant(rule, tol=1e-12)
        direct = _direct_alt_pair_average(rule, 1_000_000)
        gaps.append(abs(accel.value - direct))
    worst = float(np.max(gaps))
    return worst <= 1e-10, f"max |accelerated - direct| = {worst:.2e}"

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
            rep = envelope_check(spec, config=cfg)
            ok = ok and rep.passed
        return ok, "touch-point equality and containment at 5 radii per spec"

    return check

def _make_scan_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        details = []
        specs = _rep_specs(fam)
        for spec, result in zip(specs, solve_radii(specs, cfg)):
            r_f = result.radius
            if r_f == 0.0:
                fv = _first_violation(spec, 0.5, 400, cfg)
                grid_step = 0.5 / 399.0
                ok = ok and fv is not None
                ok = ok and abs(fv - grid_step) <= 1e-12
                details.append("violation at first positive grid point")
                continue
            r_max = min(1.5 * r_f, 0.95)
            fv = _first_violation(spec, r_max, 400, cfg)
            grid_step = r_max / 399.0
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
        specs = [gh_k_alpha(k, a) for a in (0.5, 1.0, 2.0, 4.0)]
        values = [distance_bound(s, tol=cfg.series_tol).value - 1.0 for s in specs]
        ok = ok and all(b > a for a, b in zip(values, values[1:])) and values[-1] < 0.0
    return ok, "strictly increasing toward 0 in alpha for k in {1,2,3}"

def _check_oracle_envelope_floor(cfg: SolverConfig) -> tuple[bool, str]:
    ok = True
    worst = float("inf")
    for fam in Family:
        spec = _rep_specs(fam)[1]
        est = distance_oracle(spec, rho=0.1, grid=72, n=2_000)
        env = growth_envelope(spec, 0.1, tol=cfg.series_tol)
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
        results.append(CheckResult(name, passed, detail, perf_counter() - t0))
    return SuiteReport(tuple(results))
