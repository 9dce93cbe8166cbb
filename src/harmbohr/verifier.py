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
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels
from .classes import (
    FAMILIES,
    ClassSpec,
    ExtremalFunction,
    Family,
    bohr_sum,
    coefficient_rule,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    growth_envelope,
    gt_beta,
    majorant_tail_bound,
    ph_alpha,
    ph_m,
    start_index,
    tb_m,
    validate,
    wh_alpha,
)
from .errors import DomainError, HarmBohrError
from .series import CoefficientRule, alt_constant, g_alt_constant, sum_power_series
from .solver import (
    SolverConfig,
    build_equation,
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


@dataclass(frozen=True)
class OracleEstimate:
    """A circle-minimum estimate of the boundary distance."""

    value: float
    truncation_n: int
    grid_size: int
    rho: float
    argmin_theta: float = 0.0


@dataclass(frozen=True)
class ScanRow:
    r: float
    bohr_sum: float
    d_star: float
    satisfied: bool


@dataclass(frozen=True)
class ScanReport:
    """Bohr-inequality evaluations on a uniform radius grid."""

    spec: ClassSpec
    grid: tuple[ScanRow, ...]
    first_violation: Optional[float]


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


def evaluate_extremal(f: ExtremalFunction, z: complex) -> float:
    """|f(z)| for a truncated extremal, analytic plus co-analytic parts."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError(f"z must satisfy |z| < 1, got |z| = {abs(z)}")
    value = _kernels.eval_point(f.analytic, z)
    if f.co_analytic.size and np.any(f.co_analytic):
        shifted = np.concatenate(([0.0], f.co_analytic))
        value += np.conj(_kernels.eval_point(shifted, z))
    return float(abs(value))


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
    values = _kernels.abs_on_circle(ext.analytic, float(rho), thetas)
    idx = int(np.argmin(values))
    return OracleEstimate(
        value=float(values[idx]),
        truncation_n=int(n),
        grid_size=int(grid),
        rho=float(rho),
        argmin_theta=float(thetas[idx]),
    )


def default_sharpness_tol(spec: ClassSpec) -> float:
    # Families whose majorant is itself a series carry the looser
    # tolerance; closed-form families are checked near round-off.
    return 1e-9 if FAMILIES[spec.family].majorant is None else 1e-12


def sharpness_check(
    spec: ClassSpec, tol: float | None = None, config: SolverConfig | None = None
) -> SharpnessReport:
    """Check that bohr_sum(r_f) = d* within tol, and is violated just beyond."""
    return _sharpness_reports([spec], tol, config or SolverConfig())[0]


def _sharpness_reports(
    specs: list[ClassSpec], tol: float | None, cfg: SolverConfig
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
        spec_tol = default_sharpness_tol(spec) if tol is None else tol
        passed = abs(gap) <= spec_tol + slack and violation_gap > 0.0
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


def bohr_scan(
    spec: ClassSpec,
    r_max: float,
    steps: int,
    config: SolverConfig | None = None,
) -> ScanReport:
    """Evaluate the Bohr inequality on a uniform grid and find the first violation."""
    rs, b, d, satisfied = _scan_arrays(spec, r_max, steps, config or SolverConfig())
    rows = tuple(
        ScanRow(r, value, d, ok)
        for r, value, ok in zip(rs.tolist(), b.tolist(), satisfied.tolist())
    )
    first_violation = next((row.r for row in rows if not row.satisfied), None)
    return ScanReport(spec=spec, grid=rows, first_violation=first_violation)


def _scan_arrays(
    spec: ClassSpec, r_max: float, steps: int, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The r grid, B on it, d* and the satisfied mask of ``bohr_scan``."""
    validate(spec)
    if not 0.0 < r_max < 1.0:
        raise DomainError(f"r_max must satisfy 0 < r_max < 1, got {r_max}")
    if int(steps) != steps or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    d = distance_bound(spec, tol=cfg.series_tol)
    rs = np.linspace(0.0, r_max, int(steps))
    b = bohr_sum(spec, rs, tol=cfg.series_tol)
    satisfied = b.value <= d.value + b.error_bound + d.error_bound + 1e-15
    return rs, b.value, d.value, satisfied


def _first_violation(
    spec: ClassSpec, r_max: float, steps: int, cfg: SolverConfig
) -> Optional[float]:
    """``bohr_scan(...).first_violation``, read off the mask without building rows."""
    rs, _, _, satisfied = _scan_arrays(spec, r_max, steps, cfg)
    bad = np.flatnonzero(~satisfied)
    return float(rs[bad[0]]) if bad.size else None


def lower_touch_angle(spec: ClassSpec) -> float:
    """Angle where the extremal attains the lower growth envelope."""
    validate(spec)
    return math.pi / (spec.k or 1)


def envelope_check(
    spec: ClassSpec,
    samples: Iterable[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    truncation: int = 10_000,
    tol: float = 1e-8,
    config: SolverConfig | None = None,
) -> EnvelopeReport:
    """Check envelope containment and touch-point equality for the extremal.

    At each sample radius the extremal is evaluated on a circle grid for
    containment, at angle 0 for upper equality, and at the family's lower
    touch angle for lower equality, all within tol plus the truncation
    bound of the coefficient cutoff.
    """
    cfg = config or SolverConfig()
    validate(spec)
    samples = tuple(float(r) for r in samples)
    if any(not 0.0 < r < 1.0 for r in samples):
        raise DomainError("all samples must lie in (0, 1)")
    ext = extremal_coefficients(spec, truncation)
    angle = lower_touch_angle(spec)
    rows = []
    passed = True
    for r in samples:
        env = growth_envelope(spec, r, tol=cfg.series_tol)
        tail = majorant_tail_bound(spec, truncation, r)
        slack = tol + tail + env.error_bound
        at_upper = evaluate_extremal(ext, r)
        at_lower = evaluate_extremal(ext, r * complex(math.cos(angle), math.sin(angle)))
        thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        values = _kernels.abs_on_circle(ext.analytic, r, thetas)
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


def _direct_alt_pair_average(rule: CoefficientRule, n_terms: int, first_sign: int = -1) -> float:
    """Plain alternating partial sums, averaged over the last two.

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
    return first_sign * (pairs + 0.5 * float(c[-1]))


# ---------------------------------------------------------------------------
# Named check suite
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _check_radius_ph_reference(cfg: SolverConfig) -> tuple[bool, str]:
    res = solve_radius(ph_alpha(0.0), cfg)
    ok = abs(res.radius - 0.285194) <= 1e-4 and res.residual <= 1e-10
    return ok, f"radius={_fmt(res.radius)} residual={res.residual:.2e}"

def _check_reduction_wh(cfg: SolverConfig) -> tuple[bool, str]:
    r_wh = solve_radius(wh_alpha(0.0), cfg).radius
    r_ph = solve_radius(ph_alpha(0.0), cfg).radius
    diff = abs(r_wh - r_ph)
    return diff <= 1e-9, f"|{_fmt(r_wh)} - {_fmt(r_ph)}| = {diff:.2e}"

def _check_reduction_gh(cfg: SolverConfig) -> tuple[bool, str]:
    r_gh = solve_radius(gh_k_alpha(1, 1.0), cfg).radius
    r_ph = solve_radius(ph_alpha(0.0), cfg).radius
    diff = abs(r_gh - r_ph)
    return diff <= 1e-9, f"|{_fmt(r_gh)} - {_fmt(r_ph)}| = {diff:.2e}"

def _check_gt_closed_vs_bisection(cfg: SolverConfig) -> tuple[bool, str]:
    bis = SolverConfig(cfg.tol, cfg.series_tol, cfg.max_iter, prefer_closed_form=False)
    specs = [gt_beta(round(0.05 * i, 2)) for i in range(10)]
    results = solve_radii(specs, bis)
    # np.max, unlike max(), lets a NaN radius through to fail the check.
    worst = float(np.max([abs(closed_form_radius(s) - res.radius) for s, res in zip(specs, results)]))
    zero_ok = results[0].radius == 0.0  # specs[0] is gt_beta(0.0)
    return worst <= 1e-10 and zero_ok, f"max |closed - bisection| = {worst:.2e}"

def _check_tb_closed_vs_bisection(cfg: SolverConfig) -> tuple[bool, str]:
    bis = SolverConfig(cfg.tol, cfg.series_tol, cfg.max_iter, prefer_closed_form=False)
    specs = [tb_m(round(0.1 + 0.1 * i, 2)) for i in range(19)]
    results = solve_radii(specs, bis)
    # np.max, unlike max(), lets a NaN radius through to fail the check.
    worst = float(np.max([abs(closed_form_radius(s) - res.radius) for s, res in zip(specs, results)]))
    return worst <= 1e-10, f"max |closed - bisection| = {worst:.2e}"

def _check_tb_quadratic_residual(cfg: SolverConfig) -> tuple[bool, str]:
    residuals = []
    for i in range(19):
        m = round(0.1 + 0.1 * i, 2)
        r = closed_form_radius(tb_m(m))
        residuals.append(abs(m * r * r + 2.0 * r + (m - 2.0)))
    worst = float(np.max(residuals))
    ref = abs(closed_form_radius(tb_m(1.0)) - (math.sqrt(2.0) - 1.0))
    ok = worst <= 1e-12 and ref <= 1e-12
    return ok, f"max quadratic residual = {worst:.2e}; |r(1) - (sqrt(2)-1)| = {ref:.2e}"

def _check_jacobian_half(cfg: SolverConfig) -> tuple[bool, str]:
    ms = [round(0.1 + 0.1 * i, 2) for i in range(19)]
    # np.max, unlike max(), lets a NaN through to fail the check.
    worst = float(np.max([abs(jacobian_radius(m) - 0.5 * closed_form_radius(tb_m(m))) for m in ms]))
    return worst <= 1e-15, f"max |jacobian - closed/2| = {worst:.2e}"

def _check_jacobian_deficit(cfg: SolverConfig) -> tuple[bool, str]:
    ms = [round(0.1 + 0.1 * i, 2) for i in range(19)]
    deficits = [abs(jacobian_functional(m, jacobian_radius(m)) - (1.0 - 0.5 * m)) for m in ms]
    worst = float(np.max(deficits))
    # The functional is max|f| + r max|h'| + sum_{n>=2} |a_n| r^n of the
    # extremal on |z| = r, each term measured from its coefficients; it must
    # match from both sides.
    slacks = []
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    for m in (0.5, 1.0, 1.5):
        a = extremal_coefficients(tb_m(m), 2).analytic
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
        reports = _sharpness_reports(list(STANDARD_GRIDS[fam]), None, cfg)
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
            eq = build_equation(spec, cfg)
            values = eq.h(np.linspace(0.0, 0.95, 100)).value
            ok = ok and bool(np.all(values[1:] > values[:-1]))
        return ok, "H strictly increasing on 100-point grids"

    return check

def _h_signs(eq, rs: np.ndarray) -> np.ndarray:
    """The sign of H on a grid of r, 0 where |H| is within its error bound."""
    # B(r) >= r makes H(r) >= r - d*: a free positivity certificate that
    # also avoids series evaluation close to r = 1 where truncation budgets
    # would blow up.
    d = eq.d_star
    signs = np.ones_like(rs)
    near = ~(rs - d.value > d.error_bound + 1e-12)
    hv = eq.h(rs[near])
    signs[near] = np.where(np.abs(hv.value) <= hv.error_bound, 0.0, np.sign(hv.value))
    return signs


def _make_sign_change_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        ok = True
        counts = []
        for spec in _rep_specs(fam):
            eq = build_equation(spec, cfg)
            rs = np.linspace(0.0, 1.0 - 1e-9, 1000)
            signs = _h_signs(eq, rs)
            nonzero = signs[signs != 0.0]
            changes = int(np.count_nonzero(np.diff(nonzero)))
            counts.append(changes)
            # Degenerate parameters sit at the root from the start.
            expected = 0 if distance_bound(spec).value == 0.0 else 1
            ok = ok and changes == expected
        return ok, f"sign changes per spec: {counts}"

    return check

def _make_generic_sum_check(fam: Family):
    def check(cfg: SolverConfig) -> tuple[bool, str]:
        # Agreement target is 1e-12; evaluating both sides at half that is
        # enough and keeps large sums (constant coefficients near r = 1)
        # inside the engine's rounding budget.
        engine_tol = 5e-13
        gaps = []
        for spec in _rep_specs(fam):
            rule = coefficient_rule(spec)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9):
                direct = bohr_sum(spec, r, tol=engine_tol)
                generic = r + sum_power_series(rule, r, tol=engine_tol).value
                gaps.append(abs(direct.value - generic))
        worst = float(np.max(gaps))
        return worst <= 1e-12, f"max |closed - generic| = {worst:.2e}"

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
        accel = alt_constant(rule, tol=1e-12, first_sign=-1)
        direct = _direct_alt_pair_average(rule, 1_000_000, first_sign=-1)
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
    ok = True
    for k in (1, 2, 3):
        values = [g_alt_constant(k, a).value for a in (0.5, 1.0, 2.0, 4.0)]
        ok = ok and all(b > a for a, b in zip(values, values[1:])) and values[-1] < 0.0
    return ok, "strictly increasing toward 0 in alpha for k in {1,2,3}"

def _check_oracle_envelope_floor(cfg: SolverConfig) -> tuple[bool, str]:
    ok = True
    worst = float("inf")
    for fam in Family:
        spec = _rep_specs(fam)[1]
        est = distance_oracle(spec, rho=0.1, grid=72, n=2_000)
        env = growth_envelope(spec, 0.1, tol=cfg.series_tol)
        tail = majorant_tail_bound(spec, 2_000, 0.1)
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
        ("reduction-wh-to-ph", (Family.WH_ALPHA, Family.PH_ALPHA), _check_reduction_wh),
        ("reduction-gh-to-ph", (Family.GH_K_ALPHA, Family.PH_ALPHA), _check_reduction_gh),
        ("closed-vs-bisection-gt-beta", (Family.GT_BETA,), _check_gt_closed_vs_bisection),
        ("closed-vs-bisection-tb-m", (Family.TB_M,), _check_tb_closed_vs_bisection),
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
