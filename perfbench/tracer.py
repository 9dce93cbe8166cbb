"""Per-layer counters and self times for harmbohr, kept from outside the package.

A :class:`Tracer` replaces selected public functions with timing wrappers
while it is installed.  Functions such as ``bohr_sum`` or ``solve_radius``
are imported by name into several modules (``solver``, ``verifier``,
``cli`` and the package itself), so the wrapper is bound in place of the
original under every name in every ``harmbohr`` module that holds it;
binding it only where the function is defined would leave most calls
uncounted.  ``uninstall`` puts every original back.

A function that is missing (a later version may delete or rename it) is
listed in ``absent`` and its counters read zero; nothing else changes.

Self time is a call's wall time minus the wall time of the wrapped calls
made inside it, so the self times of one traced round add up to no more
than the round's wall time.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# metric prefix -> (module, function).  The prefix names the layer.
TRACED = {
    "cli.compute_record": ("harmbohr.cli", "compute_record"),
    "solver.solve_radius": ("harmbohr.solver", "solve_radius"),
    "classes.bohr_sum": ("harmbohr.classes", "bohr_sum"),
    "classes.distance_bound": ("harmbohr.classes", "distance_bound"),
    "classes.growth_envelope": ("harmbohr.classes", "growth_envelope"),
    "classes.extremal_coefficients": ("harmbohr.classes", "extremal_coefficients"),
    "series.sum_power_series": ("harmbohr.series", "sum_power_series"),
    "series.signed_power_series": ("harmbohr.series", "signed_power_series"),
    "series.alt_constant": ("harmbohr.series", "alt_constant"),
    "kernels.abs_on_circle": ("harmbohr._kernels", "abs_on_circle"),
    "kernels.eval_point": ("harmbohr._kernels", "eval_point"),
}

# Observed for its return value only: the CheckResult.seconds of each check.
SUITE = ("harmbohr.verifier", "run_suite")

# Modules imported before wrapping, so that lazily imported ones (the CLI
# imports the verifier on first use) get the wrapper too.
MODULES = (
    "harmbohr",
    "harmbohr.series",
    "harmbohr.classes",
    "harmbohr.solver",
    "harmbohr._kernels",
    "harmbohr.verifier",
    "harmbohr.cli",
)

# Check-name prefixes that form the verifier groups; the rest is "other".
CHECK_GROUPS = (
    "sharpness",
    "envelope",
    "distance-oracle",
    "h-monotone",
    "single-sign-change",
    "generic-sum-agreement",
    "scan-localisation",
    "alt-engine-vs-direct-sum",
)


def check_group(name: str) -> str:
    for group in CHECK_GROUPS:
        if name == group or name.startswith(group + "-"):
            return group
    return "other"


class Tracer:
    """Counts calls, self time and work of the TRACED functions while installed.

    ``raw`` maps counter names to sums; :func:`layer_metrics` turns a sum of
    ``raw`` dicts into the reported per-layer metrics.
    """

    def __init__(self):
        self.raw: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for name in MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        for prefix, (module_name, attr) in {**TRACED, "verifier.run_suite": SUITE}.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self._note_absent(f"{module_name}.{attr}")
                continue
            self._bind(original, self._wrap(prefix, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _bind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "harmbohr" or module_name.startswith("harmbohr.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, prefix: str, fn):
        raw, stack, opened = self.raw, self._stack, self._open
        observe = getattr(self, "_observe_" + prefix.split(".")[-1], None)

        def wrapper(*args, **kwargs):
            opened[prefix] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                opened[prefix] -= 1
                if stack:
                    stack[-1] += elapsed
                raw[prefix + ".calls"] += 1
                raw[prefix + ".self_s"] += elapsed - inner
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_bohr_sum(self, args, kwargs, result) -> None:
        if self._open["solver.solve_radius"]:
            self.raw["solver.h_evals"] += 1

    def _observe_solve_radius(self, args, kwargs, result) -> None:
        iterations = getattr(result, "iterations", None)
        method = getattr(getattr(result, "method", None), "value", None)
        if iterations is None or method is None:
            self._note_absent("harmbohr.solver.RadiusResult.iterations/method")
            return
        self.raw["solver.iterations"] += iterations
        self.raw["solver.closed_form"] += method == "CLOSED_FORM"

    def _observe_abs_on_circle(self, args, kwargs, result) -> None:
        coeffs = kwargs.get("coeffs", args[0] if args else None)
        thetas = kwargs.get("thetas", args[2] if len(args) > 2 else None)
        if coeffs is not None and thetas is not None:
            self.raw["kernels.abs_on_circle.terms_x_points"] += int(np.size(coeffs) * np.size(thetas))

    def _observe_eval_point(self, args, kwargs, result) -> None:
        coeffs = kwargs.get("coeffs", args[0] if args else None)
        if coeffs is not None:
            self.raw["kernels.eval_point.terms"] += int(np.size(coeffs))

    def _observe_run_suite(self, args, kwargs, result) -> None:
        for check in getattr(result, "results", ()):
            self.raw[f"verifier.{check_group(check.name)}_s"] += check.seconds

    def _note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one round from its summed raw counters."""
    out = {}
    for prefix in TRACED:
        out[prefix + ".calls"] = raw.get(prefix + ".calls", 0.0)
        out[prefix + ".self_s"] = raw.get(prefix + ".self_s", 0.0)
    solves = out["solver.solve_radius.calls"]
    out["solver.iterations_per_solve"] = _ratio(raw.get("solver.iterations", 0.0), solves)
    out["solver.h_evals_per_solve"] = _ratio(raw.get("solver.h_evals", 0.0), solves)
    out["solver.closed_form_frac"] = _ratio(raw.get("solver.closed_form", 0.0), solves)
    out["classes.distance_bound_per_point"] = _ratio(
        out["classes.distance_bound.calls"], out["cli.compute_record.calls"]
    )
    out["kernels.abs_on_circle.terms_x_points"] = raw.get(
        "kernels.abs_on_circle.terms_x_points", 0.0
    )
    out["kernels.eval_point.terms"] = raw.get("kernels.eval_point.terms", 0.0)
    for group in CHECK_GROUPS + ("other",):
        out[f"verifier.{group}_s"] = raw.get(f"verifier.{group}_s", 0.0)
    return out


def add_raw(total: dict[str, float], raw: dict[str, float]) -> None:
    for key, value in raw.items():
        total[key] = total.get(key, 0.0) + value
