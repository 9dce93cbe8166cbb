"""Command-line front end.

Subcommands: ``radius`` solves one family at one parameter point, ``scan``
sweeps a parameter grid, ``verify`` runs the named cross-check suite, and
``table`` emits two-column plot data.  Data goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 failed verification checks, 2 invalid
class or parameters, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classes import FAMILIES, Family, distance_bound, make_spec, sweep_lanes
from .errors import ConvergenceError, DomainError, ValidationError
# solve_radius is not called here; perfbench/test_perfbench.py reads it.
from .solver import Method, RadiusResult, SolverConfig, _lanes_like, _put_lanes, _solve_lanes
from .solver import _split_lanes
from .solver import jacobian_functional, jacobian_radius, solve_radius  # noqa: F401

JACOBIAN_TAG = "tb-m-jacobian"
CLASS_TAGS = tuple(f.value for f in FAMILIES) + (JACOBIAN_TAG,)

# Largest lo:hi:step grid parse_grid will build.
MAX_GRID_POINTS = 1_000_000

# Lanes compute_records solves at once: the solver's temporaries stay
# bounded by a chunk whatever the grid size, and the benchmark's
# 1001-point scans take one chunk.  Larger chunks are no faster and raise
# a 10^5-point scan's peak RSS (55 MB at 16384 lanes, 45 MB here).
_CHUNK_LANES = 4096

# Rows _write_records formats and writes at once, one write per batch.
_ROW_BATCH = 1024

# Parameters each tag requires on the command line; the last is swept by
# --range.  The Jacobian variant takes the parameters of tb-m.
_EXPECTED_PARAMS: dict[str, tuple[str, ...]] = {
    **{fam.value: d.params for fam, d in FAMILIES.items()},
    JACOBIAN_TAG: FAMILIES[Family.TB_M].params,
}

CSV_HEADER = "class,param_name,param_value,radius,residual,method"

# The keys of a JSON record, in the order records print them.
_JSON_KEYS = ("class", "params", "radius", "residual", "method", "d_star", "tol")


def _json_row(*fields) -> str:
    # json round-trips Python floats through repr: bit-identical reals.
    return json.dumps(dict(zip(_JSON_KEYS, fields)))


def _json_template(tag: str, params: dict, name: str, method: str, tol: float) -> str:
    """A scan's JSON row as a % template over (value, radius, residual,
    d*): the fixed fields are dumped once, and %r prints a finite float as
    json.dumps does."""
    text = _json_row(tag, {**params, name: "\0"}, "\0", "\0", method, "\0", tol)
    return text.replace('"\\u0000"', "%r") + "\n"


def _format_rows(template: str, columns) -> str:
    """One row of ``template`` per entry of ``columns``, lane arrays of one
    length, as one string: a single % over the template repeated once per
    row, fed the columns' floats row by row."""
    flat = [None] * (len(columns) * columns[0].size)
    for i, column in enumerate(columns):
        flat[i :: len(columns)] = column.tolist()
    return (template * columns[0].size) % tuple(flat)


def _csv_template(tag: str, name: str, method: str) -> str:
    """A CSV row as a % template over (value, radius, residual)."""
    return f"{tag},{name},%.12g,%.12g,%.11e,{method}"


# OutputRecord is not used here; perfbench/test_perfbench.py reads it.
@dataclass(frozen=True)
class OutputRecord:
    """One solved radius, ready for CSV emission."""

    class_tag: str
    params: dict
    radius: float
    residual: float
    method: str
    d_star: float
    tol: float

    def to_csv_row(self) -> str:
        name = _EXPECTED_PARAMS[self.class_tag][-1]
        row = self.params[name], self.radius, self.residual
        return _csv_template(self.class_tag, name, self.method) % row


def parse_grid(text: str) -> list[float]:
    """Parse ``lo:hi:step`` into values, inclusive of lo, exclusive of hi + step/2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must have the form lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"grid bounds must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise DomainError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0.0:
        raise DomainError(f"grid step must be > 0, got {step}")
    if hi < lo:
        raise DomainError(f"grid must have hi >= lo, got {text!r}")
    if (hi - lo) / step + 1.0 > MAX_GRID_POINTS:
        raise DomainError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    # lo + i*step grows with i, so the points kept are a prefix of these;
    # numpy rounds each product and sum as Python's floats do.  Near the
    # float maximum a point past hi may be inf, which the bound drops.  lo
    # itself is always kept: a step below an ulp of hi rounds the bound
    # hi + step/2 onto hi, which would drop lo = hi.
    with np.errstate(over="ignore"):
        values = lo + np.arange(int((hi - lo) / step) + 2.0) * step
    keep = values < hi + step / 2.0
    keep[0] = True
    values = values[keep]
    # A step below the float spacing near the bounds rounds points together.
    if not (values[1:] > values[:-1]).all():
        raise DomainError(f"grid {text!r} repeats points: its step is below the float spacing")
    return values.tolist()


def _parse_scalar(name: str, text: str) -> float:
    if ":" in text:
        raise DomainError(f"--{name} must be a single value here, got grid {text!r}")
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"--{name} must be a number, got {text!r}") from None


def resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("BOHR_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise DomainError(f"BOHR_TOL must be a number, got {env!r}") from None
    return SolverConfig.tol  # the field's default


def _make_config(args) -> SolverConfig:
    return SolverConfig(tol=resolve_tol(args), max_iter=getattr(args, "max_iter", 200))


def _gather_params(args, tag: str, require_all: bool = True) -> dict[str, str]:
    expected = _EXPECTED_PARAMS[tag]
    given = {
        name: getattr(args, name)
        for name in ("alpha", "beta", "m", "k")
        if getattr(args, name, None) is not None
    }
    for name in given:
        if name not in expected:
            raise ValidationError(f"--{name} is not a parameter of class {tag}")
    if require_all:
        for name in expected:
            if name not in given:
                raise ValidationError(f"class {tag} requires --{name}")
    return given


def _solve_chunk(tag: str, spec, cfg: SolverConfig) -> RadiusResult:
    """The lane record of one lane spec; raises its first lane's
    ConvergenceError."""
    if tag == JACOBIAN_TAG:
        radius = jacobian_radius(spec.m)
        d_star = distance_bound(spec)
        residual = abs(jacobian_functional(spec.m, radius) - d_star.value)
        steps = np.zeros(radius.size, dtype=np.int64)
        return RadiusResult(radius, residual, radius, radius, steps, Method.CLOSED_FORM, d_star)
    lanes, errors = _solve_lanes(spec, cfg)
    if errors:
        raise errors[min(errors)]
    return lanes


def compute_records(tag: str, scalars: dict, name: str, values: list[float], cfg: SolverConfig):
    """Solve ``name`` swept over ``values``, the other parameters fixed at
    ``scalars``, for any class tag: ``make_spec`` on the first point, then
    one lane pass per chunk of _CHUNK_LANES values, each chunk swept by
    ``sweep_lanes``, in order.  A grid of more than one chunk is copied
    chunk by chunk into lane arrays allocated once, so no chunk's record
    outlives its copy; a one-chunk grid keeps its chunk's arrays.

    A failure raises what solving point by point would: chunks run in
    order, so the first chunk that fails holds the first failing point,
    and within it the first lane's ConvergenceError, else ``make_spec``'s
    error for the first invalid point, wins.  Returns the first point's
    parameters as records print them, and a RadiusResult of lane arrays,
    one lane per value.
    """
    family = Family.TB_M if tag == JACOBIAN_TAG else Family(tag)
    first = make_spec(family, **scalars, **{name: values[0]})
    lanes = None
    for start in range(0, len(values), _CHUNK_LANES):
        grid = values[start : start + _CHUNK_LANES]
        spec, n = sweep_lanes(first, name, grid)
        if n == len(values):
            lanes = _solve_chunk(tag, spec, cfg)
        elif n:
            chunk = _solve_chunk(tag, spec, cfg)
            if lanes is None:
                lanes = _lanes_like(chunk, len(values))
            _put_lanes(lanes, start, chunk)
        if n < len(grid):
            make_spec(family, **scalars, **{name: grid[n]})  # raises for the invalid point
            break
    return first.params(), lanes


# compute_record is not called here; perfbench/test_perfbench.py reads it.
def compute_record(tag: str, params: dict, cfg: SolverConfig, tol: float) -> OutputRecord:
    """Solve one parameter point for any class tag: the one-point ``compute_records``."""
    name = _EXPECTED_PARAMS[tag][-1]
    if name not in params:
        raise ValidationError(f"missing parameter {name!r} for {tag}")
    scalars = {key: value for key, value in params.items() if key != name}
    params, lanes = compute_records(tag, scalars, name, [params[name]], cfg)
    (res,) = _split_lanes(lanes)
    return OutputRecord(
        tag, params, res.radius, res.residual, res.method.value, res.d_star.value, tol
    )


def cmd_radius(args) -> int:
    """``radius``: the one-point ``scan`` of its swept parameter."""
    tag = args.class_tag
    cfg = _make_config(args)
    raw = _gather_params(args, tag)
    scalars = {
        name: (value if name == "k" else _parse_scalar(name, value))
        for name, value in raw.items()
    }
    name = _EXPECTED_PARAMS[tag][-1]
    return _write_records(args, tag, cfg, scalars, name, [scalars.pop(name)])


def _sweep_values(args, tag: str) -> tuple[dict, str, list[float]]:
    """Split the given parameters into fixed scalars and one swept grid."""
    canonical = _EXPECTED_PARAMS[tag][-1]
    range_text = getattr(args, "range", None)
    raw = _gather_params(args, tag, require_all=range_text is None)
    grids = {
        name: value
        for name, value in raw.items()
        if name != "k" and ":" in str(value)
    }
    if range_text is not None:
        if grids or canonical in raw:
            raise DomainError(f"give either --range or --{canonical}, not both")
        sweep_name, values = canonical, parse_grid(range_text)
        for name in _EXPECTED_PARAMS[tag]:
            if name != sweep_name and name not in raw:
                raise ValidationError(f"class {tag} requires --{name}")
    else:
        if len(grids) != 1:
            raise DomainError(
                "exactly one parameter must be a grid lo:hi:step (or use --range)"
            )
        ((sweep_name, grid_text),) = grids.items()
        values = parse_grid(grid_text)
    scalars = {
        name: (value if name == "k" else _parse_scalar(name, value))
        for name, value in raw.items()
        if name != sweep_name
    }
    return scalars, sweep_name, values


def cmd_scan(args) -> int:
    """``scan`` and ``table``: the records of one swept grid."""
    tag = args.class_tag
    cfg = _make_config(args)
    return _write_records(args, tag, cfg, *_sweep_values(args, tag))


def _write_records(
    args, tag: str, cfg: SolverConfig, scalars: dict, name: str, values: list[float]
) -> int:
    """Solve ``name`` over ``values`` and print a record per value in
    ``args.format``: rows formatted straight from the solver's lane arrays,
    through one % template per scan that holds the lane record's one
    method, and written to stdout in batches of _ROW_BATCH rows, one string
    and one write each."""
    params, lanes = compute_records(tag, scalars, name, values, cfg)
    method = lanes.method.value
    columns = np.asarray(values), lanes.radius, lanes.residual, lanes.d_star.value
    if args.format == "table":
        print(f"{name},radius")
        template, columns = "%.12g,%.12g\n", columns[:2]
    elif args.format == "csv":
        print(CSV_HEADER)
        template, columns = _csv_template(tag, name, method) + "\n", columns[:3]
    else:
        template = _json_template(tag, params, name, method, cfg.tol)
    for start in range(0, len(values), _ROW_BATCH):
        batch = [column[start : start + _ROW_BATCH] for column in columns]
        # json.dumps prints NaN and Infinity where %r prints nan and inf;
        # on finite floats the two agree.
        if args.format == "json" and not np.isfinite(batch[1:]).all():
            rows = zip(*(column.tolist() for column in batch))
            text = "".join([_json_row(tag, {**params, name: v}, r, res, method, dv, cfg.tol) + "\n"
                            for v, r, res, dv in rows])
        else:
            text = _format_rows(template, batch)
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    from . import verifier

    cfg = _make_config(args)
    family = None
    if args.class_tag is not None:
        tag = Family.TB_M.value if args.class_tag == JACOBIAN_TAG else args.class_tag
        family = Family(tag)
    report = verifier.run_suite(only=args.only, family=family, config=cfg)
    if not report.results:
        print("no checks matched the given filters", file=sys.stderr)
        return 2
    if args.json:
        for result in report.results:
            print(json.dumps({
                "name": result.name, "passed": result.passed,
                "detail": result.detail, "seconds": result.seconds,
            }))
    else:
        for result in report.results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
        n_pass = sum(1 for r in report.results if r.passed)
        print(f"{n_pass}/{len(report.results)} checks passed")
    if not report.passed:
        names = ", ".join(r.name for r in report.failures)
        print(f"failing checks: {names}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmbohr",
        description="Sharp Bohr radii for six families of harmonic mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--class", dest="class_tag", required=True, choices=CLASS_TAGS)
        p.add_argument("--alpha", help="family parameter (or lo:hi:step for sweeps)")
        p.add_argument("--beta", help="family parameter (or lo:hi:step for sweeps)")
        p.add_argument("--m", help="family parameter (or lo:hi:step for sweeps)")
        p.add_argument("--k", type=int, help="gap length (integer >= 1)")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance (default 1e-12 or BOHR_TOL)")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=200)

    p_radius = sub.add_parser("radius", help="compute one sharp radius")
    add_common(p_radius)
    p_radius.add_argument("--format", choices=("json", "csv"), default="json")
    p_radius.set_defaults(func=cmd_radius)

    p_scan = sub.add_parser("scan", help="sweep a parameter grid")
    add_common(p_scan)
    p_scan.add_argument("--range", help="lo:hi:step sweep of the class's canonical parameter")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--class", dest="class_tag", default=None, choices=CLASS_TAGS)
    p_verify.add_argument("--only", default=None, help="substring filter on check names")
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    p_verify.add_argument(
        "--json", action="store_true",
        help="one JSON object per check (name, passed, detail, seconds), no summary line",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit a (parameter, radius) curve as CSV")
    add_common(p_table)
    p_table.add_argument("--range", help="lo:hi:step sweep of the class's canonical parameter")
    p_table.set_defaults(func=cmd_scan, format="table")

    return parser


# main's parser, built on its first call and reused by every later one: the
# tree is the same on every call, and argparse formats help, usage and
# errors only when asked, through the streams and terminal of that call.
# build_parser() still returns a new parser to any other caller.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command line; every call parses its own argv into a fresh
    namespace and reads ``BOHR_TOL`` anew."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _freeze_collector_at_exit() -> None:
    """Register ``gc.freeze`` to run at interpreter exit, once per process.

    Finalization then skips its full collections over the objects numpy
    and harmbohr leave tracked: reference counting still frees them, the
    interpreter flushes stdout and stderr before it tears modules down,
    and no harmbohr object owns a resource that needs a finalizer, so only
    cyclic garbage still alive at exit is left to the operating system.
    """
    atexit.register(gc.freeze)


def entrypoint() -> None:
    """The ``harmbohr`` process: ``main`` on ``sys.argv``, its code as the
    exit status.  Unlike ``main``, it also freezes the collector at exit."""
    _freeze_collector_at_exit()
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
