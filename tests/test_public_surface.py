"""The package's public surface: the names ``harmbohr`` exports, the
README's Python examples, which must run against them, and its one runtime
dependency, numpy."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harmbohr
from harmbohr import _kernels

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # families and their parameters
    "ph_alpha", "gt_beta", "wh_alpha", "gh_k_alpha", "tb_m", "ph_m",
    "make_spec", "ClassSpec", "Family", "validate", "PH_M_SUP",
    # what a family knows
    "bohr_sum", "distance_bound", "growth_envelope", "extremal_coefficients",
    "GrowthEnvelope", "SeriesValue",
    # the solver
    "Method", "RadiusResult", "SolverConfig", "solve_radius", "solve_radii",
    "closed_form_radius", "jacobian_radius",
    # errors
    "HarmBohrError", "DomainError", "ValidationError", "ConvergenceError",
}


def test_all_is_the_kept_names():
    assert len(harmbohr.__all__) == len(PUBLIC_NAMES) == 28
    assert set(harmbohr.__all__) == PUBLIC_NAMES
    for name in harmbohr.__all__:
        assert getattr(harmbohr, name) is not None


def test_one_circle_evaluator():
    # Every circle evaluation goes through the one FFT kernel.
    public = {
        name
        for name, fn in inspect.getmembers(_kernels, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == _kernels.__name__
    }
    assert public == {"abs_on_circle"}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_runs(index):
    exec(compile(python_blocks()[index], f"README.md python block {index}", "exec"), {})


def test_readme_lists_every_export_and_no_other():
    # The bullet list under "exports 28 names" in the README's Library section.
    text = README.read_text()
    start = text.index("`harmbohr` exports 28 names")
    bullets = text[start:].split("\n\n")[1]
    listed = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets))
    assert listed == set(harmbohr.__all__)


def test_a_solve_imports_neither_scipy_nor_mpmath():
    # scipy and mpmath are test references only: a wh-alpha radius, whose
    # majorant's tail needs E_p, runs in a fresh interpreter without them.
    code = (
        "import sys\n"
        "from harmbohr.cli import main\n"
        "assert main(['radius', '--class', 'wh-alpha', '--alpha', '0.7']) == 0\n"
        "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    src = str(Path(harmbohr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_series_takes_a_tolerance():
    # Every series is a closed form or a sum at a fixed cost that returns its
    # own certified bound, so no series function, no family callable and
    # none of the three family lookups takes a tol; the solver's tol is the
    # width of its certified bracket, beside its step budget and the
    # closed-form switch.
    import dataclasses

    from harmbohr import classes, series
    from harmbohr.solver import SolverConfig

    functions = [
        fn for _, fn in inspect.getmembers(series, inspect.isfunction)
        if fn.__module__ == series.__name__
    ]
    assert {"lerch_sum", "alt_lerch_sum", "_wh_sums", "_wh_alt", "_boole"} <= {
        fn.__name__ for fn in functions
    }
    for family in classes.FAMILIES.values():
        for field in ("coeff", "majorant", "lower", "radius", "upper"):
            if getattr(family, field) is not None:
                functions.append(getattr(family, field))
    functions += [classes.bohr_sum, classes.distance_bound, classes.growth_envelope]
    for fn in functions:
        assert "tol" not in inspect.signature(fn).parameters, fn
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "tol", "max_iter", "prefer_closed_form"
    ]
