"""Golden-output tests: ``cli.main`` run in process, its stdout and exit
code compared byte for byte with files under ``tests/golden/``, and a few
cases run again as a ``python -m harmbohr`` process.

Each case writes ``<name>.out`` (stdout) and an entry in
``exit_codes.json``.  To regenerate after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and list each regenerated file in CHANGES.md with the reason.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from harmbohr import cli
from harmbohr.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

CASES = {
    # The benchmark's two 1001-point scans.
    "scan-wh-alpha-csv": ["scan", "--class", "wh-alpha", "--alpha", "0:1:0.001", "--format", "csv"],
    "scan-gh-k2-csv": [
        "scan", "--class", "gh-k-alpha", "--k", "2", "--range", "0.5:2:0.0015", "--format", "csv",
    ],
    # A JSON scan per tag; gt-beta's and gh-k-alpha's first lanes are degenerate.
    "scan-ph-alpha-json": ["scan", "--class", "ph-alpha", "--alpha", "0:0.99:0.09"],
    "scan-gt-beta-json": ["scan", "--class", "gt-beta", "--beta", "0:0.49:0.07"],
    "scan-wh-alpha-json": ["scan", "--class", "wh-alpha", "--alpha", "0:1:0.125"],
    "scan-gh-k-alpha-json": ["scan", "--class", "gh-k-alpha", "--k", "1", "--alpha", "1e-300:2:0.25"],
    "scan-tb-m-json": ["scan", "--class", "tb-m", "--m", "0.1:1.9:0.2"],
    "scan-ph-m-json": ["scan", "--class", "ph-m", "--m", "0.1:1.2:0.1"],
    "scan-tb-m-jacobian-json": ["scan", "--class", "tb-m-jacobian", "--range", "0.1:1.9:0.3"],
    # A radius per tag, the degenerate ones included.
    "radius-ph-alpha": ["radius", "--class", "ph-alpha", "--alpha", "0"],
    "radius-gt-beta-0": ["radius", "--class", "gt-beta", "--beta", "0"],
    "radius-gt-beta": ["radius", "--class", "gt-beta", "--beta", "0.2", "--format", "csv"],
    "radius-wh-alpha": ["radius", "--class", "wh-alpha", "--alpha", "0.5"],
    "radius-gh-k1-tiny": ["radius", "--class", "gh-k-alpha", "--k", "1", "--alpha", "1e-300"],
    "radius-gh-k3": ["radius", "--class", "gh-k-alpha", "--k", "3", "--alpha", "1"],
    "radius-tb-m": ["radius", "--class", "tb-m", "--m", "1", "--format", "csv"],
    "radius-ph-m": ["radius", "--class", "ph-m", "--m", "0.5"],
    "radius-tb-m-jacobian": ["radius", "--class", "tb-m-jacobian", "--m", "1"],
    # Failures: stdout stays empty, the exit code says why.
    "radius-max-iter-1": ["radius", "--class", "wh-alpha", "--alpha", "0.5", "--max-iter", "1"],
    "radius-bad-domain": ["radius", "--class", "tb-m", "--m", "2"],
    "scan-bad-point": ["scan", "--class", "tb-m", "--m", "1.5:2.5:0.5"],
    "table-gt-beta": ["table", "--class", "gt-beta", "--range", "0:0.46:0.05"],
    "verify": ["verify"],
    # With one Newton step allowed, the 14 checks whose specs need more
    # fail on the ConvergenceError of their first such spec, and the suite
    # still runs to its end.
    "verify-max-iter-1": ["verify", "--max-iter", "1"],
}


def run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


def assert_golden(name: str, rc: int, out: str) -> None:
    """``rc`` and ``out`` are the golden exit code and stdout of ``name``.

    Lines are compared as lists, and a mismatch names the first differing
    line and how many differ: pytest's diff of two 1002-line scans runs
    for minutes.
    """
    assert rc == json.loads(EXIT_CODES.read_text())[name]
    got = out.splitlines(keepends=True)
    want = (GOLDEN / f"{name}.out").read_text().splitlines(keepends=True)
    if got != want:
        differ = [i for i in range(max(len(got), len(want))) if got[i : i + 1] != want[i : i + 1]]
        first = differ[0]
        pytest.fail(
            f"{name}: {len(differ)} of {len(want)} golden lines differ ({len(got)} printed); "
            f"first at line {first + 1}: printed {got[first : first + 1]!r}, "
            f"golden {want[first : first + 1]!r}",
            pytrace=False,
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.delenv("BOHR_TOL", raising=False)
    assert_golden(name, *run(CASES[name]))


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith(("scan-", "table-"))))
def test_golden_scan_in_chunks_of_7(name, monkeypatch):
    # Solved 7 lanes at a time and written 5 rows at a time, every scan
    # prints its golden bytes: lanes share no reduction, chunks run in
    # order, and each row is formatted alone.
    monkeypatch.delenv("BOHR_TOL", raising=False)
    monkeypatch.setattr(cli, "_CHUNK_LANES", 7)
    monkeypatch.setattr(cli, "_ROW_BATCH", 5)
    assert_golden(name, *run(CASES[name]))


def test_a_broken_golden_line_fails_fast():
    # One differing line of a 1002-line scan fails at once, and names it.
    want = (GOLDEN / "scan-wh-alpha-csv.out").read_text().splitlines(keepends=True)
    want[500] = want[500].replace("BISECTION_NEWTON", "CLOSED_FORM")
    with pytest.raises(pytest.fail.Exception, match="1 of 1002 golden lines differ .* line 501"):
        assert_golden("scan-wh-alpha-csv", 0, "".join(want))


def test_verify_max_iter_1_lists_its_failing_checks(monkeypatch):
    # The failing checks of ``verify-max-iter-1`` go to stderr, in suite
    # order, after the summary line its golden stdout ends with.
    monkeypatch.delenv("BOHR_TOL", raising=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(CASES["verify-max-iter-1"])
    failing = (
        "radius-ph-alpha-0-reference", "reduction-wh-to-ph", "reduction-gh-to-ph",
        "closed-vs-bisection-gt-beta", "sharpness-ph-alpha", "sharpness-wh-alpha",
        "sharpness-gh-k-alpha", "sharpness-ph-m", "wh-alpha-1-root-report",
        "radius-parameter-monotonicity", "scan-localisation-ph-alpha",
        "scan-localisation-wh-alpha", "scan-localisation-gh-k-alpha", "scan-localisation-ph-m",
    )
    assert rc == 1
    assert err.getvalue() == f"failing checks: {', '.join(failing)}\n"


# Cases run again as a ``python -m harmbohr`` process: a solved and a
# closed-form radius, and each failure exit code.
PROCESS_CASES = ("radius-wh-alpha", "radius-tb-m", "radius-bad-domain", "radius-max-iter-1")


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_golden_process(name):
    env = {k: v for k, v in os.environ.items() if k != "BOHR_TOL"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "harmbohr", *CASES[name]],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == json.loads(EXIT_CODES.read_text())[name]
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


def regenerate(names) -> None:
    os.environ.pop("BOHR_TOL", None)
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    for name in names:
        codes[name], out = run(CASES[name])
        (GOLDEN / f"{name}.out").write_text(out)
    EXIT_CODES.write_text(json.dumps(dict(sorted(codes.items())), indent=1) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(CASES))
