"""Runs harmbohr's CLI in process, timed, for the benchmark's parent process.

Two ways to start it, both with ``src`` on PYTHONPATH:

``python perfbench/worker.py < job.json``
    Runs rounds of ``harmbohr.cli.main`` calls until the job's seconds are
    up.  Each round is written as one JSON line as soon as it ends (every
    call's wall time, the host's speed during it, its exit code and its
    output) and then dropped, so the worker's peak memory does not grow
    with the number of rounds.  The last line lists the traced functions
    that are absent.  With ``trace`` set, rounds alternate: an untraced
    round, then the same round under a :class:`tracer.Tracer`.

``python perfbench/worker.py --traced-cli ARGS...``
    One traced CLI process: stdout and exit code are the CLI's own, and the
    last line of stderr holds the tracer's counters as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

import tracer
from calibrate import HostClock


def call(main, argv: list[str]) -> dict:
    """One timed CLI call, with the host's speed sampled while it runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), HostClock() as clock:
        t0 = perf_counter()
        code = main(list(argv))
        seconds = perf_counter() - t0
    return {"seconds": seconds, "unit_s": clock.unit_s(), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_job(job: dict) -> None:
    from harmbohr.cli import main

    for argv in job["warmup"]:
        call(main, argv)
    absent = []
    start = perf_counter()
    while True:
        emit({"traced": False, "ops": [call(main, a) for a in job["argvs"]]})
        if job["trace"]:
            with tracer.Tracer() as t:
                ops = [call(main, a) for a in job["argvs"]]
            emit({"traced": True, "ops": ops, "raw": dict(t.raw)})
            absent = t.absent
        if perf_counter() - start >= job["seconds"]:
            break
    emit({"absent": absent})


def traced_cli(argv: list[str]) -> int:
    from harmbohr.cli import main

    with tracer.Tracer() as t:
        code = main(argv)
    sys.stdout.flush()
    print(json.dumps({"raw": dict(t.raw), "absent": t.absent}), file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--traced-cli"]:
        raise SystemExit(traced_cli(sys.argv[2:]))
    run_job(json.load(sys.stdin))
