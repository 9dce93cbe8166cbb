"""Host speed, measured while each benchmark operation runs.

On a shared 2-core Linux host (Python 3.11.7) the speed of a core can
drift by up to 2x within tens of seconds: a fixed Python loop took 0.078
to 0.155 s per pass within one minute, with CPU time equal to wall time
throughout.  Medians of raw wall times over 20-second
runs spread by 10-30% from run to run.

:class:`HostClock` times a short fixed loop (no harmbohr code) on a timer
signal every INTERVAL_S of wall time while an operation runs, and once at
each end.  An operation's time divided by the median loop time is its time
in loop units; that ratio follows the host's drift and cancels most of it
(per-operation spread fell from 20-27% to 6-10% in trials).  The handler
costs about 1% of the operation's time, and it only runs in the main
thread of the process that uses it.

An operation that is a whole child process is calibrated differently, by
timing a bare interpreter spawn next to it (``run.cold_round``): the loop
on the parent's core did not follow the cost of spawning and importing.

Set-up time is the import of ``harmbohr.cli`` in a fresh interpreter,
timed inside that interpreter (:data:`IMPORT_PROBE`), so the spawn adds no
noise.  Two host units are timed with it: the median of the same loop,
run just before and just after the import inside that interpreter, and
the mean of bare ``python -c pass`` spawns just before and just after that
interpreter.  Each unit alone follows only part of the host's drift, and
the parts they miss differ, so :func:`reference_seconds` takes the host's
slowdown as the geometric mean of the two.  Over 14 sets of probes on the
host above (medians of 8 or of 15 probes per set), the quartile spread of
the set medians was 2.6-4.2% with both units, 4-8% with either alone,
6-14% for the raw in-child time and 8-13% for raw spawn-plus-import time.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
LOOP_N = 3000
# The median times of the loop and of a bare interpreter spawn on the
# shared 2-core host (Python 3.11.7) the benchmark was tuned on, measured
# together; reference_seconds converts to that host's usual speed.
REFERENCE_LOOP_S = 0.00028
REFERENCE_START_S = 0.088

# Prints the import time of harmbohr.cli in seconds, then the loop's time.
# Only ``time`` is imported before it, so the import pays for all it needs.
IMPORT_PROBE = f"""\
import time

def loop():
    t0 = time.perf_counter()
    total = 0
    for i in range({LOOP_N}):
        total += i * i
    return time.perf_counter() - t0

def unit():
    return sorted(loop() for _ in range(21))[10]

before = unit()
t0 = time.perf_counter()
import harmbohr.cli
seconds = time.perf_counter() - t0
print(seconds, 0.5 * (before + unit()))
"""


def reference_seconds(seconds: float, loop_s: float, start_s: float) -> float:
    """``seconds`` timed while the loop took ``loop_s`` and a bare spawn
    ``start_s``, converted to the speed at which they take the reference
    times."""
    return seconds * math.sqrt(REFERENCE_LOOP_S / loop_s * REFERENCE_START_S / start_s)


def loop_seconds() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    return perf_counter() - t0


class HostClock:
    """Samples ``loop_seconds`` on every SIGALRM tick while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(loop_seconds())

    def __enter__(self) -> "HostClock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def unit_s(self) -> float:
        """The median loop time over the block: the host's current speed."""
        return statistics.median(self.samples)
