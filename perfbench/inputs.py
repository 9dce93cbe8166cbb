"""Seeded inputs for the three workloads: CLI argument lists and nothing else.

The same seed gives the same argument lists.  Parameters come from each
family's documented domain; no known-failing corner is carved out.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

SCAN_POINTS = 1001

# tag, fixed arguments, swept flag, domain [lo, hi], nominal step
SCANS = (
    ("wh-alpha", [], "--alpha", 0.0, 1.0, 0.001),
    ("gh-k-alpha", ["--k", "2"], "--range", 0.5, 2.0, 0.0015),
)

PH_M_SUP = 1.0 / (2.0 * (math.log(4.0) - 1.0))

RADIUS_TAGS = (
    "ph-alpha",
    "gt-beta",
    "wh-alpha",
    "gh-k-alpha",
    "tb-m",
    "ph-m",
    "tb-m-jacobian",
)


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """The points the CLI makes of ``lo:hi:step``: lo + i*step up to hi."""
    values = []
    i = 0
    while lo + i * step < hi + step / 2.0:
        values.append(lo + i * step)
        i += 1
    return values


def scan_jobs(seed: int) -> list[dict]:
    """One 1001-point CSV scan per series-only family.

    The seed moves each grid's origin by a fraction of the nominal step;
    the step shrinks just enough to keep every point inside the domain.
    """
    rng = random.Random(f"scan-series/{seed}")
    jobs = []
    for tag, fixed, flag, lo_dom, hi_dom, step in SCANS:
        lo = lo_dom + rng.random() * step
        step = (hi_dom - lo) / (SCAN_POINTS - 1)
        while lo + (SCAN_POINTS - 1) * step > hi_dom:
            step = math.nextafter(step, 0.0)
        hi = lo + (SCAN_POINTS - 1) * step
        values = grid_values(lo, hi, step)
        if len(values) != SCAN_POINTS:
            raise RuntimeError(f"{tag} grid has {len(values)} points, not {SCAN_POINTS}")
        params = {key.lstrip("-"): int(v) for key, v in zip(fixed[::2], fixed[1::2])}
        argv = ["scan", "--class", tag, *fixed, flag, f"{lo!r}:{hi!r}:{step!r}", "--format", "csv"]
        jobs.append({"argv": argv, "tag": tag, "params": params, "name": "alpha", "values": values})
    return jobs


def _open_uniform(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if lo < x < hi:
            return x


def draw_params(rng: random.Random, tag: str) -> dict:
    """Parameters drawn uniformly over the family's domain (gh alpha log-uniform)."""
    if tag == "ph-alpha":
        return {"alpha": rng.random()}
    if tag == "gt-beta":
        return {"beta": 0.5 * rng.random()}
    if tag == "wh-alpha":
        return {"alpha": rng.uniform(0.0, 1.0)}
    if tag == "gh-k-alpha":
        return {"k": rng.randint(1, 8), "alpha": 10.0 ** rng.uniform(-1.0, 1.0)}
    if tag in ("tb-m", "tb-m-jacobian"):
        return {"m": _open_uniform(rng, 0.0, 2.0)}
    if tag == "ph-m":
        return {"m": _open_uniform(rng, 0.0, PH_M_SUP)}
    raise ValueError(tag)


def radius_argv(tag: str, params: dict) -> list[str]:
    argv = ["radius", "--class", tag]
    for name, value in params.items():
        argv += [f"--{name}", repr(value)]
    return argv


def radius_jobs(seed: int, rounds: int) -> list[dict]:
    """``rounds`` cycles through all seven tags, one process per job."""
    rng = random.Random(f"radius-cold/{seed}")
    jobs = []
    for _ in range(rounds):
        for tag in RADIUS_TAGS:
            params = draw_params(rng, tag)
            jobs.append({"argv": radius_argv(tag, params), "tag": tag, "params": params})
    return jobs


def digest(jobs: list[dict]) -> str:
    """sha256 over the argument lists the program receives."""
    text = json.dumps([job["argv"] for job in jobs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
