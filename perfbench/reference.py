"""The benchmark's own reference for every radius the program prints.

Nothing here imports harmbohr: each family's coefficient bounds c_n and its
distance constant d* are written out again from their definitions, and
summed directly with numpy.

* Iterative radii pass when H = B - d* changes sign across [r - DELTA,
  r + DELTA], with B a direct power sum and d* an alternating sum, each
  with a bound on its own error.  The program certifies its root to 1e-12
  and H' >= 1, so a correct radius leaves |H| >= DELTA - 1e-12 at both
  ends, while the reference's error stays near 1e-14.
* Closed-form radii (gt-beta, tb-m, tb-m-jacobian) must equal the
  quadratic formulas below bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

DELTA = 1e-10
EPS = float(np.finfo(np.float64).eps)
MAX_TERMS = 1 << 22
ALT_TERMS = 48

CLOSED_FORM = ("gt-beta", "tb-m", "tb-m-jacobian")
ITERATIVE = ("ph-alpha", "wh-alpha", "gh-k-alpha", "ph-m")


def closed_form_radius(tag: str, p: dict) -> float:
    """The quadratic roots, in the operation order that gives exact bits."""
    if tag == "gt-beta":
        b = p["beta"]
        return 2.0 * b / ((1.0 + b) + math.sqrt(1.0 + 6.0 * b - 7.0 * b * b))
    m = p["m"]
    root = (2.0 - m) / (1.0 + math.sqrt(1.0 + 2.0 * m - m * m))
    if tag == "tb-m":
        return root
    if tag == "tb-m-jacobian":
        return (2.0 - m) / (2.0 * (1.0 + math.sqrt(1.0 + 2.0 * m - m * m)))
    raise ValueError(f"no closed form for {tag}")


def first_index(tag: str, p: dict) -> int:
    return int(p["k"]) + 1 if tag == "gh-k-alpha" else 2


def coefficients(tag: str, p: dict, n: np.ndarray) -> np.ndarray:
    """The sharp bound c_n on |a_n| + |b_n| of an iterative family."""
    if tag == "ph-alpha":
        return 2.0 * (1.0 - p["alpha"]) / n
    if tag == "wh-alpha":
        return 2.0 / (n * (1.0 + p["alpha"] * (n - 1.0)))
    if tag == "gh-k-alpha":
        return 2.0 / (1.0 + (n - 1.0) * p["alpha"])
    if tag == "ph-m":
        return 2.0 * p["m"] / (n * (n - 1.0))
    raise ValueError(f"{tag} is not an iterative family")


def touch_weights(tag: str, p: dict, j: np.ndarray) -> np.ndarray:
    """Weights w_j with d* = 1 + sum_{j>=1} (-1)^j w_j.

    d* is |f| at the extremal's lower touch point: z = -1 for the
    logarithmic families, where the coefficient of z^(j+1) is c_(j+1), and
    z = exp(i pi / k) for the lacunary gh family, whose z^(1+jk)
    coefficient is 2 / (1 + j k alpha).
    """
    if tag == "gh-k-alpha":
        return 2.0 / (1.0 + j * (int(p["k"]) * p["alpha"]))
    return coefficients(tag, p, j + 1.0)


def alternating_sum(a: np.ndarray) -> np.ndarray:
    """sum_{k>=0} (-1)^k a[..., k] by Cohen, Rodriguez Villegas and Zagier.

    Exact up to a relative (3 + sqrt 8)^-n for n terms of any sequence of
    moments a_k = int_0^1 x^k dmu(x) of a positive measure, which every
    weight sequence above is (Exp. Math. 9 (2000), Algorithm 1).
    """
    n = a.shape[-1]
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c = -1.0, -d
    s = np.zeros(a.shape[:-1])
    for k in range(n):
        c = b - c
        s = s + c * a[..., k]
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def d_star(tag: str, p: dict) -> tuple[float, float]:
    """d* and a bound on its error: truncation is negligible after ALT_TERMS
    terms, and rounding stays within a few ulps of the largest weight per term."""
    w = touch_weights(tag, p, np.arange(1, ALT_TERMS + 1, dtype=np.float64))
    return 1.0 - float(alternating_sum(w)), 4.0 * ALT_TERMS * EPS * (1.0 + float(w[0]))


def bohr_sum(tag: str, p: dict, r: float) -> tuple[float, float]:
    """B(r) = r + sum_{n >= n0} c_n r^n by a direct sum, and its error bound:
    the geometric tail beyond the last term plus pairwise-summation rounding."""
    if r == 0.0:
        return 0.0, 0.0
    n0 = first_index(tag, p)
    c0 = float(coefficients(tag, p, np.float64(n0)))
    # Terms beyond N are below c0 r^(N+1) / (1 - r) in total: stop at 1e-18.
    need = math.log(1e-18 * (1.0 - r) / max(c0, 1e-300)) / math.log(r)
    n_last = min(max(n0 + 16, int(math.ceil(need))), MAX_TERMS)
    n = np.arange(n0, n_last + 1, dtype=np.float64)
    value = r + float(np.sum(coefficients(tag, p, n) * r**n))
    tail = float(coefficients(tag, p, np.float64(n_last + 1))) * r ** (n_last + 1) / (1.0 - r)
    return value, tail + (math.log2(n.size) + 8.0) * EPS * value


def check_radius(tag: str, p: dict, radius: float) -> bool:
    """True when the printed radius of family ``tag`` at params ``p`` is right."""
    if tag in CLOSED_FORM:
        return radius == closed_form_radius(tag, p)
    if not 0.0 < radius < 1.0 - DELTA:
        return False
    d, d_err = d_star(tag, p)
    below, below_err = bohr_sum(tag, p, max(radius - DELTA, 0.0))
    above, above_err = bohr_sum(tag, p, radius + DELTA)
    return below + below_err < d - d_err and above - above_err > d + d_err
