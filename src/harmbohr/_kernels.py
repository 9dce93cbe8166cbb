"""Circle-evaluation kernels for the verifier's oracles.

The boundary-distance oracle and the growth-envelope checks evaluate a
truncated power series (up to 10^5 coefficients) on a uniform circle grid.
On the grid theta_k = 2*pi*k/M, the sum over j of a_j rho^j e^{i j theta_k}
depends on j only modulo M, so the weighted coefficients fold into M bins
and one length-M FFT evaluates every grid point (Cooley & Tukey, Math. Comp.
19, 1965).  The grid must therefore be ``linspace(0, 2*pi, M, endpoint=False)``.

Both kernels keep only the first J terms, those with max|a| * rho^j at or
above 2^-1022, the smallest normal double.  Every later term is zero or
subnormal, under half an ulp of any sum above 2^-969, so dropping them
leaves ``abs_on_circle`` bit for bit unchanged on the verifier's inputs.  It thus
costs O(min(N, J) + M log M) for N coefficients, and ``eval_point``
O(min(N, J)).  J is about 1022 / -log2(rho) for coefficients of order
one: about 6,700 terms at rho = 0.9 and 1,000 at rho = 0.5.

``eval_point`` builds the powers z^1..z^n by doubling,
``w[k:k+s] = w[:s] * w[k-1]``: about log2(n) vector products instead of n
complex pows.  z^1 is exact, and each z^j is one complex product of two
earlier entries whose exponents add to j.  A complex product adds a
relative error of at most sqrt(5) u (Brent, Percival & Zimmermann,
Math. Comp. 76, 2007), so to first order z^j carries at most
(j - 1) sqrt(5) u: the same O(j u) as the j |log z| u of an exp/log pow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# log2 of the smallest normal double.
_LOG2_TINY = -1022.0


def _live_terms(coeffs: np.ndarray, rho: float) -> int:
    """How many leading terms of sum coeffs[j-1] rho^j can reach 2^-1022.

    All of them when |rho| >= 1 (or NaN), none when rho = 0 or every
    coefficient is 0.  The count errs one term on the long side.
    """
    n = coeffs.size
    rho = abs(rho)
    if n == 0 or not rho < 1.0:
        return n
    cmax = float(np.max(np.abs(coeffs)))
    if rho == 0.0 or cmax == 0.0:
        return 0
    # max|c| rho^j >= 2^-1022  <=>  j <= (-1022 - log2 max|c|) / log2 rho.
    bound = (_LOG2_TINY - math.log2(cmax)) / math.log2(rho)
    if not bound < n:  # also inf and NaN coefficients
        return n
    return max(math.floor(bound) + 1, 0)


def abs_on_circle(coeffs: np.ndarray, rho: float, thetas: np.ndarray) -> np.ndarray:
    """|sum_{j>=1} coeffs[j-1] * z^j| on z = rho * exp(i*thetas).

    ``coeffs[j]`` is the coefficient of ``z^(j+1)``; the constant term is
    implicitly zero.  ``thetas`` must be the uniform grid 2*pi*k/M.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    m = thetas.size
    # A NaN or an inf theta fails the <= as well.
    grid = 2.0 * np.pi * np.arange(m) / m
    if m and not np.max(np.abs(thetas - grid)) <= 1e-12:
        raise DomainError("thetas must be the uniform grid 2*pi*k/M, k = 0..M-1")
    if coeffs.size == 0 or m == 0:
        return np.zeros_like(thetas)
    n = _live_terms(coeffs, float(rho))
    j = np.arange(1, n + 1)
    folded = np.bincount(j % m, weights=coeffs[:n] * float(rho) ** j, minlength=m)
    return np.abs(np.fft.ifft(folded) * m)


def eval_point(coeffs: np.ndarray, z: complex) -> complex:
    """sum_{j>=1} coeffs[j-1] * z^j at a single complex point."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    z = complex(z)
    n = _live_terms(coeffs, abs(z))
    if n == 0:
        return 0j
    w = np.empty(n, dtype=np.complex128)
    w[0] = z
    k = 1  # w[:k] holds z^1..z^k
    while k < n:
        s = min(k, n - k)
        np.multiply(w[:s], w[k - 1], out=w[k : k + s])
        k += s
    return complex(np.dot(coeffs[:n], w))
