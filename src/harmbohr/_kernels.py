"""Circle-evaluation kernels for the verifier's oracles.

The boundary-distance oracle and the growth-envelope checks evaluate a
truncated power series (up to 10^5 coefficients) on a uniform circle grid.
On the grid theta_k = 2*pi*k/M, the sum over j of a_j rho^j e^{i j theta_k}
depends on j only modulo M, so the weighted coefficients fold into M bins
and one length-M FFT evaluates every grid point (Cooley & Tukey, Math. Comp.
19, 1965): O(N + M log M) work instead of Horner's O(N * M).  The grid must
therefore be ``linspace(0, 2*pi, M, endpoint=False)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def abs_on_circle(coeffs: np.ndarray, rho: float, thetas: np.ndarray) -> np.ndarray:
    """|sum_{j>=1} coeffs[j-1] * z^j| on z = rho * exp(i*thetas).

    ``coeffs[j]`` is the coefficient of ``z^(j+1)``; the constant term is
    implicitly zero.  ``thetas`` must be the uniform grid 2*pi*k/M.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    m = thetas.size
    if not np.allclose(thetas, 2.0 * np.pi * np.arange(m) / m, rtol=0.0, atol=1e-12):
        raise DomainError("thetas must be the uniform grid 2*pi*k/M, k = 0..M-1")
    if coeffs.size == 0 or m == 0:
        return np.zeros_like(thetas)
    j = np.arange(1, coeffs.size + 1)
    folded = np.bincount(j % m, weights=coeffs * float(rho) ** j, minlength=m)
    return np.abs(np.fft.ifft(folded) * m)


def eval_point(coeffs: np.ndarray, z: complex) -> complex:
    """sum_{j>=1} coeffs[j-1] * z^j at a single complex point."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return complex(np.dot(coeffs, complex(z) ** np.arange(1, coeffs.size + 1)))
