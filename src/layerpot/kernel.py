"""Fundamental solution of Laplace's equation in N >= 2 dimensions.

Provides the radially symmetric free-space kernel (logarithmic in 2-D, a
power of the distance in higher dimensions), its gradient, and the area of
the unit sphere computed from exact integer/half-integer Gamma values.

All evaluation functions accept a single point (shape ``(N,)``) or a batch
(shape ``(m, N)``) and are pure; they never return infinities, raising
SingularityError instead when the argument is (numerically) the origin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError, SingularityError

# Radii below this are treated as the singular point itself so evaluation
# fails loudly instead of overflowing.
MIN_RADIUS = 1e-300


def _gamma_half(n: int) -> float:
    """Gamma(n/2) for a positive integer n, by exact recursion.

    Integer arguments use the factorial; half-integer arguments use
    Gamma(k + 1/2) = sqrt(pi) (2k)! / (4^k k!).  Both are exact up to the
    final floating-point rounding, which keeps the sphere-area constant
    well below 1e-13 relative error.
    """
    if n <= 0:
        raise ParameterError(f"Gamma(n/2) needs n >= 1, got n={n}")
    if n % 2 == 0:
        return float(math.factorial(n // 2 - 1))
    k = (n - 1) // 2
    return math.sqrt(math.pi) * math.factorial(2 * k) / (4.0**k * math.factorial(k))


def sphere_area(dim: int) -> float:
    """Area of the unit sphere in R^dim: 2 pi^(dim/2) / Gamma(dim/2)."""
    if int(dim) != dim or dim < 2:
        raise DimensionError(f"unit-sphere area defined here for integer dim >= 2, got {dim!r}")
    dim = int(dim)
    return 2.0 * math.pi ** (dim / 2.0) / _gamma_half(dim)


def _as_batch(x, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """Coerce x to a (m, N) float array; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise DimensionError(f"points must have dimension N >= 2, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr, single


def fundamental_solution(x) -> float | np.ndarray:
    """Free-space Laplace kernel evaluated at x (or a batch of points).

    Returns log|x| / (2 pi) in 2-D and |x|^(2-N) / ((2-N) omega_N) for N >= 3.
    """
    pts, single = _as_batch(x)
    n = pts.shape[1]
    r = np.linalg.norm(pts, axis=1)
    if np.any(r < MIN_RADIUS):
        raise SingularityError("fundamental solution evaluated at the origin")
    if n == 2:
        val = np.log(r) / (2.0 * math.pi)
    else:
        val = r ** (2 - n) / ((2 - n) * sphere_area(n))
    return float(val[0]) if single else val


def fundamental_gradient(x) -> np.ndarray:
    """Gradient of the free-space kernel: x / (omega_N |x|^N), any N >= 2."""
    pts, single = _as_batch(x)
    n = pts.shape[1]
    r = np.linalg.norm(pts, axis=1)
    if np.any(r < MIN_RADIUS):
        raise SingularityError("fundamental gradient evaluated at the origin")
    grad = pts / (sphere_area(n) * r[:, None] ** n)
    return grad[0] if single else grad

