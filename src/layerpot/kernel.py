"""Fundamental solution of Laplace's equation in N >= 2 dimensions.

Provides the radially symmetric free-space kernel (logarithmic in 2-D, a
power of the distance in higher dimensions), its gradient, and the area of
the unit sphere computed from exact integer/half-integer Gamma values.

All evaluation functions accept a single point (shape ``(N,)``) or a batch
(shape ``(m, N)``) and are pure; they never return infinities, raising
SingularityError instead when the argument is (numerically) the origin.

``row_norms`` and ``row_dots`` are the per-point norm and dot product used
across the library.  They work one coordinate at a time, so on the
coordinate-major node arrays of volume rules every operation runs over the
contiguous points instead of an inner loop of length N.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


@lru_cache(maxsize=16)
def sphere_area(dim: int) -> float:
    """Area of the unit sphere in R^dim: 2 pi^(dim/2) / Gamma(dim/2), cached:
    kernels ask for it on every call."""
    if int(dim) != dim or dim < 2:
        raise DimensionError(f"unit-sphere area defined here for integer dim >= 2, got {dim!r}")
    dim = int(dim)
    return 2.0 * math.pi ** (dim / 2.0) / _gamma_half(dim)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, summed in coordinate order.

    Equals einsum ``ij,ij->i`` bit for bit in 2-D; in 3-D einsum's summation
    order depends on the memory layout and the row count, this one does not.
    """
    total = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, summed in coordinate order.

    Gives the same bits as numpy's 2-norm over the last axis for N in
    {2, 3}, in either memory layout.
    """
    return np.sqrt(row_dots(x, x))


def _as_batch(x, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """Coerce x to a (m, N) float array; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
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
    r = row_norms(pts)
    if (r < MIN_RADIUS).any():
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
    r = row_norms(pts)
    if (r < MIN_RADIUS).any():
        raise SingularityError("fundamental gradient evaluated at the origin")
    # omega_N |x|^N by products: one division per point, and no pow
    scale = sphere_area(n) * r
    for _ in range(n - 1):
        scale *= r
    np.divide(1.0, scale, out=scale)
    grad = pts * scale[:, None]
    return grad[0] if single else grad

