"""Finite-difference and sampling diagnostics used by the test suites."""

from __future__ import annotations

import math

import numpy as np

from layerpot.errors import DimensionError
from layerpot.fields import ScalarField
from layerpot.geometry import Ball, as_point, sphere_directions


def fd_laplacian(func, x, step: float = 1e-3) -> float:
    """Second-order finite-difference Laplacian (5-point in 2-D, 7-point in 3-D)."""
    x = as_point(x)
    n = x.size
    if n not in (2, 3):
        raise DimensionError("finite-difference Laplacian implemented for N in {2, 3}")
    total = 0.0
    fc = float(func(x))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        total += float(func(x + e)) + float(func(x - e)) - 2.0 * fc
    return total / step**2


def fd_gradient(func, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = as_point(x)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        out[i] = (float(func(x + e)) - float(func(x - e))) / (2.0 * step)
    return out


def sphere_ratio(f: ScalarField, a, alpha: float, eps: float, order: int = 64) -> float:
    """Scaled sphere average (1/eps^(N-1-alpha)) int_{|x-a|=eps} (f - f(a)) / |x-a|^alpha.

    Under the pointwise Holder control at a, this quantity vanishes like
    eps^alpha; a log-log fit of its absolute value against eps recovers the
    exponent.
    """
    a = as_point(a)
    ball = Ball(a, eps)
    rule = ball.boundary_rule(order)
    vals = (f.evaluate(rule.nodes) - f.evaluate(a)) / eps**alpha
    return float(rule.weights @ vals) / eps ** (a.size - 1 - alpha)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    mask = ys > 0
    return float(np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)[0])


def holder_ratio(field: ScalarField, a, alpha: float, radii, samples: int = 64) -> np.ndarray:
    """Max of |f(x) - f(a)| / |x - a|^alpha over spheres of the given radii.

    The pointwise Holder hypothesis at a singular point holds when these
    ratios stay bounded as the radius shrinks.
    """
    a = as_point(a)
    fa = field.evaluate(a)
    n = a.size
    out = []
    for eps in np.atleast_1d(radii):
        if n == 2:
            th = 2.0 * math.pi * np.arange(samples) / samples
            dirs = np.column_stack([np.cos(th), np.sin(th)])
        else:
            dirs, _ = sphere_directions(max(4, samples // 8))
        pts = a + eps * dirs
        out.append(float(np.max(np.abs(field.evaluate(pts) - fa)) / eps**alpha))
    return np.asarray(out)
