"""The classical one-dimensional interval identity and its three bounds,
kept as an oracle for the test suites.

The suite shares no code with the N-dimensional path of ``layerpot``.  Its
Holder pair (p, q) is unrelated to the Sobolev exponent of the bounds there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from layerpot.bounds import BoundReport, _safe_ratio
from layerpot.errors import ExponentError, ParameterError, RangeError
from layerpot.geometry import gauss_jacobi_01, weighted_sum
from layerpot.representations import IdentityReport


@dataclass(frozen=True)
class Montgomery1D:
    """The interval kernel p(t, x): t - a for t <= x, t - b for t > x."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ParameterError(f"need b > a, got [{self.a}, {self.b}]")

    def kernel(self, t, x):
        t = np.asarray(t, dtype=float)
        return np.where(t <= x, t - self.a, t - self.b)


@dataclass(frozen=True)
class Field1D:
    """A 1-D function with exact derivative (and, for polynomials, the
    coefficient object used for exact norm computations)."""

    name: str
    value: object = dataclass_field(repr=False)
    derivative: object = dataclass_field(repr=False)
    derivative_poly: object = dataclass_field(default=None, repr=False)


def polynomial_1d(coeffs) -> Field1D:
    """Polynomial field from ascending coefficients (numpy convention)."""
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    dpoly = poly.deriv()
    return Field1D(
        name=f"poly({list(np.asarray(coeffs, float))})",
        value=lambda t: poly(np.asarray(t, dtype=float)),
        derivative=lambda t: dpoly(np.asarray(t, dtype=float)),
        derivative_poly=dpoly,
    )


def _gauss_panel(fn, lo, hi, n):
    u, w = gauss_jacobi_01(n)
    t = lo + (hi - lo) * u
    return (hi - lo) * weighted_sum(w, fn(t))


def _derivative_breakpoints(f: Field1D, a: float, b: float) -> list[float]:
    pts = [a, b]
    if f.derivative_poly is not None:
        for r in np.atleast_1d(f.derivative_poly.roots()):
            if abs(r.imag) < 1e-12 and a < r.real < b:
                pts.append(float(r.real))
    return sorted(set(pts))


def derivative_norm_1d(f: Field1D, a: float, b: float, r, n: int = 64) -> float:
    """L^r norm of f' on [a, b]; panels split at the derivative's sign changes."""
    if r == math.inf:
        ts = np.linspace(a, b, 4097)
        vals = np.abs(np.asarray(f.derivative(ts), dtype=float))
        best = float(np.max(vals))
        if f.derivative_poly is not None:
            crit = _derivative_breakpoints(Field1D("", f.value, f.derivative, f.derivative_poly.deriv()), a, b)
            for t in crit:
                best = max(best, abs(float(f.derivative(t))))
        return best
    r = float(r)
    if r < 1:
        raise ExponentError(f"norm exponent must be >= 1 or inf, got {r}")
    total = 0.0
    pts = _derivative_breakpoints(f, a, b)
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += _gauss_panel(lambda t: np.abs(f.derivative(t)) ** r, lo, hi, n)
    return total ** (1.0 / r)


def montgomery_identity_1d(f: Field1D, a: float, b: float, x: float, n: int = 64, tolerance: float = 1e-12) -> IdentityReport:
    """f(x) versus integral mean plus kernel-weighted derivative integral.

    The derivative integral is split at t = x where the kernel jumps, so
    Gauss panels see smooth integrands on both sides.
    """
    if not (a <= x <= b):
        raise RangeError(f"x = {x} outside [{a}, {b}]")
    kern = Montgomery1D(a, b)
    mean = _gauss_panel(f.value, a, b, n) / (b - a)
    left = _gauss_panel(lambda t: (t - a) * np.asarray(f.derivative(t), float), a, x, n) if x > a else 0.0
    right = _gauss_panel(lambda t: (t - b) * np.asarray(f.derivative(t), float), x, b, n) if x < b else 0.0
    rhs = mean + (left + right) / (b - a)
    return IdentityReport(
        "MONTGOMERY_1D", float(f.value(np.asarray(x))), float(rhs), tolerance, n, ((float(x), 0.0),),
        metadata={"kernel": repr(kern)},
    )


def ostrowski_bounds_1d(f: Field1D, a: float, b: float, x: float, norm: str = "inf", q: float | None = None, n: int = 64) -> BoundReport:
    """Deviation from the interval mean against the classical sharp bounds.

    ``norm`` selects the branch: "inf" uses the quarter constant against
    the sup of f', "q" the Holder pair (q > 1), "one" the L^1 branch.
    """
    if not (a <= x <= b):
        raise RangeError(f"x = {x} outside [{a}, {b}]")
    width = b - a
    mid = (a + b) / 2.0
    mean = _gauss_panel(f.value, a, b, n) / width
    deviation = abs(float(f.value(np.asarray(x))) - mean)
    if norm == "inf":
        bound = (0.25 + ((x - mid) / width) ** 2) * width * derivative_norm_1d(f, a, b, math.inf, n)
    elif norm == "q":
        if q is None or not q > 1:
            raise ExponentError("the q branch needs q > 1")
        hol_p = q / (q - 1.0)
        bound = (
            (1.0 / (hol_p + 1.0)) ** (1.0 / hol_p)
            * (((x - a) / width) ** (hol_p + 1.0) + ((b - x) / width) ** (hol_p + 1.0)) ** (1.0 / hol_p)
            * width ** (1.0 / hol_p)
            * derivative_norm_1d(f, a, b, q, n)
        )
    elif norm == "one":
        bound = (0.5 + abs(x - mid) / width) * derivative_norm_1d(f, a, b, 1.0, n)
    else:
        raise ParameterError(f"unknown norm branch {norm!r}")
    ratio = _safe_ratio(deviation, bound, scale=abs(mean))
    return BoundReport(deviation=deviation, bound=bound, ratio=ratio)
