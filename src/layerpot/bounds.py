"""Deviation bounds with explicit constants, their sharpness witnesses, and
the classical one-dimensional identities kept as an independent oracle.

The N-dimensional side bounds |f(y) - (double layer of f)(y)| by the L^p
norm of the gradient times a kernel moment; on balls centered at the target
the moment and the resulting sharp constant have closed forms, and the
fields returned by ``fields.extremal_field`` attain equality.

The 1-D suite (interval kernel identity and its three classical bounds)
shares no code with the N-dimensional path; it exists to cross-validate the
machinery.  Its Holder pair (p, q) is unrelated to the Sobolev exponent of
the N-dimensional side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ExponentError, IntegrabilityError, ParameterError, RangeError
from .fields import LebesgueExponent, ScalarField, grad_norm
from .geometry import Ball, Domain, as_point, composite_volume_rule, gauss_legendre_01, weighted_sum
from .kernel import row_norms, sphere_area
from .potentials import double_layer
from .representations import IdentityReport, _report, _surface_integral


@dataclass(frozen=True)
class BoundReport:
    """Deviation, bound, and their ratio for one bound evaluation."""

    deviation: float
    bound: float
    ratio: float


def _safe_ratio(deviation: float, bound: float, scale: float = 1.0) -> float:
    """deviation / bound with roundoff slack at a zero bound.

    A vanishing bound forces a vanishing deviation in exact arithmetic;
    numerically the deviation may carry rounding noise, which must not
    read as an infinite ratio.
    """
    if bound > 0.0:
        return deviation / bound
    return 0.0 if deviation <= 1e-12 * max(1.0, abs(scale)) else math.inf


def moment_integral_closed_form(dim: int, radius: float, conjugate: float) -> float:
    """Closed form of int_B |x - a|^(-(N-1) p') dx over the ball B_R(a):
    omega_N R^(N - (N-1) p') / (N - (N-1) p')."""
    expo = dim - (dim - 1) * conjugate
    if expo <= 0:
        raise IntegrabilityError(
            f"moment exponent (N-1)p' = {(dim - 1) * conjugate} must stay below N = {dim}"
        )
    return sphere_area(dim) * radius**expo / expo


def moment_integral(domain: Domain, y, conjugate: float, order: int = 64) -> float:
    """int_Omega |x - y|^(-(N-1) p') dx, closed form on centered balls, else
    by ``moment_quadrature``."""
    y = as_point(y, domain.dim)
    if isinstance(domain, Ball) and np.allclose(y, domain.center):
        return moment_integral_closed_form(domain.dim, domain.radius, conjugate)
    return moment_quadrature(domain, y, conjugate, order)


def moment_quadrature(domain: Domain, y, conjugate: float, order: int = 64) -> float:
    """int_Omega |x - y|^(-(N-1) p') dx by a polar rule about y whose radial
    weight absorbs the kernel power."""
    y = as_point(y, domain.dim)
    kappa = -(domain.dim - 1) * conjugate
    if kappa <= -domain.dim:
        raise IntegrabilityError("kernel moment diverges for this conjugate exponent")
    rule = composite_volume_rule(domain, order, y, kernel_power=kappa)
    return rule.integrate(lambda x: row_norms(x - y) ** kappa)


def sharp_ball_constant(dim: int, radius: float, p) -> float:
    """The constant multiplying the gradient norm in the surface-mean bound:
    omega_N^(1/p' - 1) (R^(N-(N-1)p') / (N-(N-1)p'))^(1/p')."""
    p = LebesgueExponent.of(p)
    p.require_above_dimension(dim)
    q = p.conjugate
    expo = dim - (dim - 1) * q
    return sphere_area(dim) ** (1.0 / q - 1.0) * (radius**expo / expo) ** (1.0 / q)


def ostrowski_bound_general(
    f: ScalarField, domain: Domain, y, p, order: int = 64
) -> BoundReport:
    """Deviation of f(y) from the double layer against the gradient-norm bound.

    The deviation travels through boundary quadrature and the bound through
    volume moments and norms, so a near-unit ratio cross-validates two
    independent code paths.
    """
    y = as_point(y, domain.dim)
    p = LebesgueExponent.of(p)
    p.require_above_dimension(domain.dim)
    dl = double_layer(f, domain, y, order)
    deviation = abs(f.evaluate(y) - dl.value)
    moment = moment_integral(domain, y, p.conjugate, order)
    norm = grad_norm(f, domain, p, order)
    bound = norm / sphere_area(domain.dim) * moment ** (1.0 / p.conjugate)
    ratio = _safe_ratio(deviation, bound, scale=abs(f.evaluate(y)) + abs(dl.value))
    return BoundReport(deviation=deviation, bound=bound, ratio=ratio)


def ostrowski_bound_ball(f: ScalarField, ball: Ball, p, order: int = 64) -> BoundReport:
    """Deviation of the center value from the surface mean on a ball, against
    the sharp constant times the gradient norm."""
    p = LebesgueExponent.of(p)
    p.require_above_dimension(ball.dim)
    surface_mean = _surface_integral(f, ball, order) / ball.surface_measure
    deviation = abs(f.evaluate(ball.center) - surface_mean)
    constant = sharp_ball_constant(ball.dim, ball.radius, p)
    norm = grad_norm(f, ball, p, order)
    bound = constant * norm
    ratio = _safe_ratio(deviation, bound, scale=abs(f.evaluate(ball.center)) + abs(surface_mean))
    return BoundReport(deviation=deviation, bound=bound, ratio=ratio)


# ---------------------------------------------------------------------------
# 1-D oracle suite
# ---------------------------------------------------------------------------


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
    u, w = gauss_legendre_01(n)
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
    return _report(
        "MONTGOMERY_1D", None, float(f.value(np.asarray(x))), rhs, tolerance, n, [np.array([x, 0.0])],
        kernel=repr(kern),
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
