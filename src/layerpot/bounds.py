"""Deviation bounds with explicit constants and their sharpness witnesses.

The bounds control |f(y) - (double layer of f)(y)| by the L^p norm of the
gradient times a kernel moment; on balls centered at the target the moment
and the resulting sharp constant have closed forms, and the fields returned
by ``fields.extremal_field`` attain equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrabilityError
from .fields import LebesgueExponent, ScalarField, grad_norm
from .geometry import Ball, Domain, as_point, composite_volume_rule
from .kernel import row_norms, sphere_area
from .potentials import double_layer
from .representations import _surface_integral


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
