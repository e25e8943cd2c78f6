"""Harmonic machinery on balls: the interior reproducing kernel and
boundary-data harmonic extensions.

The reproducing kernel of the ball B_R(a) at an interior point y is
(R^2 - |y - a|^2) / (R omega_N |x - y|^N); integrated against continuous
boundary data it produces the harmonic extension, and against the constant 1
it integrates to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PlacementError, ResolutionError
from .geometry import INTERIOR, Ball, as_point
from .kernel import row_dots, row_norms, sphere_area
from .potentials import _peaked_integrals


def poisson_kernel(ball: Ball, nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reproducing-kernel rows for boundary nodes against interior y; y may stack targets (m, 1, N)."""
    r2 = row_dots(y - ball.center, y - ball.center)
    dist = row_norms(nodes - y)
    return (ball.radius**2 - r2) / (ball.radius * sphere_area(ball.dim) * dist**ball.dim)


def poisson_evaluate(ball: Ball, phi, y, order: int = 64) -> float:
    """Harmonic extension of boundary data phi evaluated at interior y.

    The rule escalates as the double layer's does; ResolutionError is raised
    where the order cap or node budget leaves the kernel peak unresolved.
    """
    y = as_point(y, ball.dim)
    cls, distance = ball.placement(y)
    if cls != INTERIOR:
        raise PlacementError("the reproducing kernel extends boundary data to interior points only")
    values, orders, warnings = _peaked_integrals(
        phi, ball, y, [distance], order, lambda x, _, z: poisson_kernel(ball, x, z)
    )
    if orders[0] < ball.min_resolving_order(distance):
        raise ResolutionError(f"harmonic extension unresolved: {warnings[0]}")
    return float(values[0])


@dataclass(frozen=True)
class DirichletSolution:
    """Harmonic extension of boundary data into a ball.

    Boundary data, a ScalarField or a number, is sampled afresh at the
    solution's quadrature order by each evaluate call (the field is
    retained, not its samples); no interpolation scheme is committed to.
    """

    ball: Ball
    boundary_data: object
    order: int = 64

    def evaluate(self, y) -> float:
        return poisson_evaluate(self.ball, self.boundary_data, y, self.order)


def dirichlet_chi(ball: Ball, f, order: int = 64) -> DirichletSolution:
    """The harmonic function on the ball agreeing with f on the sphere."""
    if order < 4:
        raise ParameterError(f"order must be >= 4, got {order}")
    return DirichletSolution(ball=ball, boundary_data=f, order=order)
