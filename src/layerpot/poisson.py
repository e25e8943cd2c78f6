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

from .errors import ParameterError, PlacementError
from .geometry import INTERIOR, Ball, as_point
from .kernel import row_norms, sphere_area
from .potentials import _moment_callable, _target_rule

#: Interior evaluation is restricted to this fraction of the radius; closer
#: to the sphere the kernel peak outruns the escalation cap, and we fail
#: loudly instead of silently losing accuracy.
MAX_RELATIVE_OFFSET = 0.95


def poisson_kernel(ball: Ball, nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reproducing-kernel rows for boundary nodes against an interior target."""
    r2 = float(np.sum((y - ball.center) ** 2))
    dist = row_norms(nodes - y)
    return (ball.radius**2 - r2) / (ball.radius * sphere_area(ball.dim) * dist**ball.dim)


def poisson_evaluate(ball: Ball, phi, y, order: int = 64) -> float:
    """Harmonic extension of boundary data phi evaluated at interior y.

    The rule order escalates with the kernel peak; targets beyond
    MAX_RELATIVE_OFFSET * R are rejected rather than silently degraded.
    """
    y = as_point(y, ball.dim)
    off = float(np.linalg.norm(y - ball.center))
    if ball.classify(y) != INTERIOR:
        raise PlacementError("the reproducing kernel extends boundary data to interior points only")
    if off > MAX_RELATIVE_OFFSET * ball.radius:
        raise PlacementError(
            f"target at {off / ball.radius:.3f} R exceeds the supported interior range "
            f"{MAX_RELATIVE_OFFSET} R"
        )
    rule, _, _ = _target_rule(ball, order, y)
    vals = _moment_callable(phi)(rule.nodes)
    return rule.integrate(vals * poisson_kernel(ball, rule.nodes, y))


@dataclass(frozen=True)
class DirichletSolution:
    """Harmonic extension of boundary data into a ball.

    Boundary data is sampled at the quadrature resolution of each evaluate
    call (the callable is retained, so finer orders resample it); no
    interpolation scheme is committed to.
    """

    ball: Ball
    boundary_data: object
    order: int = 64

    def evaluate(self, y, order: int | None = None) -> float:
        return poisson_evaluate(self.ball, self.boundary_data, y, order or self.order)


def dirichlet_chi(ball: Ball, f, order: int = 64) -> DirichletSolution:
    """The harmonic function on the ball agreeing with f on the sphere."""
    if order < 4:
        raise ParameterError(f"order must be >= 4, got {order}")
    return DirichletSolution(ball=ball, boundary_data=f, order=order)
