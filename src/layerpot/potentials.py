"""Double-layer potentials, jump relations, and the singular volume integrals
pairing the free-space kernel gradient with field gradients.

The double-layer value at a target y is the boundary integral of the moment
against the normal derivative of the free-space kernel.  Off the boundary
the kernel is smooth but peaks at scale dist(y, boundary); rules escalate
automatically (with a warning) so near-boundary targets stay
accurate.  On the boundary the kernel has a removable (2-D) or weak,
analytically cancelled (3-D spheres, pole-aligned rules) singularity and a
dedicated smooth evaluation path is used.

The gradient volume integral int <grad E(x - y), grad f(x)> dx is computed
with polar rules centered at y whose radial weight absorbs both the kernel
singularity there and the field's own gradient growth at its singular
points; secondary singular points are excised into their own polar blocks.
About y, grad E(x - y) dx = theta d rho d theta / omega_N, so the block
centred at y sums <theta, grad f> / omega_N along its rays, with no
distance computed at its nodes; the hole blocks sum the kernel pairing.
Its values are memoized per process, since most identities of one suite
share the same (field, target, order) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ParameterError, PlacementError, ResolutionError
from .fields import ScalarField, _singular_rule
from .geometry import (
    BOUNDARY,
    INTERIOR,
    Ball,
    Domain,
    as_point,
    computed_once,
    escalated_order,
    max_nodes_budget,
)
from .kernel import fundamental_gradient, fundamental_solution, row_dots, row_norms, sphere_area


def _moment_callable(h):
    if isinstance(h, ScalarField):
        return h.evaluate
    value = float(h)
    return lambda x: np.full(len(x), value)


def dl_kernel(nodes: np.ndarray, normals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Double-layer kernel rows <x - y, nu(x)> / (omega_N |x - y|^N); y may stack targets (m, 1, N)."""
    d = nodes - y
    n = nodes.shape[1]
    return row_dots(d, normals) / (sphere_area(n) * row_norms(d) ** n)


@dataclass(frozen=True)
class LayerEvaluation:
    """Value of a layer potential plus where and how it was computed."""

    value: float
    location_class: str
    quadrature_order: int
    warning: str | None = None

    def __float__(self):
        return self.value


def _boundary_value(h, domain: Domain, z: np.ndarray, order: int) -> float:
    """Direct boundary evaluation of the double-layer potential.

    On a circle the kernel is the constant 1 / (2 omega_2 R) including its
    diagonal limit; on a sphere the 1/|x-z| singularity is cancelled by the
    sin(theta) Jacobian of a rule whose pole sits at z; on a smooth curve
    the kernel extends continuously to the diagonal with value
    curvature / (4 pi) and the coincident node (if any) uses that limit.
    """
    moment = _moment_callable(h)
    if isinstance(domain, Ball):
        rule = domain.boundary_rule(order, pole=(z - domain.center))
        vals = moment(rule.nodes)
        if domain.dim == 2:
            kernel = np.full(len(vals), 1.0 / (2.0 * sphere_area(2) * domain.radius))
        else:
            r = row_norms(rule.nodes - z)
            kernel = r ** (2 - domain.dim) / (2.0 * domain.radius * sphere_area(domain.dim))
        return rule.integrate(vals * kernel)
    rule = domain.boundary_rule(order)
    coincident = row_norms(rule.nodes - z) <= 1e-10 * domain.diameter
    kernel = np.empty(len(coincident))
    kernel[~coincident] = dl_kernel(rule.nodes[~coincident], rule.normals[~coincident], z)
    if np.any(coincident):
        kernel[coincident] = domain.kernel_diagonal(z)
    return rule.integrate(moment(rule.nodes) * kernel)


def _peaked_integrals(h, domain: Domain, targets, order: int, kernel=dl_kernel, distances=None):
    """Boundary integrals of the moment h against kernels peaked at off-boundary targets.

    The one order-escalation policy of boundary integrals: each target's
    order escalates with its boundary distance, 3-D rules put their pole
    along y - center, and targets needing the same rule share it.  One kernel
    call on a group's (m, 1, N) targets gives their rows, each summed with
    ``rule.integrate``.  ``distances``, when the caller has them, are the
    targets' boundary distances.  Returns the values, effective orders and
    warnings.
    """
    targets = np.atleast_2d(targets)
    moment = _moment_callable(h)
    values = np.empty(len(targets))
    orders, warnings, groups = [], [], {}
    for i, y in enumerate(targets):
        eff, warn = escalated_order(domain, order, y, None if distances is None else distances[i])
        orders.append(eff)
        warnings.append(warn)
        axis = y - domain.center
        pole = tuple(axis) if domain.dim == 3 and np.linalg.norm(axis) > 1e-14 else None
        groups.setdefault((eff, pole), []).append(i)
    for (eff, pole), idx in groups.items():
        rule = domain.boundary_rule(eff, pole=None if pole is None else np.array(pole))
        vals = moment(rule.nodes)
        rows = kernel(rule.nodes, rule.normals, targets[idx][:, None, :])
        values[idx] = [rule.integrate(vals * row) for row in rows]
    return values, orders, warnings


def double_layer(h, domain: Domain, y, order: int = 64) -> LayerEvaluation:
    """Double-layer potential with moment h evaluated at y.

    h may be a ScalarField or a number (constant moment).  Near-boundary
    targets escalate the rule order and record a warning in the result's
    ``warning`` field rather than failing.
    """
    y = as_point(y, domain.dim)
    cls = domain.classify(y)
    if cls == BOUNDARY:
        value = _boundary_value(h, domain, y, order)
        return LayerEvaluation(value=value, location_class=cls, quadrature_order=order)
    values, orders, warnings = _peaked_integrals(h, domain, y, order)
    return LayerEvaluation(
        value=float(values[0]), location_class=cls, quadrature_order=orders[0], warning=warnings[0]
    )


def double_layer_batch(h, domain: Domain, targets, order: int = 64) -> np.ndarray:
    """Double-layer values at many targets, equal to ``double_layer``'s bit for bit.

    Off-boundary targets needing the same rule share it; no state is
    shared between calls, so batches may also be fanned out across threads.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    on = np.array([domain.classify(y) == BOUNDARY for y in targets], dtype=bool)
    out = np.empty(len(targets))
    out[~on] = _peaked_integrals(h, domain, targets[~on], order)[0]
    out[on] = [_boundary_value(h, domain, z, order) for z in targets[on]]
    return out


@dataclass(frozen=True)
class JumpRelationResult:
    """One-sided limits of the double layer at a boundary point."""

    interior_limit_estimate: float
    exterior_limit_estimate: float


def _richardson(values, distances):
    """First-order Richardson extrapolation from the two smallest offsets."""
    d1, d2 = distances[-2], distances[-1]
    v1, v2 = values[-2], values[-1]
    return v2 + (v2 - v1) * d2 / (d1 - d2)


def _require_monotone(values, scale: float) -> None:
    """Reject one-sided sequences whose successive differences grow.

    Differences below a 1e-6 noise floor (relative to the value scale) are
    converged-to-roundoff, not a resolution failure; genuine
    under-resolution shows up at the scale of the jump itself.
    """
    if len(values) < 3:
        return
    steps = np.abs(np.diff(values))
    grew = (np.diff(steps) > 1e-6 * scale) & (steps[1:] > 1e-6 * scale)
    if np.any(grew):
        raise ResolutionError(
            "one-sided values do not converge monotonically; raise the quadrature order"
        )


def jump_relation_check(h, domain: Domain, y0, distances, order: int = 64) -> JumpRelationResult:
    """Estimate the one-sided limits of the double layer across the boundary.

    Evaluates along y0 -/+ d nu(y0) for the given decreasing offsets and
    extrapolates each side linearly from the two smallest offsets.  A
    non-monotone difference sequence (beyond rounding noise) signals
    under-resolution and raises ResolutionError.
    """
    y0 = as_point(y0, domain.dim)
    if domain.classify(y0) != BOUNDARY:
        raise PlacementError(f"{y0.tolist()} is not a boundary point")
    ds = np.sort(np.atleast_1d(np.asarray(distances, dtype=float)))[::-1]
    if len(ds) < 2:
        raise ParameterError("need at least two approach distances")
    nu = domain.outward_normal(y0)
    ins, outs = [], []
    for d in ds:
        ins.append(double_layer(h, domain, y0 - d * nu, order).value)
        outs.append(double_layer(h, domain, y0 + d * nu, order).value)
    scale = max(1.0, max(abs(v) for v in ins + outs))
    _require_monotone(ins, scale)
    _require_monotone(outs, scale)
    return JumpRelationResult(
        interior_limit_estimate=_richardson(ins, ds),
        exterior_limit_estimate=_richardson(outs, ds),
    )


# ---------------------------------------------------------------------------
# Gradient volume integral
# ---------------------------------------------------------------------------


def _volume_order_for_target(domain: Domain, order: int, d: float) -> int:
    """The angular order of the main block about a target at boundary
    distance ``d``: ``order``, doubled for targets close to the boundary.

    The kernel singularity itself is absorbed radially, but the angular
    profile of the per-ray extents develops a sqrt(distance)-scale boundary
    layer (and, on concave shapes, tangency kinks), so the angular count
    grows like 1/sqrt(distance), capped at 512.  Only the rays escalate:
    the radial count stays ``order``.
    """
    if order < 4:
        raise ParameterError(f"volume rules need order >= 4, got {order}")
    if d <= 0:
        return order
    needed = int(math.ceil(8.0 * math.sqrt(domain.inradius / d)))
    eff = order
    while eff < min(needed, 512):
        eff *= 2
    return eff


#: Distinct gradient volume integrals kept per process; each entry is a float
#: plus references to a field and a domain the caller already holds.
_VOLUME_INTEGRAL_CACHE_SIZE = 4096


def gradient_volume_integral(f: ScalarField, domain: Domain, y, order: int = 64) -> float:
    """int_Omega <grad E(x - y), grad f(x)> dx for y off the boundary.

    Interior targets get a polar rule centered at y (the radial Jacobian
    cancels the kernel's |x - y|^(1-N) growth, so its main block is summed
    along its rays, see ``VolumeQuadrature.integrate_rays``) with
    ball-shaped excisions around the field's other singular points; a
    target near the boundary gets more rays, not more radial nodes (see
    ``_volume_order_for_target``).  Exterior targets use a regular rule
    (the kernel is smooth on the closure).  A singular point of f
    coinciding with y is folded into the radial weight, not an error.

    Values are memoized by (field, domain, target, order, node budget); the
    budget is read on every call because it decides whether the rule may be
    built.  Errors are not memoized: they are raised again on every call.
    One thread at a time computes a key: the others wait for it and then
    read the memo, or compute the key in turn if it raised.
    """
    y = as_point(y, domain.dim)
    return computed_once(_gradient_volume_integral, f, domain, tuple(y.tolist()), order, max_nodes_budget())


@lru_cache(maxsize=_VOLUME_INTEGRAL_CACHE_SIZE, typed=True)
def _gradient_volume_integral(f: ScalarField, domain: Domain, y: tuple, order: int, budget: int) -> float:
    # ``budget`` only keys the memo: composite_volume_rule reads it itself;
    # ``typed`` keeps a float order, which fails to build a rule, from
    # hitting the value cached for the equal int order
    y = np.array(y)
    cls, distance = domain.placement(y)
    if cls == BOUNDARY:
        raise PlacementError("target on the boundary; use boundary_limit_zeta instead")

    def pairing(x):
        return row_dots(fundamental_gradient(x - y), f.gradient(x))

    if cls == INTERIOR:
        angular = _volume_order_for_target(domain, order, distance)
        rule = _singular_rule(f, domain, order, y, kernel_power=float(1 - domain.dim), angular_order=angular)
        # about y, grad E(x - y) dx = theta d rho d theta / omega_N
        omega = sphere_area(domain.dim)
        return rule.integrate_rays(lambda x, theta: row_dots(theta, f.gradient(x)) / omega, pairing)
    return _singular_rule(f, domain, order, domain.center).integrate(pairing)


def boundary_limit_zeta(f: ScalarField, domain: Domain, z, order: int = 64) -> float:
    """Boundary trace of the gradient volume integral.

    Extrapolates the interior values of the volume integral at 2e-2 and
    1e-2 inradii along the inward normal, so the trace comes from the
    volume machinery and not from the double layer it is compared with.
    """
    z = as_point(z, domain.dim)
    if domain.classify(z) != BOUNDARY:
        raise PlacementError(f"{z.tolist()} is not a boundary point")
    ds = (2e-2 * domain.inradius, 1e-2 * domain.inradius)
    nu = domain.outward_normal(z)
    vals = [gradient_volume_integral(f, domain, z - d * nu, order) for d in ds]
    return _richardson(vals, ds)


# ---------------------------------------------------------------------------
# Kernel-weighted Newtonian integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonianIntegrals:
    boundary_term: float
    volume_term: float


def newtonian_integrals(f: ScalarField, domain: Domain, y, order: int = 64) -> NewtonianIntegrals:
    """The two Green-identity companions of the gradient volume integral:
    int_boundary (df/dnu) E(x - y) dsigma and int_Omega (Lap f) E(x - y) dx.

    Requires a field with a Laplacian and y off the boundary.  The volume
    term is summed on ``_singular_rule`` with the Laplacian's exponent
    gradient_power - 1 at f's singular points.  For interior y the rule is
    centred at y, where its radial substitution keeps the logarithmic (2-D)
    or power (N >= 3) singularity of the kernel in the rule's accuracy
    class; for exterior y it is the builder's default rule.
    """
    if not f.has_laplacian:
        raise CapabilityError(f"field {f.name} carries no Laplacian")
    y = as_point(y, domain.dim)
    cls = domain.classify(y)
    if cls == BOUNDARY:
        raise PlacementError("Newtonian integrals are evaluated off the boundary")

    # unit moment: the flux df/dnu needs the normals, so the kernel carries it
    def flux(nodes, normals, targets):
        kernel = fundamental_solution((nodes - targets).reshape(-1, domain.dim)).reshape(len(targets), -1)
        return row_dots(f.gradient(nodes), normals) * kernel

    boundary_term = float(_peaked_integrals(1.0, domain, y, order, flux)[0][0])
    power = f.gradient_power - 1.0
    if cls == INTERIOR:
        vrule = _singular_rule(f, domain, order, y, power=power, log_kernel=True)
    else:
        vrule = _singular_rule(f, domain, order, power=power)
    volume_term = vrule.integrate(lambda x: f.laplacian(x) * fundamental_solution(x - y))
    return NewtonianIntegrals(boundary_term=boundary_term, volume_term=volume_term)
