"""Evaluates both sides of every representation identity and reports residuals.

Each check returns an IdentityReport carrying the two sides, their absolute
difference, the tolerance the row is held to, and the quadrature metadata.
The tolerance is the identity's entry in ``IDENTITIES``: a fixed value, or
the field class's (1e-6 for smooth fields, 1e-4 for fields with singular
points).  The harness applies a config's overrides to the rows.

Identity identifiers
--------------------
GAUSS   unit-moment double layer is 1, 1/2, 0 inside, on, outside the boundary
JUMP    the double layer jumps by the moment value across the boundary
F1      point value = double layer - gradient volume integral (interior y)
FIG     volume integral of f via the boundary/volume pairing with x - y
MAT     F1 specialized to a ball
COM     MAT rewritten through the harmonic extension of the boundary trace
RP0/RP1 mean-plus-corrections representation (free z / z = y)
CERC    four-term ball representation; REP3/REP2 its volume/surface means
F2      volume integral of the double layer
F3      boundary integral of the double layer via the jump identity
C2_EXTERIOR   exterior double layer equals the gradient volume integral
GRR     gradient volume integral via boundary flux and kernel-weighted Laplacian
GREEN_RIEMANN_{INTERIOR,EXTERIOR,BOUNDARY}  the classical consequences
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError, ParameterError, PlacementError
from .fields import ScalarField, _singular_rule
from .geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    Ball,
    Domain,
    as_point,
    main_block_size,
    max_nodes_budget,
    volume_rule,
)
from .kernel import row_dots, row_norms, sphere_area
from .poisson import dirichlet_chi
from .potentials import (
    _peaked_integrals,
    boundary_limit_zeta,
    double_layer,
    double_layer_batch,
    gradient_volume_integral,
    jump_relation_check,
    newtonian_integrals,
)
from dataclasses import dataclass, field as dataclass_field

SMOOTH_TOL = 1e-6
SINGULAR_TOL = 1e-4
DOUBLE_INTEGRAL_TOL = 1e-3  # dominated by the outer rule

#: Every verify identity and its default tolerance; None takes the field
#: class's, SMOOTH_TOL or SINGULAR_TOL.
IDENTITIES = {
    "GAUSS": 1e-8,
    "JUMP": 1e-4,
    "F1": None,
    "FIG": None,
    "MAT": None,
    "COM": None,
    "RP0": None,
    "RP1": None,
    "CERC": None,
    "REP2": None,
    "REP3": None,
    "F2": DOUBLE_INTEGRAL_TOL,
    "F3": DOUBLE_INTEGRAL_TOL,
    "C2_EXTERIOR": None,
    "GRR": None,
    "GREEN_RIEMANN_INTERIOR": None,
    "GREEN_RIEMANN_EXTERIOR": None,
    # limited by the one-sided extrapolation of the boundary limit
    "GREEN_RIEMANN_BOUNDARY": DOUBLE_INTEGRAL_TOL,
}

#: The identities defined on balls only.
BALL_IDENTITIES = ("MAT", "COM", "CERC", "REP2", "REP3")


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    lhs: float
    rhs: float
    tolerance: float
    order: int
    points: tuple
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        """residual <= tolerance; a NaN residual fails."""
        return self.residual <= self.tolerance

    def __bool__(self):
        return self.passed


def _report(identity, f, lhs, rhs, order, points, **metadata) -> IdentityReport:
    """The report of ``identity`` for field ``f``, held to its ``IDENTITIES`` tolerance."""
    tolerance = IDENTITIES[identity]
    if tolerance is None:
        tolerance = SMOOTH_TOL if f.is_smooth else SINGULAR_TOL
    return IdentityReport(
        identity=identity,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=tolerance,
        order=int(order),
        points=tuple(tuple(np.atleast_1d(p).tolist()) for p in points),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Shared integrals
# ---------------------------------------------------------------------------


def _volume_integral(f: ScalarField, domain: Domain, order: int) -> float:
    """int_Omega f on the rule adapted to f's singular points."""
    return _singular_rule(f, domain, order, power=f.gradient_power + 1.0).integrate(f.evaluate)


def _surface_integral(f: ScalarField, domain: Domain, order: int) -> float:
    """int_{boundary} f on the boundary rule."""
    rule = domain.boundary_rule(order)
    return rule.integrate(f.evaluate(rule.nodes))


def _gradient_pairing(f: ScalarField, domain: Domain, z, order: int) -> float:
    """int_Omega <grad f(x), x - z> on the rule adapted to f's singular points."""
    return _singular_rule(f, domain, order).integrate(lambda x: row_dots(f.gradient(x), x - z))


# ---------------------------------------------------------------------------
# Core identities
# ---------------------------------------------------------------------------


def check_gauss(domain: Domain, y, order: int = 64) -> IdentityReport:
    """Unit-moment double layer against its value 1, 1/2 or 0 at y."""
    dl = double_layer(1.0, domain, y, order)
    expect = {INTERIOR: 1.0, BOUNDARY: 0.5, EXTERIOR: 0.0}[dl.location_class]
    return _report("GAUSS", None, dl.value, expect, order, [y])


def check_jump(f: ScalarField, domain: Domain, y0, distances, order: int = 64) -> IdentityReport:
    """Difference of the one-sided limits of the double layer at boundary y0
    against the moment value there."""
    res = jump_relation_check(f, domain, y0, distances, order)
    lhs = res.interior_limit_estimate - res.exterior_limit_estimate
    return _report("JUMP", f, lhs, f.evaluate(y0), order, [y0])


def check_f1(f: ScalarField, domain: Domain, y, order: int = 128) -> IdentityReport:
    """Point value versus double layer minus gradient volume integral."""
    y = as_point(y, domain.dim)
    if domain.classify(y) != INTERIOR:
        raise PlacementError("this identity represents interior values")
    lhs = f.evaluate(y)
    dl = double_layer(f, domain, y, order)
    vol = gradient_volume_integral(f, domain, y, order)
    return _report("F1", f, lhs, dl.value - vol, order, [y], double_layer=dl.value, volume=vol)


def _fig_terms(f: ScalarField, domain: Domain, z, order: int) -> tuple[float, float]:
    """The boundary and volume pairings with x - z used by FIG and RP0."""
    z = as_point(z, domain.dim)
    brule = domain.boundary_rule(order)
    moments = f.evaluate(brule.nodes) * row_dots(brule.nodes - z, brule.normals)
    return brule.integrate(moments), _gradient_pairing(f, domain, z, order)


def check_fig(f: ScalarField, domain: Domain, y, order: int = 64) -> IdentityReport:
    """Volume integral of f via the divergence pairing with x - y (any y)."""
    y = as_point(y, domain.dim)
    lhs = _volume_integral(f, domain, order)
    bnd, vol = _fig_terms(f, domain, y, order)
    rhs = (bnd - vol) / domain.dim
    return _report("FIG", f, lhs, rhs, order, [y], boundary_term=bnd, volume_term=vol)


def check_ball_corollaries(f: ScalarField, ball: Ball, y, order: int = 64, which: str = "MAT") -> IdentityReport:
    """The ball specializations MAT, COM, CERC, REP2, REP3."""
    if which not in BALL_IDENTITIES:
        raise ParameterError(f"unknown ball identity {which!r}")
    a, R, n = ball.center, ball.radius, ball.dim
    omega = sphere_area(n)
    if which in ("REP2", "REP3"):
        y = a
    y = as_point(y, n)
    cls, distance = ball.placement(y)
    if which in ("MAT", "COM", "CERC") and cls != INTERIOR:
        raise PlacementError(f"{which} represents interior values of the ball")
    lhs = f.evaluate(y)
    vol = gradient_volume_integral(f, ball, y, order)

    if which in ("REP2", "CERC"):
        surface_mean = _surface_integral(f, ball, order) / ball.surface_measure
    if which in ("REP3", "CERC"):
        volume_mean = _volume_integral(f, ball, order) / ball.volume_measure
        smooth = _gradient_pairing(f, ball, a, order) / (omega * R**n)

    if which == "REP2":
        return _report("REP2", f, lhs, surface_mean - vol, order, [a], surface_mean=surface_mean, volume=vol)
    if which == "REP3":
        return _report(
            "REP3", f, lhs, volume_mean - vol + smooth, order, [a],
            volume_mean=volume_mean, singular_part=vol, smooth_part=smooth,
        )

    if which in ("MAT", "CERC"):
        dl = double_layer(f, ball, y, order).value
    if which == "MAT":
        return _report("MAT", f, lhs, dl - vol, order, [y], double_layer=dl, volume=vol)
    if which == "CERC":
        rhs = volume_mean - surface_mean + dl - vol + smooth
        return _report(
            "CERC", f, lhs, rhs, order, [y],
            volume_mean=volume_mean, surface_mean=surface_mean, double_layer=dl,
        )

    # COM: route the boundary contribution through the harmonic extension.
    def kernel(nodes, normals, targets):
        d = targets - nodes
        return (d @ np.swapaxes(targets - a, 1, 2))[..., 0] / (R * omega * row_norms(d) ** n)

    chi = dirichlet_chi(ball, f, order).evaluate(y)
    correction = float(_peaked_integrals(f, ball, y, [distance], order, kernel)[0][0])
    rhs = chi + correction - vol
    return _report("COM", f, lhs, rhs, order, [y], chi=chi, correction=correction, volume=vol)


def check_rp(f: ScalarField, domain: Domain, y, z=None, order: int = 64, which: str = "RP1") -> IdentityReport:
    """Mean-plus-corrections representation; RP0 takes a free pivot z."""
    if which not in ("RP0", "RP1"):
        raise ParameterError(f"unknown identity {which!r}")
    y = as_point(y, domain.dim)
    if domain.classify(y) != INTERIOR:
        raise PlacementError("this identity represents interior values")
    z = y if which == "RP1" or z is None else as_point(z, domain.dim)
    n = domain.dim
    meas = domain.volume_measure
    mean = _volume_integral(f, domain, order) / meas
    dl = double_layer(f, domain, y, order).value
    vol = gradient_volume_integral(f, domain, y, order)
    bnd_z, vol_z = _fig_terms(f, domain, z, order)
    rhs = mean + (dl - bnd_z / (n * meas)) - (vol - vol_z / (n * meas))
    return _report(which, f, f.evaluate(y), rhs, order, [y, z], mean=mean, double_layer=dl)


def check_c2_exterior(f: ScalarField, domain: Domain, y, order: int = 64) -> IdentityReport:
    """Exterior double layer equals the gradient volume integral."""
    y = as_point(y, domain.dim)
    if domain.classify(y) != EXTERIOR:
        raise PlacementError("this identity holds strictly outside the closure")
    dl = double_layer(f, domain, y, order)
    vol = gradient_volume_integral(f, domain, y, order)
    return _report("C2_EXTERIOR", f, dl.value, vol, order, [y])


# ---------------------------------------------------------------------------
# Double-integral identities
# ---------------------------------------------------------------------------


def _estimate_f2_nodes(domain: Domain, order_outer: int, order_inner: int) -> int:
    """Outer nodes times inner nodes, each counted as a polar rule's main
    block."""
    return main_block_size(domain, order_outer) * main_block_size(domain, order_inner)


def check_f2_f3(
    f: ScalarField, domain: Domain, order_outer: int = 32, order_inner: int = 64
) -> tuple[IdentityReport, IdentityReport]:
    """The two integrated identities.

    F2 integrates the double layer over the volume and compares with the
    divergence pairing at the domain centre plus the integrated gradient
    volume integral; F3 integrates the double layer over the boundary
    against half the trace plus the boundary limit of the volume integral,
    which is extrapolated from interior values so F3 exercises the jump
    machinery.
    """
    z = domain.center
    budget = max_nodes_budget()
    estimated = _estimate_f2_nodes(domain, order_outer, order_inner)
    if estimated > budget:
        raise BudgetError(
            f"F2 would touch ~{estimated:.2e} node pairs, over the budget {budget:.2e}; "
            "lower order_outer/order_inner or raise LAYERPOT_MAX_NODES"
        )

    outer = volume_rule(domain, order_outer)
    lhs_f2 = outer.integrate(lambda x: double_layer_batch(f, domain, x, order_inner))
    bnd_z, vol_z = _fig_terms(f, domain, z, order_inner)
    inner_total = outer.integrate(lambda x: [gradient_volume_integral(f, domain, yk, order_inner) for yk in x])
    rhs_f2 = (bnd_z - vol_z) / domain.dim + inner_total
    rep_f2 = _report("F2", f, lhs_f2, rhs_f2, order_outer, [z], order_inner=order_inner, inner_total=inner_total)

    brule = domain.boundary_rule(order_outer)
    ubar_b = np.array([double_layer(f, domain, zk, order_inner).value for zk in brule.nodes])
    lhs_f3 = brule.integrate(ubar_b)
    trace = _surface_integral(f, domain, order_outer)
    zetas = np.array([boundary_limit_zeta(f, domain, zk, order_inner) for zk in brule.nodes])
    rhs_f3 = 0.5 * trace + brule.integrate(zetas)
    rep_f3 = _report("F3", f, lhs_f3, rhs_f3, order_outer, [], order_inner=order_inner)
    return rep_f2, rep_f3


# ---------------------------------------------------------------------------
# Green identities
# ---------------------------------------------------------------------------


def check_grr(f: ScalarField, domain: Domain, y, order: int = 64) -> IdentityReport:
    """Gradient volume integral via boundary flux and kernel-weighted Laplacian."""
    y = as_point(y, domain.dim)
    lhs = gradient_volume_integral(f, domain, y, order)
    parts = newtonian_integrals(f, domain, y, order)
    rhs = parts.boundary_term - parts.volume_term
    return _report("GRR", f, lhs, rhs, order, [y], boundary_term=parts.boundary_term, volume_term=parts.volume_term)


def check_green_riemann(f: ScalarField, domain: Domain, y, order: int = 64) -> IdentityReport:
    """The classical representation through boundary flux and volume source.

    Interior y reproduces f(y); exterior y yields zero; boundary y uses the
    doubled identity through the extrapolated boundary limit of the volume
    integral.
    """
    y = as_point(y, domain.dim)
    cls = domain.classify(y)
    dl = double_layer(f, domain, y, order).value
    if cls == BOUNDARY:
        zeta = boundary_limit_zeta(f, domain, y, order)
        return _report(
            "GREEN_RIEMANN_BOUNDARY", f, f.evaluate(y), 2.0 * dl - 2.0 * zeta, order, [y], double_layer=dl
        )
    parts = newtonian_integrals(f, domain, y, order)
    rhs = dl - parts.boundary_term + parts.volume_term
    if cls == INTERIOR:
        return _report("GREEN_RIEMANN_INTERIOR", f, f.evaluate(y), rhs, order, [y])
    return _report("GREEN_RIEMANN_EXTERIOR", f, 0.0, rhs, order, [y])
