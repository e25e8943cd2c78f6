"""Catalog of scalar test fields with exact gradients and norm helpers.

A ScalarField bundles a function, its gradient, an optional Laplacian, the
finite set of points where the gradient is singular, and the power-law
growth of the gradient near each singular point, so quadrature rules can
adapt to the field.  All evaluation callables are vectorized over point
batches of shape (m, N).

Fields are immutable closures over their parameters and are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import (
    CatalogError,
    DimensionError,
    ExponentError,
    IntegrabilityError,
    ParameterError,
    SingularityError,
)
from .geometry import INTERIOR, Ball, Domain, _frozen, as_point, composite_volume_rule, volume_rule
from .kernel import _as_batch, row_dots, row_norms, sphere_area

#: Cap on the size of the singular family carried by one field.
MAX_SINGULAR_POINTS = 16


@dataclass(frozen=True)
class LebesgueExponent:
    """An integrability exponent p in (1, infinity], with its conjugate."""

    value: float

    def __post_init__(self):
        if not (self.value > 1.0):
            raise ExponentError(f"Lebesgue exponent must satisfy p > 1, got {self.value}")

    @classmethod
    def of(cls, p) -> "LebesgueExponent":
        if isinstance(p, LebesgueExponent):
            return p
        return cls(float(p))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def conjugate(self) -> float:
        """The Holder partner p' with 1/p + 1/p' = 1 (p' = 1 when p = inf)."""
        if self.is_infinite:
            return 1.0
        return self.value / (self.value - 1.0)

    def require_above_dimension(self, dim: int) -> None:
        if not (self.value > dim):
            raise ExponentError(f"this context needs p > N = {dim}, got p = {self.value}")


class _RadialGradient:
    """The gradient of a function of r = |x - a|, as a ``gradient_fn``.

    ``of_offsets(d, r)`` maps the offsets d = x - a and their norms r to the
    gradient rows.  ``ScalarField.gradient`` already takes d and r about each
    singular point for its guard, and passes them on when a is ``center``,
    so each |x - a| is computed once per call.
    """

    def __init__(self, center: np.ndarray, of_offsets: Callable):
        self.center, self.of_offsets = center, of_offsets

    def __call__(self, x):
        d = x - self.center
        return self.of_offsets(d, row_norms(d))


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with exact gradient and singular-set metadata.

    ``gradient_power`` is the exponent s such that |grad f| grows like
    |x - a|^s near each singular point a (0 for the distance field, beta - 1
    for |x - a|^beta); quadrature rules match their radial weight to it.
    ``grad_norm_closed`` optionally returns the L^p norm of the gradient in
    closed form for a given (domain, exponent), or None to fall back to
    quadrature.
    """

    name: str
    evaluate_fn: Callable = dataclass_field(repr=False)
    gradient_fn: Callable = dataclass_field(repr=False)
    laplacian_fn: Callable | None = dataclass_field(default=None, repr=False)
    singular_points: tuple = ()
    gradient_power: float = 0.0
    dim: int | None = None
    grad_norm_closed: Callable | None = dataclass_field(default=None, repr=False)
    sup_gradient: float | None = None

    def __post_init__(self):
        # plain float tuples keep the field hashable: it keys memoized integrals
        points = tuple(tuple(np.asarray(a, dtype=float).ravel().tolist()) for a in self.singular_points)
        object.__setattr__(self, "singular_points", points)
        if len(points) > MAX_SINGULAR_POINTS:
            raise ParameterError(
                f"singular family capped at {MAX_SINGULAR_POINTS} points, got {len(points)}"
            )
        # made once: every gradient call guards against them, and the
        # first one a radial gradient is taken about hands its norms on
        arrays = _frozen(*(np.array(a) for a in points))
        radial = self.gradient_fn if isinstance(self.gradient_fn, _RadialGradient) else None
        about = next((k for k, a in enumerate(arrays) if radial is not None and np.array_equal(radial.center, a)), None)
        object.__setattr__(self, "_singular", arrays)
        object.__setattr__(self, "_radial_at", about)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        pts, single = _as_batch(x, self.dim)
        val = np.asarray(self.evaluate_fn(pts), dtype=float)
        return float(val[0]) if single else val

    def gradient(self, x):
        pts, single = _as_batch(x, self.dim)
        grad = None
        for k, a in enumerate(self._singular):
            d = pts - a
            r = row_norms(d)
            if (r < 1e-14).any():
                raise SingularityError(f"gradient of {self.name} requested at singular point {a.tolist()}")
            if k == self._radial_at:
                # the guard's offsets and norms are the ones the gradient needs
                grad = self.gradient_fn.of_offsets(d, r)
        if grad is None:
            grad = self.gradient_fn(pts)
        grad = np.asarray(grad, dtype=float)
        return grad[0] if single else grad

    @property
    def has_laplacian(self) -> bool:
        return self.laplacian_fn is not None

    def laplacian(self, x):
        if self.laplacian_fn is None:
            raise ParameterError(f"field {self.name} does not provide a Laplacian")
        pts, single = _as_batch(x, self.dim)
        val = np.asarray(self.laplacian_fn(pts), dtype=float)
        return float(val[0]) if single else val

    # -- singular-set helpers -------------------------------------------------

    def singular_arrays(self) -> tuple[np.ndarray, ...]:
        """The singular points as read-only arrays, made once per field."""
        return self._singular

    @property
    def is_smooth(self) -> bool:
        return len(self.singular_points) == 0


def _no_singularities(grad_bound=None):
    return dict(singular_points=(), gradient_power=0.0, sup_gradient=grad_bound)


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------


def constant(value: float) -> ScalarField:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"constant value must be finite, got {value}")
    return ScalarField(
        name=f"constant({value:g})",
        evaluate_fn=lambda x: np.full(len(x), value),
        gradient_fn=lambda x: np.zeros_like(x),
        laplacian_fn=lambda x: np.zeros(len(x)),
        grad_norm_closed=lambda domain, p: 0.0,
        **_no_singularities(grad_bound=0.0),
    )


def linear(offset: float, slope) -> ScalarField:
    slope = np.asarray(slope, dtype=float).reshape(-1)
    offset = float(offset)
    if not np.isfinite(slope).all() or not math.isfinite(offset):
        raise ParameterError(f"linear offset and slope must be finite, got {offset}, {slope.tolist()}")
    mag = float(np.linalg.norm(slope))

    def closed(domain: Domain, p: LebesgueExponent):
        return mag * domain.volume_measure ** (1.0 / p.value)

    return ScalarField(
        name=f"linear({offset:g},{slope.tolist()})",
        evaluate_fn=lambda x: offset + row_dots(x, slope),
        gradient_fn=lambda x: np.broadcast_to(slope, x.shape).copy(),
        laplacian_fn=lambda x: np.zeros(len(x)),
        dim=slope.size,
        grad_norm_closed=closed,
        **_no_singularities(grad_bound=mag),
    )


def _unit_column(i: int, x):
    """Rows e_i, one per point of x."""
    g = np.zeros((len(x), x.shape[1]))
    g[:, i] = 1.0
    return g


def coordinate(index: int) -> ScalarField:
    """The coordinate function x_i (1-based index)."""
    if int(index) != index or index < 1:
        raise ParameterError(f"coordinate index is 1-based, got {index}")
    i = int(index) - 1

    def closed(domain: Domain, p: LebesgueExponent):
        return domain.volume_measure ** (1.0 / p.value)

    return ScalarField(
        name=f"coordinate({index})",
        evaluate_fn=lambda x: x[:, i].copy(),
        gradient_fn=partial(_unit_column, i),
        laplacian_fn=lambda x: np.zeros(len(x)),
        grad_norm_closed=closed,
        **_no_singularities(grad_bound=1.0),
    )


def quadratic_radial(center) -> ScalarField:
    """|x - a|^2 about the given center; Laplacian is the constant 2 N."""
    a = as_point(center)

    def closed(domain: Domain, p: LebesgueExponent):
        if not (isinstance(domain, Ball) and np.allclose(domain.center, a)):
            return None
        R, n = domain.radius, domain.dim
        if p.is_infinite:
            return 2.0 * R
        q = p.value
        return 2.0 * (sphere_area(n) * R ** (q + n) / (q + n)) ** (1.0 / q)

    return ScalarField(
        name=f"quadratic_radial({a.tolist()})",
        evaluate_fn=lambda x: np.sum((x - a) ** 2, axis=1),
        gradient_fn=lambda x: 2.0 * (x - a),
        laplacian_fn=lambda x: np.full(len(x), 2.0 * x.shape[1]),
        dim=a.size,
        grad_norm_closed=closed,
        **_no_singularities(),
    )


def _power_parts(x, n: int):
    """(Re, Im) of (x1 + i x2)^n for n >= 1 from the real product
    (re, im) (u, v) = (u re - v im, u im + v re): z^(n//2) squared, times
    z if n is odd, so degree n takes O(log n) products."""
    u, v = x[:, 0], x[:, 1]
    if n == 1:
        return u, v
    re, im = _power_parts(x, n // 2)
    re, im = re * re - im * im, re * im + im * re
    if n % 2:
        re, im = u * re - v * im, u * im + v * re
    return re, im


def harmonic_poly(degree: int, dim: int = 2) -> ScalarField:
    """Re (x1 + i x2)^k, harmonic in every R^N with N >= 2.

    Its gradient is (k Re z^(k-1), -k Im z^(k-1), 0, ...), z = x1 + i x2.
    """
    k = int(degree)
    if k < 1:
        raise ParameterError(f"harmonic polynomial degree must be >= 1, got {degree}")
    if dim < 2:
        raise DimensionError(f"harmonic polynomials live in R^N with N >= 2, got N = {dim}")

    def ev(x):
        if k == 1:
            return x[:, 0].copy()
        re, im = _power_parts(x, k - 1)
        return x[:, 0] * re - x[:, 1] * im

    def gr(x):
        g = np.zeros_like(x)
        if k == 1:
            g[:, 0] = 1.0
        else:
            re, im = _power_parts(x, k - 1)
            g[:, 0] = k * re
            g[:, 1] = -k * im
        return g

    return ScalarField(
        name=f"harmonic_poly({k})" + ("" if dim == 2 else f"[{dim}d]"),
        evaluate_fn=ev,
        gradient_fn=gr,
        laplacian_fn=lambda x: np.zeros(len(x)),
        dim=dim,
        **_no_singularities(),
    )


def _power_distance_norm(a, beta):
    """Closed-form L^p gradient norm factory for |x - a|^beta on balls
    centered at a."""

    def closed(domain: Domain, p: LebesgueExponent):
        if not (isinstance(domain, Ball) and np.allclose(domain.center, a)):
            return None
        R, n = domain.radius, domain.dim
        if p.is_infinite:
            if beta < 1.0:
                raise IntegrabilityError(
                    f"|grad| of |x-a|^{beta} is unbounded; the sup norm does not exist"
                )
            return beta * R ** (beta - 1.0)
        q = p.value
        expo = (beta - 1.0) * q + n
        if expo <= 0.0:
            raise IntegrabilityError(
                f"|grad|^p of |x-a|^{beta} is not integrable for p={q} in dimension {n}"
            )
        return beta * (sphere_area(n) * R**expo / expo) ** (1.0 / q)

    return closed


def distance(center) -> ScalarField:
    """|x - a|: Lipschitz with unit gradient, direction singular at a."""
    a = as_point(center)

    def ev(x):
        return row_norms(x - a)

    def lap(x):
        return (x.shape[1] - 1) / row_norms(x - a)

    return ScalarField(
        name=f"distance({a.tolist()})",
        evaluate_fn=ev,
        gradient_fn=_RadialGradient(a, lambda d, r: d / r[:, None]),
        laplacian_fn=lap,
        singular_points=(tuple(a),),
        gradient_power=0.0,
        dim=a.size,
        grad_norm_closed=_power_distance_norm(a, 1.0),
        sup_gradient=1.0,
    )


def power_distance(center, power: float) -> ScalarField:
    """|x - a|^beta for beta > 0; registers a as singular."""
    a = as_point(center)
    beta = float(power)
    if not 0.0 < beta < math.inf:
        raise ParameterError(f"power must be positive and finite, got {power}")
    if beta == 1.0:
        return distance(a)

    def ev(x):
        return row_norms(x - a) ** beta

    def lap(x):
        r = row_norms(x - a)
        return beta * (beta + x.shape[1] - 2.0) * r ** (beta - 2.0)

    return ScalarField(
        name=f"power_distance({a.tolist()},{beta:g})",
        evaluate_fn=ev,
        gradient_fn=_RadialGradient(a, lambda d, r: beta * r[:, None] ** (beta - 2.0) * d),
        laplacian_fn=lap,
        singular_points=(tuple(a),),
        gradient_power=beta - 1.0,
        dim=a.size,
        grad_norm_closed=_power_distance_norm(a, beta),
    )


_CATALOG = {
    "constant": constant,
    "linear": linear,
    "coordinate": coordinate,
    "quadratic_radial": quadratic_radial,
    "harmonic_poly": harmonic_poly,
    "distance": distance,
    "power_distance": power_distance,
}


def catalog(name: str, *args, **kwargs) -> ScalarField:
    """Instantiate a catalog field by name; see the module docstring."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown field {name!r}; known: {sorted(_CATALOG)}") from None
    return builder(*args, **kwargs)


def extremal_field(p, y) -> ScalarField:
    """The deviation-bound equality witness centered at y.

    Returns |x - y| when p = inf and |x - y|^((p-N)/(p-1)) for finite
    p > N (N inferred from y).
    """
    y = as_point(y)
    n = y.size
    p = LebesgueExponent.of(p)
    p.require_above_dimension(n)
    return distance(y) if p.is_infinite else power_distance(y, (p.value - n) / (p.value - 1.0))


# ---------------------------------------------------------------------------
# Gradient norms
# ---------------------------------------------------------------------------


def grad_norm(field: ScalarField, domain: Domain, p, order: int = 64) -> float:
    """L^p norm of the gradient over the domain.

    At p = inf the field's ``sup_gradient`` comes first.  Otherwise uses the
    field's closed form when available (closed forms win over quadrature);
    otherwise integrates |grad f|^p with polar rules matched to the
    gradient's power-law growth at each singular point.  For p = inf
    without either, the sup is estimated as a node maximum, which
    underestimates true suprema of unbounded gradients; fields with
    unbounded gradients must carry p < inf.
    """
    p = LebesgueExponent.of(p)
    if p.is_infinite and field.sup_gradient is not None:
        return float(field.sup_gradient)
    if field.grad_norm_closed is not None:
        closed = field.grad_norm_closed(domain, p)
        if closed is not None:
            return float(closed)
    if p.is_infinite:
        runs = volume_rule(domain, order).runs()
        return float(np.max([np.max(row_norms(field.gradient(nodes))) for nodes, _ in runs]))
    rule = _singular_rule(field, domain, order, power=field.gradient_power * p.value)
    total = rule.integrate(lambda x: row_norms(field.gradient(x)) ** p.value)
    if not np.isfinite(total) or total < 0:
        raise IntegrabilityError(f"gradient L^{p.value} norm of {field.name} did not converge")
    return total ** (1.0 / p.value)


def _singular_rule(
    f: ScalarField,
    domain: Domain,
    order: int,
    center=None,
    kernel_power=0.0,
    power=None,
    log_kernel=False,
    angular_order=None,
):
    """The polar rule for every volume integral whose integrand carries f.

    The integrand behaves like rho^kernel_power (or log rho when
    ``log_kernel``) about ``center``, times |x - a|^power about each singular
    point a of f.  ``power`` is the integrand's exponent there: the default
    f.gradient_power suits grad f, f itself takes gradient_power + 1, Lap f
    gradient_power - 1 and |grad f|^p gradient_power * p.

    Only singular points of f inside the domain shape the rule; ``center``
    defaults to the first of them, or to the domain center when there is
    none.  Singular points within 1e-12 diameters of the center fold
    ``power`` into the radial power; the others are cut out as holes, each
    re-covered by a polar block matched to that power.  A field with no
    singular point inside gets the plain rule about ``center``.
    ``angular_order`` sets the main block's angular rule alone (see
    ``composite_volume_rule``).
    """
    singulars = _interior_singulars(f, domain)
    if center is None:
        center = singulars[0][0] if singulars else domain.center
    if power is None:
        power = f.gradient_power
    rest = []
    for a, wall in singulars:
        gap = np.linalg.norm(a - center)
        if gap <= 1e-12 * domain.diameter:
            kernel_power += power
        else:
            rest.append((a, wall, gap))
    # a hole is half as wide as the distance from its point to the boundary,
    # the center or the nearest other point
    holes = []
    for a, wall, gap in rest:
        others = [np.linalg.norm(a - b) for b, _, _ in rest if b is not a]
        holes.append((a, 0.5 * min([wall, gap] + [d for d in others if d > 0]), power))
    return composite_volume_rule(
        domain,
        order,
        center,
        kernel_power=kernel_power,
        log_kernel=log_kernel,
        holes=holes,
        angular_order=angular_order,
    )


@lru_cache(maxsize=256)
def _interior_singulars(f: ScalarField, domain: Domain) -> tuple:
    """(point, boundary distance) of each singular point of f inside the
    domain, found once: every rule about a new target reads them."""
    return tuple((a, domain.boundary_distance(a)) for a in f.singular_arrays() if domain.classify(a) == INTERIOR)
