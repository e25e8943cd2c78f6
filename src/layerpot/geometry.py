"""Domains with smooth boundary and every quadrature rule used by the library.

Points are plain 1-D float arrays of length N >= 2 (``as_point`` validates
them); domains are immutable objects exposing classification, outward
normals, closed-form or spectrally computed measures, boundary rules, and
singularity-adapted volume rules.

Two domain shapes are supported:

* ``Ball`` in N = 2 or 3 (constants work for any N >= 2, quadrature only for
  N in {2, 3});
* ``StarShaped2D``, a planar region bounded by a smooth positive radial
  graph r(theta) about a center, kept as the one non-ball shape.

Volume rules are polar about a center; their radial nodes absorb the
Jacobian rho^(N-1) and a kernel power rho^kappa at the center, so
integrands singular there stay in the rule's accuracy class.  The composite
builder additionally punches disjoint ball-shaped holes around secondary
singular points and covers each hole with its own polar block.  Each block
is sized by what it resolves.  A hole is small next to its distance from
the other singular points, so its block takes at most ``HOLE_ORDER``
radial nodes per ray and the angular rule of that order.  The main block
takes ``order`` radial nodes per interval; its angular order may be
higher, for a target whose rays see a boundary layer in angle.

A volume rule holds no nodes, only the plan of each block: its center,
directions, angular weights, table of covered radial intervals and radial
Gauss rules, whose length is the block's radial count.  A volume rule
integrates a callable, not a value array: ``rule.integrate(integrand)``
splits the nodes where numpy's pairwise sum would split the whole sum,
down to leaves of at most ``VOLUME_BLOCK`` nodes, and generates each leaf's
nodes and weights into read-only, coordinate-major arrays of its own just
before the integrand reads them.  So a rule of a million nodes never needs
an array as long as itself.  Every node comes from the same elementwise
operations whatever leaf it falls in, so the result has the bits of one
``weighted_sum`` over all nodes.  ``rule.integrate_rays`` sums the same
way an integrand given on the main block against d rho d theta about its
center, whose weights leave the Jacobian out; each leaf repeats the
direction of each main-block ray it wrote into its nodes' directions.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .errors import (
    BudgetError,
    DimensionError,
    ParameterError,
    PlacementError,
    RangeError,
)
from .kernel import row_norms, sphere_area

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

#: Relative tolerance (times the domain diameter) for boundary classification.
BOUNDARY_TOL = 1e-12

#: Hard cap on the escalated resolution parameter of any single rule.
ORDER_CAP = 4096

#: Most nodes of a volume rule generated, and evaluated by an integrand, at
#: once.  It must stay at least 128, numpy's pairwise block, for block sums
#: to keep numpy's bits.  The CLI pins malloc's thresholds to what a
#: running 3-D leaf holds, so freed leaves stay in the heap and the next
#: leaf reuses their pages.
VOLUME_BLOCK = 1 << 15

#: Most radial nodes per ray, and the most angular order, of a hole's
#: block.  A hole is at most half as wide as the distance to the nearest
#: other singular point, so its integrand's angular content decays like
#: 2^-l: 2 * HOLE_ORDER angles on the circle leave an error near 2^-64, and
#: the sphere rule, whose polar angles are Gauss-Legendre in theta, about
#: 1e-14 relative when the nearest point lies on its equator.  Along a ray
#: the integrand is analytic out to twice the hole's radius, which far
#: fewer radial nodes resolve.
HOLE_ORDER = 32

#: Azimuths a 3-D polar ring keeps beyond what its circumference resolves,
#: in units of order^(1/3): ring j of the order-n sphere rule has
#: min(2n, ceil(2n sin(theta_j) + AZIMUTH_MARGIN * n^(1/3))) azimuths (see
#: ``sphere_directions``).
AZIMUTH_MARGIN = 5.0

#: Default cap on the node count of a single constructed rule; the
#: LAYERPOT_MAX_NODES environment variable overrides it.
DEFAULT_MAX_NODES = 20_000_000


def max_nodes_budget() -> int:
    raw = os.environ.get("LAYERPOT_MAX_NODES")
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ParameterError(f"LAYERPOT_MAX_NODES must be an integer, got {raw!r}") from exc
    if budget <= 0:
        raise ParameterError("LAYERPOT_MAX_NODES must be positive")
    return budget


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a point as a 1-D float array of length N >= 2."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size < 2:
        raise DimensionError(f"points live in R^N with N >= 2, got {x!r}")
    if dim is not None and p.size != dim:
        raise DimensionError(f"expected a point of dimension {dim}, got dimension {p.size}")
    if not all(map(math.isfinite, p.tolist())):
        raise ParameterError(f"point coordinates must be finite, got {x!r}")
    return p


#: Keys being computed through ``computed_once``, each with a lock its
#: computing thread holds.
_IN_FLIGHT: dict[tuple, threading.Lock] = {}
_IN_FLIGHT_LOCK = threading.Lock()


def computed_once(cached, *key):
    """``cached(*key)``, with one thread at a time computing a given key.

    ``cached`` is a memoized function; a thread that asks for a key another
    thread is computing waits for it and then reads the memo, or computes
    the key in turn if it raised.
    """
    key = (cached, *key)
    while True:
        with _IN_FLIGHT_LOCK:
            running = _IN_FLIGHT.get(key)
            if running is None:
                running = _IN_FLIGHT[key] = threading.Lock()
                running.acquire()
                break
        with running:  # returns once the computing thread is done
            pass
    try:
        return cached(*key[1:])
    finally:
        with _IN_FLIGHT_LOCK:
            del _IN_FLIGHT[key]
        running.release()


# ---------------------------------------------------------------------------
# 1-D node helpers
# ---------------------------------------------------------------------------


def _frozen(*arrays):
    """Mark arrays read-only: caches share them across threads, and volume
    rules hand views of them to integrands."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: Newton stops once no node on [0, 1] moves by more than this.
_NODE_TOL = 4.0 * np.finfo(float).eps

#: Sweeps after which the node solver gives up.  Nodes isolated from the
#: start take 4 to 7 for beta <= 8; only bisection needs more.
_NODE_SWEEPS = 100


def _jacobi_value(n: int, beta: float, u: np.ndarray, count: bool = True):
    """P_n(x), q = (1 - x^2) P_n'(x) and, if ``count``, the number of roots
    of P_n above x (else None), for the Jacobi polynomial P_n^(0, beta) at
    x = 2u - 1, n >= 1.

    The recurrence is written in v = 1 + x = 2u, so points near x = -1,
    where the weight is singular for beta < 0, keep their relative
    precision.  The roots above x are the sign changes of P_0(x), ...,
    P_n(x), a Sturm sequence.  Each step runs in place on buffers
    allocated once, with the operations of
    ((s - 1)(s (s - 2) v - (s (s - 2) + beta^2)) P_(m-1) - c P_(m-2)) / d
    in the same order, so every value keeps its bits.
    """
    v = 2.0 * u
    prev, p = np.ones_like(v), (beta + 2.0) * v / 2.0 - (beta + 1.0)
    nxt, term = np.empty_like(v), np.empty_like(v)
    if count:
        neg_prev, neg, flip = p < 0.0, np.empty(v.shape, dtype=bool), np.empty(v.shape, dtype=bool)
        above = neg_prev.astype(np.int64)
    else:
        above = None
    for m in range(2, n + 1):
        s = 2.0 * m + beta
        np.multiply(v, s * (s - 2.0), out=nxt)
        nxt -= s * (s - 2.0) + beta * beta
        nxt *= s - 1.0
        nxt *= p
        np.multiply(prev, 2.0 * (m - 1) * (m - 1 + beta) * s, out=term)
        nxt -= term
        nxt /= 2.0 * m * (m + beta) * (s - 2.0)
        prev, p, nxt = p, nxt, prev
        if count:
            np.less(p, 0.0, out=neg)
            above += np.not_equal(neg, neg_prev, out=flip)
            neg_prev, neg = neg, neg_prev
    s = 2.0 * n + beta
    return p, n * (2.0 * (n + beta) * prev - (s * v - 2.0 * n) * p) / s, above


def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight u^beta on [0, 1], beta > -1 (Hale & Townsend, 2013).

    Newton's method on the three-term recurrence, started from Gatteschi's
    asymptotic nodes.  Each node keeps a bracket holding its root: Sturm
    counts halfway between the guesses give the first ones, and every
    sweep narrows them; once each bracket holds one root, the sign of P_n
    stands in for the count.  A node is bisected while its bracket holds other
    roots too, or when its Newton step would leave the bracket, so a poor
    guess (large beta) costs sweeps, never a wrong node.  The weights are
    4u(1 - u) / q^2: at alpha = 0 the Gamma factors cancel.
    """
    need = n - np.arange(n)  # roots of P_n at or above node k
    r = n + (beta + 1.0) / 2.0
    c = (2.0 * need - 0.5) * math.pi / (2.0 * r)
    theta = c + (0.25 / np.tan(c / 2.0) - (0.25 - beta * beta) * np.tan(c / 2.0)) / (2.0 * r) ** 2
    u = np.cos(theta / 2.0) ** 2
    with np.errstate(all="ignore"):  # a sweep that overflows never converges
        sep = np.concatenate(([0.0], (u[1:] + u[:-1]) / 2.0, [1.0]))
        above = np.concatenate(([n], _jacobi_value(n, beta, sep[1:-1])[2], [0]))
        i = np.searchsorted(-np.minimum.accumulate(above), -need, side="right") - 1
        lo, hi, n_lo, n_hi = sep[i], sep[i + 1], above[i], above[i + 1]
        u = np.where((u > lo) & (u < hi), u, (lo + hi) / 2.0)
        odd, alone = need % 2 == 1, np.zeros(n, dtype=bool)
        for _ in range(_NODE_SWEEPS):
            if alone.all():
                # every bracket holds one root: u lies below it iff P_n(u)
                # has the sign (-1)^need, the Sturm count's parity
                p, q, _ = _jacobi_value(n, beta, u, count=False)
                right = (p < 0.0) == odd
            else:
                p, q, above = _jacobi_value(n, beta, u)
                right = above >= need  # the node's root lies above u
                n_lo, n_hi = np.where(right, above, n_lo), np.where(right, n_hi, above)
                alone = (n_lo == need) & (n_hi == need - 1)
            lo, hi = np.where(right, u, lo), np.where(right, hi, u)
            du = 2.0 * p * u * (1.0 - u) / q
            new = u - du
            newton = alone & (((new > lo) & (new < hi)) | (np.abs(du) <= _NODE_TOL))
            new = np.where(newton, new, (lo + hi) / 2.0)
            moved, u = np.max(np.abs(new - u)), new
            if moved <= _NODE_TOL and alone.all():
                break
        else:
            raise ParameterError(f"no Gauss rule for n={n}, beta={beta}: nodes unresolved after {_NODE_SWEEPS} sweeps")
        q = _jacobi_value(n, beta, u, count=False)[1]
        return u, 4.0 * u * (1.0 - u) / q / q


@lru_cache(maxsize=1024)
def _gauss_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    return _frozen(*_gauss_jacobi(n, beta))


def gauss_jacobi_01(n: int, beta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f against the weight rho^beta on [0, 1].

    n must be an integer >= 1; beta may be any finite real > -1, and
    beta = 0 is Gauss-Legendre.  The rule is exact for f polynomial of
    degree <= 2n - 1.  Rules are cached by n and beta rounded to 12 digits,
    and each is built once per process, however many threads ask for it.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"a Gauss rule needs an integer number of nodes >= 1, got {n!r}")
    if not -1.0 < beta < math.inf:
        raise ParameterError(f"Jacobi weight exponent must be finite and exceed -1, got {beta}")
    return computed_once(_gauss_rule, int(n), round(float(beta), 12))


def _rotation_to(pole: np.ndarray) -> np.ndarray:
    """3x3 rotation taking e_z to the given unit vector."""
    u = pole / np.linalg.norm(pole)
    ez = np.array([0.0, 0.0, 1.0])
    c = float(u @ ez)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(ez, u)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def circle_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n equispaced unit vectors on the circle and their angular weights 2 pi / n."""
    theta = 2.0 * math.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return dirs, np.full(n, 2.0 * math.pi / n)


def sphere_directions(order: int, pole=None) -> tuple[np.ndarray, np.ndarray]:
    """Reduced product rule on the unit sphere: Gauss-Legendre in the polar
    angle (``order`` rings, sin(theta) folded into the weights), each ring
    with its own count of equispaced azimuths, weighted 2 pi / m_j.

    Ring j at colatitude theta_j keeps
    m_j = min(2n, ceil(2n sin(theta_j) + AZIMUTH_MARGIN * n^(1/3))) of the
    2n azimuths of the full product grid, n = ``order``, the same count on
    the two rings of a pair about the equator.  A harmonic of degree l and
    azimuthal wavenumber k carries the factor P_l^k(cos theta), which is
    exponentially small once k exceeds (l + 1/2) sin(theta) by more than a
    turning-point layer of width O(l^(1/3)); m_j azimuths alias only
    wavenumbers of m_j and more, so near the poles, where the circumference
    is short, the rings need fewer azimuths (reduced Gaussian grids, Hortal
    & Simmons 1991).  ``pole`` optionally rotates the rule so its axis
    points along the given vector, which keeps integrands with a peak or
    weak singularity along that axis zonal.
    """
    t, wt = gauss_jacobi_01(order)
    theta = math.pi * t
    w_theta = math.pi * wt * np.sin(theta)
    m = _ring_counts(order)
    ring = np.repeat(np.arange(order), m)
    k = np.arange(len(ring)) - np.repeat(np.cumsum(m) - m, m)
    phi = 2.0 * math.pi * k / m[ring]
    st = np.sin(theta)[ring]
    dirs = np.column_stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)[ring]])
    weights = (w_theta * (2.0 * math.pi / m))[ring]
    if pole is not None:
        rot = _rotation_to(np.asarray(pole, dtype=float))
        dirs = dirs @ rot.T
    return dirs, weights


@lru_cache(maxsize=64)
def _ring_counts(order: int) -> np.ndarray:
    """Azimuths of each ring of ``sphere_directions(order)``, read-only."""
    s = np.sin(math.pi * gauss_jacobi_01(order)[0])
    s = np.maximum(s, s[::-1])  # the same count on both rings of a pair
    m = np.ceil(2 * order * s + AZIMUTH_MARGIN * np.cbrt(order))
    return _frozen(np.minimum(m, 2 * order).astype(np.int64))[0]


def angular_rule_size(dim: int, order: int) -> int:
    """``len(angular_rule(dim, order)[0])``, without building the rule."""
    if dim == 2:
        return 2 * order
    if dim == 3:
        return int(_ring_counts(order).sum())
    raise DimensionError(f"quadrature is implemented for N in {{2, 3}}, got N={dim}")


@lru_cache(maxsize=64)
def _circle_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``circle_directions(n)``, cached and read-only: 2-D polar and
    boundary rules take only a few n."""
    return _frozen(*circle_directions(n))


@lru_cache(maxsize=64)
def angular_rule(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and angular weights of a polar rule of ``order``, cached
    and read-only: only a few (dim, order) pairs occur."""
    if dim == 2:
        return _circle_rule(2 * order)
    if dim == 3:
        return _frozen(*sphere_directions(order))
    raise DimensionError(f"quadrature is implemented for N in {{2, 3}}, got N={dim}")


# ---------------------------------------------------------------------------
# Rule containers
# ---------------------------------------------------------------------------


def weighted_sum(weights: np.ndarray, values) -> float:
    """sum_i weights[i] * values[i], added pairwise in one fixed order.

    Every quadrature sum goes through here.  ``weights @ values`` would go
    to BLAS, which splits long sums across its threads: the last bits would
    then depend on the BLAS thread count, and idle BLAS threads spin after
    each call.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != weights.shape:
        raise ValueError(f"{weights.shape[0]} weights cannot sum values of shape {values.shape}")
    return float(np.add.reduce(weights * values))


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes, positive weights, and outward unit normals discretizing the
    surface measure of a domain boundary."""

    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray

    def integrate(self, values) -> float:
        return weighted_sum(self.weights, values)


@dataclass(frozen=True)
class VolumeQuadrature:
    """Nodes and weights discretizing the volume measure of a domain, held
    as the ``PolarPlan`` of each block: the main block, then one per hole.

    Nodes are laid out plan after plan, interval after interval, each plan
    with its own number of radial nodes per interval, ``len(plan.radial[0])``.
    Nothing as long as the rule is kept: the nodes and weights are generated
    when they are read.
    """

    plans: tuple[PolarPlan, ...]

    def __post_init__(self):
        # the first node of each plan, then the node count
        sizes = (len(plan.ray) * len(plan.radial[0]) for plan in self.plans)
        object.__setattr__(self, "_starts", tuple(accumulate(sizes, initial=0)))

    @property
    def dim(self) -> int:
        return self.plans[0].center.size

    @property
    def count(self) -> int:
        return self._starts[-1]

    @property
    def nodes(self) -> np.ndarray:
        """All nodes as a read-only (count, N) array, generated on each read."""
        return self._generate(0, self.count)[0]

    @property
    def weights(self) -> np.ndarray:
        """All weights as a read-only array, generated on each read."""
        return self._generate(0, self.count)[1]

    def _generate(self, lo: int, hi: int, rays: bool = False) -> tuple:
        """Nodes [lo, hi) as a read-only (m, N) view of a coordinate-major
        array, and their weights: the plans write every interval that
        overlaps [lo, hi) into one buffer, and the view drops the partial
        ones' extra nodes.  With ``rays`` the main block's weights are for
        the measure d rho d theta about its center (see ``_polar_block``),
        and a third item holds the unit ray directions of the main block's
        nodes in [lo, hi), read-only and (m, N) in the same way: it stops
        where the main block does."""
        parts = []  # (plan, first and last interval, node count) in [lo, hi)
        for plan, start, end in zip(self.plans, self._starts, self._starts[1:]):
            if start < hi and lo < end:
                n_r = len(plan.radial[0])
                i, j = (max(lo, start) - start) // n_r, -(-(min(hi, end) - start) // n_r)
                if not parts:
                    base = start + i * n_r
                parts.append((plan, i, j, (j - i) * n_r))
        size = sum(part[3] for part in parts)
        nodes, weights = np.empty((self.dim, size)), np.empty(size)
        main, dirs, at = self.plans[0], np.empty((self.dim, 0)), 0
        for plan, i, j, m in parts:
            out = slice(at, at + m)
            gathered = _polar_block(plan, i, j, nodes[:, out], weights[out], rays and plan is main)
            if plan is main:  # the main block's nodes, if there are any, come first
                dirs = gathered
            at += m
        _frozen(nodes, weights)
        span = slice(lo - base, hi - base)
        if not rays:
            return nodes[:, span].T, weights[span]
        (theta,) = _frozen(dirs.repeat(len(main.radial[0]), axis=1)[:, span])
        return nodes[:, span].T, weights[span], theta.T

    def runs(self):
        """The (nodes, weights) of consecutive runs of at most
        ``VOLUME_BLOCK`` nodes, read-only, covering the rule in node order."""
        for lo in range(0, self.count, VOLUME_BLOCK):
            yield self._generate(lo, min(lo + VOLUME_BLOCK, self.count))

    def integrate(self, integrand) -> float:
        """sum_i weights[i] * integrand(nodes)[i], evaluated block by block.

        ``integrand`` maps an (m, N) slice of the nodes to its m values; it
        sees read-only slices of at most ``VOLUME_BLOCK`` nodes, in order,
        so no temporary grows with the rule.  The slices follow numpy's
        pairwise split, so the total has the bits of
        ``weighted_sum(weights, integrand(nodes))``.  Each call generates
        its own slices, so an integrand may integrate other rules.
        """
        return _block_sum(self._generate, integrand, 0, self.count)

    def integrate_rays(self, along, rest) -> float:
        """``integrate`` for an integrand given in polar form on the main block.

        About the main block's center c, x = c + rho theta and
        dx = rho^(N-1) d rho d theta.  ``along(x, theta)`` maps an (m, N)
        slice of the main block's nodes and the unit directions of their
        rays to the integrand times rho^(N-1); ``rest(x)`` maps a slice of
        the holes' nodes to the integrand.  The main block's weights are
        its volume weights times rho^(1-N), made by the same radial rules
        with the Jacobian left out, so an integrand whose kernel cancels the
        Jacobian, as grad E(x - c) dx = theta d rho d theta / omega_N does,
        needs no norm at any node.  The directions are the rows the slice
        gathered to write its nodes, repeated per node.  The slices and the
        pairwise sum are those of ``integrate``.
        """

        def integrand(x, theta):
            k = len(theta)  # nodes of the main block
            if k == 0:
                return rest(x)
            values = along(x[:k], theta)
            return values if k == len(x) else np.concatenate([values, rest(x[k:])])

        return _block_sum(partial(self._generate, rays=True), integrand, 0, self.count)


def _block_sum(generate, integrand, lo: int, hi: int) -> float:
    """The weighted sum over nodes [lo, hi), split where numpy's pairwise sum
    splits a sum longer than its 128-element block.

    At each leaf of at most ``VOLUME_BLOCK`` nodes, ``generate(lo, hi)``
    returns the read-only nodes and weights of the leaf, and optionally
    more items, which ``integrand`` takes after the nodes.
    """
    n = hi - lo
    if n <= VOLUME_BLOCK:
        nodes, weights, *more = generate(lo, hi)
        return weighted_sum(weights, integrand(nodes, *more))
    half = n // 2
    half -= half % 8
    return _block_sum(generate, integrand, lo, lo + half) + _block_sum(generate, integrand, lo + half, hi)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class Domain:
    """Common interface of the supported shapes; see Ball and StarShaped2D."""

    dim: int
    center: np.ndarray

    #: Extra angular resolution factor for polar volume rules; non-circular
    #: boundaries put more harmonic content into the per-ray extents.
    angular_oversampling: int = 1

    # -- classification ----------------------------------------------------

    def boundary_distance(self, y) -> float:
        return abs(self.signed_boundary_distance(y))

    def classify(self, y) -> str:
        return self._location(self.signed_boundary_distance(y))  # validates y

    def placement(self, y) -> tuple[str, float]:
        """``(classify(y), boundary_distance(y))``, both from one signed
        distance where the boundary distance is its absolute value."""
        d = self.signed_boundary_distance(y)
        return self._location(d), abs(d)

    def _location(self, signed: float) -> str:
        if abs(signed) <= BOUNDARY_TOL * self.diameter:
            return BOUNDARY
        return INTERIOR if signed < 0 else EXTERIOR

    def signed_boundary_distance(self, y) -> float:
        """Negative inside, positive outside, zero on the boundary."""
        raise NotImplementedError

    # -- measures ----------------------------------------------------------

    @property
    def surface_measure(self) -> float:
        raise NotImplementedError

    @property
    def volume_measure(self) -> float:
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def inradius(self) -> float:
        raise NotImplementedError

    # -- geometry ----------------------------------------------------------

    def outward_normal(self, x) -> np.ndarray:
        raise NotImplementedError

    def radius_along(self, direction) -> float:
        """Distance from the center to the boundary along unit ``direction``."""
        raise NotImplementedError

    def ray_segments(self, origin: np.ndarray, dirs: np.ndarray):
        """Full interior coverage of each ray from an interior origin along
        unit dirs: first-exit lengths plus, for non-convex shapes, the
        re-entered intervals further out.

        Returns ``(t_first, extras)`` where ``t_first[i]`` is the first exit
        along ``dirs[i]`` and ``extras`` maps ray indices to lists of
        (enter, exit) intervals beyond the first segment (empty for balls).
        Polar rules read it through ``ray_table``, whose star-domain tables
        are read-only and shared, with ``extras`` mapping to tuples.
        """
        raise NotImplementedError

    def ray_table(self, center: np.ndarray, order: int):
        """``(dirs, w_ang, t_first, extras)``: the directions and angular
        weights of the main block of a polar rule of ``order`` about
        ``center``, and their ``ray_segments``.

        ``StarShaped2D`` keeps its tables in ``_ray_table``, one per
        (domain, center, order): they are read-only and shared by all
        rules and threads, and their ``extras`` is an immutable mapping
        from ray index to a tuple of (enter, exit) tuples.
        """
        dirs, w_ang = angular_rule(self.dim, order * self.angular_oversampling)
        return (dirs, w_ang, *self.ray_segments(center, dirs))

    def boundary_rule(self, order: int, pole=None) -> BoundaryQuadrature:
        raise NotImplementedError

    def min_resolving_order(self, distance: float) -> int:
        """Order needed for boundary-integral kernels peaked at this distance."""
        raise NotImplementedError


class Ball(Domain):
    """Open ball of given center and radius.

    Closed-form measures hold in any dimension; quadrature requires
    N in {2, 3}.
    """

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        if not (radius > 0):
            raise ParameterError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        self.dim = self.center.size

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def signed_boundary_distance(self, y) -> float:
        y = as_point(y, self.dim)
        return float(np.linalg.norm(y - self.center) - self.radius)

    @property
    def surface_measure(self) -> float:
        return sphere_area(self.dim) * self.radius ** (self.dim - 1)

    @property
    def volume_measure(self) -> float:
        return sphere_area(self.dim) * self.radius**self.dim / self.dim

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def inradius(self) -> float:
        return self.radius

    def outward_normal(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        v = x - self.center
        r = np.linalg.norm(v)
        if r < 1e-15:
            raise PlacementError("normal requested at the ball center")
        return v / r

    def radius_along(self, direction) -> float:
        return self.radius

    def ray_segments(self, origin, dirs):
        origin = as_point(origin, self.dim)
        v = origin - self.center
        vv = float(v @ v)
        if vv >= self.radius**2:
            raise PlacementError("ray origin must lie strictly inside the ball")
        proj = dirs @ v
        return -proj + np.sqrt(proj**2 + (self.radius**2 - vv)), {}

    def _check_quadrature_dim(self):
        if self.dim not in (2, 3):
            raise DimensionError(
                f"quadrature rules exist for N in {{2, 3}}; N={self.dim} is constants-only"
            )

    def boundary_rule(self, order: int, pole=None) -> BoundaryQuadrature:
        self._check_quadrature_dim()
        if order < 4:
            raise ParameterError(f"boundary rules need order >= 4, got {order}")
        if self.dim == 2:
            # the unit normals are the shared, read-only directions
            dirs, w_ang = _circle_rule(order)
        else:
            dirs, w_ang = sphere_directions(order, pole=pole)
        nodes = self.center + self.radius * dirs
        weights = self.radius ** (self.dim - 1) * w_ang
        return BoundaryQuadrature(nodes=nodes, weights=weights, normals=dirs)

    def min_resolving_order(self, distance: float) -> int:
        # Trapezoid/product-rule error for a kernel peaked at distance d from
        # a circle/sphere of radius R decays like exp(-n d / R) in 2-D and
        # exp(-c n sqrt(d / R)) for the polar Gauss-Legendre factor in 3-D;
        # these floors push the residual below ~1e-10.
        if distance <= 0:
            return ORDER_CAP
        ratio = self.radius / distance
        if self.dim == 2:
            return int(math.ceil(24.0 * ratio))
        return int(math.ceil(14.0 * math.sqrt(ratio))) + 16


class StarShaped2D(Domain):
    """Planar domain bounded by x = center + r(theta) (cos theta, sin theta).

    ``radius_fn`` must be smooth, positive, and 2 pi periodic with two
    continuous derivatives, given as ``radius_d1`` and ``radius_d2``.
    """

    angular_oversampling = 2

    def __init__(self, radius_fn, center=(0.0, 0.0), *, radius_d1, radius_d2):
        self.center = as_point(center, 2)
        self.dim = 2
        self.radius_fn = radius_fn
        self._d1 = radius_d1
        self._d2 = radius_d2
        grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        r = self._r(grid)
        if np.any(r <= 0):
            raise ParameterError("radial function must be positive")
        self._r_max = float(np.max(r))
        self._r_min = float(np.min(r))
        # Spectral reference values for the measures (trapezoid on a periodic
        # smooth integrand converges faster than any power of the grid size).
        rp = self._rp(grid)
        self._surface = float(np.mean(np.sqrt(r**2 + rp**2)) * 2.0 * math.pi)
        self._volume = float(np.mean(r**2 / 2.0) * 2.0 * math.pi)
        radial = np.stack([np.cos(grid), np.sin(grid)])
        p, dp = r * radial, rp * radial + r * _perp(radial)
        # the nodes ray_segments starts from: theta, p - center and p' at
        # the samples, coordinate-major, the first again at 2 pi
        self._samples = _frozen(np.append(grid, 2.0 * math.pi), *(np.append(x, x[:, :1], axis=1) for x in (p, dp)))
        # coordinate-major, as volume-rule nodes are
        self._bnd_cache = (self.center[:, None] + p).T

    def __repr__(self):
        return f"StarShaped2D(center={self.center.tolist()}, r_min={self._r_min:.3g}, r_max={self._r_max:.3g})"

    def _r(self, theta):
        return np.asarray(self.radius_fn(np.asarray(theta, dtype=float)), dtype=float)

    def _rp(self, theta):
        return np.asarray(self._d1(np.asarray(theta, dtype=float)), dtype=float)

    def _rpp(self, theta):
        return np.asarray(self._d2(np.asarray(theta, dtype=float)), dtype=float)

    def signed_boundary_distance(self, y) -> float:
        y = as_point(y, 2)
        v = y - self.center
        rho = float(np.linalg.norm(v))
        if rho < 1e-15:
            return -self._r_min
        theta = math.atan2(v[1], v[0])
        return rho - float(self._r(theta))

    def placement(self, y) -> tuple[str, float]:
        # the signed distance is measured along the ray from the center,
        # so the boundary distance takes its own query
        return self.classify(y), self.boundary_distance(y)

    def boundary_distance(self, y) -> float:
        """The nearest of the 4096 cached boundary points, refined by Newton
        steps on d/dtheta |p(theta) - y|^2 = 0 within one grid step of it.

        Every candidate lies on the curve, so the result is never below the
        true distance, and the refinement is kept only where it is nearer.
        """
        y = as_point(y, 2)
        dist = row_norms(self._bnd_cache - y)
        k = int(np.argmin(dist))
        step = 2.0 * math.pi / len(dist)
        theta = k * step
        for _ in range(4):
            r, rp, rpp = (float(g(theta)) for g in (self._r, self._rp, self._rpp))
            radial = np.array([math.cos(theta), math.sin(theta)])
            tangential = np.array([-radial[1], radial[0]])
            e = self.center + r * radial - y
            dp = rp * radial + r * tangential
            ddp = (rpp - r) * radial + 2.0 * rp * tangential
            # Newton on g = e . p', half the derivative of |p - y|^2
            dg = dp @ dp + e @ ddp
            if not dg > 0.0:
                break
            theta = min(max(theta - (e @ dp) / dg, (k - 1) * step), (k + 1) * step)
        radial = np.array([math.cos(theta), math.sin(theta)])
        refined = float(np.linalg.norm(self.center + float(self._r(theta)) * radial - y))
        return min(float(dist[k]), refined)

    @property
    def surface_measure(self) -> float:
        return self._surface

    @property
    def volume_measure(self) -> float:
        return self._volume

    @property
    def diameter(self) -> float:
        return 2.0 * self._r_max

    @property
    def inradius(self) -> float:
        return self._r_min

    def radius_along(self, direction) -> float:
        return float(self._r(math.atan2(direction[1], direction[0])))

    def boundary_point(self, theta: float) -> np.ndarray:
        r = float(self._r(theta))
        return self.center + r * np.array([math.cos(theta), math.sin(theta)])

    def outward_normal(self, x) -> np.ndarray:
        x = as_point(x, 2)
        v = x - self.center
        theta = math.atan2(v[1], v[0])
        r = float(self._r(theta))
        rp = float(self._rp(theta))
        ct, st = math.cos(theta), math.sin(theta)
        nu = np.array([r * ct + rp * st, r * st - rp * ct])
        return nu / np.linalg.norm(nu)

    def curvature(self, theta: float) -> float:
        r = float(self._r(theta))
        rp = float(self._rp(theta))
        rpp = float(self._rpp(theta))
        return (r**2 + 2 * rp**2 - r * rpp) / (r**2 + rp**2) ** 1.5

    def kernel_diagonal(self, z) -> float:
        """Limit of the double-layer kernel as the source approaches the
        boundary point z; equals curvature / (4 pi)."""
        z = as_point(z, 2)
        v = z - self.center
        theta = math.atan2(v[1], v[0])
        return self.curvature(theta) / (2.0 * sphere_area(2))

    def boundary_rule(self, order: int, pole=None) -> BoundaryQuadrature:
        if order < 4:
            raise ParameterError(f"boundary rules need order >= 4, got {order}")
        theta = 2.0 * math.pi * np.arange(order) / order
        r = self._r(theta)
        rp = self._rp(theta)
        ct, st = np.cos(theta), np.sin(theta)
        nodes = self.center + r[:, None] * np.column_stack([ct, st])
        weights = (2.0 * math.pi / order) * np.sqrt(r**2 + rp**2)
        normals = np.column_stack([r * ct + rp * st, r * st - rp * ct])
        normals /= row_norms(normals)[:, None]
        return BoundaryQuadrature(nodes=nodes, weights=weights, normals=normals)

    def min_resolving_order(self, distance: float) -> int:
        if distance <= 0:
            return ORDER_CAP
        return int(math.ceil(30.0 * self._r_max / distance))

    def ray_table(self, center, order):
        # many rules share a center and order
        return computed_once(_ray_table, self, tuple(center.tolist()), order)

    def ray_segments(self, origin, dirs):
        """All interior intervals along each ray, found from the boundary
        side: the points where the boundary meets each ray.

        Seen from the origin o, the boundary point p(theta) has the visual
        angle alpha = arg(p - o), which turns back where
        tau = cross(p - o, p') changes sign.  The 4096 boundary samples
        are the nodes; where the origin lies within a few samples of the
        boundary, nodes are added until no interval between two turns by
        more than pi / 8.  Turning points located by bracketed Newton steps
        on tau split the intervals into pieces along which alpha is
        monotone.  A ray of angle beta meets a piece once for each
        beta + 2 pi m in the piece's angle range, and ``searchsorted`` on
        the sorted ray angles lists those.  Each crossing is then the zero
        of alpha(theta) - beta in its piece, again by bracketed Newton
        steps, at t = |p - o|, which there is <p - o, d> for a unit d.

        Handles concave boundary sections (rays that exit and re-enter).
        Boundary features narrower than one of the 4096 samples can be
        missed: a fold of alpha that turns twice between two samples hides
        the crossings in it.
        """
        origin = as_point(origin, 2)
        if self.classify(origin) != INTERIOR:
            raise PlacementError("ray origin must lie strictly inside the domain")
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        n_rays = len(dirs)
        v = (origin - self.center)[:, None]
        theta, u, dp = self._samples
        u = u - v
        angle = np.arctan2(u[1], u[0])
        turned, wraps = _turns(np.diff(angle))
        # cut the intervals that turn by more than pi / 8, which only an
        # origin within a few samples of the boundary sees, in eighths until
        # none does
        (wide,) = np.nonzero(np.abs(turned) > math.pi / 8.0)
        if wide.size:
            a, b, angle_a, angle_b = theta[wide], theta[wide + 1], angle[wide], angle[wide + 1]
            added = []
            for _ in range(_ROOT_STEPS):
                mid = (a[:, None] + (b - a)[:, None] * np.arange(1, 8) / 8.0).ravel()
                at, tangent = self._jet(v, mid, 1)
                mid_angle = np.arctan2(at[1], at[0])
                added.append((mid, mid_angle, at, tangent))
                ends = np.column_stack([a, mid.reshape(-1, 7), b])
                angles = np.column_stack([angle_a, mid_angle.reshape(-1, 7), angle_b])
                keep = np.abs(_turns(np.diff(angles, axis=1))[0]) > math.pi / 8.0
                a, b = ends[:, :-1][keep], ends[:, 1:][keep]
                angle_a, angle_b = angles[:, :-1][keep], angles[:, 1:][keep]
                if not a.size:
                    break
            mid, mid_angle, at, tangent = (np.concatenate(x, axis=-1) for x in zip(*added))
            by_theta = np.argsort(mid)
            where = np.searchsorted(theta, mid[by_theta])
            theta, angle = np.insert(theta, where, mid[by_theta]), np.insert(angle, where, mid_angle[by_theta])
            u, dp = np.insert(u, where, at[:, by_theta], axis=1), np.insert(dp, where, tangent[:, by_theta], axis=1)
            turned, wraps = _turns(np.diff(angle))
        tau = _cross(u, dp)
        rising = tau >= 0.0
        # tau changes sign between nodes k and k + 1; Newton starts where
        # it would vanish if linear
        (k,) = np.nonzero(rising[:-1] != rising[1:])
        turn = np.zeros(theta.size, dtype=bool)
        if k.size:
            guess = theta[k] + (theta[k + 1] - theta[k]) * tau[k] / (tau[k] - tau[k + 1])
            turns = _bracketed_newton(partial(self._tau, v), theta[k], theta[k + 1], guess, ~rising[k])
            (at,) = self._jet(v, turns, 0)
            theta, angle = np.insert(theta, k + 1, turns), np.insert(angle, k + 1, np.arctan2(at[1], at[0]))
            turn = np.insert(turn, k + 1, True)
            turned, wraps = _turns(np.diff(angle))
        # alpha is monotone between two nodes, the way tau goes at the end
        # that is no turning point
        rising = np.insert(rising[:-1], k + 1, rising[k + 1])
        # alpha at the nodes is angle + 2 pi laps
        laps = np.concatenate(([0], -np.cumsum(wraps, dtype=int)))
        laps -= laps.min()
        # the targets beta + 2 pi m, m >= 0, numbered in (m, beta) order:
        # comparing (m, beta) with a node's (laps, angle) compares the
        # target with alpha, and rounds nothing
        beta = np.arctan2(dirs[:, 1], dirs[:, 0])
        order = np.argsort(beta, kind="stable")
        ascending = beta[order]
        left = np.searchsorted(ascending, angle, "left")
        # a node's angle equal to a ray angle takes a second search
        right = left.copy()
        (tie,) = np.nonzero(np.append(ascending, np.inf)[left] == angle)
        right[tie] = np.searchsorted(ascending, angle[tie], "right")
        left, right = left + laps * n_rays, right + laps * n_rays
        # a piece holds the angle it starts at, and the one it ends at only
        # where a turning point ends it: a ray through a node meets one
        # piece there, and a ray touching a turning point meets two
        end = np.where(turn[1:], right[1:], left[1:])
        start = np.where(rising, left[:-1], np.where(turn[1:], left[1:], right[1:]))
        stop = np.where(rising, end, right[:-1])
        count = np.maximum(stop - start, 0)
        piece = np.repeat(np.arange(count.size), count)
        slot = np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count) + start[piece]
        ray = order[slot % n_rays]
        # Newton starts where alpha would reach the target if linear in
        # theta, taken in (-pi, pi], where theta has the finer ulp
        short = angle[piece] - beta[ray] + 2.0 * math.pi * (laps[piece] - slot // n_rays)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.clip(-short / turned[piece], 0.0, 1.0)
        lo, hi = (np.where(theta[piece] < math.pi, x, x - 2.0 * math.pi) for x in (theta[piece], theta[piece + 1]))
        guess = lo + np.where(np.isfinite(frac), frac, 0.5) * (hi - lo)
        phi = _bracketed_newton(partial(self._ahead, v, dirs[ray].T), lo, hi, guess, rising[piece])
        t = np.hypot(*self._jet(v, phi, 0)[0])
        # each ray's crossings in order along it
        by_ray = np.lexsort((t, ray))
        ray, crossings = ray[by_ray], t[by_ray]
        counts = np.bincount(ray, minlength=n_rays)
        if np.any(counts == 0):
            raise RangeError("ray failed to exit the domain")
        first = np.cumsum(counts) - counts
        t_first = crossings[first]
        # crossings after the first pair up into re-entered (enter, exit)
        # intervals; an unpaired last one is dropped
        pos = np.arange(ray.size) - first[ray]
        paired = (pos > 0) & (pos <= (counts[ray] - 1) // 2 * 2)
        extras: dict[int, list[tuple[float, float]]] = {}
        for i, seg in zip(ray[paired][::2].tolist(), crossings[paired].reshape(-1, 2).tolist()):
            extras.setdefault(i, []).append(tuple(seg))
        return t_first, extras

    def _jet(self, v, theta, order):
        """p(theta) - o, where v = o - center is a column, and its first
        ``order`` derivatives in theta, each coordinate-major."""
        radial = np.stack([np.cos(theta), np.sin(theta)])
        r = self._r(theta)
        jet = [r * radial - v]
        if order > 0:
            rp = self._rp(theta)
            jet.append(rp * radial + r * _perp(radial))
        if order > 1:
            jet.append((self._rpp(theta) - r) * radial + 2.0 * rp * _perp(radial))
        return jet

    def _tau(self, v, theta, which):
        """tau = cross(p - o, p') and its theta derivative cross(p - o, p'')."""
        u, dp, ddp = self._jet(v, theta, 2)
        return _cross(u, dp), _cross(u, ddp)

    def _ahead(self, v, dirs, theta, which):
        """The angle from the rays numbered ``which`` to p - o, and its
        theta derivative tau / |p - o|^2.  Within a piece alpha - beta
        stays far inside (-pi, pi), so the angle is alpha - beta, and it
        keeps its relative precision near 0."""
        u, dp = self._jet(v, theta, 1)
        return _angle(dirs[:, which], u), _cross(u, dp) / np.einsum("ij,ij->j", u, u)


def _perp(a):
    """a turned by pi / 2, for coordinate-major 2-D vectors."""
    return np.stack([-a[1], a[0]])


def _cross(a, b):
    """a_x b_y - a_y b_x for coordinate-major 2-D vectors."""
    return a[0] * b[1] - a[1] * b[0]


def _turns(step):
    """Differences of angles in (-pi, pi], each taken in [-pi, pi], and
    the multiples of 2 pi taken off them."""
    wraps = np.rint(step / (2.0 * math.pi))
    return step - 2.0 * math.pi * wraps, wraps


def _angle(a, b):
    """The angle in (-pi, pi] from a to b, for coordinate-major 2-D vectors."""
    return np.arctan2(_cross(a, b), np.einsum("ij,ij->j", a, b))


#: Steps after which a bracketed root search, or the refinement of the
#: nodes ``StarShaped2D.ray_segments`` sees turn too far, stops; bisection
#: alone takes a bracket of one boundary sample (2 pi / 4096) to an ulp in
#: about 45.
_ROOT_STEPS = 100

#: A root search stops once its step or bracket is below this times
#: max(1, |theta|).
_ROOT_TOL = 2.0 * np.finfo(float).eps


def _bracketed_newton(fn, lo, hi, x, rising):
    """The zero of fn in each bracket [lo, hi], by Newton steps from x that
    stay inside the bracket; a step that would leave it bisects instead.

    ``fn(x, which)`` returns the values and slopes at x of the brackets
    numbered ``which``; fn rises through its zero where ``rising`` holds.
    Each evaluation narrows its bracket, and a bracket stops once its
    step or its width falls to a few ulps, or once two Newton steps s and
    s' in a row put the next one, about s'^2 s' / s^2 by quadratic
    convergence, below that.
    """
    lo, hi, x, last = lo.copy(), hi.copy(), x.copy(), np.zeros(x.size)
    which = np.arange(x.size)
    for _ in range(_ROOT_STEPS):
        if not which.size:
            break
        at = x[which]
        value, slope = fn(at, which)
        below = (value < 0.0) == rising[which]  # the zero lies above ``at``
        lo[which] = np.where(below, at, lo[which])
        hi[which] = np.where(below, hi[which], at)
        low, high = lo[which], hi[which]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = value / slope
        tol = _ROOT_TOL * np.maximum(np.abs(at), 1.0)
        # a step onto an end already evaluated could cycle between them
        new = at - step
        newton = ((new > low) & (new < high)) | (np.abs(step) <= tol)
        new = np.where(newton, new, 0.5 * (low + high))
        x[which] = new
        size = np.abs(new - at)
        done = (size <= tol) | (high - low <= tol) | (newton & (size**3 <= tol * last[which] ** 2))
        last[which] = np.where(newton, size, 0.0)
        which = which[~done]
    return x


# ---------------------------------------------------------------------------
# Escalation policy
# ---------------------------------------------------------------------------


def escalated_order(domain: Domain, order: int, d: float) -> tuple[int, str | None]:
    """Double the rule order until a target's boundary distance ``d`` is resolved.

    Returns the effective order and a warning string when the requested
    order was insufficient (or when the cap/budget truncated escalation).
    The caller decides what to do with the warning; accuracy loss is
    reported, never silent.
    """
    if order < 4:
        raise ParameterError(f"boundary rules need order >= 4, got {order}")
    needed = domain.min_resolving_order(d)
    if needed <= order:
        return order, None
    eff = order
    while eff < needed and eff < ORDER_CAP:
        eff *= 2
    eff = min(eff, ORDER_CAP)
    budget = max_nodes_budget()
    # the boundary rule of order eff has eff nodes in 2-D
    while (eff if domain.dim == 2 else angular_rule_size(3, eff)) > budget and eff > order:
        eff //= 2
    note = f"near-boundary target (distance {d:.3g}): order escalated {order} -> {eff}"
    if eff < needed:
        note += f"; still below the resolving order {needed} (cap/budget)"
    return eff, note


# ---------------------------------------------------------------------------
# Volume rules
# ---------------------------------------------------------------------------


def main_block_size(domain: Domain, order: int) -> int:
    """Nodes of the main block of a polar rule of ``order`` on ``domain``
    with one interval per ray: ``order`` radial nodes on each ray of the
    angular rule of ``order`` times the domain's angular oversampling."""
    return order * angular_rule_size(domain.dim, order * domain.angular_oversampling)


def _radial_block(t: np.ndarray, rule, dim: int, kappa: float, log_kernel: bool, rays: bool = False):
    """Per-ray radial nodes/weights on [0, t] against the measure rho^(N-1).

    ``rule`` is the Gauss rule ``PolarPlan.radial``.  The returned weights
    absorb the volume Jacobian, so summing ``w * F(rho)`` approximates the
    radial integral of F rho^(N-1) for integrands F behaving like
    rho^kappa (or log rho when ``log_kernel``) times a smooth factor near 0.
    With ``rays`` the measure is d rho: the weights carry no Jacobian.
    """
    u, w = rule
    jacobian = 0 if rays else dim - 1
    if log_kernel:
        rho = t[:, None] * u[None, :] ** 2
        weights = 2.0 * t[:, None] ** (jacobian + 1) * u[None, :] ** (2 * jacobian + 1) * w[None, :]
        return rho, weights
    beta = dim - 1 + kappa
    rho = t[:, None] * u[None, :]
    weights = (t[:, None] if beta == 0.0 else t[:, None] ** (beta + 1.0)) * w
    # the Gauss weight u^beta holds rho^kappa and the Jacobian: divide out
    # what F and the measure do not carry
    excess = beta if rays else kappa
    if excess != 0.0:
        weights *= rho ** (-excess)
    return rho, weights


def _panel_block(a: np.ndarray, b: np.ndarray, rule, dim: int, rays: bool = False):
    """Radial Gauss-Legendre panels on [a, b] with the rho^(N-1) Jacobian
    folded in, or none with ``rays``; ``rule`` is ``PolarPlan.panel``."""
    u, w = rule
    h = (b - a)[:, None]
    rho = a[:, None] + h * u
    weights = h * w
    if not rays:
        weights *= rho ** (dim - 1)
    return rho, weights


def _interval_table(center, dirs, t, extras, holes):
    """Covered radial intervals of every ray of a polar rule about ``center``.

    Ray i covers [0, t[i]] plus its re-entered ``extras[i]``, minus the
    chords of the ``holes`` (center, radius, power); pieces no longer than
    1e-15, such as those between touching chords, are dropped.
    Returns the ray index, start and end of every piece: first the rays with
    no cut and no re-entry, then the others in index order, each ray's
    pieces ascending.
    """
    n = len(dirs)
    # rows of ray, start and end of the re-entered pieces, which ray
    # tables give ascending along each ray
    more = np.array([(i, *span) for i, spans in extras.items() for span in spans]).reshape(-1, 3).T
    ray = np.arange(n + more.shape[1])
    ray[n:] = more[0]
    a, b = np.zeros(len(ray)), np.concatenate((t, more[2]))
    a[n:] = more[1]
    # each hole's chord splits every piece on a ray it cuts into what lies
    # before it, kept in place, and what lies after it, appended; either may
    # be empty, and every bound stays one of the floats it was compared with
    for hc, hr, _ in holes:
        enter, leave, cut = _chord(center, dirs, hc, hr)
        (split,) = cut[ray].nonzero()
        on = ray[split]
        ray = np.concatenate((ray, on))
        a = np.concatenate((a, np.maximum(a[split], leave[on])))
        b = np.concatenate((b, b[split]))
        b[split] = np.minimum(b[split], enter[on])
    (piece,) = (b - a > 1e-15).nonzero()
    if holes or extras:
        # the rays cut or re-entered are those with pieces past the first n,
        # and they go last; a split keeps each ray's pieces ascending in
        # array order, so a stable sort by ray leaves them ascending
        late = np.zeros(n, dtype=bool)
        late[ray[n:]] = True
        key = ray[piece]
        piece = piece[(key + n * late[key]).argsort(kind="stable")]
    return ray[piece], a[piece], b[piece]


def _chord(center, dirs, hc, hr):
    """Where each ray from ``center`` along ``dirs`` enters and leaves the
    ball (hc, hr), and whether it cuts a chord longer than 1e-15."""
    v = hc - center
    proj = dirs @ v
    disc = proj**2 - float(v @ v) + hr**2
    sq = np.sqrt(np.maximum(disc, 0.0))
    enter, leave = np.maximum(proj - sq, 0.0), proj + sq
    return enter, leave, (disc > 0.0) & (leave > enter + 1e-15)


@dataclass(frozen=True)
class PolarPlan:
    """Everything of one polar block of a volume rule but its nodes.

    The block's rays run from ``center`` along ``dirs``, with angular
    weights ``w_ang``; ``ray``, ``a`` and ``b`` are its interval table (see
    ``_interval_table``).  The interval starting at the center gets the
    Gauss rule ``radial``, matched to integrands behaving like rho^power
    (or log rho when ``log_kernel``), every other interval the
    Gauss-Legendre rule ``panel``.  All arrays are read-only.
    """

    center: np.ndarray
    dirs: np.ndarray
    w_ang: np.ndarray
    ray: np.ndarray
    a: np.ndarray
    b: np.ndarray
    power: float
    log_kernel: bool
    radial: tuple[np.ndarray, np.ndarray]
    panel: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=256, typed=True)
def _radial_rules(dim: int, n_r: int, power: float, log_kernel: bool):
    """``PolarPlan.radial`` and ``PolarPlan.panel``; ``typed`` keeps a
    float ``n_r``, which has no Gauss rule, from hitting an int's rules."""
    if log_kernel:
        radial = gauss_jacobi_01(n_r)
    else:
        beta = dim - 1 + power
        if beta <= -1.0:
            raise ParameterError(f"kernel power {power} is not integrable in dimension {dim}")
        radial = gauss_jacobi_01(n_r, beta)
    return radial, gauss_jacobi_01(n_r)


def _polar_plan(center, dirs, w_ang, table, n_r: int, power: float, log_kernel: bool) -> PolarPlan:
    radial, panel = _radial_rules(len(center), n_r, power, log_kernel)
    _frozen(center, *table)
    return PolarPlan(center, dirs, w_ang, *table, power, log_kernel, radial, panel)


def _polar_block(plan: PolarPlan, lo: int, hi: int, nodes, weights, rays: bool = False) -> np.ndarray:
    """Write the nodes and weights of intervals [lo, hi) of ``plan`` into
    ``nodes``, a coordinate-major (N, count) slice, and ``weights``, and
    return the ray direction of each interval as an (N, intervals) array.
    With ``rays`` the weights are for the measure d rho d theta: the volume
    weights times rho^(1-N).

    Every node and weight is an elementwise function of its interval, so a
    node has the same bits whatever leaf it is written in.
    """
    ray, a, b = plan.ray[lo:hi], plan.a[lo:hi], plan.b[lo:hi]
    dim, n_r = len(nodes), len(plan.radial[0])
    rho, wr = _radial_block(b, plan.radial, dim, plan.power, plan.log_kernel, rays)
    # pieces off the center: panels replace their radial rows
    (panel,) = a.nonzero()
    if panel.size:
        rho[panel], wr[panel] = _panel_block(a[panel], b[panel], plan.panel, dim, rays)
    # splitting each contiguous coordinate run into (rays, n_r) is a view,
    # so the writes land in ``nodes``
    grid = nodes.reshape(dim, len(ray), n_r)
    dirs = plan.dirs[ray].T
    np.multiply(rho, dirs[:, :, None], out=grid)
    grid += plan.center[:, None, None]
    np.multiply(wr, plan.w_ang[ray][:, None], out=weights.reshape(len(ray), n_r))
    return dirs


#: Star-domain ray tables kept by ``_ray_table``, a few kB each.
_RAY_TABLE_CACHE_SIZE = 64


@lru_cache(maxsize=_RAY_TABLE_CACHE_SIZE, typed=True)
def _ray_table(domain: StarShaped2D, center: tuple, order: int):
    """``Domain.ray_table`` about ``center``, a float tuple, with read-only
    arrays and ``extras`` mapping each re-entered ray to a tuple of
    (enter, exit) tuples.

    Fill it through ``computed_once``, so each table is built once however
    many threads ask.  ``typed`` keeps a float order, which fails to build
    a rule, from hitting an int order's table.
    """
    dirs, w_ang, t, extras = Domain.ray_table(domain, np.array(center), order)
    extras = MappingProxyType({i: tuple(segments) for i, segments in extras.items()})
    return (*_frozen(dirs, w_ang, t), extras)


def composite_volume_rule(
    domain: Domain,
    order: int,
    center,
    kernel_power: float = 0.0,
    log_kernel: bool = False,
    holes=(),
    angular_order: int | None = None,
) -> VolumeQuadrature:
    """Polar rule about ``center`` covering the whole domain, with optional
    hole excision and per-hole polar blocks.

    The main block has ``order`` radial nodes per interval and the angular
    rule of ``angular_order``, by default ``order``.  ``holes`` is a
    sequence of (point, radius, power) triples: each ball is removed from
    the main rule's rays and re-integrated by a polar block of its own,
    whose radial rule is matched to integrands behaving like rho^power
    about the hole center.  A hole's integrand is analytic out to twice its
    radius, so its block takes ``min(order, HOLE_ORDER)`` radial nodes per
    ray and the angular rule of that order.

    The rule keeps only the ``PolarPlan`` of each block; its nodes are
    generated when it integrates.  The node budget is checked here all the
    same: it bounds the work of every integral on the rule.
    """
    if domain.dim not in (2, 3):
        raise DimensionError(f"quadrature rules exist for N in {{2, 3}}, got N={domain.dim}")
    if order < 4:
        raise ParameterError(f"volume rules need order >= 4, got {order}")
    if angular_order is not None and angular_order < 4:
        raise ParameterError(f"volume rules need an angular order >= 4, got {angular_order}")
    # copies: the plans keep the centers, and nodes are generated later
    center = as_point(center, domain.dim).copy()
    dirs, w_ang, t, extras = domain.ray_table(center, order if angular_order is None else angular_order)
    holes = [(as_point(hc, domain.dim).copy(), float(hr), float(hp)) for hc, hr, hp in holes]
    # (center, directions, angular weights, interval table, radial nodes,
    # radial power, log kernel) of the main block, then of each hole's block
    table = _interval_table(center, dirs, t, extras, holes)
    blocks = [(center, dirs, w_ang, table, order, float(kernel_power), log_kernel)]
    if holes:
        n_hole = min(order, HOLE_ORDER)
        hdirs, hw_ang = angular_rule(domain.dim, n_hole)
    for hc, hr, hp in holes:
        table = _interval_table(hc, hdirs, np.full(len(hdirs), hr), {}, ())
        blocks.append((hc, hdirs, hw_ang, table, n_hole, hp, False))
    count = sum(len(block[3][0]) * block[4] for block in blocks)
    if count > max_nodes_budget():
        raise BudgetError(
            f"volume rule would use {count} nodes, over the budget "
            f"{max_nodes_budget()}; lower the order or raise LAYERPOT_MAX_NODES"
        )
    return VolumeQuadrature(tuple(_polar_plan(*block) for block in blocks))


def volume_rule(domain: Domain, order: int) -> VolumeQuadrature:
    """Polar rule about the domain center for integrands smooth on the domain."""
    return composite_volume_rule(domain, order, domain.center, kernel_power=0.0)
