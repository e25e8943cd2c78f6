"""Tests for domains, classification, and quadrature rules."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import layerpot as lp
from layerpot import geometry
from layerpot.errors import (
    BudgetError,
    DimensionError,
    ParameterError,
    PlacementError,
)
from layerpot.fields import _singular_rule
from layerpot.geometry import (
    VOLUME_BLOCK,
    _interval_table,
    angular_rule,
    escalated_order,
    gauss_jacobi_01,
    weighted_sum,
)
from layerpot.harness import cli
from layerpot.kernel import row_dots


def unit_disk():
    return lp.Ball([0.0, 0.0], 1.0)


def unit_ball3():
    return lp.Ball([0.0, 0.0, 0.0], 1.0)


def star_domain():
    return lp.StarShaped2D(
        lambda th: 1.0 + 0.25 * np.cos(3 * th),
        radius_d1=lambda th: -0.75 * np.sin(3 * th),
        radius_d2=lambda th: -2.25 * np.cos(3 * th),
    )


def test_point_validation():
    p = lp.as_point([1, 2])
    assert p.dtype == float and p.shape == (2,)
    with pytest.raises(DimensionError):
        lp.as_point([1.0])
    with pytest.raises(DimensionError):
        lp.as_point([1.0, 2.0], dim=3)
    with pytest.raises(ParameterError):
        lp.as_point([np.nan, 1.0])


def test_weighted_sum_is_accurate_and_checks_shapes():
    rng = np.random.default_rng(3)
    w, v = rng.uniform(0.0, 1.0, 100_003), rng.normal(size=100_003)
    # a pairwise sum errs by about log2(m) roundings of sum |w v| at most
    exact = math.fsum(w * v)
    assert abs(weighted_sum(w, v) - exact) <= 20 * np.finfo(float).eps * np.sum(np.abs(w * v))
    with pytest.raises(ValueError):
        weighted_sum(w, v[:-1])
    with pytest.raises(ValueError):
        weighted_sum(w, 1.0)


def cauchy_ratio(x):
    """x1 / x2: heavy-tailed on normal nodes, so any change of summation
    order shows in the last bits."""
    return x[:, 0] / x[:, 1]


def random_source(count):
    """Read-only random nodes and weights, and a block source over them as
    ``_block_sum`` reads a rule."""
    rng = np.random.default_rng(count)
    nodes, weights = geometry._frozen(rng.normal(size=(count, 3)), rng.uniform(0.0, 1.0, count))
    return nodes, weights, lambda lo, hi: (nodes[lo:hi], weights[lo:hi])


@pytest.mark.parametrize(
    "count", [VOLUME_BLOCK - 1, VOLUME_BLOCK, VOLUME_BLOCK + 1, 3 * VOLUME_BLOCK + 5]
)
def test_block_sum_has_the_bits_of_one_weighted_sum(count):
    # guards the mirrored pairwise split against a numpy that splits otherwise
    nodes, weights, source = random_source(count)
    assert geometry._block_sum(source, cauchy_ratio, 0, count) == weighted_sum(weights, cauchy_ratio(nodes))


def test_block_sum_on_a_3d_rule_with_a_hole():
    # order 80: the hole's block is smaller than the main block, and the
    # rule must still span more than 30 blocks
    rule = lp.composite_volume_rule(unit_ball3(), 80, [0.0, 0.0, 0.0], holes=[([0.4, 0.1, 0.0], 0.2, 0.0)])
    nodes, weights = rule.nodes, rule.weights
    assert len(weights) == rule.count > 30 * VOLUME_BLOCK

    def heavy(x):
        # Cauchy-like: tan of a phase spread over many periods
        return np.tan(1e3 * x[:, 0] + x[:, 1])

    whole = weighted_sum(weights, heavy(nodes))
    assert rule.integrate(heavy) == whole
    # the test can see an order change: summing the blocks one after another
    # gives other bits
    blocks = range(0, len(weights), VOLUME_BLOCK)
    serial = sum(weighted_sum(weights[i : i + VOLUME_BLOCK], heavy(nodes[i : i + VOLUME_BLOCK])) for i in blocks)
    assert serial != whole


def test_integrand_sees_every_node_once_in_bounded_blocks():
    count = 3 * VOLUME_BLOCK + 5
    nodes, _, source = random_source(count)
    seen = []

    def spy(x):
        seen.append(x.copy())
        return x[:, 0]

    geometry._block_sum(source, spy, 0, count)
    assert max(len(block) for block in seen) <= VOLUME_BLOCK
    np.testing.assert_array_equal(np.concatenate(seen), nodes)


def streamed_rule(name):
    if name == "disk-two-holes":
        holes = [([-0.4, 0.0], 0.2, 0.0), ([0.5, 0.3], 0.1, -1.0)]
        return lp.composite_volume_rule(unit_disk(), 36, [0.1, 0.0], holes=holes)
    if name == "ball3-hole":
        holes = [([0.4, 0.1, 0.0], 0.2, 0.0)]
        return lp.composite_volume_rule(unit_ball3(), 14, [0.0, 0.1, 0.0], kernel_power=-2.0, holes=holes)
    star = star_domain()
    z = star.boundary_point(0.9)
    origin = z - 0.01 * star.outward_normal(z)  # rays from here re-enter
    assert star.ray_table(origin, 44)[3]
    return lp.composite_volume_rule(star, 44, origin, kernel_power=-1.0)


@pytest.mark.parametrize("name", ["disk-two-holes", "ball3-hole", "star-reentrant"])
def test_streamed_blocks_have_the_bits_of_the_whole_rule(name, monkeypatch):
    # runs of 3000 nodes split the rules' intervals, and 1000-node blocks
    # split the runs: every block is read-only and has the bits of the rule
    # generated whole
    monkeypatch.setattr(geometry, "VOLUME_BLOCK", 1000)
    monkeypatch.setattr(geometry, "GENERATE_RUN", 3000)
    rule = streamed_rule(name)
    assert rule.count > 2 * 3000 and 3000 % rule.order  # runs end inside intervals
    node_blocks, weight_blocks = [], []
    summed = geometry.weighted_sum

    def recording_sum(weights, values):
        weight_blocks.append(weights)
        return summed(weights, values)

    def spy(x):
        node_blocks.append(x)
        return x[:, 0]

    monkeypatch.setattr(geometry, "weighted_sum", recording_sum)
    rule.integrate(spy)
    assert max(map(len, node_blocks)) <= 1000
    for block in node_blocks + weight_blocks:
        assert not block.flags.writeable
    whole = rule.nodes, rule.weights
    for streamed, full in zip((node_blocks, weight_blocks), whole):
        assert np.concatenate(streamed).tobytes() == full.tobytes()
    runs = list(rule.runs())
    assert max(len(w) for _, w in runs) <= 3000
    for k, full in enumerate(whole):
        assert np.concatenate([run[k] for run in runs]).tobytes() == full.tobytes()


@pytest.mark.parametrize("name", ["disk-two-holes", "ball3-hole", "star-reentrant"])
def test_ray_form_has_the_bits_of_one_weighted_sum(name, monkeypatch):
    # small runs and blocks split the main block's rays, and a leaf may
    # straddle its end; the ray sum must have the bits of one weighted_sum
    # over the whole rule, every leaf must get its own nodes' directions,
    # and the main block's ray weights are its volume weights times rho^(1-N)
    monkeypatch.setattr(geometry, "VOLUME_BLOCK", 1000)
    monkeypatch.setattr(geometry, "GENERATE_RUN", 3000)
    rule = streamed_rule(name)
    c, main = rule.plans[0].center, len(rule.plans[0].ray) * rule.order
    seen = []

    def along(x, theta):
        seen.append(len(x))
        offsets = x - c
        np.testing.assert_allclose(offsets, np.linalg.norm(offsets, axis=1)[:, None] * theta, rtol=0, atol=1e-15)
        return np.cos(3.0 * x[:, 0]) * theta[:, 1] + x[:, 1]

    def rest(x):
        return np.sin(x[:, 0] + 2.0 * x[:, 1])

    nodes, weights, theta = rule._generate(0, rule.count, rays=True)
    plan = rule.plans[0]
    assert theta.tobytes() == np.repeat(plan.dirs[plan.ray], rule.order, axis=0).tobytes()
    values = np.concatenate([along(nodes[:main], theta), rest(nodes[main:])])
    seen.clear()
    assert rule.integrate_rays(along, rest) == weighted_sum(weights, values)
    assert sum(seen) == main and max(seen) <= 1000
    # rho taken back from the nodes is exact only to |c| eps
    rho, volume = np.linalg.norm(nodes[:main] - c, axis=1), rule.weights[:main]
    np.testing.assert_allclose(weights[:main] * rho ** (rule.dim - 1), volume, rtol=1e-13, atol=1e-13 * volume.max())
    assert weights[main:].tobytes() == rule.weights[main:].tobytes()


def test_nested_integrals_match_one_weighted_sum_each(monkeypatch):
    # the F2 pattern: the outer integrand integrates an inner rule at each
    # of its nodes, so runs of the two rules are alive at the same time
    monkeypatch.setattr(geometry, "VOLUME_BLOCK", 128)
    monkeypatch.setattr(geometry, "GENERATE_RUN", 512)
    outer = lp.volume_rule(unit_disk(), 12)
    inner = lp.composite_volume_rule(unit_disk(), 16, [0.2, 0.1], kernel_power=-1.0, holes=[([-0.4, 0.0], 0.3, 0.0)])
    assert outer.count > 128 and inner.count > 2 * 512

    def kernel(x, y):
        return np.cos(3.0 * x[:, 0] - y[0]) * np.exp(x[:, 1] * y[1])

    nested = outer.integrate(lambda ys: [inner.integrate(lambda x: kernel(x, y)) for y in ys])
    inner_nodes, inner_weights = inner.nodes, inner.weights
    reference = weighted_sum(outer.weights, [weighted_sum(inner_weights, kernel(inner_nodes, y)) for y in outer.nodes])
    assert nested == reference


def test_volume_rule_arrays_are_read_only():
    # integrands get views into the rule: one that writes into its block
    # must fail without touching the rule
    rule = lp.composite_volume_rule(unit_disk(), 16, [0.1, 0.0], holes=[([-0.4, 0.0], 0.2, 0.0)])
    nodes, weights = rule.nodes.copy(), rule.weights.copy()

    def vandal(x):
        x[:, 0] = 0.0
        return x[:, 1]

    with pytest.raises(ValueError):
        rule.integrate(vandal)
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0
    np.testing.assert_array_equal(rule.nodes, nodes)
    np.testing.assert_array_equal(rule.weights, weights)


def test_volume_integrand_memory_does_not_grow_with_the_rule():
    # distance(0)'s rule about an off-center target: a million nodes with a hole
    f = lp.catalog("distance", [0.0, 0.0, 0.0])
    y = np.array([0.5, 0.0, 0.0])
    rule = _singular_rule(f, unit_ball3(), 80, y, kernel_power=-2.0)
    assert len(rule.weights) > 10**6
    tracemalloc.start()
    try:
        rule.integrate(lambda x: row_dots(f.gradient(x), x - y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (rule.nodes.nbytes + rule.weights.nbytes) / 8


def test_building_and_integrating_a_rule_holds_a_fraction_of_its_nodes():
    # the rule keeps only its plans, and integrate generates its nodes run
    # by run: neither step holds an array as long as the rule
    f = lp.catalog("distance", [0.0, 0.0, 0.0])
    y = np.array([0.5, 0.0, 0.0])
    tracemalloc.start()
    try:
        rule = _singular_rule(f, unit_ball3(), 80, y, kernel_power=-2.0)
        rule.integrate(lambda x: row_dots(f.gradient(x), x - y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    materialised = rule.count * (rule.dim + 1) * np.dtype(float).itemsize
    assert rule.count > 10**6
    assert peak < materialised / 4


def _monomial_errors(n, beta):
    # relative error of each monomial moment the rule must integrate exactly
    x, w = gauss_jacobi_01(n, beta)
    assert np.all(np.diff(x) > 0) and x[0] > 0.0 and x[-1] < 1.0, (n, beta)
    assert np.all(w > 0.0), (n, beta)
    return [abs(w @ x**k * (beta + k + 1) - 1.0) for k in range(min(2 * n, 60))]


def test_gauss_jacobi_weight_exactness():
    # rule with weight rho^beta integrates monomials exactly; the second
    # tolerance is beta = -0.9's: near rho = 0, where a weight with beta < 0
    # is singular, the recurrence loses about n^(2|beta|) roundings
    for n, rel, rel_singular in ((1, 1e-15, 1e-15), (2, 2e-15, 2e-15), (12, 1e-14, 5e-14), (128, 3e-14, 1e-12), (512, 5e-14, 3e-11)):
        for beta in (-0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
            assert max(_monomial_errors(n, beta)) <= (rel_singular if beta < -0.5 else rel), (n, beta)


def test_gauss_jacobi_rules_for_large_exponents():
    # Gatteschi's guesses stray by more than a node spacing here, so
    # nodes are bisected until each bracket holds one root
    for beta in (12.0, 20.0, 50.0, 100.0):
        for n in (3, 9, 17, 64):
            assert max(_monomial_errors(n, beta)) <= 1e-13, (n, beta)


def test_gauss_rules_need_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigenvalue solver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    geometry._gauss_rule.cache_clear()
    try:
        for n in (1, 2, 96, 128, 512):
            for beta in (-0.9, -0.5, 0.0, 1.0, 2.0, 3.0, 5.0):
                x, w = gauss_jacobi_01(n, beta)
                assert len(x) == n and w.sum() == pytest.approx(1.0 / (beta + 1.0), rel=1e-10), (n, beta)
    finally:
        geometry._gauss_rule.cache_clear()


def test_gauss_rule_memory_does_not_grow_like_a_dense_matrix():
    # a dense 2048 x 2048 Jacobi matrix alone would take 33 MB
    geometry._gauss_rule.cache_clear()
    tracemalloc.start()
    try:
        gauss_jacobi_01(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        geometry._gauss_rule.cache_clear()
    assert peak < 1 << 20


def test_gauss_rule_is_built_once_for_concurrent_requests(monkeypatch):
    builds, start = [], threading.Barrier(8)
    build = geometry._gauss_jacobi

    def slow_build(n, beta):
        builds.append((n, beta))
        time.sleep(0.05)  # long enough for every thread to ask meanwhile
        return build(n, beta)

    def request(_):
        start.wait(timeout=10)
        return gauss_jacobi_01(37, 0.375)

    monkeypatch.setattr(geometry, "_gauss_jacobi", slow_build)
    geometry._gauss_rule.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            rules = list(pool.map(request, range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
        geometry._gauss_rule.cache_clear()
    assert builds == [(37, 0.375)]
    assert all(rule[0] is rules[0][0] for rule in rules)


def test_gauss_solver_raises_instead_of_returning_unresolved_nodes(monkeypatch):
    monkeypatch.setattr(geometry, "_NODE_SWEEPS", 1)
    with pytest.raises(ParameterError, match="nodes unresolved after 1 sweeps"):
        geometry._gauss_jacobi(64, 0.5)


@pytest.mark.parametrize("beta", [-1.0, -2.0, math.nan, math.inf, -math.inf])
def test_gauss_jacobi_rejects_a_bad_exponent(beta):
    with pytest.raises(ParameterError, match="finite and exceed -1"):
        gauss_jacobi_01(4, beta)


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, "4", None])
def test_gauss_jacobi_rejects_a_bad_node_count(n, beta):
    with pytest.raises(ParameterError, match="integer number of nodes"):
        gauss_jacobi_01(n, beta)


def test_circle_rule_weight_sum():
    rule = unit_disk().boundary_rule(64)
    assert rule.weights.sum() == pytest.approx(2 * math.pi, abs=1e-12)
    np.testing.assert_allclose(np.linalg.norm(rule.normals, axis=1), 1.0, atol=1e-12)


def test_disk_boundary_rules_of_one_order_share_read_only_normals():
    # 2-D ball rules take their directions from a cache, as polar rules
    # do; the nodes and weights scale them, so each rule has its own
    a, b = unit_disk().boundary_rule(128), lp.Ball([0.5, -1.0], 2.0).boundary_rule(128)
    assert a.normals is b.normals
    with pytest.raises(ValueError):
        a.normals[0, 0] = 0.0
    assert a.nodes is not b.nodes and a.weights is not b.weights
    np.testing.assert_array_equal(b.nodes, [0.5, -1.0] + 2.0 * a.normals)
    assert unit_disk().boundary_rule(96).normals is not a.normals


def test_sphere_rule_weight_sum():
    rule = unit_ball3().boundary_rule(32)
    assert rule.weights.sum() == pytest.approx(4 * math.pi, abs=1e-10)
    # normals exact for balls
    np.testing.assert_allclose(rule.normals, rule.nodes, atol=1e-14)


def test_degenerate_star_matches_circle():
    star = lp.StarShaped2D(
        lambda th: np.ones_like(th),
        radius_d1=lambda th: np.zeros_like(th),
        radius_d2=lambda th: np.zeros_like(th),
    )
    a = star.boundary_rule(64)
    b = unit_disk().boundary_rule(64)
    np.testing.assert_allclose(a.nodes, b.nodes, atol=1e-14)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-14)


@pytest.mark.parametrize(
    "domain, center",
    [(unit_disk(), [0.3, -0.2]), (star_domain(), [0.1, 0.05]), (unit_ball3(), [0.2, -0.1, 0.3])],
    ids=["disk", "star", "ball"],
)
def test_ray_sums_of_a_harmonic_gradient_are_its_boundary_differences(domain, center):
    # along the ray c + rho theta, <theta, grad h> = dh/drho, and the ray
    # weights are Gauss-Legendre in rho on [0, T(theta)], exact for the
    # polynomial h; so the ray sums are sum_theta w_theta (h(c + T theta) - h(c)),
    # and the gradient volume integral about c is that over omega_N
    h = lp.catalog("harmonic_poly", 3) if domain.dim == 2 else lp.catalog("harmonic_poly", 2, dim=3)
    c = np.array(center)
    order = 24
    rule = lp.composite_volume_rule(domain, order, c, kernel_power=float(1 - domain.dim))
    dirs, w_ang, t, extras = domain.ray_table(c, order)
    assert not extras and len(rule.plans) == 1
    differences = w_ang * (h.evaluate(c + t[:, None] * dirs) - h.evaluate(c))
    oracle, scale = differences.sum(), np.abs(differences).sum()

    def no_hole(x):
        raise AssertionError("a rule without holes has no node off its main block")

    rays = rule.integrate_rays(lambda x, theta: row_dots(theta, h.gradient(x)), no_hole)
    assert abs(rays - oracle) <= 1e-14 * scale, (rays, oracle)
    omega = lp.sphere_area(domain.dim)
    assert abs(lp.gradient_volume_integral(h, domain, c, order) - oracle / omega) <= 1e-14 * scale / omega


def test_volume_rule_measures():
    disk = unit_disk()
    assert lp.volume_rule(disk, 64).weights.sum() == pytest.approx(math.pi, abs=1e-10)
    ball = unit_ball3()
    assert lp.volume_rule(ball, 24).weights.sum() == pytest.approx(4 * math.pi / 3, abs=1e-10)


def test_polar_centered_integrates_kernel_power():
    disk = unit_disk()
    rule = lp.composite_volume_rule(disk, 64, [0.0, 0.0], kernel_power=-1.0)
    assert rule.integrate(lambda x: 1.0 / np.linalg.norm(x, axis=1)) == pytest.approx(2 * math.pi, abs=1e-8)
    ball = unit_ball3()
    rule = lp.composite_volume_rule(ball, 24, [0.0, 0.0, 0.0], kernel_power=-2.0)
    assert rule.integrate(lambda x: 1.0 / np.linalg.norm(x, axis=1) ** 2) == pytest.approx(4 * math.pi, abs=1e-8)


def test_polar_centered_never_places_node_at_target():
    target = np.array([0.3, -0.1])
    rule = lp.composite_volume_rule(unit_disk(), 32, target, kernel_power=-1.0)
    assert np.min(np.linalg.norm(rule.nodes - target, axis=1)) > 1e-8
    assert rule.weights.sum() == pytest.approx(math.pi, abs=1e-9)


def test_polar_centered_rejects_bad_targets():
    disk = unit_disk()
    with pytest.raises(PlacementError):
        lp.composite_volume_rule(disk, 32, [1.0, 0.0], kernel_power=-1.0)
    with pytest.raises(PlacementError):
        lp.composite_volume_rule(disk, 32, [2.0, 0.0], kernel_power=-1.0)


@pytest.mark.parametrize("domain", [unit_disk(), unit_ball3(), star_domain()])
def test_divergence_identity(domain):
    # field Z(x) = x: volume integral of div Z equals the boundary flux
    order = 64 if domain.dim == 2 else 48
    vrule = lp.volume_rule(domain, order)
    brule = domain.boundary_rule(order)
    lhs = domain.dim * vrule.weights.sum()
    rhs = brule.weights @ np.einsum("ij,ij->i", brule.nodes, brule.normals)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_refinement_reduces_measure_error():
    star = lp.StarShaped2D(
        lambda th: 1.0 / (1.0 + 0.3 * np.cos(th)),
        radius_d1=lambda th: 0.3 * np.sin(th) / (1.0 + 0.3 * np.cos(th)) ** 2,
        radius_d2=lambda th: 0.3 * np.cos(th) / (1.0 + 0.3 * np.cos(th)) ** 2
        + 0.18 * np.sin(th) ** 2 / (1.0 + 0.3 * np.cos(th)) ** 3,
    )
    exact = math.pi / (1 - 0.09) ** 1.5
    errs = [abs(lp.volume_rule(star, n).weights.sum() - exact) for n in (4, 8)]
    assert errs[1] <= errs[0] / 4.0


def test_boundary_weight_sum_converges_under_refinement():
    star = star_domain()
    errs = [abs(star.boundary_rule(n).weights.sum() - star.surface_measure) for n in (8, 16)]
    assert errs[1] <= errs[0] / 4.0 or errs[1] < 1e-13


def test_star_measures_and_normals():
    star = star_domain()
    rule = star.boundary_rule(64)
    np.testing.assert_allclose(np.linalg.norm(rule.normals, axis=1), 1.0, atol=1e-12)
    assert rule.weights.sum() == pytest.approx(star.surface_measure, rel=1e-12)
    # area of r = 1 + eps cos(3 theta) is pi (1 + eps^2 / 2)
    assert star.volume_measure == pytest.approx(math.pi * (1 + 0.25**2 / 2), rel=1e-12)


@pytest.mark.parametrize("theta", [0.7, 2.9, (1000 + 0.5) * 2 * math.pi / 4096])
@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["interior", "exterior"])
def test_star_boundary_distance_is_exact_between_grid_points(theta, side):
    # 1e-3 along the normal from a boundary point, between two of the
    # cached boundary points, which alone are further away
    star = star_domain()
    z = star.boundary_point(theta)
    y = z + side * 1e-3 * star.outward_normal(z)
    assert star.boundary_distance(y) == pytest.approx(1e-3, rel=1e-10)


def test_star_ray_exit_lands_on_boundary():
    star = star_domain()
    dirs = np.column_stack([np.cos([0.3, 2.1, 4.0]), np.sin([0.3, 2.1, 4.0])])
    t, _ = star.ray_segments([0.1, -0.2], dirs)
    for ti, d in zip(t, dirs):
        assert star.classify([0.1, -0.2] + ti * d) == "boundary"


def test_classification_tolerance():
    disk = unit_disk()
    assert disk.classify([0.5, 0.0]) == "interior"
    assert disk.classify([1.0, 0.0]) == "boundary"
    assert disk.classify([1.0 + 1e-14, 0.0]) == "boundary"
    assert disk.classify([1.0 + 1e-9, 0.0]) == "exterior"
    assert disk.classify([2.0, 0.0]) == "exterior"


def test_ball_normal_formula():
    ball = lp.Ball([1.0, -2.0], 3.0)
    x = np.array([4.0, -2.0])
    np.testing.assert_allclose(ball.outward_normal(x), [1.0, 0.0], atol=1e-15)


def test_quadrature_dimension_guard():
    ball4 = lp.Ball([0.0, 0.0, 0.0, 0.0], 1.0)
    # constants work in any dimension, quadrature does not
    assert ball4.volume_measure == pytest.approx(math.pi**2 / 2, rel=1e-14)
    with pytest.raises(DimensionError):
        ball4.boundary_rule(16)
    with pytest.raises(DimensionError):
        lp.volume_rule(ball4, 16)


def test_order_floor():
    with pytest.raises(ParameterError):
        unit_disk().boundary_rule(3)
    with pytest.raises(ParameterError):
        lp.volume_rule(unit_disk(), 2)


def test_escalation_policy_warns_and_resolves():
    disk = unit_disk()
    eff, note = escalated_order(disk, 64, [0.98, 0.0])
    assert eff > 64 and note is not None
    eff, note = escalated_order(disk, 64, [0.5, 0.0])
    assert eff == 64 and note is None


def test_node_budget(monkeypatch):
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "500")
    with pytest.raises(BudgetError):
        lp.volume_rule(unit_disk(), 64)


def test_node_budget_is_checked_before_the_rule_is_built(monkeypatch):
    # the 3-D order-64 rule has 524,288 nodes; refusing it must not first
    # allocate even one of its coordinate columns
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="524288 nodes"):
            lp.volume_rule(lp.Ball([0.0, 0.0, 0.0], 1.0), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 524288 * 8


def test_invalid_budget(monkeypatch):
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "zero")
    with pytest.raises(ParameterError):
        lp.volume_rule(unit_disk(), 16)


def test_star_requires_positive_radius():
    with pytest.raises(ParameterError):
        lp.StarShaped2D(lambda th: np.cos(th), radius_d1=lambda th: -np.sin(th), radius_d2=lambda th: -np.cos(th))


def test_ball_requires_positive_radius():
    with pytest.raises(ParameterError):
        lp.Ball([0.0, 0.0], -1.0)


def test_ray_segments_cover_reentrant_chords():
    # rays from a point near a concave boundary section exit and re-enter;
    # the covered intervals must still reproduce the full area
    star = star_domain()
    z = star.boundary_point(0.9)
    origin = z - 0.01 * star.outward_normal(z)
    rule = lp.composite_volume_rule(star, 128, origin)
    assert rule.weights.sum() == pytest.approx(star.volume_measure, abs=5e-3)
    # and for a well-centered origin the segments stay single and exact
    dirs = np.column_stack([np.cos(np.linspace(0, 6, 7)), np.sin(np.linspace(0, 6, 7))])
    t, extras = star.ray_segments([0.0, 0.0], dirs)
    assert extras == {}
    th = np.arctan2(dirs[:, 1], dirs[:, 0])
    np.testing.assert_allclose(t, 1.0 + 0.25 * np.cos(3 * th), atol=1e-12)


def _nodes_in_ball(rule, center, radius):
    return int(np.sum(np.linalg.norm(rule.nodes - np.asarray(center), axis=1) < radius))


def test_hole_on_reentered_chord():
    # a hole on a re-entered segment is cut out of that segment only and
    # re-covered by its own block: 2 HOLE_ORDER rays of HOLE_ORDER nodes
    # each at order 64
    star = star_domain()
    z = star.boundary_point(0.9)
    origin = z - 0.01 * star.outward_normal(z)
    order = 64
    dirs, _ = angular_rule(2, order * star.angular_oversampling)
    _, extras = star.ray_segments(origin, dirs)
    ray, segments = next(iter(extras.items()))
    enter, leave = segments[0]
    mid = origin + 0.5 * (enter + leave) * dirs[ray]
    radius = 0.5 * star.boundary_distance(mid)
    rule = lp.composite_volume_rule(star, order, origin, holes=[(mid, radius, 0.0)])
    assert _nodes_in_ball(rule, mid, radius) == 2 * geometry.HOLE_ORDER**2
    assert rule.weights.sum() == pytest.approx(star.volume_measure, abs=1e-4)


@pytest.mark.parametrize("order", [32, 64])
def test_touching_holes(order):
    # two holes touching at (0.4, 0): on the ray along the x-axis their
    # chords meet and merge, and each hole still holds only its own block
    holes = [([0.3, 0.0], 0.1, 0.0), ([0.5, 0.0], 0.1, 0.0)]
    rule = lp.composite_volume_rule(unit_disk(), order, [0.0, 0.0], holes=holes)
    n_hole = min(order, geometry.HOLE_ORDER)  # radial nodes and half the rays
    for center, radius, _ in holes:
        assert _nodes_in_ball(rule, center, radius) == 2 * n_hole * n_hole
    assert rule.weights.sum() == pytest.approx(math.pi, abs=1e-3)


def subtract_intervals(segments, cuts):
    """Set difference of interval lists: segments minus the (merged) cuts."""
    if not cuts:
        return [(a, b) for a, b in segments if b - a > 1e-15]
    cuts = sorted(cuts)
    merged = [list(cuts[0])]
    for lo, hi in cuts[1:]:
        if lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out = []
    for a, b in segments:
        pieces = [(a, b)]
        for lo, hi in merged:
            nxt = []
            for pa, pb in pieces:
                if hi <= pa or lo >= pb:
                    nxt.append((pa, pb))
                    continue
                if lo > pa:
                    nxt.append((pa, lo))
                if hi < pb:
                    nxt.append((hi, pb))
            pieces = nxt
        out.extend(pieces)
    return [(a, b) for a, b in out if b - a > 1e-15]


def loop_interval_table(center, dirs, t, extras, holes):
    """Per-ray loop reference for the vectorised interval table."""
    cuts = [[] for _ in dirs]
    for hc, hr, _ in holes:
        v = hc - center
        proj = dirs @ v
        disc = proj**2 - float(v @ v) + hr**2
        for i in np.nonzero(disc > 0.0)[0]:
            sq = math.sqrt(disc[i])
            lo, hi = max(proj[i] - sq, 0.0), proj[i] + sq
            if hi > lo + 1e-15:
                cuts[i].append((lo, hi))
    plain, other = [], []
    for i in range(len(dirs)):
        pieces = subtract_intervals([(0.0, t[i])] + extras.get(i, []), cuts[i])
        (other if cuts[i] or i in extras else plain).extend((i, a, b) for a, b in pieces)
    return tuple(np.array(column) for column in zip(*(plain + other)))


@pytest.mark.parametrize("domain", [unit_disk(), unit_ball3(), star_domain()])
def test_interval_table_matches_loop_reference(domain):
    # origins close to the boundary give re-entrant rays on the star; holes
    # may overlap here, so that their chords merge
    rng = np.random.default_rng(11)
    dirs, _ = angular_rule(domain.dim, 16 * domain.angular_oversampling)
    for _ in range(20):
        u = rng.normal(size=domain.dim)
        u /= np.linalg.norm(u)
        exit_length, _ = domain.ray_segments(domain.center, u[None, :])
        origin = domain.center + (exit_length[0] - rng.choice([0.01, 0.3])) * u
        t, extras = domain.ray_segments(origin, dirs)
        holes = []
        for _ in range(rng.integers(1, 5)):
            ray = rng.choice(list(extras)) if extras and rng.random() < 0.5 else rng.integers(len(dirs))
            start, end = ([(0.0, t[ray])] + extras.get(ray, []))[-1]
            a = origin + rng.uniform(start + 0.2 * (end - start), end - 0.2 * (end - start)) * dirs[ray]
            radius = 0.5 * min(np.linalg.norm(a - origin), domain.boundary_distance(a))
            holes.append((a, radius, 0.0))
        # with no hole and no re-entered ray, as in every hole block and
        # plain rule, the table is built directly; a ray of length 0 is
        # dropped, as the general path drops it
        short = t.copy()
        short[0] = 0.0
        # one hole and no re-entered ray, as about most targets, takes a
        # path of its own; a hole around the origin clips every chord's
        # entry to 0
        around = (origin + 0.25 * t.min() * dirs[0], 0.5 * t.min(), 0.0)
        cases = [(t, extras, holes), (t, extras, ()), (t, {}, ()), (short, {}, ())]
        cases += [(t, {}, holes[:1]), (t, {}, holes), (t, {}, [around]), (t, extras, holes + [around])]
        for args in cases:
            got = _interval_table(origin, dirs, *args)
            want = loop_interval_table(origin, dirs, *args)
            for column, expected in zip(got, want):
                np.testing.assert_array_equal(column, expected)


def loop_ray_segments(star, origin, dirs):
    """Independent reference for StarShaped2D.ray_segments, found from the
    ray side: a march of 512 points along each ray and 48 bisection steps
    on each crossing, on (rays, grid, 2) arrays, then each ray's crossings
    regrouped and sorted one ray at a time.  It misses re-entered slivers
    shorter than its step."""
    t_max = float(np.linalg.norm(origin - star.center)) + 2.05 * star._r_max
    grid = np.linspace(0.0, t_max, 512)
    rel = origin[None, None, :] + grid[None, :, None] * dirs[:, None, :] - star.center
    g = np.linalg.norm(rel, axis=2) - star._r(np.arctan2(rel[..., 1], rel[..., 0]))
    inside = g < 0.0
    inside[:, 0] = True
    ray_idx, grid_idx = np.nonzero(inside[:, :-1] != inside[:, 1:])
    lo, hi = grid[grid_idx].copy(), grid[grid_idx + 1].copy()
    g_lo = g[ray_idx, grid_idx]
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        relm = origin[None, :] + mid[:, None] * dirs[ray_idx] - star.center
        gm = np.linalg.norm(relm, axis=1) - star._r(np.arctan2(relm[:, 1], relm[:, 0]))
        same = (gm < 0.0) == (g_lo < 0.0)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    crossings = 0.5 * (lo + hi)
    t_first = np.full(len(dirs), np.nan)
    extras = {}
    for i in range(len(dirs)):
        cs = np.sort(crossings[ray_idx == i])
        t_first[i] = cs[0]
        if cs.size > 2:
            pairs = cs[1:]
            extras[i] = [(float(pairs[k]), float(pairs[k + 1])) for k in range(0, 2 * (pairs.size // 2), 2)]
    return t_first, extras


def five_lobe_star():
    # r from 0.4 to 1.6 about a center off the origin: most rays from the
    # annulus r_min < |o - c| < r_max exit and re-enter
    return lp.StarShaped2D(
        lambda th: 1.0 + 0.6 * np.cos(5 * th),
        center=(0.7, -0.4),
        radius_d1=lambda th: -3.0 * np.sin(5 * th),
        radius_d2=lambda th: -15.0 * np.cos(5 * th),
    )


def annulus_origins(star, count, seed):
    """Interior origins with r_min < |o - c| < r_max: the boundary turns
    back as they see it, and many of their rays exit and re-enter."""
    rng = np.random.default_rng(seed)
    origins = []
    while len(origins) < count:
        theta, rho = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(star._r_min, star._r_max)
        origin = star.center + rho * np.array([math.cos(theta), math.sin(theta)])
        if star.classify(origin) == lp.geometry.INTERIOR:
            origins.append(origin)
    return origins


EPS = np.finfo(float).eps


def assert_matches_loop_reference(star, origin, dirs):
    """ray_segments against the march of loop_ray_segments: the same rays
    re-entered, as many intervals on each, and every endpoint within
    16 eps max(1, t) / |sin psi| of the march's, psi the angle between the
    ray and the boundary where they cross.  Returns the extras."""
    t, extras = star.ray_segments(origin, dirs)
    want_t, want_extras = loop_ray_segments(star, origin, dirs)
    assert extras.keys() == want_extras.keys()
    for i, d in enumerate(dirs):
        assert len(extras.get(i, [])) == len(want_extras.get(i, [])), i
        got = [t[i], *(end for segment in extras.get(i, []) for end in segment)]
        want = [want_t[i], *(end for segment in want_extras.get(i, []) for end in segment)]
        for g, w in zip(got, want):
            x = origin + w * d - star.center
            theta = math.atan2(x[1], x[0])
            radial = np.array([math.cos(theta), math.sin(theta)])
            tangent = float(star._rp(theta)) * radial + float(star._r(theta)) * np.array([-radial[1], radial[0]])
            sin_psi = abs(d[0] * tangent[1] - d[1] * tangent[0]) / np.linalg.norm(tangent)
            assert abs(g - w) <= 16.0 * EPS * max(1.0, w) / sin_psi, (i, g, w)
    return extras


@pytest.mark.parametrize("order", [16, 64, 128])
@pytest.mark.parametrize("reentrant", [True, False])
def test_ray_segments_match_loop_reference(order, reentrant):
    three, five = star_domain(), five_lobe_star()
    if reentrant:
        z = three.boundary_point(0.9)
        cases = [(three, z - 0.01 * three.outward_normal(z)), (three, three.center + [1.1, 0.0])]
        cases += [(star, origin) for star in (three, five) for origin in annulus_origins(star, 3, order)]
    else:
        # each star's own center, and (0.9, 0) in the three-lobe star's
        # annulus, see every ray leave once
        cases = [(three, three.center), (five, five.center), (three, three.center + [0.9, 0.0])]
    found = []
    for star, origin in cases:
        dirs, _ = angular_rule(2, order * star.angular_oversampling)
        found.append(bool(assert_matches_loop_reference(star, origin, dirs)))
    if reentrant:
        assert found[0] and any(found[-3:])
    else:
        assert not any(found)


def test_ray_segments_match_loop_reference_near_a_sharp_dip():
    # a dip of depth 0.5 and width two sampling steps, its bottom between
    # two of the 4096 samples: the samples see it, and the crossings next
    # to its bottom meet a boundary that turns within a few samples
    h = 2.0 * math.pi / 4096
    w, theta0 = 2.0 * h, 0.5 * h

    def dip(th):
        d = np.remainder(th - theta0 + math.pi, 2.0 * math.pi) - math.pi
        return d, 0.5 * np.exp(-d * d / (2.0 * w * w))

    star = lp.StarShaped2D(
        lambda th: 1.0 - dip(th)[1],
        radius_d1=lambda th: dip(th)[0] * dip(th)[1] / w**2,
        radius_d2=lambda th: dip(th)[1] * (1.0 - dip(th)[0] ** 2 / w**2) / w**2,
    )
    assert star._r_min > 0.5 / 0.98
    angles = theta0 + np.linspace(-3.0 * w, 3.0 * w, 41)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    assert assert_matches_loop_reference(star, star.center, dirs) == {}
    t, _ = star.ray_segments(star.center, dirs)
    assert np.min(t) < 0.501


@pytest.mark.parametrize("theta", [0.0, 0.9, 2.0])
@pytest.mark.parametrize("star", [star_domain(), five_lobe_star()], ids=["three", "five"])
def test_ray_segments_from_an_origin_just_inside_the_boundary(star, theta):
    # 1e-9 inside, at the three-lobe star's convex tip (0) and concave
    # waist (0.9): the origin sees the boundary near its foot sweep about
    # pi between two samples, where the rays pointing out leave at once
    z = star.boundary_point(theta)
    normal = star.outward_normal(z)
    origin = z - 1e-9 * normal
    dirs, _ = angular_rule(2, 64 * star.angular_oversampling)
    assert_matches_loop_reference(star, origin, dirs)
    # away from the tangent, rays pointing out leave after 1e-9 / cos, to
    # the rounding of z and of p - o, about 3e-16 each
    t, _ = star.ray_segments(origin, dirs)
    out = dirs @ normal
    np.testing.assert_allclose(t[out > 0.05], 1e-9 / out[out > 0.05], rtol=2e-6)
    assert np.all(t[out < -0.05] > 0.02)


def test_ray_segments_find_gaps_shorter_than_a_march_step():
    # 1e-7 inside a waist of the five-lobe star, rays leaving almost along
    # the boundary come back in within 5e-5 to 6e-3, less than the step of
    # loop_ray_segments' march; every interval's midpoint lies inside the
    # domain and every gap's midpoint outside
    star = five_lobe_star()
    z = star.boundary_point(math.pi / 5.0)
    origin = z - 1e-7 * star.outward_normal(z)
    dirs, _ = angular_rule(2, 64 * star.angular_oversampling)
    t, extras = star.ray_segments(origin, dirs)
    step = (np.linalg.norm(origin - star.center) + 2.05 * star._r_max) / 511
    short = 0
    for i, d in enumerate(dirs):
        segments = [(0.0, t[i]), *extras.get(i, [])]
        for a, b in segments:
            assert star.signed_boundary_distance(origin + 0.5 * (a + b) * d) < 0.0
        for (_, a), (b, _) in zip(segments, segments[1:]):
            assert star.signed_boundary_distance(origin + 0.5 * (a + b) * d) > 0.0
            short += b - a < step
    assert short >= 20


SAMPLE_DIRECTIONS = np.column_stack([np.cos(2.0 * math.pi * np.arange(4096) / 4096), np.sin(2.0 * math.pi * np.arange(4096) / 4096)])


def test_ray_segments_along_the_sample_angles():
    # from off-center origins, rays aimed at the angles 2 pi k / 4096 of
    # the boundary samples (every fourth, to keep the march small)
    dirs = SAMPLE_DIRECTIONS[::4]
    three, five = star_domain(), five_lobe_star()
    z = three.boundary_point(0.9)
    for star, origin in [(three, three.center + [0.3, 0.1]), (three, z - 0.01 * three.outward_normal(z)), (five, five.center + [0.3, 0.1])]:
        assert_matches_loop_reference(star, origin, dirs)


@pytest.mark.parametrize("dirs", [angular_rule(2, 32)[0], angular_rule(2, 256)[0], SAMPLE_DIRECTIONS], ids=["64", "512", "samples"])
def test_ray_segments_from_the_center_match_the_radius(dirs):
    # from its own center a star's boundary crossing along angle theta
    # lies at r(theta); the 4096 sample directions each aim at a sample,
    # which one piece alone may hold.  theta is known to an ulp, over
    # which r moves by |r'| ulp(theta): that adds to the 4 ulps of t
    star = star_domain()
    t, extras = star.ray_segments(star.center, dirs)
    assert extras == {}
    theta = np.arctan2(dirs[:, 1], dirs[:, 0])
    want = star._r(theta)
    assert np.all(np.abs(t - want) <= 4.0 * np.spacing(want) + np.abs(star._rp(theta)) * np.spacing(np.abs(theta)))
    # on the unit circle about the origin the samples lie exactly on the
    # sample directions, so each of those rays passes through a node
    circle = lp.StarShaped2D(np.ones_like, radius_d1=np.zeros_like, radius_d2=np.zeros_like)
    t, extras = circle.ray_segments(circle.center, dirs)
    assert extras == {}
    assert np.all(np.abs(t - 1.0) <= 4.0 * EPS)


@pytest.mark.parametrize("order", [16, 64, 128])
def test_ray_segments_of_a_circle_match_the_ball(order):
    # a constant-radius star is a disk, whose crossings Ball.ray_segments
    # gives in closed form.  The offsets are exact in binary and at most
    # 2/3 of the radius, so t >= R / 3 and the rounding of p - o, about
    # eps R, stays within a few ulps of t
    center, radius = np.array([0.25, -0.125]), 0.75
    circle = lp.StarShaped2D(lambda th: np.full_like(th, radius), center=center, radius_d1=np.zeros_like, radius_d2=np.zeros_like)
    dirs, _ = angular_rule(2, order * circle.angular_oversampling)
    for offset in ([0.0, 0.0], [0.25, 0.125], [-0.375, 0.0625], [0.0, -0.5]):
        t, extras = circle.ray_segments(center + offset, dirs)
        want, _ = lp.Ball(center, radius).ray_segments(center + offset, dirs)
        assert extras == {}
        assert np.all(np.abs(t - want) <= 4.0 * np.spacing(want))


def counted_star(star):
    """A copy of ``star`` whose radius function and derivatives count the
    points they are evaluated at, and the count."""
    seen = [0]

    def counted(fn):
        def count(theta):
            seen[0] += np.size(theta)
            return fn(theta)

        return count

    return lp.StarShaped2D(
        counted(star.radius_fn), star.center, radius_d1=counted(star._d1), radius_d2=counted(star._d2)
    ), seen


@pytest.mark.parametrize(
    "star, theta, order, parent",
    [
        (star_domain(), None, 16, 9984),
        (star_domain(), None, 64, 39936),
        (star_domain(), 0.9, 16, 10502),
        (star_domain(), 0.9, 64, 41720),
        (five_lobe_star(), None, 16, 15424),
        (five_lobe_star(), None, 64, 61696),
        (five_lobe_star(), 0.2, 16, 14264),
        (five_lobe_star(), 0.2, 64, 56570),
    ],
    ids=["three-16", "three-64", "three-reentrant-16", "three-reentrant-64", "five-16", "five-64", "five-reentrant-16", "five-reentrant-64"],
)
def test_ray_table_evaluates_the_boundary_near_its_crossings_only(star, theta, order, parent):
    # radius_fn, r' and r'' points evaluated while one table is built from
    # the center or 0.01 inside the boundary at ``theta``.  ``parent`` is
    # the count of the 512-point march with 48 bisection steps that found
    # the crossings before; the boundary-side search counts 3 (centered)
    # to 6 points per crossing here
    star, seen = counted_star(star)
    origin = star.center
    if theta is not None:
        z = star.boundary_point(theta)
        origin = z - 0.01 * star.outward_normal(z)
    seen[0] = 0
    _, _, t, extras = star.ray_table(origin, order)
    crossings = len(t) + 2 * sum(len(segments) for segments in extras.values())
    assert (theta is not None) == bool(extras)
    assert seen[0] <= 4096 + 16 * crossings
    assert 5 * seen[0] <= parent


def counted_ray_segments(monkeypatch, delay=0.0):
    """Patch StarShaped2D.ray_segments to record each call's origin."""
    calls, build = [], lp.StarShaped2D.ray_segments

    def counted(star, origin, dirs):
        calls.append(tuple(origin))
        time.sleep(delay)
        return build(star, origin, dirs)

    monkeypatch.setattr(lp.StarShaped2D, "ray_segments", counted)
    return calls


def test_rules_about_one_center_share_one_ray_table(monkeypatch):
    calls = counted_ray_segments(monkeypatch)
    star, center = star_domain(), np.array([0.1, 0.2])
    lp.composite_volume_rule(star, 16, center)
    lp.composite_volume_rule(star, 16, center, kernel_power=-1.0, holes=[([0.5, 0.1], 0.1, 0.0)])
    assert calls == [(0.1, 0.2)]
    lp.composite_volume_rule(star, 32, center)
    lp.composite_volume_rule(star, 16, [0.1, 0.25])
    assert len(calls) == 3
    # ball rays come in closed form: ball rules keep no table
    kept = geometry._ray_table.cache_info().currsize
    lp.composite_volume_rule(lp.Ball([0.0, 0.0], 1.0), 16, center)
    assert geometry._ray_table.cache_info().currsize == kept


def test_cached_ray_tables_are_read_only():
    star = star_domain()
    z = star.boundary_point(0.9)
    origin = z - 0.01 * star.outward_normal(z)
    dirs, w_ang, t, extras = star.ray_table(origin, 16)
    assert extras
    for arr in (dirs, w_ang, t):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    ray, segments = next(iter(extras.items()))
    assert isinstance(segments, tuple) and all(isinstance(seg, tuple) for seg in segments)
    with pytest.raises(TypeError):
        extras[ray] = ()
    with pytest.raises(TypeError):
        del extras[ray]


def test_ray_table_is_built_once_for_concurrent_requests(monkeypatch):
    calls = counted_ray_segments(monkeypatch, delay=0.05)  # every thread asks meanwhile
    star, start = star_domain(), threading.Barrier(8)

    def request(power):
        start.wait(timeout=10)
        return lp.composite_volume_rule(star, 16, [0.1, 0.2], kernel_power=power)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            rules = list(pool.map(request, [-0.5 * (k % 2) for k in range(8)], timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert calls == [(0.1, 0.2)]
    assert all(np.array_equal(rule.nodes, rules[k % 2].nodes) for k, rule in enumerate(rules))


def test_star_convergence_study_marches_each_center_and_order_once(monkeypatch, tmp_path, capsys):
    # 2 probes and the domain center at orders 16, 32 and 64; the domain
    # center's rule alone is requested 16 times per order
    calls = counted_ray_segments(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "star-convergence.cfg"
    cli.main(["converge", "--config", str(config), "--out", str(tmp_path / "report.csv")])
    capsys.readouterr()
    assert len(calls) == 9


@pytest.mark.parametrize(
    "domain, holes",
    [
        (unit_disk(), ()),
        (unit_ball3(), ()),
        (star_domain(), ()),
        (unit_disk(), [([0.3, 0.0], 0.1, 0.0)]),
        (unit_ball3(), [([0.3, 0.0, 0.0], 0.1, 0.0), ([-0.3, 0.2, 0.0], 0.1, -1.0)]),
    ],
    ids=["disk", "ball3", "star", "disk-hole", "ball3-holes"],
)
def test_volume_rule_nodes_are_coordinate_major(domain, holes):
    # (m, N) with each coordinate contiguous: per-node arithmetic then runs
    # over the m nodes, not over an inner axis of length N
    rule = lp.composite_volume_rule(domain, 8, domain.center + 0.05, holes=holes)
    assert rule.nodes.shape == (len(rule.weights), domain.dim)
    assert rule.nodes.flags.f_contiguous


@pytest.mark.parametrize("beta", [0.0, -0.5])
def test_cached_gauss_arrays_are_read_only(beta):
    # the rule caches are shared across threads: nobody may write into them
    nodes, weights = gauss_jacobi_01(8, beta)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
