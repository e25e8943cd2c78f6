"""Tests for double-layer evaluation, jump relations, and volume integrals."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import layerpot as lp
import layerpot.fields
import layerpot.potentials
from diagnostics import fd_laplacian, loglog_slope, sphere_ratio
from layerpot.errors import BudgetError, CapabilityError, ParameterError, PlacementError
from layerpot.fields import _singular_rule
from layerpot.geometry import INTERIOR, angular_rule, escalated_order
from layerpot.kernel import fundamental_gradient, fundamental_solution, row_dots

DISK = lp.Ball([0.0, 0.0], 1.0)
BALL3 = lp.Ball([0.0, 0.0, 0.0], 1.0)
STAR = lp.StarShaped2D(
    lambda th: 1.0 + 0.25 * np.cos(3 * th),
    radius_d1=lambda th: -0.75 * np.sin(3 * th),
    radius_d2=lambda th: -2.25 * np.cos(3 * th),
)


def test_unit_moment_trichotomy_examples():
    assert lp.double_layer(1.0, DISK, [0.0, 0.0], 64).value == pytest.approx(1.0, abs=1e-10)
    assert lp.double_layer(1.0, DISK, [2.0, 0.0], 64).value == pytest.approx(0.0, abs=1e-10)
    assert lp.double_layer(1.0, DISK, [1.0, 0.0], 64).value == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("domain", [DISK, BALL3, STAR], ids=["disk", "ball3", "star"])
def test_trichotomy_at_close_range(domain):
    # targets at distance 0.05 * diameter on both sides, and on the boundary
    rng = np.random.default_rng(3)
    offset = 0.05 * domain.diameter
    for _ in range(4):
        d = rng.normal(size=domain.dim)
        d /= np.linalg.norm(d)
        if isinstance(domain, lp.Ball):
            zb = domain.center + domain.radius * d
        else:
            zb = domain.boundary_point(math.atan2(d[1], d[0]))
        nu = domain.outward_normal(zb)
        assert lp.double_layer(1.0, domain, zb - offset * nu, 64).value == pytest.approx(1.0, abs=1e-8)
        assert lp.double_layer(1.0, domain, zb + offset * nu, 64).value == pytest.approx(0.0, abs=1e-8)
        assert lp.double_layer(1.0, domain, zb, 64).value == pytest.approx(0.5, abs=1e-8)


def test_location_class_recorded():
    ev = lp.double_layer(1.0, DISK, [0.3, 0.0], 64)
    assert ev.location_class == "interior"
    assert float(ev) == ev.value
    assert lp.double_layer(1.0, DISK, [1.0, 0.0], 64).location_class == "boundary"


def test_near_boundary_warning_metadata():
    ev = lp.double_layer(1.0, DISK, [0.98, 0.0], 64)
    assert ev.warning is not None and ev.quadrature_order > 64
    assert ev.value == pytest.approx(1.0, abs=1e-10)


def test_jump_relations_unit_moment():
    res = lp.jump_relation_check(1.0, DISK, [0.0, 1.0], 64)
    assert res.interior_limit_estimate == pytest.approx(1.0, abs=1e-7)
    assert res.exterior_limit_estimate == pytest.approx(0.0, abs=1e-7)
    assert lp.double_layer(1.0, DISK, [0.0, 1.0], 64).value == pytest.approx(0.5, abs=1e-12)


def test_jump_relations_coordinate_moment():
    h = lp.catalog("coordinate", 1)
    for theta in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        y0 = np.array([math.cos(theta), math.sin(theta)])
        res = lp.jump_relation_check(h, DISK, y0, 64)
        jump = res.interior_limit_estimate - res.exterior_limit_estimate
        assert jump == pytest.approx(h.evaluate(y0), abs=1e-4)
        # each one-sided limit against the direct boundary value
        assert res.interior_limit_estimate == pytest.approx(
            0.5 * h.evaluate(y0) + lp.double_layer(h, DISK, y0, 64).value, abs=1e-4
        )


def test_jump_relations_zero_moment():
    res = lp.jump_relation_check(0.0, DISK, [1.0, 0.0], 64)
    assert res.interior_limit_estimate == pytest.approx(0.0, abs=1e-12)
    assert res.exterior_limit_estimate == pytest.approx(0.0, abs=1e-12)
    assert lp.double_layer(0.0, DISK, [1.0, 0.0], 64).value == 0.0


def test_double_layer_harmonic_off_boundary():
    h = lp.catalog("coordinate", 1)
    for y in ([0.3, 0.2], [1.7, 0.3]):
        lap = fd_laplacian(lambda p: lp.double_layer(h, DISK, p, 256).value, np.array(y), 1e-3)
        assert abs(lap) < 1e-4


def test_holder_sphere_ratio_scales_like_alpha():
    alpha = 0.5
    f = lp.catalog("power_distance", [0.0, 0.0], alpha)
    eps = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2])
    vals = [sphere_ratio(f, [0.0, 0.0], alpha, e) for e in eps]
    assert abs(loglog_slope(eps, vals) - alpha) < 0.1


def test_gradient_volume_integral_examples():
    assert lp.gradient_volume_integral(lp.catalog("constant", 4.0), DISK, [0.3, 0.0], 64) == 0.0
    # distance moment centered at the target: radial oracle gives exactly R
    val = lp.gradient_volume_integral(lp.catalog("distance", [0.0, 0.0]), DISK, [0.0, 0.0], 64)
    assert val == pytest.approx(1.0, abs=1e-10)
    val3 = lp.gradient_volume_integral(lp.catalog("distance", [0.0, 0.0, 0.0]), BALL3, [0.0, 0.0, 0.0], 32)
    assert val3 == pytest.approx(1.0, abs=1e-10)
    # odd symmetry over the disk
    val = lp.gradient_volume_integral(lp.catalog("coordinate", 1), DISK, [0.0, 0.0], 64)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_gradient_volume_integral_brute_force_cross_check():
    # midpoint polar oracle, independent of the library quadrature
    f = lp.catalog("coordinate", 1)
    y = np.array([0.3, -0.2])
    m_th, m_r = 1024, 512
    th = 2 * math.pi * (np.arange(m_th) + 0.5) / m_th
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    proj = dirs @ y
    t = -proj + np.sqrt(proj**2 + 1 - y @ y)
    oracle = (2 * math.pi / m_th) * np.sum(dirs[:, 0] * t) / (2 * math.pi)
    val = lp.gradient_volume_integral(f, DISK, y, 64)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_gradient_volume_integral_exterior_equals_double_layer():
    f = lp.catalog("harmonic_poly", 2)
    y = [2.0, 0.5]
    vol = lp.gradient_volume_integral(f, DISK, y, 64)
    dl = lp.double_layer(f, DISK, y, 64).value
    assert vol == pytest.approx(dl, abs=1e-12)


def test_gradient_volume_integral_boundary_target_rejected():
    f = lp.catalog("coordinate", 1)
    for _ in range(2):  # errors are not memoized: the second call raises too
        with pytest.raises(PlacementError):
            lp.gradient_volume_integral(f, DISK, [1.0, 0.0], 64)


def _count_volume_rules(monkeypatch):
    """Node counts of the volume rules the gradient volume integral builds."""
    built = []
    build = layerpot.fields.composite_volume_rule

    def counting(*args, **kwargs):
        rule = build(*args, **kwargs)
        built.append(len(rule.weights))
        return rule

    monkeypatch.setattr(layerpot.fields, "composite_volume_rule", counting)
    monkeypatch.delenv("LAYERPOT_MAX_NODES", raising=False)
    return built


def test_gradient_volume_integral_is_memoized(monkeypatch):
    built = _count_volume_rules(monkeypatch)
    f = lp.catalog("harmonic_poly", 2)  # a new field, so nothing is cached for it yet
    first = lp.gradient_volume_integral(f, DISK, [0.3, -0.2], 64)
    assert lp.gradient_volume_integral(f, DISK, np.array([0.3, -0.2]), 64) == first
    assert len(built) == 1


def test_a_new_target_queries_no_singular_point_again(monkeypatch):
    # the field's singular points are classified once per domain; a new
    # interior target's class and boundary distance both come from one
    # signed distance on the ball
    disk, f = lp.Ball([0.0, 0.0], 1.0), lp.catalog("distance", [0.2, 0.1])
    lp.gradient_volume_integral(f, disk, [0.3, -0.2], 16)
    queried = []
    signed = lp.Ball.signed_boundary_distance

    def counting(self, y):
        queried.append(np.array(y, dtype=float))
        return signed(self, y)

    monkeypatch.setattr(lp.Ball, "signed_boundary_distance", counting)
    lp.gradient_volume_integral(f, disk, [-0.4, 0.1], 16)
    assert len(queried) <= 1
    assert all(np.array_equal(y, [-0.4, 0.1]) for y in queried)


@pytest.mark.parametrize("y", [[0.3, 0.2], [0.97, 0.0], [1.4, -0.3]], ids=["interior", "near-boundary", "exterior"])
def test_double_layer_takes_one_signed_distance_per_target(y, monkeypatch):
    # the class and the escalation both read the one signed distance of
    # ``Domain.placement``, for ``double_layer`` and for each target of a batch
    f = lp.catalog("harmonic_poly", 2)
    expected = lp.double_layer(f, DISK, y, 32)
    queried, signed = [], lp.Ball.signed_boundary_distance

    def counting(self, point):
        queried.append(np.array(point, dtype=float))
        return signed(self, point)

    monkeypatch.setattr(lp.Ball, "signed_boundary_distance", counting)
    assert lp.double_layer(f, DISK, y, 32) == expected
    assert len(queried) == 1 and np.array_equal(queried[0], y)
    queried.clear()
    assert lp.double_layer_batch(f, DISK, [y, y], 32).tolist() == [expected.value] * 2
    assert len(queried) == 2


def test_memoized_gradient_volume_integral_matches_uncached_under_threads(monkeypatch):
    # more threads than cores race on the first calls of a few keys; every
    # result must equal the uncached computation of the same term
    monkeypatch.delenv("LAYERPOT_MAX_NODES", raising=False)
    f = lp.catalog("harmonic_poly", 4)
    targets = [(0.1 * k, -0.05 * k) for k in range(4)] + [(1.5, 0.5)]
    uncached = layerpot.potentials._gradient_volume_integral.__wrapped__
    expected = {y: uncached(f, DISK, y, 16, layerpot.geometry.max_nodes_budget()) for y in targets}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = {pool.submit(lp.gradient_volume_integral, f, DISK, y, 16): y for y in targets * 8}
            for future, y in futures.items():
                assert future.result(timeout=60) == expected[y]
    finally:
        sys.setswitchinterval(interval)


def _slow_volume_rules(monkeypatch, seconds=0.05):
    """Hold every volume-rule build for ``seconds`` with the GIL released,
    so that threads released together all miss while the first computes."""
    build = layerpot.fields.composite_volume_rule

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return build(*args, **kwargs)

    monkeypatch.setattr(layerpot.fields, "composite_volume_rule", slow)


def _released_together(call, threads=8):
    """Run ``call`` on ``threads`` threads released at once by a barrier,
    with a short switch interval so that they interleave; return the
    results, or the exceptions raised, in thread order."""
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait(timeout=60)
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - returned for the caller to check
            return exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run) for _ in range(threads)]
            return [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_misses_of_one_key_build_one_rule(monkeypatch):
    # threads that miss on a key another thread is computing wait for it
    # instead of building the same rule again
    built = _count_volume_rules(monkeypatch)
    _slow_volume_rules(monkeypatch)
    f = lp.catalog("harmonic_poly", 5)  # a new field, so the key is fresh
    values = _released_together(lambda: lp.gradient_volume_integral(f, DISK, [0.2, -0.1], 32))
    assert len(built) == 1
    assert len({v.hex() for v in values}) == 1


def test_concurrent_misses_of_a_failing_key_all_raise(monkeypatch):
    # errors are not memoized: a thread that waited on a call that raised
    # computes the key itself and raises the same error
    built = _count_volume_rules(monkeypatch)
    f = lp.catalog("harmonic_poly", 5)
    lp.gradient_volume_integral(f, DISK, [0.1, 0.3], 32)
    monkeypatch.setenv("LAYERPOT_MAX_NODES", str(built[0] - 1))
    _slow_volume_rules(monkeypatch)
    outcomes = _released_together(lambda: lp.gradient_volume_integral(f, DISK, [0.1, 0.3], 32))
    assert all(isinstance(o, BudgetError) for o in outcomes)
    assert len(built) == 1


def test_memoized_gradient_volume_integral_respects_node_budget(monkeypatch):
    built = _count_volume_rules(monkeypatch)
    f = lp.catalog("harmonic_poly", 3)
    lp.gradient_volume_integral(f, DISK, [0.1, 0.4], 64)
    monkeypatch.setenv("LAYERPOT_MAX_NODES", str(built[0] - 1))
    with pytest.raises(BudgetError):
        lp.gradient_volume_integral(f, DISK, [0.1, 0.4], 64)


def _near_boundary(domain, z):
    """The interior point 1e-2 inradii from the boundary point z."""
    return z - 1e-2 * domain.inradius * domain.outward_normal(z)


RAY_FORM_CASES = {
    "disk-harmonic": (lp.catalog("harmonic_poly", 3), DISK, [-0.4, 0.5]),
    "disk-distance-hole": (lp.catalog("distance", [0.2, 0.1]), DISK, [-0.3, 0.4]),
    "disk-power-folded": (lp.catalog("power_distance", [0.2, -0.1], 0.5), DISK, [0.2, -0.1]),
    "disk-near-boundary": (
        lp.catalog("harmonic_poly", 2),
        DISK,
        _near_boundary(DISK, np.array([math.cos(0.7), math.sin(0.7)])),
    ),
    "star-harmonic": (lp.catalog("harmonic_poly", 3), STAR, [0.3, -0.2]),
    "star-distance-hole": (lp.catalog("distance", [0.2, 0.1]), STAR, [-0.3, 0.4]),
    "star-power-folded": (lp.catalog("power_distance", [0.2, -0.1], 0.5), STAR, [0.2, -0.1]),
    "star-near-boundary": (lp.catalog("harmonic_poly", 2), STAR, _near_boundary(STAR, STAR.boundary_point(0.9))),
    "ball-harmonic": (lp.catalog("harmonic_poly", 2, dim=3), BALL3, [0.3, -0.2, 0.1]),
    "ball-distance-hole": (lp.catalog("distance", [0.2, 0.1, 0.0]), BALL3, [-0.3, 0.2, 0.1]),
    "ball-power-folded": (lp.catalog("power_distance", [0.2, 0.1, 0.0], 0.5), BALL3, [0.2, 0.1, 0.0]),
    "ball-near-boundary": (
        lp.catalog("harmonic_poly", 2, dim=3),
        BALL3,
        _near_boundary(BALL3, np.array([0.6, 0.0, 0.8])),
    ),
}


@pytest.mark.parametrize("name", sorted(RAY_FORM_CASES))
def test_ray_form_matches_the_kernel_pairing_on_the_same_rule(name):
    # the interior integral sums <theta, grad f> / omega_N along the
    # target's rays; summing <grad E(x - y), grad f> on the same rule's
    # volume weights must agree to roundoff
    f, domain, y = RAY_FORM_CASES[name]
    y = np.asarray(y, dtype=float)
    order = 16 if domain.dim == 3 else 32
    value = layerpot.potentials._gradient_volume_integral.__wrapped__(f, domain, tuple(y), order, 10**8)
    eff = layerpot.potentials._volume_order_for_target(domain, order, domain.boundary_distance(y))
    rule = _singular_rule(f, domain, order, y, kernel_power=float(1 - domain.dim), angular_order=eff)
    if name.endswith("near-boundary"):
        assert eff > order
    if "hole" in name:
        assert len(rule.plans) == 2
    if "folded" in name:
        assert rule.plans[0].power == 1 - domain.dim + f.gradient_power
    reference = rule.integrate(lambda x: row_dots(fundamental_gradient(x - y), f.gradient(x)))
    assert abs(value - reference) <= 1e-13 * abs(reference), (value, reference)


def test_gradient_volume_integral_peak_memory_stays_at_the_parent_level():
    # tracemalloc peaks of order-64 3-D integrals with leaves generated one
    # at a time, with numpy 2.4: 2,831,072 B for distance(0) about
    # (0.5, 0, 0), whose rule has a hole, and 2,050,695 B for a harmonic
    # field, whose rule has none.  The peak may grow by 10 % at most;
    # generating two leaves at a time would add about 0.7 MB to each.
    compute = layerpot.potentials._gradient_volume_integral.__wrapped__
    cases = [
        (lp.catalog("distance", [0.0, 0.0, 0.0]), (0.5, 0.0, 0.0), 2_831_072),
        (lp.catalog("harmonic_poly", 2, dim=3), (0.3, -0.2, 0.1), 2_050_695),
    ]
    for f, y, parent_peak in cases:
        compute(f, BALL3, y, 64, 10**8)  # fills the angular and Gauss rule caches
        tracemalloc.start()
        try:
            compute(f, BALL3, y, 64, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * parent_peak, (f.name, peak)


def _pulled_distance(dim):
    """|x| with the gradient of a harmonic pull from (1.05, 0, ...), just
    outside the unit ball: a hole about 0 then carries radial content, where
    a field radial about the hole's point integrates to 0 on every circle
    about it (the kernel's mean value)."""
    b = np.array([1.05] + [0.0] * (dim - 1))

    def gradient(x):
        d = x - b
        return x / np.linalg.norm(x, axis=1)[:, None] + d / np.linalg.norm(d, axis=1)[:, None] ** dim

    return lp.ScalarField(
        name=f"pulled_distance[{dim}d]",
        evaluate_fn=lambda x: np.linalg.norm(x, axis=1),
        gradient_fn=gradient,
        singular_points=((0.0,) * dim,),
        dim=dim,
    )


@pytest.mark.parametrize("domain, order, too_few", [(DISK, 128, 16), (BALL3, 64, 24)], ids=["disk", "ball3"])
def test_capped_hole_block_resolves_the_widest_hole(domain, order, too_few, monkeypatch):
    # a hole is at most half as wide as the distance to the nearest other
    # singular point: here the target lies exactly that far away, on the
    # equator of the sphere rule, where the hole block's angles resolve
    # the kernel slowest.  The capped block, of HOLE_ORDER angles and
    # radial nodes, must match the one with ``order`` of each, and a lower
    # cap must not: 48 angles on the circle still reach roundoff here, so
    # the disk checks 16
    y = (0.5,) + (0.0,) * (domain.dim - 1)
    compute = layerpot.potentials._gradient_volume_integral.__wrapped__
    cap = layerpot.geometry.HOLE_ORDER
    assert cap < order
    full = {}
    for f in (lp.catalog("distance", [0.0] * domain.dim), _pulled_distance(domain.dim)):
        capped = compute(f, domain, y, order, 10**8)
        monkeypatch.setattr(layerpot.geometry, "HOLE_ORDER", order)
        full[f.name] = compute(f, domain, y, order, 10**8)
        monkeypatch.setattr(layerpot.geometry, "HOLE_ORDER", cap)
        assert abs(capped - full[f.name]) <= 1e-14 * abs(full[f.name]), (f.name, capped, full[f.name])
    f = lp.catalog("distance", [0.0] * domain.dim)
    monkeypatch.setattr(layerpot.geometry, "HOLE_ORDER", too_few)
    coarse = compute(f, domain, y, order, 10**8)
    assert abs(coarse - full[f.name]) > 1e-14 * abs(full[f.name]), (coarse, full[f.name])
    # too few radial nodes under the capped angles fail too: the pulled
    # field's hole needs 8 of them here, and 6 leave about 1e-13
    monkeypatch.setattr(layerpot.geometry, "HOLE_ORDER", cap)
    rules = layerpot.geometry._radial_rules

    def fewer_hole_nodes(dim, n_r, power, log_kernel):
        return rules(dim, 6 if n_r == cap else n_r, power, log_kernel)

    monkeypatch.setattr(layerpot.geometry, "_radial_rules", fewer_hole_nodes)
    f = _pulled_distance(domain.dim)
    rule = _singular_rule(f, domain, order, y, kernel_power=float(1 - domain.dim))
    assert [len(plan.radial[0]) for plan in rule.plans] == [order, 6]
    coarse = compute(f, domain, y, order, 10**8)
    assert abs(coarse - full[f.name]) > 1e-14 * abs(full[f.name]), (coarse, full[f.name])


@pytest.mark.parametrize("domain", [DISK, STAR, BALL3], ids=["disk", "star", "ball3"])
def test_escalation_adds_rays_not_radial_nodes(domain, monkeypatch):
    # a target near the boundary gets a main block of the escalated angular
    # order with ``order`` radial nodes per interval; the hole keeps its
    # capped block
    order, dim = 16, domain.dim
    z = STAR.boundary_point(0.9) if domain is STAR else np.array([0.6, 0.8] + [0.0] * (dim - 2))
    y = _near_boundary(domain, z)
    f = lp.catalog("distance", [0.2, 0.1] + [0.0] * (dim - 2))
    built, build = [], layerpot.fields.composite_volume_rule

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(layerpot.fields, "composite_volume_rule", recording)
    layerpot.potentials._gradient_volume_integral.__wrapped__(f, domain, tuple(y), order, 10**8)
    (rule,) = built
    eff = layerpot.potentials._volume_order_for_target(domain, order, domain.boundary_distance(y))
    assert eff >= 4 * order
    main, hole = rule.plans
    rays = len(angular_rule(dim, eff * domain.angular_oversampling)[0])
    n_hole = min(order, layerpot.geometry.HOLE_ORDER)
    assert len(main.dirs) == rays and len(main.radial[0]) == order
    assert len(hole.dirs) == len(angular_rule(dim, n_hole)[0]) and len(hole.radial[0]) == n_hole
    assert rule.count == order * len(main.ray) + n_hole * len(hole.ray)
    assert len(rule.weights) == rule.count


def test_singular_point_coinciding_with_target_is_not_an_error():
    f = lp.catalog("power_distance", [0.0, 0.0], 0.5)
    val = lp.gradient_volume_integral(f, DISK, [0.0, 0.0], 64)
    # radial oracle: integrand collapses to beta rho^{beta-1} / omega per unit angle
    assert val == pytest.approx(1.0, abs=1e-10)


def test_zeta_modes_agree():
    for f, z in [
        (lp.catalog("constant", 3.0), [1.0, 0.0]),
        (lp.catalog("coordinate", 1), [1.0, 0.0]),
        (lp.catalog("distance", [0.0, 0.0]), [0.0, 1.0]),
    ]:
        # the algebraic trace: double layer at z minus half the value there
        alg = lp.double_layer(f, DISK, z, 64).value - 0.5 * f.evaluate(z)
        lim = lp.boundary_limit_zeta(f, DISK, z, 64)
        assert alg == pytest.approx(lim, abs=1e-4)


def test_zeta_constant_vanishes():
    assert lp.boundary_limit_zeta(lp.catalog("constant", 7.0), DISK, [0.0, 1.0], 64) == pytest.approx(
        0.0, abs=1e-12
    )


def test_newtonian_integrals_examples():
    # harmonic field: no volume source
    parts = lp.newtonian_integrals(lp.catalog("harmonic_poly", 2), DISK, [0.3, 0.1], 64)
    assert parts.volume_term == pytest.approx(0.0, abs=1e-8)
    # coordinate moment at the center: kernel vanishes on the unit circle
    parts = lp.newtonian_integrals(lp.catalog("coordinate", 1), DISK, [0.0, 0.0], 64)
    assert parts.boundary_term == pytest.approx(0.0, abs=1e-8)
    # |x|^2: volume term is 2N int E = -1 on the unit disk (radial oracle)
    parts = lp.newtonian_integrals(lp.catalog("quadratic_radial", [0.0, 0.0]), DISK, [0.0, 0.0], 64)
    assert parts.volume_term == pytest.approx(-1.0, abs=1e-8)


def test_newtonian_boundary_term_sums_on_the_pole_aligned_escalated_rule():
    f = lp.catalog("harmonic_poly", 2, dim=3)
    y = np.array([0.3, -0.2, 0.6])
    eff, _ = escalated_order(BALL3, 16, BALL3.boundary_distance(y))
    assert eff > 16
    rule = BALL3.boundary_rule(eff, pole=y - BALL3.center)
    flux = row_dots(f.gradient(rule.nodes), rule.normals)
    expected = rule.integrate(flux * fundamental_solution(rule.nodes - y))
    assert lp.newtonian_integrals(f, BALL3, y, 16).boundary_term == expected


@pytest.mark.parametrize("y", [[0.3, -0.4], [2.0, 0.7]], ids=["interior", "exterior"])
def test_newtonian_volume_term_sums_on_the_field_adapted_rule(y):
    # Lap f = 1/|x - a| of a distance field: the rule carries its exponent at a
    f = lp.catalog("distance", [0.2, 0.1])
    power = f.gradient_power - 1.0
    if DISK.classify(y) == INTERIOR:
        rule = _singular_rule(f, DISK, 32, y, power=power, log_kernel=True)
    else:
        rule = _singular_rule(f, DISK, 32, power=power)
    expected = rule.integrate(lambda x: f.laplacian(x) * fundamental_solution(x - np.asarray(y)))
    assert lp.newtonian_integrals(f, DISK, y, 32).volume_term == expected


def test_newtonian_requires_laplacian():
    bare = lp.ScalarField(
        name="bare",
        evaluate_fn=lambda x: x[:, 0],
        gradient_fn=lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
    )
    with pytest.raises(CapabilityError):
        lp.newtonian_integrals(bare, DISK, [0.0, 0.0], 32)


@pytest.mark.parametrize("order", [0, -8, 3])
def test_orders_below_four_raise_instead_of_escalating(order):
    # a near-boundary target asks both escalation policies to raise the order
    with pytest.raises(ParameterError, match="order >= 4"):
        lp.double_layer(1.0, DISK, [0.999, 0.0], order)
    with pytest.raises(ParameterError, match="order >= 4"):
        lp.gradient_volume_integral(lp.catalog("coordinate", 1), DISK, [0.999, 0.0], order)


def test_double_layer_batch_matches_scalar():
    h = lp.catalog("harmonic_poly", 2)
    targets = np.array([[0.3, 0.1], [0.0, 0.0], [2.0, 0.5], [1.0, 0.0]])
    batch = lp.double_layer_batch(h, DISK, targets, 64)
    for t, v in zip(targets, batch):
        assert v == pytest.approx(lp.double_layer(h, DISK, t, 64).value, abs=1e-13)
    # 3-D targets go one by one through double_layer: bitwise equal, including
    # a boundary target and one close enough to the sphere to escalate
    h3 = lp.catalog("harmonic_poly", 2, dim=3)
    targets3 = np.array([[0.3, 0.1, -0.2], [0.0, 0.6, 0.8], [1.5, 0.2, 0.1], [0.0, 0.0, 0.97]])
    batch3 = lp.double_layer_batch(h3, BALL3, targets3, 16)
    assert list(batch3) == [lp.double_layer(h3, BALL3, t, 16).value for t in targets3]


@pytest.mark.parametrize("domain", [DISK, STAR], ids=["disk", "star"])
def test_double_layer_batch_equals_double_layer_bitwise(domain):
    # interior, exterior, boundary, and two near-boundary targets whose
    # order escalates above 64
    h = lp.catalog("harmonic_poly", 3)
    edge = domain.boundary_point(0.4) if isinstance(domain, lp.StarShaped2D) else np.array([0.6, 0.8])
    nu = domain.outward_normal(edge)
    targets = np.array([[0.3, 0.1], [-0.2, 0.45], [2.0, 0.5], edge, edge - 0.01 * nu, edge + 0.004 * nu])
    assert domain.classify(edge) == "boundary"
    assert all(lp.double_layer(h, domain, t, 64).quadrature_order > 64 for t in targets[-2:])
    batch = lp.double_layer_batch(h, domain, targets, 64)
    assert list(batch) == [lp.double_layer(h, domain, t, 64).value for t in targets]


def test_star_near_boundary_volume_integral_matches_interior_identity():
    # the volume integral at interior points equals (double layer - value);
    # exercising it close to a concave boundary section covers the
    # multi-segment ray handling
    f = lp.catalog("harmonic_poly", 2)
    z = STAR.boundary_point(0.9)
    nu = STAR.outward_normal(z)
    for d in (2e-2, 1e-2):
        y = z - d * nu
        ref = lp.double_layer(f, STAR, y, 256).value - f.evaluate(y)
        assert lp.gradient_volume_integral(f, STAR, y, 64) == pytest.approx(ref, abs=1e-3)


def test_star_zeta_modes_agree():
    f = lp.catalog("harmonic_poly", 2)
    z = STAR.boundary_point(0.9)
    alg = lp.double_layer(f, STAR, z, 64).value - 0.5 * f.evaluate(z)
    lim = lp.boundary_limit_zeta(f, STAR, z, 64)
    assert alg == pytest.approx(lim, abs=1e-3)


def test_star_jump_relations():
    # curvature raises the one-sided expansion coefficients, so the star's
    # two-point extrapolation lands near 1e-4; the circle meets 1e-4 itself
    h = lp.catalog("harmonic_poly", 2)
    for theta in (0.005, 1.3, 2.7):
        z = STAR.boundary_point(theta)
        res = lp.jump_relation_check(h, STAR, z, 64)
        jump = res.interior_limit_estimate - res.exterior_limit_estimate
        assert jump == pytest.approx(h.evaluate(z), abs=1e-3)
