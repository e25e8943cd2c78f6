"""Tests for the interior reproducing kernel and harmonic extensions."""

import math

import numpy as np
import pytest

import layerpot as lp
from diagnostics import fd_laplacian
from layerpot.errors import PlacementError, ResolutionError

DISK = lp.Ball([0.0, 0.0], 1.0)
BALL3 = lp.Ball([0.0, 0.0, 0.0], 1.0)


def test_constant_data_reproduced_everywhere():
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.uniform(-0.5, 0.5, size=2)
        assert lp.poisson_evaluate(DISK, 9.25, y, 64) == pytest.approx(9.25, rel=1e-12)


def test_harmonic_trace_examples():
    val = lp.poisson_evaluate(DISK, lp.catalog("coordinate", 1), [0.3, 0.2], 128)
    assert val == pytest.approx(0.3, abs=1e-8)
    val = lp.poisson_evaluate(DISK, lp.catalog("harmonic_poly", 2), [0.5, 0.0], 128)
    assert val == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize(
    "field",
    [
        lp.catalog("constant", 2.0),
        lp.catalog("coordinate", 1),
        lp.catalog("coordinate", 2),
        lp.catalog("harmonic_poly", 2),
        lp.catalog("harmonic_poly", 3),
        lp.catalog("harmonic_poly", 4),
    ],
    ids=lambda f: f.name,
)
def test_harmonic_reproduction(field):
    rng = np.random.default_rng(7)
    for _ in range(4):
        y = rng.normal(size=2)
        y *= rng.uniform(0.0, 0.8) / np.linalg.norm(y)
        assert lp.poisson_evaluate(DISK, field, y, 128) == pytest.approx(
            field.evaluate(y), abs=1e-7
        )


def test_harmonic_reproduction_3d():
    field = lp.catalog("harmonic_poly", 2, dim=3)
    y = np.array([0.3, -0.2, 0.4])
    assert lp.poisson_evaluate(BALL3, field, y, 64) == pytest.approx(field.evaluate(y), abs=1e-7)


@pytest.mark.parametrize("domain", [DISK, BALL3], ids=["disk", "ball3"])
def test_kernel_normalization(domain):
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = rng.normal(size=domain.dim)
        d *= rng.uniform(0.0, 0.8) / np.linalg.norm(d)
        order = 128 if domain.dim == 2 else 64
        assert lp.poisson_evaluate(domain, 1.0, d, order) == pytest.approx(1.0, abs=1e-9)


def test_interior_restriction():
    # close to the sphere the rule escalates as the double layer's does
    for domain in (DISK, BALL3):
        for r in (0.97, 0.99):
            y = np.full(domain.dim, r / math.sqrt(domain.dim))
            assert lp.poisson_evaluate(domain, 1.0, y, 64) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PlacementError):
        lp.poisson_evaluate(DISK, 1.0, [1.5, 0.0], 64)


def test_unresolved_target_raises(monkeypatch):
    # at 0.999 R the disk needs order 24000, above the cap of 4096; summed
    # at 4096 the constant 1 would come back as 1.0338
    with pytest.raises(ResolutionError, match="below the resolving order 24000"):
        lp.poisson_evaluate(DISK, 1.0, [0.999, 0.0], 64)
    # at 0.99 R the ball needs order 156; a 20000-node budget stops it at 64
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "20000")
    with pytest.raises(ResolutionError, match="below the resolving order 156"):
        lp.poisson_evaluate(BALL3, 1.0, [0.99, 0.0, 0.0], 64)


def _means(u, ball, order):
    """Surface mean, volume mean and center value of u over the ball."""
    brule = ball.boundary_rule(order)
    vrule = lp.volume_rule(ball, order)
    return (
        brule.integrate(u.evaluate(brule.nodes)) / ball.surface_measure,
        vrule.integrate(u.evaluate) / ball.volume_measure,
        u.evaluate(ball.center),
    )


def test_mean_value_examples():
    surface_mean, volume_mean, center_value = _means(lp.catalog("harmonic_poly", 2), lp.Ball([0.0, 0.0], 1.0), 64)
    assert surface_mean == pytest.approx(0.0, abs=1e-12)
    assert volume_mean == pytest.approx(0.0, abs=1e-12)
    assert center_value == 0.0

    for v in _means(lp.catalog("coordinate", 1), lp.Ball([0.2, 0.1], 0.5), 64):
        assert v == pytest.approx(0.2, abs=1e-12)

    for v in _means(lp.catalog("constant", 7.0), lp.Ball([0.3, -0.4], 0.2), 32):
        assert v == pytest.approx(7.0, rel=1e-13)


def test_dirichlet_solution_reproduces_harmonic_data():
    sol = lp.dirichlet_chi(DISK, lp.catalog("harmonic_poly", 3), 128)
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.normal(size=2)
        y *= rng.uniform(0.0, 0.7) / np.linalg.norm(y)
        assert sol.evaluate(y) == pytest.approx(lp.catalog("harmonic_poly", 3).evaluate(y), abs=1e-7)


def test_dirichlet_solution_constant_and_sphere_distance():
    sol = lp.dirichlet_chi(DISK, lp.catalog("constant", 4.0), 64)
    assert sol.evaluate([0.3, 0.3]) == pytest.approx(4.0, rel=1e-12)
    # |x - a| restricted to the sphere is the constant R
    sol = lp.dirichlet_chi(DISK, lp.catalog("distance", [0.0, 0.0]), 64)
    assert sol.evaluate([0.5, -0.2]) == pytest.approx(1.0, rel=1e-10)


def test_dirichlet_solution_is_harmonic_and_matches_boundary_mean():
    f = lp.catalog("harmonic_poly", 2)
    sol = lp.dirichlet_chi(DISK, f, 128)
    assert abs(fd_laplacian(sol.evaluate, np.array([0.2, -0.3]), 1e-3)) < 1e-4
    rule = DISK.boundary_rule(128)
    boundary_mean = float(rule.weights @ f.evaluate(rule.nodes)) / DISK.surface_measure
    assert sol.evaluate(DISK.center) == pytest.approx(boundary_mean, abs=1e-10)


def test_maximum_principle_diagnostic():
    f = lp.catalog("harmonic_poly", 2)
    sol = lp.dirichlet_chi(DISK, f, 128)
    rule = DISK.boundary_rule(256)
    lo, hi = np.min(f.evaluate(rule.nodes)), np.max(f.evaluate(rule.nodes))
    rng = np.random.default_rng(19)
    for _ in range(10):
        y = rng.normal(size=2)
        y *= rng.uniform(0.0, 0.9) / np.linalg.norm(y)
        assert lo - 1e-9 <= sol.evaluate(y) <= hi + 1e-9


@pytest.mark.parametrize("y", [[0.3, 0.2], [0.97, 0.0]], ids=["interior", "near-boundary"])
def test_poisson_evaluate_takes_one_signed_distance(y, monkeypatch):
    # the class, the escalation and the resolution check all read the one
    # signed distance of ``Domain.placement``; the near-boundary target
    # escalates, so the distance reaches the escalation too
    expected = lp.poisson_evaluate(DISK, lp.catalog("harmonic_poly", 2), y, 32)
    queried, signed = [], lp.Ball.signed_boundary_distance

    def counting(self, point):
        queried.append(np.array(point, dtype=float))
        return signed(self, point)

    monkeypatch.setattr(lp.Ball, "signed_boundary_distance", counting)
    assert lp.poisson_evaluate(DISK, lp.catalog("harmonic_poly", 2), y, 32) == expected
    assert len(queried) == 1 and np.array_equal(queried[0], y)
