"""Tests for the free-space kernel and the sphere-area constant."""

import math

import numpy as np
import pytest

import layerpot as lp
from diagnostics import fd_gradient, fd_laplacian
from layerpot.errors import DimensionError, SingularityError
from layerpot.kernel import row_dots, row_norms


def test_sphere_area_low_dimensions():
    assert lp.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert lp.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert lp.sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("n", range(2, 13))
def test_sphere_area_matches_gamma(n):
    # cross-check the exact integer/half-integer ladder against math.gamma
    expected = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    assert lp.sphere_area(n) == pytest.approx(expected, rel=1e-13)


def test_sphere_area_rejects_low_dim():
    with pytest.raises(DimensionError):
        lp.sphere_area(1)


def test_value_branches():
    assert lp.fundamental_solution([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert lp.fundamental_solution([math.e, 0.0]) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert lp.fundamental_solution([0.0, 0.0, 1.0]) == pytest.approx(-1 / (4 * math.pi), rel=1e-14)


def test_value_singularity():
    with pytest.raises(SingularityError):
        lp.fundamental_solution([0.0, 0.0])
    with pytest.raises(SingularityError):
        lp.fundamental_solution([1e-301, 0.0])


def test_gradient_examples():
    g = lp.fundamental_gradient([1.0, 0.0])
    np.testing.assert_allclose(g, [1 / (2 * math.pi), 0.0], atol=1e-15)
    g3 = lp.fundamental_gradient([0.0, 0.0, 2.0])
    np.testing.assert_allclose(g3, [0.0, 0.0, 1 / (16 * math.pi)], atol=1e-16)


def test_gradient_odd_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            lp.fundamental_gradient(-x), -lp.fundamental_gradient(x), rtol=1e-14
        )


@pytest.mark.parametrize("dim", [2, 3])
def test_harmonic_by_finite_differences(dim):
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(size=dim)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        assert abs(fd_laplacian(lp.fundamental_solution, x, 1e-3)) < 1e-4


def test_fd_laplacian_second_order():
    x = np.array([0.8, 0.4])
    coarse = abs(fd_laplacian(lp.fundamental_solution, x, 2e-3))
    fine = abs(fd_laplacian(lp.fundamental_solution, x, 1e-3))
    assert fine < coarse / 2.0


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_consistent_with_value(dim):
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.normal(size=dim)
        x *= rng.uniform(0.8, 1.2) / np.linalg.norm(x)
        np.testing.assert_allclose(lp.fundamental_gradient(x), fd_gradient(lp.fundamental_solution, x), atol=1e-6)


def test_scaling_law():
    E = lp.fundamental_solution
    x = np.array([0.3, -0.7])
    for lam in (0.5, 2.0, 7.0):
        assert E(lam * x) == pytest.approx(E(x) + math.log(lam) / (2 * math.pi), rel=1e-13)
    x = np.array([0.3, -0.7, 0.2])
    for lam in (0.5, 2.0, 7.0):
        assert E(lam * x) == pytest.approx(lam ** (2 - 3) * E(x), rel=1e-13)


def test_batch_evaluation_matches_single():
    pts = np.array([[1.0, 0.2], [0.5, -0.5], [2.0, 1.0]])
    vals = lp.fundamental_solution(pts)
    for p, v in zip(pts, vals):
        assert lp.fundamental_solution(p) == pytest.approx(v, rel=1e-15)


@pytest.mark.parametrize("shape", [(1000, 2), (1000, 3), (64, 512, 2)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_row_norms_match_numpy_bitwise(shape, layout):
    x = np.asarray(np.random.default_rng(3).normal(size=shape), order=layout)
    np.testing.assert_array_equal(row_norms(x), np.linalg.norm(x, axis=-1))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_row_dots_match_einsum_in_2d(layout):
    rng = np.random.default_rng(4)
    a, b = (np.asarray(rng.normal(size=(1000, 2)), order=layout) for _ in range(2))
    np.testing.assert_array_equal(row_dots(a, b), np.einsum("ij,ij->i", a, b))


def test_row_dots_3d_do_not_depend_on_layout_or_row_count():
    # einsum sums 3-D rows in an order that depends on both; row_dots does not
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))
    full = row_dots(a, b)
    np.testing.assert_array_equal(row_dots(np.asfortranarray(a), np.asfortranarray(b)), full)
    for rows in (2, 3):
        np.testing.assert_array_equal(row_dots(a[:rows], b[:rows]), full[:rows])
