"""Tests for the deviation bounds, sharpness witnesses, and the 1-D oracle."""

import math

import numpy as np
import pytest

import layerpot as lp
from layerpot.errors import ExponentError, IntegrabilityError, ParameterError, RangeError
from oracle_1d import Montgomery1D, derivative_norm_1d, montgomery_identity_1d, ostrowski_bounds_1d, polynomial_1d

DISK = lp.Ball([0.0, 0.0], 1.0)
BALL3 = lp.Ball([0.0, 0.0, 0.0], 1.0)


def test_moment_closed_form_examples():
    assert lp.moment_integral_closed_form(2, 1.0, 1.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert lp.moment_integral_closed_form(3, 1.0, 1.0) == pytest.approx(4 * math.pi, rel=1e-14)
    assert lp.moment_integral_closed_form(2, 1.0, 1.5) == pytest.approx(4 * math.pi, rel=1e-14)


def test_moment_closed_form_divergence_guard():
    with pytest.raises(IntegrabilityError):
        lp.moment_integral_closed_form(2, 1.0, 2.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("conjugate", [1.0, 1.2, 1.4])
def test_moment_closed_form_matches_quadrature(dim, conjugate):
    ball = lp.Ball([0.0] * dim, 1.0)
    closed = lp.moment_integral_closed_form(dim, 1.0, conjugate)
    # force the quadrature path by shifting the target off the exact center
    shifted = lp.Ball([0.0] * dim, 1.0)
    quad = lp.moment_integral(shifted, [1e-9] + [0.0] * (dim - 1), conjugate, order=64)
    assert quad == pytest.approx(closed, abs=1e-8 * max(1.0, closed))
    assert lp.moment_integral(ball, ball.center, conjugate) == pytest.approx(closed, rel=1e-14)


def test_sharp_constant_examples():
    assert lp.sharp_ball_constant(2, 1.0, math.inf) == pytest.approx(1.0, rel=1e-14)
    assert lp.sharp_ball_constant(2, 1.0, 3.0) == pytest.approx((2 / math.pi) ** (1 / 3), rel=1e-14)


def test_sharp_constant_increasing_in_radius():
    for p in (math.inf, 3.0, 5.0):
        consts = [lp.sharp_ball_constant(2, R, p) for R in (0.5, 1.0, 1.5, 2.0)]
        assert all(a < b for a, b in zip(consts, consts[1:]))


def test_ball_bound_analytic_equality_chain():
    # N=2, p=inf, R=1, f = |x - a|: deviation R, bound R * 1
    rep = lp.ostrowski_bound_ball(lp.catalog("distance", [0.0, 0.0]), DISK, math.inf, 64)
    assert rep.deviation == pytest.approx(1.0, rel=1e-12)
    assert rep.bound == pytest.approx(1.0, rel=1e-12)
    # N=2, p=3, R=1, f = |x - a|^(1/2): both sides exactly 1
    rep = lp.ostrowski_bound_ball(lp.catalog("power_distance", [0.0, 0.0], 0.5), DISK, 3.0, 256)
    assert rep.deviation == pytest.approx(1.0, abs=1e-4)
    assert rep.bound == pytest.approx(1.0, abs=1e-4)
    assert abs(rep.ratio - 1.0) < 1e-4


def test_constant_field_zero_ratio():
    rep = lp.ostrowski_bound_ball(lp.catalog("constant", 3.0), DISK, 4.0, 64)
    assert rep.deviation == pytest.approx(0.0, abs=1e-14)
    assert rep.ratio == 0.0


def test_general_bound_symmetric_field():
    # odd symmetry makes the deviation vanish while the bound stays positive
    rep = lp.ostrowski_bound_general(lp.catalog("coordinate", 1), DISK, [0.0, 0.0], math.inf, 64)
    assert rep.deviation == pytest.approx(0.0, abs=1e-12)
    assert rep.bound == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("ball", [DISK, BALL3], ids=["N2", "N3"])
def test_sharpness_extremal_ratio(ball):
    n = ball.dim
    for p in (math.inf, n + 1.0, 2.0 * n, 10.0 * n):
        witness = lp.extremal_field(p, ball.center)
        rep = lp.ostrowski_bound_ball(witness, ball, p, 256)
        assert abs(rep.ratio - 1.0) < 1e-3
        rep = lp.ostrowski_bound_general(witness, ball, ball.center, p, 256)
        assert abs(rep.ratio - 1.0) < 1e-3


def test_sharpness_off_center_full_quadrature_path():
    y = np.array([0.3, -0.2])
    for p in (math.inf, 3.0, 4.0):
        witness = lp.extremal_field(p, y)
        rep = lp.ostrowski_bound_general(witness, DISK, y, p, 256)
        assert abs(rep.ratio - 1.0) < 1e-3


def test_inequality_property_randomized():
    rng = np.random.default_rng(101)
    builders = [
        lambda: lp.catalog("constant", rng.uniform(-3, 3)),
        lambda: lp.catalog("linear", rng.uniform(-1, 1), rng.uniform(-1, 1, size=2)),
        lambda: lp.catalog("coordinate", int(rng.integers(1, 3))),
        lambda: lp.catalog("harmonic_poly", int(rng.integers(1, 5))),
        lambda: lp.catalog("quadratic_radial", rng.uniform(-0.4, 0.4, size=2)),
    ]
    for i in range(50):
        field = builders[i % len(builders)]()
        y = rng.normal(size=2)
        y *= rng.uniform(0.0, 0.7) / np.linalg.norm(y)
        p = rng.choice([math.inf, 3.0, 4.0, 8.0])
        general = lp.ostrowski_bound_general(field, DISK, y, p, 64)
        assert general.ratio <= 1.0 + 1e-6
        ball = lp.ostrowski_bound_ball(field, DISK, p, 64)
        assert ball.ratio <= 1.0 + 1e-6


def test_bound_requires_p_above_dimension():
    with pytest.raises(ExponentError):
        lp.ostrowski_bound_general(lp.catalog("coordinate", 1), DISK, [0.0, 0.0], 2.0, 32)
    with pytest.raises(ExponentError):
        lp.ostrowski_bound_ball(lp.catalog("coordinate", 1), BALL3, 3.0, 32)


# ---------------------------------------------------------------------------
# 1-D oracle suite
# ---------------------------------------------------------------------------


def test_montgomery_kernel_two_branch_form():
    kern = Montgomery1D(0.0, 1.0)
    t = np.array([0.1, 0.3, 0.31, 0.9])
    np.testing.assert_allclose(kern.kernel(t, 0.3), [0.1 - 0.0, 0.3 - 0.0, 0.31 - 1.0, 0.9 - 1.0])


def test_montgomery_identity_linear():
    rep = montgomery_identity_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.3)
    assert rep.residual < 1e-12
    # the deviation from the mean is x - 1/2
    assert rep.lhs - 0.5 == pytest.approx(0.3 - 0.5, rel=1e-12)


def test_montgomery_identity_constant_and_quadratic():
    assert montgomery_identity_1d(polynomial_1d([4.0]), 0.0, 1.0, 0.7).residual < 1e-14
    assert montgomery_identity_1d(polynomial_1d([0.0, 0.0, 1.0]), 0.0, 1.0, 0.5).residual < 1e-12


def test_montgomery_identity_generic_interval_and_cubic():
    f = polynomial_1d([1.0, -2.0, 0.5, 2.0])
    rep = montgomery_identity_1d(f, -1.5, 2.0, 0.25)
    assert rep.residual < 1e-12


def test_montgomery_rejects_outside_point():
    with pytest.raises(RangeError):
        montgomery_identity_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 2.0)


def test_1d_bound_inf_branch_attained_at_endpoint():
    rep = ostrowski_bounds_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.0, "inf")
    assert rep.deviation == pytest.approx(0.5, rel=1e-14)
    assert rep.bound == pytest.approx(0.5, rel=1e-14)
    assert abs(rep.ratio - 1.0) < 1e-13


def test_1d_bound_midpoint():
    rep = ostrowski_bounds_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.5, "inf")
    assert rep.deviation == pytest.approx(0.0, abs=1e-15)
    assert rep.bound == pytest.approx(0.25, rel=1e-14)


def test_1d_bound_constant_zero_ratio():
    rep = ostrowski_bounds_1d(polynomial_1d([2.0]), 0.0, 1.0, 0.3, "inf")
    assert rep.ratio == 0.0


def test_1d_bound_q_and_one_branches_hold():
    rng = np.random.default_rng(33)
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, size=4)
        x = rng.uniform(0.0, 1.0)
        f = polynomial_1d(coeffs)
        assert ostrowski_bounds_1d(f, 0.0, 1.0, x, "q", q=2.0).ratio <= 1 + 1e-10
        assert ostrowski_bounds_1d(f, 0.0, 1.0, x, "one").ratio <= 1 + 1e-10
        assert ostrowski_bounds_1d(f, 0.0, 1.0, x, "inf").ratio <= 1 + 1e-10


def test_1d_bound_bad_exponent():
    with pytest.raises(ExponentError):
        ostrowski_bounds_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.5, "q", q=1.0)
    with pytest.raises(ParameterError):
        ostrowski_bounds_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.5, "two")


def test_derivative_norms_with_sign_changes():
    # f' = 2t - 1 changes sign at 1/2: the L1 norm needs the split
    f = polynomial_1d([0.0, -1.0, 1.0])
    assert derivative_norm_1d(f, 0.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert derivative_norm_1d(f, 0.0, 1.0, math.inf) == pytest.approx(1.0, rel=1e-12)
