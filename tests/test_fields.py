"""Tests for the field catalog, gradients, and gradient norms."""

import math

import numpy as np
import pytest

import layerpot as lp
import layerpot.fields
from diagnostics import fd_gradient, holder_ratio
from layerpot.errors import (
    CatalogError,
    ExponentError,
    IntegrabilityError,
    ParameterError,
    SingularityError,
)
from layerpot.fields import LebesgueExponent
from layerpot.kernel import row_norms

DISK = lp.Ball([0.0, 0.0], 1.0)

CATALOG_2D = [
    lp.catalog("constant", 5.0),
    lp.catalog("linear", 0.5, [1.0, -2.0]),
    lp.catalog("coordinate", 1),
    lp.catalog("quadratic_radial", [0.2, -0.1]),
    lp.catalog("harmonic_poly", 3),
    lp.catalog("distance", [0.3, 0.1]),
    lp.catalog("power_distance", [0.3, 0.1], 0.5),
]

CATALOG_3D = [
    lp.catalog("constant", 5.0),
    lp.catalog("linear", 0.5, [1.0, -2.0, 0.7]),
    lp.catalog("coordinate", 3),
    lp.catalog("quadratic_radial", [0.2, -0.1, 0.3]),
    lp.catalog("harmonic_poly", 1, dim=3),
    lp.catalog("harmonic_poly", 2, dim=3),
    lp.catalog("distance", [0.3, 0.1, -0.2]),
    lp.catalog("power_distance", [0.3, 0.1, -0.2], 0.5),
]


@pytest.mark.parametrize("field", CATALOG_2D, ids=lambda f: f.name)
def test_gradient_matches_finite_differences(field):
    rng = np.random.default_rng(11)
    count = 0
    while count < 8:
        x = rng.uniform(-1.0, 1.0, size=2)
        if any(np.linalg.norm(x - np.asarray(a)) < 0.1 for a in field.singular_arrays()):
            continue
        np.testing.assert_allclose(field.gradient(x), fd_gradient(field.evaluate, x), atol=1e-5)
        count += 1


def test_constant_field():
    f = lp.catalog("constant", 5.0)
    assert f.evaluate([2.0, 3.0]) == 5.0
    np.testing.assert_allclose(f.gradient([2.0, 3.0]), [0.0, 0.0])


def test_distance_gradient_is_unit_radial():
    y = np.array([0.2, -0.4])
    f = lp.catalog("distance", y)
    x = np.array([0.9, 0.1])
    assert f.evaluate(x) == pytest.approx(np.linalg.norm(x - y), rel=1e-15)
    np.testing.assert_allclose(f.gradient(x), (x - y) / np.linalg.norm(x - y), rtol=1e-14)


def test_power_distance_gradient_formula():
    # beta = (p - N)/(p - 1) reproduces the extremal gradient profile
    p, n = 3.0, 2
    beta = (p - n) / (p - 1)
    f = lp.catalog("power_distance", [0.0, 0.0], beta)
    x = np.array([0.3, 0.4])
    r = np.linalg.norm(x)
    np.testing.assert_allclose(f.gradient(x), beta * r ** (beta - 2) * x, rtol=1e-14)
    assert f.evaluate(x) == pytest.approx(r**beta, rel=1e-14)
    assert f.gradient_power == pytest.approx(beta - 1.0)


def test_catalog_errors():
    with pytest.raises(CatalogError):
        lp.catalog("mystery", 1)
    with pytest.raises(ParameterError):
        lp.catalog("power_distance", [0.0, 0.0], -0.5)
    with pytest.raises(ParameterError):
        lp.catalog("coordinate", 0)


def test_gradient_at_singular_point_raises():
    f = lp.catalog("distance", [0.0, 0.0])
    with pytest.raises(SingularityError):
        f.gradient([0.0, 0.0])


def test_gradient_raises_within_1e_14_of_every_singular_point():
    a, b = np.array([0.2, 0.1]), np.array([-0.3, 0.4])
    ref = lp.catalog("distance", a)
    fields = [
        ref,
        lp.catalog("power_distance", a, 0.5),
        # built directly: the catalog's radial gradient about a, with b singular too
        lp.ScalarField(
            name="two-points", evaluate_fn=ref.evaluate_fn, gradient_fn=ref.gradient_fn, singular_points=(b, a), dim=2
        ),
        lp.ScalarField(
            name="plain", evaluate_fn=ref.evaluate_fn, gradient_fn=lambda x: x.copy(), singular_points=(a, b), dim=2
        ),
    ]
    for f in fields:
        for p in f.singular_arrays():
            with pytest.raises(SingularityError):
                f.gradient(np.stack([[0.9, 0.0], p + [0.7e-14, 0.0]]))
            assert np.all(np.isfinite(f.gradient(p + [2e-14, 0.0])))


@pytest.mark.parametrize("field", [f for f in CATALOG_2D + CATALOG_3D if f.singular_points], ids=lambda f: f.name)
def test_singular_field_gradients_take_each_distance_once(field, monkeypatch):
    # the singular-point guard's norms serve the gradient too, with the
    # bits of the gradient function alone
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(1000, len(field.singular_points[0])))
    expected = field.gradient_fn(x)
    calls = []

    def counting(d):
        calls.append(len(d))
        return row_norms(d)

    monkeypatch.setattr(layerpot.fields, "row_norms", counting)
    assert field.gradient(x).tobytes() == expected.tobytes()
    assert calls == [len(x)]


def test_extremal_field_shapes():
    f = lp.extremal_field(math.inf, [0.0, 0.0])
    assert f.evaluate([0.6, 0.8]) == pytest.approx(1.0, rel=1e-14)
    f = lp.extremal_field(3.0, [0.0, 0.0])  # N=2: beta = 1/2
    assert f.evaluate([0.25, 0.0]) == pytest.approx(0.5, rel=1e-14)
    f = lp.extremal_field(5.0, [0.0, 0.0, 0.0])  # N=3: beta = 1/2
    assert -f.evaluate([0.25, 0.0, 0.0]) == pytest.approx(-0.5, rel=1e-14)


def test_extremal_field_requires_p_above_dim():
    with pytest.raises(ExponentError):
        lp.extremal_field(2.0, [0.0, 0.0])
    with pytest.raises(ExponentError):
        lp.extremal_field(3.0, [0.0, 0.0, 0.0])


def test_grad_norm_examples():
    assert lp.grad_norm(lp.extremal_field(math.inf, [0.0, 0.0]), DISK, math.inf) == 1.0
    assert lp.grad_norm(lp.catalog("constant", 3.0), DISK, 4.0) == 0.0
    # frozen oracle: 2 pi int (r^{-1/2}/2)^3 r dr = pi/2, cube root 1.1624473515096265
    val = lp.grad_norm(lp.extremal_field(3.0, [0.0, 0.0]), DISK, 3.0)
    assert val == pytest.approx(1.1624473515096265, rel=1e-12)


def test_grad_norm_closed_form_matches_quadrature():
    # same number through the closed form and through the adapted volume rule
    f = lp.catalog("power_distance", [0.0, 0.0], 0.5)
    closed = lp.grad_norm(f, DISK, 3.0)
    stripped = lp.ScalarField(
        name="no-closed-form",
        evaluate_fn=f.evaluate_fn,
        gradient_fn=f.gradient_fn,
        singular_points=f.singular_points,
        gradient_power=f.gradient_power,
        dim=f.dim,
    )
    assert lp.grad_norm(stripped, DISK, 3.0, order=64) == pytest.approx(closed, rel=1e-10)


def test_grad_norm_off_center_ball():
    # no closed form when the singular point is not the ball center
    ball = lp.Ball([0.2, 0.0], 0.7)
    f = lp.extremal_field(3.0, [0.0, 0.0])
    val = lp.grad_norm(f, ball, 3.0, order=128)
    # independent fine-midpoint oracle, frozen: see tests/README-style derivation
    m = 4000
    th = 2 * math.pi * (np.arange(m) + 0.5) / m
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    t, _ = ball.ray_segments([0.0, 0.0], dirs)
    oracle = ((2 * math.pi / m) * np.sum(0.125 * 2 * np.sqrt(t))) ** (1 / 3)
    assert val == pytest.approx(oracle, rel=1e-9)


def test_grad_norm_infinite_p_unbounded_gradient():
    f = lp.catalog("power_distance", [0.0, 0.0], 0.5)
    with pytest.raises(IntegrabilityError):
        lp.grad_norm(f, DISK, math.inf)


def test_grad_norm_sup_of_power_distance_depends_on_the_domain():
    # sup |grad |x - a|^2| = 2 max |x - a| = 3 on the unit disk for a = (0.5, 0)
    f = lp.catalog("power_distance", [0.5, 0.0], 2.0)
    assert 2.99 < lp.grad_norm(f, DISK, math.inf, 64) <= 3.0
    # centred balls keep their closed form beta R^(beta - 1)
    centred = lp.catalog("power_distance", [0.0, 0.0], 2.0)
    assert lp.grad_norm(centred, lp.Ball([0.0, 0.0], 1.5), math.inf, 64) == 3.0


def test_lebesgue_exponent_conjugates():
    assert LebesgueExponent.of(math.inf).conjugate == 1.0
    p = LebesgueExponent.of(3.0)
    assert 1 / p.value + 1 / p.conjugate == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ExponentError):
        LebesgueExponent.of(1.0)


def test_holder_hypothesis_sampler_bounded():
    f = lp.catalog("power_distance", [0.0, 0.0], 0.5)
    ratios = holder_ratio(f, [0.0, 0.0], 0.5, [1e-1, 1e-2, 1e-3, 1e-4])
    assert np.all(ratios < 2.0)


def test_singular_family_cap():
    pts = tuple((float(i), 0.0) for i in range(17))
    with pytest.raises(ParameterError):
        lp.ScalarField(
            name="too-many",
            evaluate_fn=lambda x: np.zeros(len(x)),
            gradient_fn=lambda x: np.zeros_like(x),
            singular_points=pts,
        )


def test_array_singular_points_are_normalised():
    # the field keys memoized volume integrals, so it must hash with array points
    ref = lp.catalog("distance", [0.2, 0.1])
    f = lp.ScalarField(
        name="distance-from-array",
        evaluate_fn=ref.evaluate_fn,
        gradient_fn=ref.gradient_fn,
        singular_points=[np.array([0.2, 0.1])],
        dim=2,
    )
    y = [-0.3, 0.4]
    assert lp.gradient_volume_integral(f, DISK, y, 64) == lp.gradient_volume_integral(ref, DISK, y, 64)
    assert f.singular_points == ((0.2, 0.1),)


def test_singular_arrays_are_shared_and_read_only():
    # every gradient call and every rule about a new target reads them
    f = lp.catalog("power_distance", [0.2, 0.1], 0.5)
    arrays = f.singular_arrays()
    assert [a.tolist() for a in arrays] == [[0.2, 0.1]]
    assert all(a is b for a, b in zip(arrays, f.singular_arrays()))
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert lp.catalog("constant", 1.0).singular_arrays() == ()


def test_harmonic_poly_is_harmonic():
    for k in (1, 2, 3, 4):
        f = lp.catalog("harmonic_poly", k)
        assert f.laplacian([0.3, 0.2]) == 0.0
    f3 = lp.catalog("harmonic_poly", 2, dim=3)
    x = np.array([0.3, 0.2, -0.1])
    assert f3.evaluate(x) == pytest.approx(0.3**2 - 0.2**2, rel=1e-14)


def test_grad_norm_matches_moment_based_formula():
    # beta (moment integral)^(1/p) reproduces the closed-form norm on balls
    for n, p in ((2, 3.0), (2, 5.0), (3, 4.0)):
        ball = lp.Ball([0.0] * n, 1.0)
        beta = (p - n) / (p - 1.0)
        f = lp.catalog("power_distance", ball.center, beta)
        conj = p / (p - 1.0)
        moment = lp.moment_integral_closed_form(n, 1.0, conj)
        assert lp.grad_norm(f, ball, p) == pytest.approx(beta * moment ** (1.0 / p), rel=1e-6)


@pytest.mark.parametrize(
    "dim, field",
    [(2, f) for f in CATALOG_2D] + [(3, f) for f in CATALOG_3D],
    ids=lambda p: p.name if isinstance(p, lp.ScalarField) else f"{p}d",
)
def test_fields_do_not_depend_on_memory_layout(dim, field):
    # volume-rule nodes are coordinate-major; a row-major copy of the same
    # batch must give the same bits (17,728 rows is the size of a volume rule)
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(17_728, dim))
    xf = np.asfortranarray(x)
    for method in (field.evaluate, field.gradient, field.laplacian):
        np.testing.assert_array_equal(method(xf), method(x))
