"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

import layerpot as lp
from oracle_1d import montgomery_identity_1d, ostrowski_bounds_1d, polynomial_1d

DISK = lp.Ball([0.0, 0.0], 1.0)
BALL3 = lp.Ball([0.0, 0.0, 0.0], 1.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_gauss_trichotomy():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(100)
    for domain in (DISK, BALL3):
        offset = 0.05 * domain.diameter
        for _ in range(3):
            d = rng.normal(size=domain.dim)
            d /= np.linalg.norm(d)
            zb = domain.center + domain.radius * d
            nu = domain.outward_normal(zb)
            worst = max(worst, abs(lp.double_layer(1.0, domain, zb - offset * nu, 64).value - 1.0))
            worst = max(worst, abs(lp.double_layer(1.0, domain, zb + offset * nu, 64).value))
            worst = max(worst, abs(lp.double_layer(1.0, domain, zb, 64).value - 0.5))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report(1, "Gauss trichotomy", ok, f"worst={worst:.2e} tol=1e-8, {elapsed:.2f}s < 1s")


def test_criterion_2_jump_relations():
    start = time.monotonic()
    h = lp.catalog("coordinate", 1)
    worst = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        y0 = np.array([math.cos(theta), math.sin(theta)])
        res = lp.jump_relation_check(h, DISK, y0, [1e-2, 5e-3], 64)
        jump = res.interior_limit_estimate - res.exterior_limit_estimate
        worst = max(worst, abs(jump - h.evaluate(y0)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(2, "jump relations", ok, f"worst={worst:.2e} tol=1e-4, {elapsed:.2f}s < 5s")


def test_criterion_3_interior_representation():
    start = time.monotonic()
    smooth = [
        lp.catalog("constant", 2.5),
        lp.catalog("coordinate", 1),
        lp.catalog("linear", 0.5, [1.0, -2.0]),
        lp.catalog("harmonic_poly", 3),
        lp.catalog("quadratic_radial", [0.3, -0.1]),
    ]
    rng = np.random.default_rng(200)
    points = []
    for _ in range(5):
        d = rng.normal(size=2)
        points.append(rng.uniform(0.0, 0.7) * d / np.linalg.norm(d))
    worst_smooth = max(
        lp.check_f1(f, DISK, y, 128).residual for f in smooth for y in points
    )
    singular = [
        (lp.catalog("distance", [0.0, 0.0]), [0.4, 0.0]),
        (lp.catalog("distance", [0.3, 0.0]), [0.0, -0.2]),
        (lp.catalog("power_distance", [0.0, 0.0], 0.5), [0.4, 0.0]),
        (lp.catalog("power_distance", [0.0, 0.0], 0.75), [-0.2, 0.3]),
    ]
    worst_singular = max(lp.check_f1(f, DISK, y, 128).residual for f, y in singular)
    # non-polynomial smooth field keeps the residual above roundoff so the
    # doubling ratio is measurable
    fconv = lp.catalog("distance", [1.2, -0.4])
    res = [lp.check_f1(fconv, DISK, [0.2, 0.5], o).residual for o in (16, 32, 64)]
    halves = all(r2 <= r1 / 4.0 or r2 < 1e-12 for r1, r2 in zip(res, res[1:]))
    elapsed = time.monotonic() - start
    ok = worst_smooth < 1e-6 and worst_singular < 1e-4 and halves and elapsed < 30.0
    report(
        3,
        "interior representation",
        ok,
        f"smooth={worst_smooth:.2e}<1e-6 singular={worst_singular:.2e}<1e-4 "
        f"doubling {res[0]:.1e}->{res[1]:.1e}->{res[2]:.1e}, {elapsed:.1f}s < 30s",
    )


def test_criterion_4_divergence_pairing():
    ones = lp.catalog("constant", 1.0)
    rng = np.random.default_rng(300)
    interior = [rng.uniform(-0.6, 0.6, size=2) for _ in range(5)]
    exterior = [p * (1.5 + i * 0.3) / np.linalg.norm(p) for i, p in enumerate(interior)]
    worst_const = max(lp.check_fig(ones, DISK, y, 64).residual for y in interior + exterior)
    polys = [
        lp.catalog("coordinate", 1),
        lp.catalog("harmonic_poly", 2),
        lp.catalog("quadratic_radial", [0.0, 0.0]),
        lp.catalog("linear", 1.0, [0.5, 0.5]),
    ]
    worst_poly = max(lp.check_fig(f, DISK, y, 64).residual for f in polys for y in interior + exterior)
    rhs_values = [lp.check_fig(lp.catalog("harmonic_poly", 2), DISK, y, 64).rhs for y in interior + exterior]
    spread = float(np.ptp(rhs_values))
    ok = worst_const < 1e-8 and worst_poly < 1e-6 and spread < 1e-8
    report(
        4,
        "divergence pairing",
        ok,
        f"const={worst_const:.2e}<1e-8 poly={worst_poly:.2e}<1e-6 pivot-spread={spread:.2e}",
    )


def test_criterion_5_ball_corollaries():
    rep2 = lp.check_ball_corollaries(lp.catalog("distance", [0.0, 0.0]), DISK, None, 64, "REP2")
    ok2 = rep2.residual < 1e-6
    details = [f"REP2 dev={rep2.residual:.2e}"]
    ok3 = True
    for ball, expected in ((DISK, 0.5), (BALL3, 0.6)):
        rep3 = lp.check_ball_corollaries(lp.catalog("quadratic_radial", ball.center), ball, None, 48, "REP3")
        correction = rep3.metadata["singular_part"] - rep3.metadata["smooth_part"]
        ok3 = (
            ok3
            and abs(rep3.metadata["volume_mean"] - expected) < 1e-6
            and abs(correction - expected) < 1e-6
            and rep3.residual < 1e-6
        )
        details.append(f"REP3 N={ball.dim} sides at {expected}")
    harmonics = [lp.catalog("coordinate", 2), lp.catalog("harmonic_poly", 2)]
    worst = max(
        lp.check_ball_corollaries(f, DISK, [0.25, 0.1], 64, which).residual
        for f in harmonics
        for which in ("MAT", "COM")
    )
    ok = ok2 and ok3 and worst < 1e-6
    report(5, "ball corollaries", ok, "; ".join(details) + f"; MAT/COM worst={worst:.2e}")


def test_criterion_6_sharpness():
    start = time.monotonic()
    worst = 0.0
    for ball in (DISK, BALL3):
        n = ball.dim
        for p in (math.inf, n + 1.0, 2.0 * n):
            witness = lp.extremal_field(p, ball.center)
            worst = max(worst, abs(lp.ostrowski_bound_ball(witness, ball, p, 256).ratio - 1.0))
            worst = max(
                worst, abs(lp.ostrowski_bound_general(witness, ball, ball.center, p, 256).ratio - 1.0)
            )
    chain = lp.ostrowski_bound_ball(lp.catalog("power_distance", [0.0, 0.0], 0.5), DISK, 3.0, 256)
    chain_ok = abs(chain.deviation - 1.0) < 1e-4 and abs(chain.bound - 1.0) < 1e-4
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and chain_ok and elapsed < 60.0
    report(
        6,
        "sharpness",
        ok,
        f"worst |ratio-1|={worst:.2e}<1e-3, chain lhs={chain.deviation:.6f} rhs={chain.bound:.6f}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_7_moment_closed_form():
    worst = 0.0
    for dim in (2, 3):
        for conjugate in (1.0, 1.2, 1.4):
            ball = lp.Ball([0.0] * dim, 1.0)
            closed = lp.moment_integral_closed_form(dim, 1.0, conjugate)
            quad = lp.moment_integral(ball, [1e-9] + [0.0] * (dim - 1), conjugate, order=64)
            worst = max(worst, abs(closed - quad))
    ok = worst < 1e-8
    report(7, "kernel moment closed form", ok, f"worst={worst:.2e} tol=1e-8")


def test_criterion_8_green_machinery():
    fields = [
        lp.catalog("coordinate", 1),
        lp.catalog("harmonic_poly", 2),
        lp.catalog("quadratic_radial", [0.0, 0.0]),
    ]
    worst_grr = max(
        lp.check_grr(f, DISK, y, 64).residual for f in fields for y in ([0.3, -0.1], [2.0, 0.7])
    )
    worst_ext = max(lp.check_green_riemann(f, DISK, [2.0, 0.7], 64).residual for f in fields)
    worst_int = max(lp.check_green_riemann(f, DISK, [0.3, -0.1], 64).residual for f in fields)
    ok = worst_grr < 1e-6 and worst_ext < 1e-6 and worst_int < 1e-6
    report(
        8,
        "Green machinery",
        ok,
        f"flux identity={worst_grr:.2e} exterior-zero={worst_ext:.2e} interior={worst_int:.2e} tol=1e-6",
    )


def test_criterion_9_integrated_identities():
    start = time.monotonic()
    worst = 0.0
    for f in (lp.catalog("constant", 1.0), lp.catalog("coordinate", 1)):
        f2, f3 = lp.check_f2_f3(f, DISK, 32, 64)
        worst = max(worst, f2.residual, f3.residual)
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 120.0
    report(9, "integrated identities", ok, f"worst={worst:.2e} tol=1e-3, {elapsed:.1f}s < 120s")


def test_criterion_10_reproducing_kernel():
    harmonics = [
        lp.catalog("constant", 2.0),
        lp.catalog("coordinate", 1),
        lp.catalog("harmonic_poly", 2),
        lp.catalog("harmonic_poly", 3),
    ]
    rng = np.random.default_rng(400)
    worst_rep = 0.0
    for f in harmonics:
        for _ in range(3):
            y = rng.normal(size=2)
            y *= rng.uniform(0.0, 0.8) / np.linalg.norm(y)
            worst_rep = max(worst_rep, abs(lp.poisson_evaluate(DISK, f, y, 128) - f.evaluate(y)))
    worst_norm = 0.0
    for domain, order in ((DISK, 128), (BALL3, 64)):
        for _ in range(4):
            d = rng.normal(size=domain.dim)
            d *= rng.uniform(0.0, 0.8) / np.linalg.norm(d)
            worst_norm = max(worst_norm, abs(lp.poisson_evaluate(domain, 1.0, d, order) - 1.0))
    ok = worst_rep < 1e-7 and worst_norm < 1e-9
    report(
        10,
        "reproducing kernel",
        ok,
        f"harmonic reproduction={worst_rep:.2e}<1e-7 normalization={worst_norm:.2e}<1e-9",
    )


def test_criterion_11_one_dimensional_oracle():
    polys = [
        polynomial_1d([0.0, 1.0]),
        polynomial_1d([0.0, 0.0, 1.0]),
        polynomial_1d([1.0, -2.0, 0.5, 2.0]),
    ]
    worst = max(
        montgomery_identity_1d(f, 0.0, 1.0, x).residual for f in polys for x in (0.0, 0.3, 0.5, 1.0)
    )
    rep = ostrowski_bounds_1d(polynomial_1d([0.0, 1.0]), 0.0, 1.0, 0.0, "inf")
    attained = abs(rep.ratio - 1.0) < 1e-14
    ok = worst < 1e-12 and attained
    report(
        11,
        "1-D oracle",
        ok,
        f"identity residual={worst:.2e}<1e-12, endpoint ratio={rep.ratio:.15f}",
    )
