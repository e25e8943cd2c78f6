"""Tests for the representation-identity checks."""

import math

import numpy as np
import pytest

import layerpot as lp
import layerpot.fields
import layerpot.potentials
from layerpot.errors import BudgetError, PlacementError
from layerpot.geometry import escalated_order
from layerpot.kernel import row_norms, sphere_area
from layerpot.poisson import poisson_kernel
from layerpot.representations import _estimate_f2_nodes

DISK = lp.Ball([0.0, 0.0], 1.0)
BALL3 = lp.Ball([0.0, 0.0, 0.0], 1.0)
STAR = lp.StarShaped2D(
    lambda th: 1.0 + 0.25 * np.cos(3 * th),
    radius_d1=lambda th: -0.75 * np.sin(3 * th),
    radius_d2=lambda th: -2.25 * np.cos(3 * th),
)


# ---------------------------------------------------------------------------
# F1
# ---------------------------------------------------------------------------


def test_f1_constant_field():
    rep = lp.check_f1(lp.catalog("constant", 3.0), DISK, [0.4, -0.1], 64)
    assert rep.passed and rep.residual < 1e-10


def test_f1_coordinate_against_brute_force():
    # independent fine midpoint oracle for the right-hand side
    f = lp.catalog("coordinate", 1)
    y = np.array([0.3, -0.2])
    rep = lp.check_f1(f, DISK, y, 128)
    assert rep.residual < 1e-6
    m_th = 1024
    th = 2 * math.pi * (np.arange(m_th) + 0.5) / m_th
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    proj = dirs @ y
    t = -proj + np.sqrt(proj**2 + 1 - y @ y)
    gvi_oracle = (1 / m_th) * np.sum(dirs[:, 0] * t)
    mb = 4096
    tb = 2 * math.pi * np.arange(mb) / mb
    xb = np.column_stack([np.cos(tb), np.sin(tb)])
    d = xb - y
    dl_oracle = (2 * math.pi / mb) * np.sum(
        xb[:, 0] * np.einsum("ij,ij->i", d, xb) / (2 * math.pi * np.sum(d**2, axis=1))
    )
    assert rep.rhs == pytest.approx(dl_oracle - gvi_oracle, abs=1e-6)


def test_f1_distance_field_with_interior_singularity():
    rep = lp.check_f1(lp.catalog("distance", [0.0, 0.0]), DISK, [0.4, 0.0], 128)
    assert rep.residual < 1e-4 and rep.passed


def test_f1_on_star_domain():
    rep = lp.check_f1(lp.catalog("harmonic_poly", 2), STAR, [0.1, -0.2], 64)
    assert rep.residual < 1e-8


def test_f1_convergence_under_order_doubling():
    # the ladder starts where the requested order exceeds the automatic
    # near-boundary escalation floor for this probe depth
    f = lp.catalog("distance", [1.2, -0.4])  # smooth on the closed disk
    res = [lp.check_f1(f, DISK, [0.2, 0.5], o).residual for o in (16, 32, 64)]
    assert res[1] <= res[0] / 4.0
    assert res[2] <= res[1] / 4.0


def test_f1_rejects_non_interior_targets():
    with pytest.raises(PlacementError):
        lp.check_f1(lp.catalog("constant", 1.0), DISK, [1.0, 0.0], 32)


# ---------------------------------------------------------------------------
# FIG
# ---------------------------------------------------------------------------


def test_fig_constant_equals_measure_for_every_pivot():
    f = lp.catalog("constant", 1.0)
    for y in ([0.0, 0.0], [0.5, 0.5], [5.0, 5.0], [-3.0, 2.0]):
        rep = lp.check_fig(f, DISK, y, 64)
        assert rep.lhs == pytest.approx(math.pi, rel=1e-12)
        assert rep.residual < 1e-8


def test_fig_coordinate_exterior_pivot():
    rep = lp.check_fig(lp.catalog("coordinate", 1), DISK, [5.0, 5.0], 64)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.residual < 1e-8


def test_fig_quadratic_radial_lhs_oracle():
    rep = lp.check_fig(lp.catalog("quadratic_radial", [0.0, 0.0]), DISK, [0.0, 0.0], 64)
    assert rep.lhs == pytest.approx(math.pi / 2, rel=1e-12)
    assert rep.residual < 1e-10


def test_fig_pivot_independence():
    f = lp.catalog("harmonic_poly", 2)
    rng = np.random.default_rng(4)
    values = []
    for _ in range(5):
        y = rng.uniform(-3, 3, size=2)
        values.append(lp.check_fig(f, DISK, y, 64).rhs)
    assert np.ptp(values) < 1e-10


# ---------------------------------------------------------------------------
# Ball corollaries
# ---------------------------------------------------------------------------


def test_singular_point_on_the_boundary_keeps_the_rows():
    # |x - a| with a on the circle: the volume rules stay centred inside
    f = lp.catalog("distance", [1.0, 0.0])
    y = [0.3, 0.1]
    residuals = [lp.check_fig(f, DISK, y, order).residual for order in (32, 64, 128)]
    assert residuals[0] > residuals[1] > residuals[2]
    for which in ("RP0", "RP1"):
        assert np.isfinite(lp.check_rp(f, DISK, y, [-0.2, 0.4], 64, which).residual)
    assert lp.grad_norm(f, DISK, 3.0, 64) == pytest.approx(math.pi ** (1.0 / 3.0), rel=1e-14)


def test_rep2_distance_exact_cancellation():
    rep = lp.check_ball_corollaries(lp.catalog("distance", [0.0, 0.0]), DISK, None, 64, "REP2")
    assert rep.metadata["surface_mean"] == pytest.approx(1.0, rel=1e-12)
    assert rep.metadata["volume"] == pytest.approx(1.0, abs=1e-10)
    assert rep.residual < 1e-10


def test_fig_and_rep3_integrate_a_distance_field_on_the_rule_centred_at_its_kink():
    # int f of |x - a| sums on the rule adapted to a, as the pairing does
    f = lp.catalog("distance", [0.2, 0.1])
    for y in ([0.3, -0.1], [-0.7, 1.8]):
        assert lp.check_fig(f, DISK, y, 32).residual < 1e-9
    assert lp.check_ball_corollaries(f, DISK, None, 32, "REP3").residual < 1e-9


@pytest.mark.parametrize("ball,expected", [(DISK, 0.5), (BALL3, 0.6)], ids=["N2", "N3"])
def test_rep3_quadratic_radial(ball, expected):
    f = lp.catalog("quadratic_radial", ball.center)
    rep = lp.check_ball_corollaries(f, ball, None, 48, "REP3")
    assert rep.metadata["volume_mean"] == pytest.approx(expected, abs=1e-10)
    correction = rep.metadata["singular_part"] - rep.metadata["smooth_part"]
    assert correction == pytest.approx(expected, abs=1e-10)
    assert rep.residual < 1e-10


def test_mat_constant_any_interior_point():
    rep = lp.check_ball_corollaries(lp.catalog("constant", 4.0), DISK, [0.2, -0.6], 64, "MAT")
    assert rep.residual < 1e-10


def test_mat_agrees_with_f1_at_center():
    f = lp.catalog("harmonic_poly", 2)
    mat = lp.check_ball_corollaries(f, DISK, DISK.center, 64, "MAT")
    f1 = lp.check_f1(f, DISK, DISK.center, 64)
    assert mat.rhs == pytest.approx(f1.rhs, abs=1e-12)


def test_rep2_agrees_with_f1_machinery_at_center():
    # the surface-mean path and the double-layer path coincide on a ball
    f = lp.catalog("harmonic_poly", 2)
    rep2 = lp.check_ball_corollaries(f, DISK, None, 64, "REP2")
    f1 = lp.check_f1(f, DISK, DISK.center, 64)
    assert rep2.rhs == pytest.approx(f1.rhs, abs=1e-8)


@pytest.mark.parametrize("which", ["MAT", "COM", "CERC"])
def test_ball_identities_for_harmonic_fields(which):
    f = lp.catalog("harmonic_poly", 2)
    rep = lp.check_ball_corollaries(f, DISK, [0.3, 0.1], 64, which)
    assert rep.residual < 1e-6


def test_com_equals_mat_for_harmonic_trace():
    f = lp.catalog("coordinate", 2)
    com = lp.check_ball_corollaries(f, DISK, [0.25, 0.15], 96, "COM")
    mat = lp.check_ball_corollaries(f, DISK, [0.25, 0.15], 96, "MAT")
    assert com.rhs == pytest.approx(mat.rhs, abs=1e-6)


def test_com_close_to_the_sphere_escalates_its_correction():
    # the correction term needs the escalated rule of the chi term: summed
    # on the order-32 rule it leaves a residual of 1.1e-5 here
    f = lp.catalog("harmonic_poly", 2)
    rep = lp.check_ball_corollaries(f, DISK, [-0.720067909722, 0.0287786705822], 32, "COM")
    assert rep.residual < 1e-12


def test_com_3d_sums_on_the_pole_aligned_escalated_rule():
    f = lp.catalog("harmonic_poly", 2, dim=3)
    y = np.array([-0.435215638745, 0.017394092044, 0.201047561379])
    rep = lp.check_ball_corollaries(f, BALL3, y, 32, "COM")
    eff, _ = escalated_order(BALL3, 32, y)
    assert eff > 32
    rule = BALL3.boundary_rule(eff, pole=y - BALL3.center)
    vals = f.evaluate(rule.nodes)
    chi = rule.integrate(vals * poisson_kernel(BALL3, rule.nodes, y))
    d = y - rule.nodes
    correction = rule.integrate(vals * ((d @ (y - BALL3.center)) / (1.0 * sphere_area(3) * row_norms(d) ** 3)))
    vol = lp.gradient_volume_integral(f, BALL3, y, 32)
    assert (rep.metadata["chi"], rep.metadata["correction"]) == (chi, correction)
    assert rep.rhs == chi + correction - vol


def test_cerc_nonharmonic_field():
    rep = lp.check_ball_corollaries(lp.catalog("quadratic_radial", [0.1, 0.0]), DISK, [0.2, -0.3], 96, "CERC")
    assert rep.residual < 1e-8


# ---------------------------------------------------------------------------
# RP0 / RP1
# ---------------------------------------------------------------------------


def test_rp_constant_field():
    rep = lp.check_rp(lp.catalog("constant", 2.0), DISK, [0.3, 0.3], None, 64, "RP1")
    assert rep.residual < 1e-10


def test_rp1_coordinate():
    rep = lp.check_rp(lp.catalog("coordinate", 1), DISK, [0.2, 0.1], None, 128, "RP1")
    assert rep.residual < 1e-6


def test_rp0_pivot_invariance():
    f = lp.catalog("harmonic_poly", 2)
    y = [0.2, 0.1]
    rng = np.random.default_rng(8)
    values = []
    for _ in range(5):
        z = rng.uniform(-3, 3, size=2)
        values.append(lp.check_rp(f, DISK, y, z, 128, "RP0").rhs)
    values.append(lp.check_rp(f, DISK, y, None, 128, "RP1").rhs)
    assert np.ptp(values) < 1e-6


# ---------------------------------------------------------------------------
# Exterior identity
# ---------------------------------------------------------------------------


def test_c2_exterior_examples():
    rep = lp.check_c2_exterior(lp.catalog("constant", 5.0), DISK, [3.0, 0.0], 64)
    assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10
    rep = lp.check_c2_exterior(lp.catalog("coordinate", 1), DISK, [2.0, 0.0], 64)
    assert rep.residual < 1e-8
    rep = lp.check_c2_exterior(lp.catalog("distance", [0.0, 0.0]), DISK, [0.0, 3.0], 64)
    assert rep.residual < 1e-6


def test_c2_exterior_rejects_interior_targets():
    with pytest.raises(PlacementError):
        lp.check_c2_exterior(lp.catalog("constant", 1.0), DISK, [0.3, 0.0], 32)


# ---------------------------------------------------------------------------
# F2 / F3
# ---------------------------------------------------------------------------


def test_f2_f3_constant_field():
    f2, f3 = lp.check_f2_f3(lp.catalog("constant", 2.0), DISK, 16, 64)
    assert f2.lhs == pytest.approx(2.0 * math.pi, abs=2e-3)
    assert f2.residual < 1e-3
    assert f3.lhs == pytest.approx(2.0 * math.pi, rel=1e-10)  # c * meas(boundary) / 2
    assert f3.residual < 1e-3


def test_f2_f3_coordinate_field():
    f2, f3 = lp.check_f2_f3(lp.catalog("coordinate", 1), DISK, 32, 64)
    assert f2.residual < 1e-3
    assert f3.residual < 1e-3


def test_f2_inner_rules_keep_their_node_count(monkeypatch):
    # F2 integrates the gradient volume integral at the 512 nodes of its
    # order-16 outer rule; on the unit disk, for distance(0.2, 0.1) at inner
    # order 64, their rules hold 6,194,624 nodes (7,966,272 when a hole
    # block took ``order`` radial nodes and escalation doubled the radial
    # count too).  A change that grows the blocks again fails here.
    f, counts = lp.catalog("distance", [0.2, 0.1]), []
    build = layerpot.fields.composite_volume_rule

    def counting(*args, **kwargs):
        rule = build(*args, **kwargs)
        counts.append(rule.count)
        return rule

    monkeypatch.setattr(layerpot.fields, "composite_volume_rule", counting)
    compute = layerpot.potentials._gradient_volume_integral.__wrapped__
    targets = lp.volume_rule(DISK, 16).nodes
    for y in targets:
        compute(f, DISK, tuple(y.tolist()), 64, 10**8)
    assert len(targets) == len(counts) == 512
    assert sum(counts) == 6_194_624


def test_f2_budget_guard(monkeypatch):
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "100000")
    with pytest.raises(BudgetError):
        lp.check_f2_f3(lp.catalog("constant", 1.0), DISK, 64, 128)


def test_f2_budget_counts_the_star_angular_oversampling(monkeypatch):
    # a star's rules hold twice a disk's directions: 256 x 1024 node pairs
    monkeypatch.setenv("LAYERPOT_MAX_NODES", "100000")
    with pytest.raises(BudgetError):
        lp.check_f2_f3(lp.catalog("constant", 1.0), STAR, 8, 16)


@pytest.mark.parametrize("domain", [DISK, BALL3, STAR], ids=["disk", "ball3", "star"])
def test_f2_node_pair_estimate_is_exact(domain):
    sizes = [len(lp.volume_rule(domain, order).weights) for order in (8, 16)]
    assert _estimate_f2_nodes(domain, 8, 16) == sizes[0] * sizes[1]


# ---------------------------------------------------------------------------
# Green identities
# ---------------------------------------------------------------------------

GRR_FIELDS = [
    lp.catalog("coordinate", 1),
    lp.catalog("harmonic_poly", 2),
    lp.catalog("quadratic_radial", [0.0, 0.0]),
]


@pytest.mark.parametrize("field", GRR_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("y", [[0.3, -0.1], [2.0, 0.7]], ids=["interior", "exterior"])
def test_grr(field, y):
    rep = lp.check_grr(field, DISK, y, 64)
    assert rep.residual < 1e-6


def test_grr_harmonic_vanishing_parts():
    # f = x1 at y = 0 on the unit disk: kernel vanishes on the circle and
    # the field is harmonic, so both sides reduce to the volume pairing
    rep = lp.check_grr(lp.catalog("coordinate", 1), DISK, [0.0, 0.0], 64)
    assert rep.metadata["boundary_term"] == pytest.approx(0.0, abs=1e-8)
    assert rep.metadata["volume_term"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("field", GRR_FIELDS, ids=lambda f: f.name)
def test_green_riemann_interior_and_exterior(field):
    rep = lp.check_green_riemann(field, DISK, [0.25, 0.2], 64)
    assert rep.identity == "GREEN_RIEMANN_INTERIOR" and rep.residual < 1e-6
    rep = lp.check_green_riemann(field, DISK, [2.0, 0.0], 64)
    assert rep.identity == "GREEN_RIEMANN_EXTERIOR" and rep.residual < 1e-6


def test_green_riemann_boundary_constant():
    rep = lp.check_green_riemann(lp.catalog("constant", 3.0), DISK, [1.0, 0.0], 64)
    assert rep.identity == "GREEN_RIEMANN_BOUNDARY"
    assert rep.residual < 1e-10


def test_green_riemann_boundary_smooth_field():
    rep = lp.check_green_riemann(lp.catalog("quadratic_radial", [0.0, 0.0]), DISK, [0.0, 1.0], 64)
    assert rep.residual < 1e-3


def test_grr_and_green_riemann_pair():
    f = lp.catalog("harmonic_poly", 2)
    reports = [lp.check_grr(f, DISK, [0.4, 0.0], 64), lp.check_green_riemann(f, DISK, [0.4, 0.0], 64)]
    assert [r.identity for r in reports] == ["GRR", "GREEN_RIEMANN_INTERIOR"]
    assert all(r.passed for r in reports)
    # outside, Lap f = 1/|x - a| of a distance field is summed on the rule centred at a
    f, y = lp.catalog("distance", [0.2, 0.1]), [-0.694895435192, 1.79507337026]
    reports = [lp.check_grr(f, DISK, y, 32), lp.check_green_riemann(f, DISK, y, 32)]
    assert [r.identity for r in reports] == ["GRR", "GREEN_RIEMANN_EXTERIOR"]
    assert all(r.passed for r in reports)


def test_grr_3d():
    f = lp.catalog("quadratic_radial", [0.0, 0.0, 0.0])
    assert lp.check_grr(f, BALL3, [0.2, 0.0, 0.1], 32).residual < 1e-6
    assert lp.check_green_riemann(f, BALL3, [0.0, 0.0, 2.0], 32).residual < 1e-6
    f = lp.catalog("distance", [0.2, 0.1, 0.0])
    for y in ([0.2, 0.0, 0.1], [0.0, 0.0, 2.0]):
        assert lp.check_grr(f, BALL3, y, 24).passed


# ---------------------------------------------------------------------------
# Convergence across identities
# ---------------------------------------------------------------------------

CONV_FIELD = lp.catalog("distance", [1.2, -0.4])  # smooth but non-polynomial on the disk


@pytest.mark.parametrize(
    "check,orders",
    [
        (lambda o: lp.check_f1(CONV_FIELD, DISK, [0.2, 0.5], o), (16, 32, 64)),
        (lambda o: lp.check_ball_corollaries(CONV_FIELD, DISK, [0.2, 0.5], o, "MAT"), (16, 32, 64)),
        (lambda o: lp.check_ball_corollaries(CONV_FIELD, DISK, None, o, "REP2"), (8, 16, 32)),
        (lambda o: lp.check_rp(CONV_FIELD, DISK, [0.2, 0.5], None, o, "RP1"), (16, 32, 64)),
        (lambda o: lp.check_fig(CONV_FIELD, DISK, [0.2, 0.5], o), (8, 16, 32)),
        # below order 32 the exterior double layer is pinned to the escalated
        # order, so the ladder starts where the requested order governs
        (lambda o: lp.check_c2_exterior(CONV_FIELD, DISK, [0.0, 2.0], o), (32, 64, 128)),
    ],
    ids=["F1", "MAT", "REP2", "RP1", "FIG", "C2_EXTERIOR"],
)
def test_residual_decreases_under_order_doubling(check, orders):
    res = [check(o).residual for o in orders]
    for r1, r2 in zip(res, res[1:]):
        assert r2 <= r1 / 4.0 or r2 < 1e-12  # quadrature floor


# ---------------------------------------------------------------------------
# Report object behavior
# ---------------------------------------------------------------------------


def test_report_pass_iff_within_tolerance():
    rep = lp.check_f1(lp.catalog("coordinate", 1), DISK, [0.3, 0.0], 64)
    assert rep.passed == (rep.residual <= rep.tolerance)
    assert bool(rep) is rep.passed


def test_green_riemann_boundary_on_star_domain():
    f = lp.catalog("quadratic_radial", [0.0, 0.0])
    z = STAR.boundary_point(0.9)
    rep = lp.check_green_riemann(f, STAR, z, 64)
    assert rep.identity == "GREEN_RIEMANN_BOUNDARY" and rep.passed


def test_f1_3d_with_hole_excision():
    # singular point away from the target exercises the 3-D hole path
    f3 = lp.catalog("distance", [0.0, 0.0, 0.0])
    rep = lp.check_f1(f3, BALL3, [0.3, 0.0, 0.1], 48)
    assert rep.residual < 1e-6
    f3 = lp.extremal_field(5.0, [0.0, 0.0, 0.0])
    rep = lp.check_f1(f3, BALL3, [0.2, -0.1, 0.0], 48)
    assert rep.residual < 1e-4
