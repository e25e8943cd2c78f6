"""Suite execution: deterministic probe generation, concurrent dispatch of
independent checks, and report-row assembly.

Rows are produced concurrently (every check is pure) and then sorted by
(identity, field, point, order), so identical configurations and seeds
yield byte-identical reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby

import numpy as np

from ..bounds import (
    moment_integral_closed_form,
    moment_quadrature,
    ostrowski_bound_ball,
    ostrowski_bound_general,
    sharp_ball_constant,
)
from ..fields import LebesgueExponent, catalog, extremal_field
from ..geometry import VOLUME_BLOCK, Ball, main_block_size, weighted_sum
from ..kernel import sphere_area
from ..representations import (
    BALL_IDENTITIES,
    check_ball_corollaries,
    check_c2_exterior,
    check_f1,
    check_f2_f3,
    check_fig,
    check_gauss,
    check_green_riemann,
    check_grr,
    check_jump,
    check_rp,
)
from .config import SuiteConfig, check_command
from .report import Row, format_point

#: GAUSS rows check the unit moment, whatever fields the suite lists.
UNIT_MOMENT = catalog("constant", 1.0)


def generate_probes(cfg: SuiteConfig):
    """Seeded interior/boundary/exterior probe points for the suite domain."""
    rng = np.random.default_rng(cfg.seed)
    domain = cfg.domain
    n = domain.dim
    interior, boundary, exterior = [], [], []
    for _ in range(cfg.probe_count):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        u = rng.uniform() ** (1.0 / n)
        interior.append(domain.center + (1.0 - cfg.margin) * domain.radius_along(d) * u * d)
    for _ in range(cfg.probe_count):
        if isinstance(domain, Ball):
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            boundary.append(domain.center + domain.radius * d)
        else:
            boundary.append(domain.boundary_point(rng.uniform(0.0, 2.0 * math.pi)))
    for _ in range(cfg.exterior_count):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        scale = rng.uniform(1.0 + cfg.margin, 2.0 + cfg.margin)
        exterior.append(domain.center + scale * domain.radius_along(d) * d)
    return interior, boundary, exterior


def _row(cfg, report, field_name) -> Row:
    """The report row of ``report``, held to its own tolerance."""
    return Row(
        suite=cfg.suite,
        identity=report.identity,
        field=field_name,
        dim=cfg.domain.dim,
        point=format_point(report.points[0] if report.points else None),
        order=report.order,
        lhs=report.lhs,
        rhs=report.rhs,
        residual=report.residual,
        tolerance=report.tolerance,
    )


def _verify_tasks(cfg: SuiteConfig):
    """Yield zero-argument callables, each returning a list of Rows."""
    domain = cfg.domain
    # drawing probes imports numpy.random: only a suite that reads them
    # draws them
    pointless = {"F2", "F3", "REP2", "REP3"}
    interior, boundary, exterior = generate_probes(cfg) if set(cfg.identities) - pointless else ([], [], [])
    pair = tuple(i for i in ("F2", "F3") if i in cfg.identities)

    def f2_f3(f, y, order):
        # one evaluation yields both integrated identities; keep the rows
        # asked for
        return [r for r in check_f2_f3(f, domain, cfg.order_outer, cfg.order_inner) if r.identity in pair]

    # identity -> (probe points, check(field, point, order)) for every name
    # in IDENTITIES; the lambdas look each check up at call time, so a
    # rebound module name is seen
    table = {
        "GAUSS": (interior[:1] + boundary[:1] + exterior[:1], lambda f, y, o: check_gauss(domain, y, o)),
        "JUMP": (boundary, lambda f, y, o: check_jump(f, domain, y, o)),
        "F1": (interior, lambda f, y, o: check_f1(f, domain, y, o)),
        "FIG": (interior + exterior, lambda f, y, o: check_fig(f, domain, y, o)),
        "RP0": (interior, lambda f, y, o: check_rp(f, domain, y, exterior[0], o, "RP0")),
        "RP1": (interior, lambda f, y, o: check_rp(f, domain, y, None, o, "RP1")),
        "C2_EXTERIOR": (exterior, lambda f, y, o: check_c2_exterior(f, domain, y, o)),
        "F2": ([None], f2_f3),
        "F3": ([None], f2_f3),
        "GRR": (interior + exterior, lambda f, y, o: check_grr(f, domain, y, o)),
        "GREEN_RIEMANN_INTERIOR": (interior, lambda f, y, o: check_green_riemann(f, domain, y, o)),
        "GREEN_RIEMANN_EXTERIOR": (exterior, lambda f, y, o: check_green_riemann(f, domain, y, o)),
        "GREEN_RIEMANN_BOUNDARY": (boundary, lambda f, y, o: check_green_riemann(f, domain, y, o)),
    }
    for which in BALL_IDENTITIES:
        points = [None] if which in pointless else interior
        table[which] = (points, lambda f, y, o, w=which: check_ball_corollaries(f, domain, y, o, w))

    def task(check, field, y, order):
        def run():
            reps = check(field, y, order)
            reps = reps if isinstance(reps, list) else [reps]
            return [_row(cfg, r, field.name) for r in reps]

        return run

    for order in cfg.orders:
        for identity in cfg.identities:
            # F2/F3 share one evaluation: run it once, under F2 when both are
            # asked for, at the first order
            if identity in pair and (identity != pair[0] or order != cfg.orders[0]):
                continue
            points, check = table[identity]
            for field in (UNIT_MOMENT,) if identity == "GAUSS" else cfg.fields:
                for y in points:
                    yield task(check, field, y, order)


#: Most threads the runner's pool uses, however many cores are free.
MAX_WORKERS = 8


def _pool_width() -> int:
    """min(MAX_WORKERS, usable cores).

    A check is numpy calls with interpreter work between them, so threads
    beyond the cores add no throughput, only GIL hand-offs, and each running
    check holds a leaf of its volume rule.  Usable cores follow ``taskset`` and
    cpusets where the platform reports them.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(MAX_WORKERS, cores)


def _run_tasks(tasks, max_workers: int | None = None, nodes: int | None = None):
    """The rows of every task, run on a pool of ``max_workers`` threads.

    Without ``max_workers`` the pool is ``_pool_width()`` wide, or one
    worker thread when the tasks' largest volume rule, ``nodes`` nodes,
    fits below one leaf (``VOLUME_BLOCK``): its numpy calls are then too
    short to overlap another thread's interpreter work, so a second thread
    only adds GIL hand-offs.  The tasks run on a worker thread either way.
    """
    if max_workers is None:
        max_workers = 1 if nodes is not None and nodes < VOLUME_BLOCK else _pool_width()
    rows = []
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for result in pool.map(lambda t: t(), tasks):
            rows.extend(result)
    return rows


def _finish(rows):
    """The rows in report order, and exit code 0 iff every row passes."""
    return sorted(rows, key=Row.sort_key), 0 if all(r.passed for r in rows) else 1


def run_verify(cfg: SuiteConfig):
    """Run the selected identity checks; exit code 0 iff every row passes."""
    check_command(cfg, "verify")
    nodes = max(main_block_size(cfg.domain, order) for order in cfg.orders)
    return _finish(_run_tasks(list(_verify_tasks(cfg)), nodes=nodes))


def run_converge(cfg: SuiteConfig):
    """Residual-versus-order table plus a fitted log-log rate per identity;
    exit code 0 iff every row passes.  A rate row asserts no bound: its
    tolerance is inf, so only a NaN fit fails."""
    check_command(cfg, "converge")
    rows, _ = run_verify(cfg)
    out = list(rows)
    names = {field.name for field in cfg.fields}
    # rows arrive sorted by (identity, field, point, order): one group per series
    for (identity, field, pt), group in groupby(rows, key=lambda r: r.sort_key()[:3]):
        series = list(group)
        if field not in names or len(series) < 3:
            continue
        orders = np.array([r.order for r in series], dtype=float)
        resid = np.maximum(np.array([r.residual for r in series]), 1e-16)
        # the least-squares slope in closed form: no LAPACK or BLAS call
        x, y = np.log(orders), np.log(resid)
        dx = x - x.mean()
        slope = weighted_sum(dx, y - y.mean()) / weighted_sum(dx, dx)
        out.append(Row(cfg.suite, identity, field, cfg.domain.dim, f"rate[{pt}]", 0, slope, 0.0, abs(slope), math.inf))
    return _finish(out)


def run_table(cfg: SuiteConfig):
    """Constants table: sphere areas, kernel moments, sharp ball constants.

    MOMENT rows compare the closed form with a polar rule, which is built
    in N = 2, 3 only; higher dimensions get no MOMENT row.
    """
    rows = []
    for n in cfg.table_dims:
        lhs = sphere_area(n)
        rhs = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        rows.append(Row(cfg.suite, "OMEGA_N", "-", n, "-", 0, lhs, rhs, abs(lhs - rhs), 1e-13 * lhs))
        for p in cfg.table_exponents:
            exponent = LebesgueExponent.of(p)
            if not exponent.value > n:
                continue
            for radius in cfg.table_radii:
                q = exponent.conjugate
                closed = moment_integral_closed_form(n, radius, q)
                if n in (2, 3):
                    quad = moment_quadrature(Ball([0.0] * n, radius), [0.0] * n, q, order=64)
                    tol = 1e-8 * max(1.0, closed)
                    rows.append(
                        Row(cfg.suite, "MOMENT", f"p={p:g}", n, f"R={radius:g}", 64, closed, quad, abs(closed - quad), tol)
                    )
                const = sharp_ball_constant(n, radius, p)
                alt = closed ** (1.0 / q) / sphere_area(n)
                tol = 1e-12 * max(1.0, const)
                rows.append(
                    Row(cfg.suite, "SHARP_CONSTANT", f"p={p:g}", n, f"R={radius:g}", 0, const, alt, abs(const - alt), tol)
                )
    return _finish(rows)


def run_bound(cfg: SuiteConfig):
    """Deviation-bound rows per (field, point, exponent), plus sharpness rows."""
    check_command(cfg, "bound")
    domain = cfg.domain
    interior, _, _ = generate_probes(cfg)
    is_ball = isinstance(domain, Ball)
    rows = []
    order = max(cfg.orders)

    def row(kind, label, point, rep, residual=None, tolerance=None):
        # bound rows pass when the deviation stays under the bound up to a
        # relative slack; sharpness rows bring their own residual/tolerance.
        # max keeps its first argument against NaN, so a NaN side fails
        if residual is None:
            residual, tolerance = max(rep.deviation - rep.bound, 0.0), 1e-6 * max(1.0, rep.bound)
        return Row(cfg.suite, kind, label, domain.dim, format_point(point), order, rep.deviation, rep.bound, residual, tolerance)

    for p in cfg.bound_exponents:
        for field in cfg.fields:
            label = f"{field.name} p={p:g}"
            for y in interior:
                rows.append(row("BOUND_GENERAL", label, y, ostrowski_bound_general(field, domain, y, p, order)))
            if is_ball:
                rows.append(row("BOUND_BALL", label, domain.center, ostrowski_bound_ball(field, domain, p, order)))
        if cfg.bound_include_extremal and is_ball:
            witness = extremal_field(p, domain.center)
            label = f"{witness.name} p={p:g}"
            for kind, rep in (
                ("SHARPNESS_GENERAL", ostrowski_bound_general(witness, domain, domain.center, p, order)),
                ("SHARPNESS_BALL", ostrowski_bound_ball(witness, domain, p, order)),
            ):
                rows.append(row(kind, label, domain.center, rep, abs(rep.ratio - 1.0), 1e-3))
    return _finish(rows)
