"""Tests for the configuration parser, report writer, runner, and CLI."""

import ctypes
import functools
import io
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import layerpot as lp
from layerpot import representations
from layerpot.errors import CapabilityError, ConfigError
from layerpot.harness import parse_config
from layerpot.harness.cli import _pin_malloc_thresholds, main
from layerpot.harness import runner
from layerpot.harness.config import KNOWN_KEYS, build_config
from layerpot.harness.report import write_report
from layerpot.harness.runner import _verify_tasks, run_bound, run_converge, run_table, run_verify
from layerpot.kernel import row_norms
from layerpot.representations import IDENTITIES

ROOT = Path(__file__).resolve().parent.parent

BASE = """
suite.name = unit
domain.shape = ball
domain.dim = 2
domain.center = 0.0, 0.0
domain.radius = 1.0
fields = constant:2 | coordinate:1
identities = GAUSS, F1, REP2
orders = 64
probes.count = 2
probes.seed = 9
"""


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("domain.shape = ball\nwhatever = 3\n")
    assert err.value.line == 2


def test_parse_rejects_duplicates_and_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("orders = 8\norders = 16\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_parse_comments_and_blanks():
    raw = parse_config("# a comment\n\norders = 8, 16  # inline\n")
    assert raw["orders"][0] == "8, 16"


def test_build_config_validates_values():
    with pytest.raises(ConfigError):
        build_config("domain.shape = cube\n")
    with pytest.raises(ConfigError):
        build_config("orders = eight\n")
    with pytest.raises(ConfigError):
        build_config("fields = warp:1\n")
    with pytest.raises(ConfigError):
        build_config("probes.margin = 2.0\n")


def render_report(rows, fmt):
    buf = io.StringIO()
    write_report(rows, fmt, buf)
    return buf.getvalue()


def test_field_spec_parsing():
    cfg = build_config("fields = power_distance:0.1,0.2,0.5 | harmonic_poly:3\n")
    assert cfg.fields[0].evaluate([0.1, 1.2]) == pytest.approx(1.0, rel=1e-14)  # |x - a|^0.5 at distance 1
    assert cfg.fields[1].name.startswith("harmonic_poly")


def test_verify_passes_and_rows_sorted():
    cfg = build_config(BASE)
    rows, code = run_verify(cfg)
    assert code == 0
    assert all(r.passed for r in rows)
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)
    gauss = [r for r in rows if r.identity == "GAUSS"]
    assert len(gauss) == 3


def test_verify_numerical_failure_exit_code(monkeypatch):
    monkeypatch.setitem(representations.IDENTITIES, "F1", 1e-18)
    cfg = build_config(
        """
domain.shape = ball
domain.dim = 2
fields = distance:1.2,-0.4
identities = F1
orders = 8
probes.count = 1
probes.seed = 9
probes.margin = 0.4
"""
    )
    rows, code = run_verify(cfg)
    assert code == 1
    assert any(not r.passed for r in rows)


def test_report_determinism_same_seed():
    text_a = render_report(run_verify(build_config(BASE))[0], "csv")
    text_b = render_report(run_verify(build_config(BASE))[0], "csv")
    assert text_a == text_b
    text_c = render_report(run_verify(build_config(BASE.replace("seed = 9", "seed = 10")))[0], "csv")
    assert text_a != text_c


def test_jsonl_mirrors_columns():
    rows, _ = run_verify(build_config(BASE))
    lines = render_report(rows, "jsonl").strip().splitlines()
    rec = json.loads(lines[0])
    assert list(rec) == ["suite", "identity", "field", "N", "point", "order", "lhs", "rhs", "residual", "tolerance", "pass"]


def test_converge_requires_three_orders():
    cfg = build_config(BASE)
    with pytest.raises(ConfigError):
        run_converge(cfg)


def test_converge_rates_reported():
    cfg = build_config(
        """
domain.shape = ball
domain.dim = 2
fields = distance:1.2,-0.4
identities = F1
orders = 8, 16, 32
probes.count = 1
probes.seed = 7
probes.margin = 0.4
"""
    )
    rows, code = run_converge(cfg)
    assert code == 0
    rates = [r for r in rows if r.point.startswith("rate")]
    assert len(rates) == 1
    assert rates[0].lhs < -2.0  # spectral decay fitted as a steep power


def test_converge_exit_code_reports_failing_rows(monkeypatch):
    monkeypatch.setitem(representations.IDENTITIES, "F1", 1e-18)
    cfg = build_config(
        """
domain.shape = ball
domain.dim = 2
fields = distance:1.2,-0.4
identities = F1
orders = 8, 16, 32
probes.count = 1
probes.seed = 7
probes.margin = 0.4
"""
    )
    rows, code = run_converge(cfg)
    assert code == 1
    checked = [r for r in rows if not r.point.startswith("rate")]
    assert checked and not any(r.passed for r in checked)
    # fitted-rate rows keep their form
    assert all(r.passed for r in rows if r.point.startswith("rate"))


@pytest.mark.parametrize("key, value", [("probes.count", 0), ("probes.count", -3), ("probes.exterior_count", 0)])
def test_probe_counts_must_be_positive(key, value):
    with pytest.raises(ConfigError) as err:
        build_config(f"identities = GAUSS\n{key} = {value}\n")
    assert err.value.line == 2
    assert key in str(err.value)


def test_table_rows():
    cfg = build_config("table.dims = 2,3,4\ntable.exponents = inf,3\ntable.radii = 1.0\n")
    rows, code = run_table(cfg)
    assert code == 0
    omegas = {r.dim: r.lhs for r in rows if r.identity == "OMEGA_N"}
    assert omegas[2] == pytest.approx(2 * np.pi, rel=1e-14)
    assert omegas[3] == pytest.approx(4 * np.pi, rel=1e-14)
    assert omegas[4] == pytest.approx(2 * np.pi**2, rel=1e-14)
    assert all(r.passed for r in rows)


def test_table_moment_rows_use_the_polar_rule():
    # no polar rule exists in N = 4, so no MOMENT row either
    rows, _ = run_table(build_config("table.dims = 4\n"))
    assert rows and not [r for r in rows if r.identity == "MOMENT"]
    # each MOMENT rhs is the polar-rule value, not the closed form again
    rows, code = run_table(build_config("table.dims = 2,3\ntable.exponents = inf,3,4\n"))
    assert code == 0
    moments = [r for r in rows if r.identity == "MOMENT"]
    assert len(moments) == 5
    for r in moments:
        q = lp.LebesgueExponent.of(float(r.field.removeprefix("p="))).conjugate
        kappa = -(r.dim - 1) * q
        rule = lp.composite_volume_rule(lp.Ball([0.0] * r.dim, 1.0), 64, [0.0] * r.dim, kernel_power=kappa)
        assert r.rhs == rule.integrate(lambda x: row_norms(x) ** kappa)


def test_bound_rows_include_sharpness():
    cfg = build_config(
        """
domain.shape = ball
domain.dim = 2
fields = coordinate:1
orders = 64
probes.count = 1
probes.seed = 5
bound.exponents = inf, 3
"""
    )
    rows, code = run_bound(cfg)
    assert code == 0
    kinds = {r.identity for r in rows}
    assert {"BOUND_GENERAL", "BOUND_BALL", "SHARPNESS_GENERAL", "SHARPNESS_BALL"} <= kinds


def test_bound_row_with_a_nan_side_fails(monkeypatch):
    cfg = build_config("domain.shape = ball\ndomain.dim = 2\nfields = coordinate:1\nbound.exponents = 3\nprobes.count = 1\n")
    nan = lp.BoundReport(deviation=float("nan"), bound=1.0, ratio=float("nan"))
    monkeypatch.setattr(runner, "ostrowski_bound_general", lambda *args: nan)
    rows, code = run_bound(cfg)
    general = [r for r in rows if r.identity == "BOUND_GENERAL"]
    assert general and not any(r.passed for r in general)
    assert code == 1


def test_bound_rejects_small_exponent():
    with pytest.raises(ConfigError) as err:
        build_config("fields = coordinate:1\nbound.exponents = 2\n")
    assert err.value.line == 2


def test_bound_at_infinite_exponent_needs_a_bounded_gradient():
    cfg = build_config("fields = power_distance:0,0,0.5\nbound.exponents = inf\nprobes.count = 1\n")
    with pytest.raises(ConfigError, match="unbounded gradient"):
        run_bound(cfg)
    # beta > 1: the gradient is bounded, its sup comes from the domain
    cfg = build_config("fields = power_distance:0.5,0,2\nbound.exponents = inf\nprobes.count = 1\n")
    rows, code = run_bound(cfg)
    assert code == 0 and {r.identity for r in rows} >= {"BOUND_GENERAL", "BOUND_BALL"}


def test_laplacian_requirement_checked():
    cfg = build_config("fields = distance:0,0\nidentities = GRR\n")
    with pytest.raises(CapabilityError):
        # every catalog field has a Laplacian; strip it to reach the library's guard
        cfg.fields = (cfg.fields[0].__class__(
            name="bare",
            evaluate_fn=cfg.fields[0].evaluate_fn,
            gradient_fn=cfg.fields[0].gradient_fn,
        ),)
        run_verify(cfg)


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_verify_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(BASE)
    out = tmp_path / "report.csv"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("suite,identity,field,N,point,order,lhs,rhs,residual,tolerance,pass")


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("bound", "bound.exponents = abc"),
        ("table", "table.exponents = 3,x"),
        ("verify", "orders ="),
        ("bound", "orders ="),
    ],
)
def test_cli_unparsable_value_exit_2_with_line(command, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"fields = coordinate:1\n{line}\n")
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"line 2: {line.split()[0]} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("verify", "orders = 2"),
        ("verify", "double.order_inner = 2"),
        ("verify", "identities = F1, F1"),
        ("verify", "orders = 16, 16"),
        ("verify", "fields = coordinate:1 | coordinate:1"),
        ("table", "table.dims = 1"),
        ("table", "table.radii = -1"),
        ("verify", "domain.radius = -1"),
        ("verify", "domain.dim = 1"),
        ("verify", "probes.margin = 2"),
        ("verify", "output.format = xml"),
        ("bound", "bound.include_extremal = yes"),
        ("verify", "fields = distance:1,0,0"),
        ("verify", "fields = linear:0,1,0,0"),
        ("verify", "fields = coordinate:3"),
        ("table", "table.dims = 2, 2"),
        ("bound", "bound.exponents = 2"),
        ("bound", "bound.exponents = inf, 1.5"),
        ("verify", "domain.dim = 4"),
        ("verify", "probes.seed = -1"),
        ("verify", "domain.center = nan, 0"),
        ("verify", "domain.center = 0, inf"),
        ("table", "table.exponents = 0.5"),
        ("table", "table.exponents = 3, nan"),
        # keys of the star shape, which a ball does not read
        ("verify", "domain.base_radius = -3"),
        ("verify", "domain.cosine_frequency = x"),
        ("verify", "domain.cosine_amplitude = nan"),
        # non-finite field parameters
        ("verify", "fields = constant:nan"),
        ("verify", "fields = linear:nan,1,0"),
        ("verify", "fields = power_distance:0,0,nan"),
        ("verify", "fields = power_distance:0,0,inf"),
    ],
)
def test_cli_inadmissible_value_exit_2_with_line(command, line, tmp_path, capsys):
    # every value is checked where the config is read, before any run starts
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"probes.count = 1\n{line}\n")
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"line 2: {line.split()[0]} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("domain.shape = star\nidentities = F1, MAT\n", "line 2: identities must"),
        # without an identities key the default list holds MAT, REP2 and REP3
        ("domain.shape = star\nfields = coordinate:1\n", "line 1: domain.shape must"),
    ],
    ids=["identities", "default-identities"],
)
def test_ball_only_identities_on_a_star_exit_2_with_line(text, line, tmp_path, capsys):
    cfg = tmp_path / "star.cfg"
    cfg.write_text(text)
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert line in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "table"])
def test_commands_that_read_no_identities_run_on_a_star(command, tmp_path, capsys):
    # the default identities hold ball-only ones, but bound and table read none
    cfg = tmp_path / "star.cfg"
    cfg.write_text("domain.shape = star\nfields = coordinate:1\nprobes.count = 1\norders = 16\n")
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) > 1


def test_converge_with_two_orders_exit_2_with_line(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("fields = coordinate:1\nidentities = F1\norders = 16, 32\n")
    out = tmp_path / "report.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 3: orders must be at least 3" in capsys.readouterr().err
    assert not out.exists()
    # verify reads the same orders and runs them
    cfg.write_text("fields = coordinate:1\nidentities = F1\norders = 16, 32\nprobes.count = 1\n")
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0


def test_bound_at_infinite_exponent_with_unbounded_gradient_exit_2_with_line(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text("probes.count = 1\nfields = power_distance:0,0,0.5\nbound.exponents = inf\n")
    out = tmp_path / "report.csv"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3: bound.exponents must be finite" in err and "unbounded gradient" in err
    assert not out.exists()


def test_bound_default_exponents_in_3d_exit_2(tmp_path, capsys):
    # the default exponents inf, 3 hold p > N only in 2-D
    cfg = tmp_path / "ball3d.cfg"
    cfg.write_text("domain.dim = 3\ndomain.center = 0,0,0\nfields = coordinate:1\nprobes.count = 1\n")
    out = tmp_path / "report.csv"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bound.exponents must be a comma list of exponents > domain.dim" in capsys.readouterr().err
    assert not out.exists()


def test_3d_harmonic_poly_of_degree_3_passes_f1_and_fig(tmp_path, capsys):
    # Re (x1 + i x2)^k is harmonic in every dimension, so 3-D takes any degree
    cfg = tmp_path / "ball3d.cfg"
    cfg.write_text(
        "domain.dim = 3\ndomain.center = 0,0,0\nfields = harmonic_poly:3\n"
        "identities = F1, FIG\norders = 32\nprobes.count = 2\n"
    )
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    assert rows and all(",harmonic_poly(3)[3d],3," in r and r.endswith(",true") for r in rows)


@pytest.mark.parametrize("p", ["6", "4"])
def test_bound_exponent_with_a_non_integrable_gradient_exit_2_with_line(p, tmp_path, capsys):
    # |grad f|^p ~ |x - a|^(-p/2) is not integrable at a in 2-D for p >= 4
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"probes.count = 1\nfields = power_distance:0.1,0.2,0.5\nbound.exponents = {p}\n")
    out = tmp_path / "report.csv"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3: bound.exponents must be below 4" in err and "not integrable" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, p", [("power_distance:0.1,0.2,0.5", "3"), ("power_distance:1.5,0.2,0.5", "6")], ids=["p=3", "outside"]
)
def test_bound_exponent_with_an_integrable_gradient_runs(fields, p, tmp_path, capsys):
    # p below the limit, or the singular point outside the disk
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"probes.count = 1\nfields = {fields}\nbound.exponents = {p}\n")
    out = tmp_path / "report.csv"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    assert len(out.read_text().splitlines()) > 1


def test_verify_runs_every_identity():
    # config admits every name in IDENTITIES, so verify must have a check for each
    for name in IDENTITIES:
        cfg = build_config(f"identities = {name}\n")
        assert list(_verify_tasks(cfg)), name


SHIPPED_CONFIGS = sorted(
    p.relative_to(ROOT) for d in ("configs", "tests/golden", "bench/configs") for p in (ROOT / d).glob("*.cfg")
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=str)
def test_shipped_configs_are_admissible(path):
    # a benchmark or golden config that a new admissibility rule rejected
    # would otherwise surface only as a failed run
    build_config((ROOT / path).read_text(encoding="utf-8"))


def test_star_domain_values_are_checked_with_their_line():
    with pytest.raises(ConfigError) as err:
        build_config("domain.shape = star\ndomain.dim = 3\n")
    assert err.value.line == 2 and "domain.dim must be 2" in str(err.value)
    # the default amplitude 0.25 does not fit under this base radius
    with pytest.raises(ConfigError) as err:
        build_config("domain.shape = star\ndomain.base_radius = 0.2\n")
    assert err.value.line == 2 and "domain.base_radius must be" in str(err.value)
    with pytest.raises(ConfigError) as err:
        build_config("domain.shape = star\n\ndomain.cosine_amplitude = -1\n")
    assert err.value.line == 3 and "domain.cosine_amplitude must be" in str(err.value)


def test_cli_missing_config_exit_2(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_com_close_to_the_sphere_keeps_every_row(tmp_path, capsys):
    cfg = tmp_path / "com.cfg"
    cfg.write_text(
        "fields = harmonic_poly:2 | distance:0.2,0.1\nidentities = COM\norders = 32\n"
        "probes.count = 20\nprobes.margin = 0.02\n"
    )
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 * 20 and all(row.endswith(",true") for row in rows)


def test_cli_numerical_failure_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(representations.IDENTITIES, "F1", 1e-18)
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        """
domain.shape = ball
domain.dim = 2
fields = distance:1.2,-0.4
identities = F1
orders = 8
probes.count = 1
probes.seed = 9
probes.margin = 0.4
"""
    )
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_table_defaults(capsys):
    assert main(["table", "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[0])["identity"]


def test_cli_order_and_seed_overrides(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(BASE)
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", str(cfg), "--order", "32", "--seed", "77", "--out", str(out)]) == 0
    assert ",32," in out.read_text()


@pytest.mark.parametrize("command, order", [("verify", "0"), ("bound", "-8"), ("verify", "3")])
def test_cli_order_below_four_is_a_usage_error(command, order):
    # in a subprocess with a timeout, so that an order escalated forever
    # fails this test instead of stalling the suite
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "layerpot.harness.cli", command, "--config", "configs/unit-disk.cfg", "--order", order],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert f"--order: must be an integer >= 4, got '{order}'" in proc.stderr


def test_star_cosine_amplitude_must_be_finite_exit_2_with_line(tmp_path, capsys):
    # a NaN amplitude passes |amplitude| < base_radius
    cfg = tmp_path / "star.cfg"
    cfg.write_text("domain.shape = star\ndomain.cosine_amplitude = nan\nidentities = F1\nfields = coordinate:1\n")
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 2: domain.cosine_amplitude must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_star_radius_is_checked_exit_2_with_line(tmp_path, capsys):
    # a star reads no domain.radius, but its value is held to the ball's rule
    cfg = tmp_path / "star.cfg"
    cfg.write_text("domain.shape = star\ndomain.radius = -1\nidentities = F1\nfields = coordinate:1\n")
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 2: domain.radius must be a positive number" in capsys.readouterr().err
    assert not out.exists()


def test_admissible_keys_of_the_other_shape_are_accepted():
    star_keys = "domain.base_radius = 3\ndomain.cosine_amplitude = 0.5\ndomain.cosine_frequency = 5\n"
    ball = build_config(f"domain.radius = 2\n{star_keys}")
    assert isinstance(ball.domain, lp.Ball) and ball.domain.radius == 2.0
    star = build_config("domain.shape = star\ndomain.radius = 7\n")
    assert isinstance(star.domain, lp.StarShaped2D) and star.domain.inradius < 1.0


def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(BASE)
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--config", str(cfg), "--seed", "-3"])
    assert exit_.value.code == 2
    assert "--seed: must be an integer >= 0, got '-3'" in capsys.readouterr().err


def test_importing_the_package_and_cli_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # the imports pull in, whatever this test process has loaded
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, layerpot, layerpot.harness.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_f2_f3_suite_draws_no_probes(tmp_path):
    # F2 and F3 read no probe point; drawing probes would import
    # numpy.random, which a fresh interpreter shows
    cfg = tmp_path / "f2.cfg"
    cfg.write_text(BASE.replace("identities = GAUSS, F1, REP2", "identities = F2, F3").replace("orders = 64", "orders = 16"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys\nfrom layerpot.harness.cli import main\n"
        "code = main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'numpy.random' in sys.modules)"
    )
    out = tmp_path / "r.csv"
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(out)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert {line.split(",")[1] for line in out.read_text().splitlines()[1:]} == {"F2", "F3"}


def _libc_has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


#: Integrals that generate leaves of one size over and over, and what they
#: take unpinned: 2-D order-128 leaves of 32,768 nodes, larger than glibc's
#: initial mmap threshold, are mapped and faulted in anew each time (about
#: 9,400 minor faults for 20 integrals); order-64 3-D integrals take about
#: 18,000 for 6.
FAULT_CASES = {
    "disk": (
        "from layerpot.representations import _gradient_pairing\n"
        "disk = lp.Ball([0.0, 0.0], 1.0)\n"
        "fields = [lp.catalog('harmonic_poly', 2), lp.catalog('coordinate', 1), lp.catalog('constant', 2.5)]\n"
        "def run(k):\n"
        "    _gradient_pairing(fields[k % 3], disk, [0.1, 0.2], 128)\n",
        3,
        20,
    ),
    "ball3": (
        "from layerpot.potentials import _gradient_volume_integral\n"
        "ball = lp.Ball([0.0, 0.0, 0.0], 1.0)\n"
        "cases = [(lp.catalog('harmonic_poly', 2, dim=3), (0.3, -0.2, 0.1)), (lp.catalog('distance', [0.0, 0.0, 0.0]), (0.5, 0.0, 0.0))]\n"
        "def run(k):\n"
        "    f, y = cases[k % 2]\n"
        "    _gradient_volume_integral.__wrapped__(f, ball, y, 64, 10**8)\n",
        2,
        6,
    ),
}


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_pinned_malloc_thresholds_keep_volume_runs_in_the_heap(case):
    # pinned by the CLI, freed leaves stay in the heap and the next integral
    # reuses their pages; the first integrals fill the caches
    setup, warm, repeats = FAULT_CASES[case]
    code = (
        "import resource\n"
        "import layerpot as lp\n"
        "from layerpot.harness import cli\n"
        "assert cli.main(['verify']) == 2\n"
        f"{setup}"
        f"for k in range({warm}):\n"
        "    run(k)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"for k in range({repeats}):\n"
        "    run(k)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_cli_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    _pin_malloc_thresholds.cache_clear()
    try:
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(BASE)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "report.csv")]) == 0
        assert _pin_malloc_thresholds.cache_info().currsize == 1 and _pin_malloc_thresholds() is False
    finally:
        _pin_malloc_thresholds.cache_clear()


def test_zeta_mode_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("fields = coordinate:1\nzeta.mode = limit\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'zeta.mode'" in err and "line 2" in err


@pytest.mark.parametrize(
    "line",
    [
        "tolerances.F1 = 1e-6",
        "tolerances.F1 = -1",
        "jump.distances = 1e-2, 5e-3",
        "jump.distances = 1e-2",
        "jump.distances = 1e-2, 1e-2",
        "jump.distances = -1e-2, 5e-3",
    ],
    ids=["tolerances-valid", "tolerances-negative", "jump-valid", "jump-one", "jump-repeated", "jump-negative"],
)
def test_removed_keys_are_unknown(line, tmp_path, capsys):
    # every row is held to its IDENTITIES tolerance and JUMP samples at
    # fixed inradius offsets: no config sets either
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"fields = coordinate:1\n{line}\n")
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {line.split()[0]!r}" in err and "line 2" in err
    assert not out.exists()


def test_readme_config_block_lists_the_known_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration grammar", 1)[1]
    block = section.split("```", 2)[1]
    keys = set()
    for line in block.splitlines():
        line = line.lstrip("# ")
        match = re.match(r"([a-z_.A-Z0-9]+)\s*=", line)
        if match:
            keys.add(match.group(1))
    assert keys == KNOWN_KEYS


@pytest.mark.parametrize("cores, width", [(1, 1), (2, 2), (16, 8)])
def test_pool_width_is_the_usable_cores_up_to_eight(cores, width, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert runner._pool_width() == width


def test_pool_width_without_affinity_is_the_cpu_count(monkeypatch):
    # macOS has no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert runner._pool_width() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert runner._pool_width() == 1


def test_run_tasks_defaults_to_the_pool_width(monkeypatch):
    widths = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(runner, "_pool_width", lambda: 3)
    runner._run_tasks([lambda: []])
    runner._run_tasks([lambda: []], max_workers=5)
    assert widths == [3, 5]


def _recorded_widths(monkeypatch):
    """The ``max_workers`` of every pool the runner builds from now on."""
    widths = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", Recording)
    return widths


@pytest.mark.parametrize(
    "path, orders, width",
    [
        # main rules of 2,048 to 16,384 nodes: the star oversamples twice
        ("configs/star-convergence.cfg", (16, 32, 64), 1),
        ("bench/configs/disk-suite.cfg", (120,), 1),  # 28,800 nodes
        ("bench/configs/disk-suite.cfg", (128,), 3),  # 32,768: one leaf
        ("bench/configs/ball3d.cfg", (64,), 3),  # 320,128
    ],
    ids=["star-16-32-64", "disk-120", "disk-128", "ball3d-64"],
)
def test_verify_pool_is_one_worker_below_one_leaf(path, orders, width, monkeypatch):
    # no check runs: only the width the runner picks is recorded
    widths = _recorded_widths(monkeypatch)
    monkeypatch.setattr(runner, "_pool_width", lambda: 3)
    monkeypatch.setattr(runner, "_verify_tasks", lambda cfg: [lambda: []])
    cfg = build_config((ROOT / path).read_text(encoding="utf-8"))
    cfg.orders = orders
    (run_converge if len(orders) >= 3 else run_verify)(cfg)
    assert widths == [width]


def test_explicit_max_workers_wins_over_the_work_size(monkeypatch):
    widths = _recorded_widths(monkeypatch)
    monkeypatch.setattr(runner, "_pool_width", lambda: 3)
    runner._run_tasks([lambda: []], max_workers=5, nodes=1)
    runner._run_tasks([lambda: []], max_workers=1, nodes=10**6)
    # as the benchmark narrows the pool: a partial over the runner's name
    monkeypatch.setattr(runner, "_verify_tasks", lambda cfg: [lambda: []])
    monkeypatch.setattr(runner, "_run_tasks", functools.partial(runner._run_tasks, max_workers=2))
    run_converge(build_config((ROOT / "configs/star-convergence.cfg").read_text(encoding="utf-8")))
    assert widths == [5, 1, 2]


def _run_with_bench(code):
    """Run ``code`` in a fresh interpreter that imports ``bench/`` modules;
    the tracer rebinds module names, so it must not run in this process."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_installs_and_runner_takes_max_workers():
    # the benchmark wraps layerpot functions by name and narrows the runner's
    # pool with ``max_workers=``; a deleted or renamed name fails here
    code = (
        "import spans\n"
        "from layerpot.harness import runner\n"
        "spans.install(spans.Tracer())\n"
        "assert runner._run_tasks([lambda: []], max_workers=1) == []\n"
    )
    _run_with_bench(code)


def test_bench_tracer_sees_every_check_of_a_verify_run():
    # the tracer rebinds module names, so the runner must look each check up
    # at call time; a check bound at import would record no calls
    code = """
import spans
from layerpot.harness import config, runner
from layerpot.representations import IDENTITIES

tracer = spans.Tracer()
spans.install(tracer)
lines = ["fields = coordinate:1", "identities = " + ", ".join(IDENTITIES), "orders = 16",
         "double.order_outer = 4", "double.order_inner = 16", "probes.count = 1", "probes.exterior_count = 1"]
runner.run_verify(config.build_config("\\n".join(lines)))
silent = [fn for fn in spans.CHECKS if not tracer.stats[f"representations.{fn}"]["calls"]]
assert not silent, silent
"""
    _run_with_bench(code)
