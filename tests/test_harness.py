"""Tests for the configuration parser, report writer, runner, and CLI."""

import json

import numpy as np
import pytest

from layerpot.errors import ConfigError
from layerpot.harness import parse_config
from layerpot.harness.cli import main
from layerpot.harness.config import build_config
from layerpot.harness.report import render_report
from layerpot.harness.runner import run_bound, run_converge, run_table, run_verify

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


def test_field_spec_parsing():
    cfg = build_config("fields = power_distance:0.1,0.2,0.5 | harmonic_poly:3\n")
    assert cfg.fields[0].holder_exponent == pytest.approx(0.5)
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


def test_verify_numerical_failure_exit_code():
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
tolerances.F1 = 1e-18
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


def test_converge_exit_code_reports_failing_rows():
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
tolerances.F1 = 1e-18
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


def test_bound_rejects_small_exponent():
    cfg = build_config("fields = coordinate:1\nbound.exponents = 2\n")
    with pytest.raises(ConfigError):
        run_bound(cfg)


def test_laplacian_requirement_checked():
    cfg = build_config("fields = distance:0,0\nidentities = GRR\n")
    with pytest.raises(ConfigError):
        # distance has a Laplacian; strip it to trigger the guard
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


def test_cli_missing_config_exit_2(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--config", "/nonexistent/path.cfg"]) == 2


def test_cli_numerical_failure_exit_1(tmp_path, capsys):
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
tolerances.F1 = 1e-18
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
