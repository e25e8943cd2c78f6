"""Golden reports: the CLI must reproduce committed reports byte for byte.

Regenerate a golden file only for a change meant to alter numbers, with
``layerpot COMMAND --config CONFIG [--seed SEED] --out tests/golden/NAME.csv``.
The ``bench-*`` goldens are the benchmark workloads' reports at one probe
seed, so a change that alters any of them fails here.
"""

import functools
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from layerpot import geometry, potentials
from layerpot.harness import runner
from layerpot.harness.cli import _RUNNERS, main
from layerpot.harness.config import build_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BENCH_CONFIGS = ROOT / "bench" / "configs"

#: probe seed of the ``bench-*`` goldens
BENCH_SEED = 577090037

#: name -> (command, config, probe seed or None for the config's own)
CASES = {
    "verify-unit-disk": ("verify", ROOT / "configs" / "unit-disk.cfg", None),
    "converge-star": ("converge", ROOT / "configs" / "star-convergence.cfg", None),
    "bound-unit-disk": ("bound", ROOT / "configs" / "unit-disk.cfg", None),
    "verify-all-identities": ("verify", GOLDEN / "all-identities.cfg", None),
    "verify-ball3d": ("verify", GOLDEN / "ball3d-identities.cfg", None),
    "bench-disk-suite-verify": ("verify", BENCH_CONFIGS / "disk-suite.cfg", BENCH_SEED),
    "bench-disk-suite-bound": ("bound", BENCH_CONFIGS / "disk-suite.cfg", BENCH_SEED),
    "bench-star-converge": ("converge", BENCH_CONFIGS / "star-converge.cfg", BENCH_SEED),
    "bench-f2-disk": ("verify", BENCH_CONFIGS / "f2-disk.cfg", BENCH_SEED),
    "bench-ball3d": ("verify", BENCH_CONFIGS / "ball3d.cfg", BENCH_SEED),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    command, config, seed = CASES[name]
    out = tmp_path / f"{name}.csv"
    main([command, "--config", str(config), "--out", str(out)] + ([] if seed is None else ["--seed", str(seed)]))
    capsys.readouterr()
    got, golden = out.read_bytes(), (GOLDEN / f"{name}.csv").read_bytes()
    assert got == golden, first_difference(got, golden)


@pytest.mark.parametrize("name", sorted(CASES) + ["table-unit-disk"])
def test_every_verdict_is_residual_within_tolerance(name):
    # the report's pass column is derived from the Row, so check the Rows
    command, config, seed = CASES.get(name, ("table", ROOT / "configs" / "unit-disk.cfg", None))
    cfg = build_config(config.read_text(), command)
    if seed is not None:
        cfg.seed = seed
    rows, code = _RUNNERS[command](cfg)
    assert rows
    for row in rows:
        assert row.passed == (row.residual <= row.tolerance), row
    assert code == (0 if all(row.passed for row in rows) else 1)


@pytest.mark.parametrize("name", ["verify-unit-disk", "verify-all-identities", "verify-ball3d", "bench-ball3d"])
def test_reports_do_not_depend_on_the_volume_block_size(name, tmp_path, capsys, monkeypatch):
    # 1024-node blocks split every volume rule into many leaves, and the
    # 3-D cases split the main block's rays among them; the memo is emptied
    # so that every volume integral is summed again
    monkeypatch.setattr(geometry, "VOLUME_BLOCK", 1024)
    potentials._gradient_volume_integral.cache_clear()
    try:
        test_report_matches_golden(name, tmp_path, capsys)
    finally:
        potentials._gradient_volume_integral.cache_clear()


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("name", ["verify-unit-disk", "verify-all-identities"])
def test_reports_do_not_depend_on_the_pool_width(name, workers, tmp_path, capsys, monkeypatch):
    # the memo is emptied so that every volume integral is computed again
    # under this width
    monkeypatch.setattr(runner, "_run_tasks", functools.partial(runner._run_tasks, max_workers=workers))
    potentials._gradient_volume_integral.cache_clear()
    try:
        test_report_matches_golden(name, tmp_path, capsys)
    finally:
        potentials._gradient_volume_integral.cache_clear()


def test_bench_ball3d_keeps_its_volume_node_count(tmp_path, capsys, monkeypatch):
    # the benchmark's ball3d report at its probe seed builds volume rules of
    # 3,413,952 nodes in all, as the traced workload counts them (5,595,136
    # when every polar ring of a 3-D rule held 2 * order azimuths); a
    # change that grows the 3-D rules again fails here.  The memo is
    # emptied so that every rule is built, on one pool thread
    counts, build = [], geometry.composite_volume_rule

    def counting(*args, **kwargs):
        rule = build(*args, **kwargs)
        counts.append(rule.count)
        return rule

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "layerpot" and getattr(module, "composite_volume_rule", None) is build:
            monkeypatch.setattr(module, "composite_volume_rule", counting)
    monkeypatch.setattr(runner, "_run_tasks", functools.partial(runner._run_tasks, max_workers=1))
    potentials._gradient_volume_integral.cache_clear()
    try:
        main(["verify", "--config", str(BENCH_CONFIGS / "ball3d.cfg"), "--seed", str(BENCH_SEED), "--out", str(tmp_path / "r.csv")])
    finally:
        potentials._gradient_volume_integral.cache_clear()
    capsys.readouterr()
    assert sum(counts) == 3_413_952


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_reports_match_goldens_on_one_core():
    # a fresh interpreter pinned to one core, where the runner picks a
    # pool of one thread by itself
    tests = [f"{__file__}::test_report_matches_golden[{name}]" for name in ("verify-unit-disk", "verify-all-identities")]
    code = (
        "import os, sys, pytest\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from layerpot.harness import runner\n"
        "assert runner._pool_width() == 1\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{tests!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_reports_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count when it loads, so the single-thread
    # comparison runs in a fresh interpreter
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "test_report_matches_golden"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]


def first_difference(got: bytes, golden: bytes) -> str:
    """The first differing report row, with its line number and both versions."""
    got_rows, golden_rows = got.decode().splitlines(), golden.decode().splitlines()
    pairs = zip_longest(got_rows, golden_rows, fillvalue="<no row>")
    for lineno, (row, want) in enumerate(pairs, start=1):
        if row != want:
            header = golden_rows[0] if golden_rows else ""
            return f"line {lineno} differs\n header: {header}\n golden: {want}\n    got: {row}"
    return "the reports differ only in line endings"
