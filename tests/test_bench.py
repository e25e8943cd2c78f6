"""The benchmark under ``bench/`` wraps layerpot functions by name and
expects each workload's report rows by key; a change that deletes or
renames a wrapped function, or adds, drops or renames rows, must fail here,
not in the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layerpot.harness import cli
from layerpot.harness.config import build_config

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "import spans, run\n"
        "spans.install(spans.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_report_their_expected_rows():
    # the benchmark counts a lost, unexpected or inconsistent row as a failed
    # operation; a change that adds, drops or renames rows must fail here
    worker, expected = _bench_module("worker"), _bench_module("expected")
    seed = 577090037
    for workload, commands in worker.WORKLOADS.items():
        for command, name in commands:
            path = ROOT / "bench" / "configs" / name
            run = worker.run_command(cli, command, path, seed)
            assert run["error"] is None and run["exit_code"] in (0, 1), (workload, command, run)
            cfg = build_config(path.read_text(encoding="utf-8"))
            cfg.seed = seed
            rows = expected.check_report(run["report"], expected.expected_keys(command, cfg))
            assert rows["lost"] == rows["unexpected"] == rows["inconsistent"] == 0, (workload, command, rows)


def test_tracer_counts_the_nodes_of_plan_held_rules():
    # the tracer reads a volume rule's node count and bytes through
    # ``weights`` and ``nodes``, which generate the rule; they must equal
    # the counts the rules were planned with
    code = (
        "import json, os, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "import spans\n"
        "from layerpot import geometry\n"
        "from layerpot.harness import cli\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "traced, built = geometry.composite_volume_rule, []\n"
        "def recording(*args, **kwargs):\n"
        "    parent = tracer.parent()\n"
        "    rule = traced(*args, **kwargs)\n"
        "    built.append((parent, rule.count, rule.count * (rule.dim + 1) * 8))\n"
        "    return rule\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.startswith('layerpot'):\n"
        "        for key, value in list(vars(mod).items()):\n"
        "            if value is traced:\n"
        "                setattr(mod, key, recording)\n"
        f"config = {str(ROOT / 'tests' / 'golden' / 'ball3d-identities.cfg')!r}\n"
        "cli.main(['verify', '--config', config, '--order', '8', '--out', os.devnull])\n"
        "print(json.dumps({'layers': spans.layer_metrics(tracer), 'built': built}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    layers, built = out["layers"], out["built"]
    consumed = [(count, size) for parent, count, size in built if parent == "potentials.gradient_volume_integral"]
    assert consumed
    assert layers["geometry.composite_volume_rule.calls"] == len(built)
    assert layers["geometry.composite_volume_rule.nodes"] == sum(count for _, count, _ in built)
    assert layers["potentials.gradient_volume_integral.kernel_evals"] == sum(count for count, _ in consumed)
    assert layers["potentials.gradient_volume_integral.bytes_computed"] == sum(size for _, size in consumed)


@pytest.mark.parametrize("workload", sorted(_bench_module("worker").WORKLOADS))
def test_traced_workload_passes_the_layer_self_test(workload, monkeypatch):
    # a traced benchmark run fails when a layer records no calls on a
    # workload it runs on (or calls where it should not), or when the
    # distinct-rule ratio leaves its bounds; one traced sample per workload,
    # at a fixed probe seed and one pool thread, runs the same check
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload]
    cmd += ["--seed", "577090037", "--mode", "trace", "--workers", "1"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leaves bench/ as it is
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # run.py imports worker
    assert _bench_module("run").self_test(workload, layers) == []
