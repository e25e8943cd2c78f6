"""Benchmark of the layerpot verifier, run through its CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each sample is a fresh process (worker.py)
that imports layerpot from ``src/``, parses the workload's config and runs
its commands, so the load is one process at a time on the machine; the
runner's own thread pool is left as the program sets it.  ``--seed`` seeds
the probe seeds: each sample passes its own draw to the CLI with ``--seed``
(see ``probe_seeds``), so the same seed gives the same inputs.

With ``--trace 0`` samples repeat for ``--seconds`` (at least three) and the
end-to-end metrics named in BENCHMARK.json are medians over them.  With
``--trace 1`` plain and traced samples alternate for ``--seconds`` (at least
two pairs), then one plain sample runs per thread-pool width; the per-layer
metrics are medians over the traced samples, and the layer self-test below
must pass.  Every sample's rows are checked against the expected row set
for the config and seed (expected.py): a lost row counts as failed, and a
row reporting pass=false lowers pass_ratio (the seed's own failing checks
are kept on purpose); every report of one probe seed must be
byte-identical.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_SAMPLES = 3
MIN_TRACE_PAIRS = 2
#: no sample starts once the run could not finish within this many seconds
DEADLINE_S = 165.0
POOL_WIDTHS = (1, 2, 8)

ALL = frozenset(WORKLOADS)
#: self-test: the workloads on which each traced layer must record calls;
#: on every other workload it must record none
RUNS_ON = {
    "kernel.fundamental_solution": {"disk-suite"},
    "geometry.composite_volume_rule": ALL,
    "geometry.ray_segments": {"star-converge"},
    "geometry.boundary_rule": ALL,
    "geometry.escalated_order": ALL,
    "fields.ScalarField.gradient": ALL,
    "fields.ScalarField.evaluate": ALL,
    "fields.grad_norm": {"disk-suite"},
    "potentials.double_layer": ALL,
    "potentials.double_layer_batch": {"f2-disk"},
    "potentials.gradient_volume_integral": ALL,
    "potentials.boundary_limit_zeta": {"f2-disk"},
    "potentials.jump_relation_check": {"disk-suite"},
    "potentials.newtonian_integrals": {"disk-suite"},
    "poisson.dirichlet_chi": {"disk-suite"},
    "poisson.poisson_evaluate": {"disk-suite"},
    "representations.check_f1": {"disk-suite", "star-converge", "ball3d"},
    "representations.check_fig": {"disk-suite", "star-converge"},
    "representations.check_ball_corollaries": {"disk-suite"},
    "representations.check_rp": {"disk-suite"},
    "representations.check_c2_exterior": {"disk-suite", "ball3d"},
    "representations.check_f2_f3": {"f2-disk"},
    "representations.check_grr": {"disk-suite"},
    "representations.check_green_riemann": set(),
    "bounds.ostrowski_bound_general": {"disk-suite"},
    "bounds.ostrowski_bound_ball": {"disk-suite"},
}


class SampleError(RuntimeError):
    pass


def probe_seeds(seed: int):
    """The probe seeds of a run's samples, drawn from the run's seed.

    A probe draw changes the work (on ball3d, how many rays cross the hole
    cut around the field's singular point), so a run averages over many
    draws.  The first seed repeats so that two reports of one seed can be
    compared byte for byte.
    """
    rng = random.Random(seed)
    first = rng.randrange(2**31)
    yield first
    while True:
        yield first
        first = rng.randrange(2**31)


def sample(workload: str, seed: int, mode: str, deadline: float, workers: int | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{mode} sample did not finish before the deadline") from None
    if proc.returncode != 0:
        raise SampleError(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    out["probe_seed"] = seed
    return out


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.4g}"] = xs[n - 11]
    return out


def self_test(workload: str, layers: dict) -> list[str]:
    problems = []
    for layer, runs_on in RUNS_ON.items():
        calls = layers[f"{layer}.calls"]
        if (calls > 0) != (workload in runs_on):
            problems.append(f"{layer}.calls = {calls:g} on {workload}")
    ratio = layers["geometry.composite_volume_rule.distinct_ratio"]
    if workload == "disk-suite" and not ratio < 0.1 or workload == "f2-disk" and ratio != 1.0:
        problems.append(f"geometry.composite_volume_rule.distinct_ratio = {ratio:g} on {workload}")
    for name in ("harness.config_s", "harness.dispatch_s", "harness.report_s"):
        if not layers[name] > 0:
            problems.append(f"{name} = {layers[name]:g}")
    return problems


def check_samples(samples: list[dict]) -> tuple[list[str], int, int]:
    """Problems with the rows and reports of a run's samples, rows attempted, rows failed.

    A row fails when it is lost: missing from the report, as every row of a
    run that raised or was aborted is.  A row reporting pass=false is an
    output of the program, not a failed operation; pass_ratio counts those.
    """
    problems, attempted, failed = [], 0, 0
    shas: dict[tuple, set] = {}
    for s in samples:
        for run in s["runs"]:
            rows = run["rows"]
            attempted += rows["expected"]
            failed += rows["lost"]
            shas.setdefault((run["command"], s["probe_seed"]), set()).add(run["sha256"])
            if run["error"] or run["exit_code"] not in (0, 1):
                problems.append(f"{run['command']}: exit {run['exit_code']} {run['error'] or run['stderr_tail']}")
            for key in ("lost", "unexpected", "inconsistent"):
                if rows[key]:
                    problems.append(f"{run['command']}: {rows[key]} {key} rows {rows['lost_keys'] if key == 'lost' else ''}")
    for (command, seed), digests in shas.items():
        if len(digests) > 1:
            problems.append(f"{command}: {len(digests)} different reports for probe seed {seed}")
    return problems, attempted, failed


def pass_ratio(s: dict) -> float:
    """Share of the expected rows that were reported with pass=true."""
    expected = sum(r["rows"]["expected"] for r in s["runs"])
    failed = sum(r["rows"]["lost"] + r["rows"]["verdict_failed"] for r in s["runs"])
    return 1.0 - failed / expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="layerpot benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    def has_time(samples):
        last = samples[-1]["wall_s"] if samples else 0.0
        return time.perf_counter() + last < deadline

    seeds = probe_seeds(args.seed)
    try:
        # first process: compiles bytecode and warms the file cache; not measured
        env = sample(args.workload, args.seed, "setup", deadline)["environment"]
        plain, traced, widths = [], [], {}
        if not args.trace:
            while has_time(plain) and (len(plain) < MIN_SAMPLES or time.perf_counter() - start < args.seconds):
                plain.append(sample(args.workload, next(seeds), "plain", deadline))
        else:
            while has_time(plain + traced) and (
                len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < args.seconds
            ):
                seed = next(seeds)
                plain.append(sample(args.workload, seed, "plain", deadline))
                traced.append(sample(args.workload, seed, "trace", deadline))
            for k in POOL_WIDTHS:
                widths[k] = sample(args.workload, plain[0]["probe_seed"], "plain", deadline, workers=k)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced + list(widths.values())
    problems, attempted, failed = check_samples(samples)

    def med(xs, key):
        return statistics.median(s[key] for s in xs)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "probe_seeds": [s["probe_seed"] for s in plain],
        "trace": args.trace,
        "environment": env,
        "suite_s": tail([s["suite_s"] for s in plain]),
        "samples": {k: [s[k] for s in plain] for k in ("suite_s", "setup_s", "cpu_s", "peak_rss_mb")},
        "reports_sha256": sorted({r["sha256"] for s in samples for r in s["runs"]}),
        "rows": [r["rows"] | {"command": r["command"]} for r in plain[0]["runs"]],
    }
    if not args.trace:
        values = {k: med(plain, k) for k in ("suite_s", "setup_s", "cpu_s", "peak_rss_mb")}
        values["pass_ratio"] = statistics.median(pass_ratio(s) for s in plain)
    else:
        values = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
        for k, s in widths.items():
            values[f"harness.workers_{k}.suite_s"] = s["suite_s"]
            values[f"harness.workers_{k}.peak_rss_mb"] = s["peak_rss_mb"]
        values["trace.overhead_s"] = med(traced, "suite_s") - med(plain, "suite_s")
        detail["traced_suite_s"] = tail([s["suite_s"] for s in traced])
        problems += [f"self-test: {p}" for p in self_test(args.workload, values)]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    detail["problems"] = problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    width = max(len(name) for name in metrics)
    print(f"layerpot benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, {len(plain)} plain samples")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':<{width}}  {1.0 - values['pass_ratio']:.6g} fraction (1 - pass_ratio)")
    print(f"  rows: {attempted} attempted, {failed} lost")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(json.dumps(detail))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
