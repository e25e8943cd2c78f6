"""One benchmark sample: a fresh process that runs one workload through the CLI.

Each sample is its own process, as each ``layerpot`` command is for a user,
so the import, the quadrature caches and the peak resident set start cold
every time.  Prints one JSON object as its last line of output.

    python3 bench/worker.py --workload NAME --seed N --mode {setup,plain,trace} [--workers K]

``setup`` stops after the import and config parsing; ``plain`` runs the
workload's commands; ``trace`` runs them with every layer wrapped (see
spans.py).  ``--workers K`` sets the runner's thread-pool width.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: workload -> the CLI commands one sample runs, each with its config file
WORKLOADS = {
    "disk-suite": (("verify", "disk-suite.cfg"), ("bound", "disk-suite.cfg")),
    "star-converge": (("converge", "star-converge.cfg"),),
    "f2-disk": (("verify", "f2-disk.cfg"),),
    "ball3d": (("verify", "ball3d.cfg"),),
}

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def run_command(cli, command: str, config: Path, seed: int) -> dict:
    """Run one CLI command; time it from the runner call to the rendered report."""
    entry = {}
    runner = cli._RUNNERS[command]

    def stamped(cfg):
        entry["wall"], entry["cpu"] = time.perf_counter(), _cpu_s()
        return runner(cfg)

    argv = [command, "--config", str(config), "--seed", str(seed), "--format", "csv", "--out", "-"]
    out, err = io.StringIO(), io.StringIO()
    cli._RUNNERS[command] = stamped
    exit_code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
    except Exception as exc:  # a task that raises escapes the CLI; its rows count as lost
        error = f"{type(exc).__name__}: {exc}"
    finally:
        cli._RUNNERS[command] = runner
    wall, cpu = time.perf_counter(), _cpu_s()
    report = out.getvalue()
    return {
        "command": command,
        "suite_s": wall - entry["wall"] if entry else 0.0,
        "cpu_s": cpu - entry["cpu"] if entry else 0.0,
        "exit_code": exit_code,
        "error": error,
        "stderr_tail": err.getvalue()[-500:] if exit_code not in (0, 1) else "",
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)

    if not (SRC / "layerpot" / "__init__.py").is_file():
        print(f"no layerpot sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import layerpot
    from layerpot.harness import cli, config, runner

    if Path(layerpot.__file__).resolve().parent != SRC / "layerpot":
        print(f"layerpot was imported from {layerpot.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    configs = {}
    for _, name in commands:
        if name not in configs:
            configs[name] = config.build_config((BENCH / "configs" / name).read_text(encoding="utf-8"))
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "environment": environment()}))
        return 0

    import expected

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    if args.workers is not None:
        runner._run_tasks = functools.partial(runner._run_tasks, max_workers=args.workers)

    runs = [run_command(cli, command, BENCH / "configs" / name, args.seed) for command, name in commands]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = spans.layer_metrics(tracer) if tracer is not None else None

    for run, (command, name) in zip(runs, commands):
        cfg = configs[name]
        cfg.seed = args.seed
        report = run.pop("report")
        run["sha256"] = hashlib.sha256(report.encode()).hexdigest()
        run["rows"] = expected.check_report(report, expected.expected_keys(command, cfg))
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "suite_s": sum(r["suite_s"] for r in runs),
                "cpu_s": sum(r["cpu_s"] for r in runs),
                "peak_rss_mb": peak_rss_mb,
                "runs": runs,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
