"""Command-line interface.

Subcommands: verify (identity suites), converge (residual-versus-order
studies), table (constants over an (N, p, R) grid), bound (deviation-bound
and sharpness rows).  Exit codes: 0 all checks passed, 1 numerical failure,
2 usage or configuration error.  The LAYERPOT_MAX_NODES environment
variable caps quadrature node budgets.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys

from ..errors import BudgetError, ConfigError, LayerpotError
from ..geometry import VOLUME_BLOCK
from .config import _ORDER, _SEED, SuiteConfig, build_config
from .report import write_report
from .runner import run_bound, run_converge, run_table, run_verify

_RUNNERS = {
    "verify": run_verify,
    "converge": run_converge,
    "table": run_table,
    "bound": run_bound,
}


def _admitted(rule):
    """Argument type admitting what a config key's ``rule`` admits."""
    parse, what = rule

    def convert(text: str) -> int:
        try:
            return parse(text, None)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerpot",
        description="Verification harness for layer-potential identities and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run identity checks; exit 0 iff all rows pass"),
        ("converge", "residual vs order table with fitted rates"),
        ("table", "constants over an (N, p, R) grid"),
        ("bound", "deviation-bound and sharpness rows"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", metavar="PATH", help="suite configuration file")
        order_help = "override the order list with a single order"
        cmd.add_argument("--order", type=_admitted(_ORDER), metavar="N", help=order_help)
        cmd.add_argument("--seed", type=_admitted(_SEED), metavar="N", help="override the probe seed")
        cmd.add_argument("--format", choices=("csv", "jsonl"), help="report format override")
        cmd.add_argument("--out", metavar="PATH", help="report destination ('-' for stdout)")
    return parser


def _load_config(args) -> SuiteConfig:
    if args.config is None:
        if args.command == "table":
            return build_config("", args.command)
        raise ConfigError(f"the {args.command} command requires --config PATH")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return build_config(text, args.command)


#: glibc's ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_malloc_thresholds() -> bool:
    """Fix malloc's mmap threshold at the bytes a running 3-D volume-rule
    leaf holds, and its trim threshold at four times that; False where
    libc has no ``mallopt``.  Only ``main`` calls it: library callers keep
    glibc's dynamic thresholds.

    A running leaf holds its generated nodes and weights and about as much
    again in integrand temporaries.  glibc raises both thresholds to the
    largest block freed so far, so without a pin whether a leaf's arrays
    come from the heap or from fresh pages depends on which rules ran
    before: a suite of 32,768-node 2-D integrals maps and faults in each
    leaf anew unless a larger rule ran first.  glibc would settle the trim
    threshold at twice the largest array freed, less than a running leaf
    holds, so the end of every integral would trim the heap and the next
    one would fault it in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # three coordinates and a weight per node, then as much in temporaries
    held = 2 * (3 + 1) * VOLUME_BLOCK * 8
    mallopt(_M_MMAP_THRESHOLD, held)
    mallopt(_M_TRIM_THRESHOLD, 4 * held)
    return True


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.order is not None:
            cfg.orders = (args.order,)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.format is not None:
            cfg.output_format = args.format
        if args.out is not None:
            cfg.output_path = args.out
        rows, exit_code = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except LayerpotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if cfg.output_path in (None, "-"):
        write_report(rows, cfg.output_format, sys.stdout)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            write_report(rows, cfg.output_format, fh)
    if exit_code != 0:
        failing = [r for r in rows if not r.passed]
        for row in failing:
            print(
                f"FAIL {row.identity} field={row.field} point={row.point} order={row.order} "
                f"residual={row.residual:.3e} tolerance={row.tolerance:.3e}",
                file=sys.stderr,
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
