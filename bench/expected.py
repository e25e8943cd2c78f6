"""Expected report rows of a CLI run, and the check of a report against them.

A row is keyed by (identity, field, point, order), the report's sort key.
The keys are enumerated here from the suite configuration and the probe
seed, independently of which rows the run produced, so rows lost to an
aborted run or to a task that raised count as failed instead of vanishing.
Field labels and probe points come from the program's own config parser and
probe generator; the enumeration of which identity is checked at which
probes, orders and exponents is the benchmark's.
"""

from __future__ import annotations

import csv
import io
import math

from layerpot.fields import extremal_field
from layerpot.harness.report import format_point
from layerpot.harness.runner import generate_probes


def _verify_keys(cfg):
    interior, boundary, exterior = generate_probes(cfg)
    center = format_point(cfg.domain.center)
    inner = [format_point(y) for y in interior]
    outer = [format_point(y) for y in exterior]
    probes = {
        "JUMP": [format_point(y) for y in boundary],
        "F1": inner,
        "FIG": inner + outer,
        "MAT": inner,
        "COM": inner,
        "CERC": inner,
        "REP2": [center],
        "REP3": [center],
        "RP0": inner,
        "RP1": inner,
        "C2_EXTERIOR": outer,
        "GRR": inner + outer,
    }
    keys = []
    for order in cfg.orders:
        for identity in cfg.identities:
            if identity == "GAUSS":
                for y in (interior[0], boundary[0], exterior[0]):
                    keys.append(("GAUSS", "constant(1)", format_point(y), order))
                continue
            for field in cfg.fields:
                if identity in ("F2", "F3"):
                    # one evaluation at the outer order yields both rows
                    if order == cfg.orders[0]:
                        keys.append((identity, field.name, center if identity == "F2" else "-", cfg.order_outer))
                    continue
                keys.extend((identity, field.name, y, order) for y in probes[identity])
    return keys


def _rate_keys(cfg, keys):
    """One fitted-rate row per (identity, field, point) seen at >= 3 orders."""
    seen: dict[tuple, int] = {}
    for identity, field, point, _ in keys:
        seen[(identity, field, point)] = seen.get((identity, field, point), 0) + 1
    names = {f.name for f in cfg.fields}
    return [
        (identity, field, f"rate[{point}]", 0)
        for (identity, field, point), n in seen.items()
        if n >= 3 and field in names
    ]


def _bound_keys(cfg):
    interior, _, _ = generate_probes(cfg)
    center = format_point(cfg.domain.center)
    order = max(cfg.orders)
    keys = []
    for p in cfg.bound_exponents:
        for field in cfg.fields:
            label = f"{field.name} p={p:g}"
            keys.extend(("BOUND_GENERAL", label, format_point(y), order) for y in interior)
            keys.append(("BOUND_BALL", label, center, order))
        if cfg.bound_include_extremal:
            label = f"{extremal_field(p, cfg.domain.center).name} p={p:g}"
            keys.append(("SHARPNESS_GENERAL", label, center, order))
            keys.append(("SHARPNESS_BALL", label, center, order))
    return keys


def expected_keys(command: str, cfg) -> list[tuple]:
    """Row keys the command must report for this configuration and seed."""
    if command == "verify":
        return _verify_keys(cfg)
    if command == "converge":
        keys = _verify_keys(cfg)
        return keys + _rate_keys(cfg, keys)
    if command == "bound":
        return _bound_keys(cfg)
    raise ValueError(f"no expected rows for command {command!r}")


def is_rate(key) -> bool:
    return key[2].startswith("rate[")


def check_report(report: str, expected: list[tuple]) -> dict:
    """Compare a CSV report with the expected keys.

    ``lost`` counts expected rows the report lacks, ``unexpected`` rows it
    has beyond them (duplicates included).  ``verdict_failed`` counts
    reported non-rate rows with pass=false.  ``inconsistent`` counts
    non-rate rows whose verdict contradicts "pass iff residual <= tolerance";
    fitted-rate rows carry residual = |slope| and tolerance 0, so they are
    left out of that check and of the residual ratio.
    """
    rows = list(csv.DictReader(io.StringIO(report)))
    produced: dict[tuple, dict] = {}
    unexpected = 0
    want = set(expected)
    for row in rows:
        key = (row["identity"], row["field"], row["point"], int(row["order"]))
        if key in produced or key not in want:
            unexpected += 1
            continue
        produced[key] = row
    lost = [k for k in expected if k not in produced]
    verdict_failed = inconsistent = 0
    worst = 0.0
    for key, row in produced.items():
        if is_rate(key):
            continue
        passed = row["pass"] == "true"
        residual, tolerance = float(row["residual"]), float(row["tolerance"])
        verdict_failed += not passed
        # residual and tolerance are printed to 6 significant digits
        if passed and residual > tolerance * (1 + 1e-5) or not passed and residual < tolerance * (1 - 1e-5):
            inconsistent += 1
        if tolerance > 0 and math.isfinite(residual):
            worst = max(worst, residual / tolerance)
    return {
        "expected": len(expected),
        "lost": len(lost),
        "lost_keys": [list(k) for k in lost[:5]],
        "unexpected": unexpected,
        "verdict_failed": verdict_failed,
        "inconsistent": inconsistent,
        "max_residual_ratio": worst,
    }
