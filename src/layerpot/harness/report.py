"""Report rows with a fixed column order, emitted as CSV or JSON lines.

The column order is part of the harness contract so acceptance runs diff
cleanly: suite, identity, field, N, point, order, lhs, rhs, residual,
tolerance, pass.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

COLUMNS = ("suite", "identity", "field", "N", "point", "order", "lhs", "rhs", "residual", "tolerance", "pass")


def format_point(point) -> str:
    if point is None:
        return "-"
    if isinstance(point, str):
        return point
    return ";".join(f"{float(c):.12g}" for c in point)


@dataclass(frozen=True)
class Row:
    suite: str
    identity: str
    field: str
    dim: int
    point: str
    order: int
    lhs: float
    rhs: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """residual <= tolerance; a NaN residual fails."""
        return self.residual <= self.tolerance

    def sort_key(self):
        return (self.identity, self.field, self.point, self.order)

    def as_record(self) -> dict:
        return {
            "suite": self.suite,
            "identity": self.identity,
            "field": self.field,
            "N": self.dim,
            "point": self.point,
            "order": self.order,
            "lhs": f"{self.lhs:.12g}",
            "rhs": f"{self.rhs:.12g}",
            "residual": f"{self.residual:.6g}",
            "tolerance": f"{self.tolerance:.6g}",
            "pass": "true" if self.passed else "false",
        }


def write_report(rows, fmt: str, stream) -> None:
    """Write sorted rows to a text stream in the requested format."""
    ordered = sorted(rows, key=Row.sort_key)
    if fmt == "csv":
        writer = csv.DictWriter(stream, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in ordered:
            writer.writerow(row.as_record())
    elif fmt == "jsonl":
        for row in ordered:
            stream.write(json.dumps(row.as_record(), sort_keys=False) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
