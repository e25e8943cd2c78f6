"""Flat key-value configuration with dotted sections.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Keys use dots for grouping (``domain.radius``), values
are scalars, comma-separated lists, or ``|``-separated field specs of the
form ``name:arg1,arg2``.  Unknown keys are rejected with their line number,
never ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..errors import ConfigError
from ..fields import catalog
from ..geometry import Ball, StarShaped2D
from ..representations import IDENTITIES

#: Identities the verify command accepts, beyond the representation checks.
SUITE_IDENTITIES = IDENTITIES + ("GAUSS", "JUMP")

#: Default verify selection: fast identities with analytic ground truth.
DEFAULT_IDENTITIES = ("GAUSS", "F1", "FIG", "MAT", "REP2", "REP3", "C2_EXTERIOR")

KNOWN_KEYS = {
    "suite.name",
    "domain.shape",
    "domain.dim",
    "domain.center",
    "domain.radius",
    "domain.base_radius",
    "domain.cosine_amplitude",
    "domain.cosine_frequency",
    "fields",
    "identities",
    "orders",
    "probes.count",
    "probes.exterior_count",
    "probes.seed",
    "probes.margin",
    "jump.distances",
    "double.order_outer",
    "double.order_inner",
    "bound.exponents",
    "bound.include_extremal",
    "table.dims",
    "table.exponents",
    "table.radii",
    "output.format",
    "output.path",
} | {f"tolerances.{name}" for name in SUITE_IDENTITIES}


def parse_config(text: str) -> dict[str, tuple[str, int]]:
    """Parse config text into {key: (raw value, line number)}; strict."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno, column=1)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno, column=1)
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno, column=raw.find(key) + 1)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, column=1)
        out[key] = (value, lineno)
    return out


def _get(raw, key, default=None):
    if key in raw:
        return raw[key][0]
    return default


def _parse_float(raw, key, default):
    val = _get(raw, key)
    if val is None:
        return default
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {val!r}", line=raw[key][1]) from None


def _parse_int(raw, key, default):
    val = _get(raw, key)
    if val is None:
        return default
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {val!r}", line=raw[key][1]) from None


def _parse_exponent(token: str) -> float:
    token = token.strip().lower()
    if token in ("inf", "infinity", "oo"):
        return math.inf
    return float(token)


def _parse_list(raw, key, default, item=float, kind="numbers"):
    """A comma list of ``item`` values; empty lists and bad entries are config errors."""
    val = _get(raw, key)
    if val is None:
        return default
    try:
        values = tuple(item(v) for v in val.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{key} must be a comma list of {kind}, got {val!r}", line=raw[key][1]) from None
    if not values:
        raise ConfigError(f"{key} must list at least one value", line=raw[key][1])
    return values


def parse_field_spec(spec: str, dim: int):
    """Build one catalog field from ``name:arg1,arg2`` (see README)."""
    spec = spec.strip()
    name, _, argstr = spec.partition(":")
    name = name.strip()
    args = [a.strip() for a in argstr.split(",") if a.strip()] if argstr else []
    try:
        if name == "constant":
            return catalog("constant", float(args[0]) if args else 1.0)
        if name == "coordinate":
            return catalog("coordinate", int(args[0]) if args else 1)
        if name == "linear":
            return catalog("linear", float(args[0]), [float(a) for a in args[1:]])
        if name == "quadratic_radial":
            return catalog("quadratic_radial", [float(a) for a in args] or [0.0] * dim)
        if name == "harmonic_poly":
            return catalog("harmonic_poly", int(args[0]) if args else 2, dim=dim)
        if name == "distance":
            return catalog("distance", [float(a) for a in args] or [0.0] * dim)
        if name == "power_distance":
            *center, power = args
            return catalog("power_distance", [float(a) for a in center] or [0.0] * dim, float(power))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad field spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown field {name!r} in spec {spec!r}")


@dataclass
class SuiteConfig:
    """Validated run configuration for every harness command."""

    suite: str = "default"
    domain: object = None
    fields: tuple = ()
    identities: tuple = DEFAULT_IDENTITIES
    orders: tuple = (64,)
    probe_count: int = 5
    exterior_count: int = 2
    seed: int = 1234
    margin: float = 0.25
    jump_distances: tuple = (1e-2, 5e-3)
    order_outer: int = 32
    order_inner: int = 64
    bound_exponents: tuple = (math.inf, 3.0)
    bound_include_extremal: bool = True
    table_dims: tuple = (2, 3, 4)
    table_exponents: tuple = (math.inf, 3.0, 4.0)
    table_radii: tuple = (1.0,)
    tolerances: dict = dataclass_field(default_factory=dict)
    output_format: str = "csv"
    output_path: str = "-"


def build_config(text: str) -> SuiteConfig:
    raw = parse_config(text)
    cfg = SuiteConfig()
    cfg.suite = _get(raw, "suite.name", cfg.suite)

    shape = _get(raw, "domain.shape", "ball").lower()
    dim = _parse_int(raw, "domain.dim", 2)
    center = _parse_list(raw, "domain.center", tuple([0.0] * dim))
    if len(center) != dim:
        raise ConfigError(f"domain.center has {len(center)} coordinates for dim {dim}")
    if shape == "ball":
        cfg.domain = Ball(center, _parse_float(raw, "domain.radius", 1.0))
    elif shape == "star":
        if dim != 2:
            raise ConfigError("star domains are planar; set domain.dim = 2")
        base = _parse_float(raw, "domain.base_radius", 1.0)
        amp = _parse_float(raw, "domain.cosine_amplitude", 0.25)
        freq = _parse_int(raw, "domain.cosine_frequency", 3)
        if abs(amp) >= base:
            raise ConfigError("cosine amplitude must stay below the base radius")
        cfg.domain = StarShaped2D(
            lambda th: base + amp * np.cos(freq * th),
            center=center,
            radius_d1=lambda th: -amp * freq * np.sin(freq * th),
            radius_d2=lambda th: -amp * freq * freq * np.cos(freq * th),
        )
    else:
        raise ConfigError(f"unknown domain.shape {shape!r}", line=raw["domain.shape"][1])

    specs = _get(raw, "fields", "constant:1 | coordinate:1")
    cfg.fields = tuple(parse_field_spec(s, dim) for s in specs.split("|") if s.strip())

    idents = _get(raw, "identities")
    if idents is not None:
        names = tuple(s.strip().upper() for s in idents.split(",") if s.strip())
        for name in names:
            if name not in SUITE_IDENTITIES:
                raise ConfigError(f"unknown identity {name!r}", line=raw["identities"][1])
        cfg.identities = names

    cfg.orders = _parse_list(raw, "orders", cfg.orders, int, "integers")
    cfg.probe_count = _parse_int(raw, "probes.count", cfg.probe_count)
    cfg.exterior_count = _parse_int(raw, "probes.exterior_count", cfg.exterior_count)
    for key, count in (("probes.count", cfg.probe_count), ("probes.exterior_count", cfg.exterior_count)):
        if count < 1:
            raise ConfigError(f"{key} must be at least 1, got {count}", line=raw[key][1])
    cfg.seed = _parse_int(raw, "probes.seed", cfg.seed)
    cfg.margin = _parse_float(raw, "probes.margin", cfg.margin)
    if not (0.0 < cfg.margin < 1.0):
        raise ConfigError("probes.margin must lie in (0, 1)")
    cfg.jump_distances = _parse_list(raw, "jump.distances", cfg.jump_distances)
    cfg.order_outer = _parse_int(raw, "double.order_outer", cfg.order_outer)
    cfg.order_inner = _parse_int(raw, "double.order_inner", cfg.order_inner)

    cfg.bound_exponents = _parse_list(raw, "bound.exponents", cfg.bound_exponents, _parse_exponent, "exponents")
    flag = _get(raw, "bound.include_extremal")
    if flag is not None:
        if flag.lower() not in ("true", "false"):
            raise ConfigError("bound.include_extremal must be true or false")
        cfg.bound_include_extremal = flag.lower() == "true"
    cfg.table_dims = _parse_list(raw, "table.dims", cfg.table_dims, int, "integers")
    cfg.table_exponents = _parse_list(raw, "table.exponents", cfg.table_exponents, _parse_exponent, "exponents")
    cfg.table_radii = _parse_list(raw, "table.radii", cfg.table_radii)

    for key, (val, lineno) in raw.items():
        if key.startswith("tolerances."):
            try:
                cfg.tolerances[key.split(".", 1)[1]] = float(val)
            except ValueError:
                raise ConfigError(f"{key} must be a number, got {val!r}", line=lineno) from None

    cfg.output_format = _get(raw, "output.format", cfg.output_format).lower()
    if cfg.output_format not in ("csv", "jsonl"):
        raise ConfigError(f"output.format must be csv or jsonl, got {cfg.output_format!r}")
    cfg.output_path = _get(raw, "output.path", cfg.output_path)
    return cfg
