"""Flat key-value configuration with dotted sections.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Keys use dots for grouping (``domain.radius``), values
are scalars, comma-separated lists, or ``|``-separated field specs of the
form ``name:arg1,arg2``.  Unknown keys are rejected with their line number,
never ignored, and so is every inadmissible value: each key is declared
once, in ``_SUITE_KEYS`` or ``_domain``, with its parser and what its value
must be.  What one command needs from several keys together is checked by
``check_command``, which ``build_config`` applies when given the command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..fields import catalog
from ..geometry import EXTERIOR, Ball, StarShaped2D
from ..representations import BALL_IDENTITIES, IDENTITIES

#: Default verify selection: fast identities with analytic ground truth.
DEFAULT_IDENTITIES = ("GAUSS", "F1", "FIG", "MAT", "REP2", "REP3", "C2_EXTERIOR")


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


def _value(convert, ok=lambda v: True):
    """Parser of one value: ``convert`` it, then reject it unless ``ok``."""

    def parse(text, dim):
        value = convert(text.strip())
        if not ok(value):
            raise ValueError(text)
        return value

    return parse


def _values(convert, ok=lambda v: True, distinct=False):
    """Parser of a non-empty comma list of values."""
    item = _value(convert, ok)

    def parse(text, dim):
        values = tuple(item(v, dim) for v in text.split(",") if v.strip())
        if not values or (distinct and len(set(values)) < len(values)):
            raise ValueError(text)
        return values

    return parse


def _choice(*options):
    return _value(str.lower, lambda v: v in options)


def _exponent(token: str) -> float:
    return math.inf if token.lower() in ("inf", "infinity", "oo") else float(token)


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _positive(v) -> bool:
    return 0.0 < v < math.inf


def parse_field_spec(spec: str, dim: int):
    """Build one catalog field from ``name:arg1,arg2`` (see README); a bad
    spec raises ValueError."""
    name, _, argstr = spec.partition(":")
    name = name.strip()
    args = [a.strip() for a in argstr.split(",") if a.strip()]
    if name == "constant":
        return catalog("constant", float(args[0]) if args else 1.0)
    if name == "coordinate":
        index = int(args[0]) if args else 1
        if index > dim:
            raise ValueError(spec)
        return catalog("coordinate", index)
    if name == "linear":
        offset, *slope = args
        return catalog("linear", float(offset), [float(a) for a in slope])
    if name == "quadratic_radial":
        return catalog("quadratic_radial", [float(a) for a in args] or [0.0] * dim)
    if name == "harmonic_poly":
        return catalog("harmonic_poly", int(args[0]) if args else 2, dim=dim)
    if name == "distance":
        return catalog("distance", [float(a) for a in args] or [0.0] * dim)
    if name == "power_distance":
        *center, power = args
        return catalog("power_distance", [float(a) for a in center] or [0.0] * dim, float(power))
    raise ValueError(f"unknown field {name!r}")


def _bound_exponents(text, dim):
    exponents = _values(_exponent)(text, dim)
    if not all(p > dim for p in exponents):
        raise ValueError(text)
    return exponents


def _fields(text, dim):
    fields = tuple(parse_field_spec(s, dim) for s in text.split("|") if s.strip())
    if len({f.name for f in fields}) < len(fields) or any(f.dim not in (None, dim) for f in fields):
        raise ValueError(text)
    return fields


def _is_order(n: int) -> bool:
    return n >= 4


_COUNT = (_value(int, lambda n: n >= 1), "an integer >= 1")
_ORDER = (_value(int, _is_order), "an integer >= 4")
_SEED = (_value(int, lambda n: n >= 0), "an integer >= 0")

#: key -> (SuiteConfig attribute, parser(text, dim), what the value must be)
_SUITE_KEYS = {
    "suite.name": ("suite", _value(str), "text"),
    "fields": ("fields", _fields, "a '|' list of distinct catalog field specs in the domain's dimension"),
    "identities": (
        "identities",
        _values(str.upper, lambda v: v in IDENTITIES, distinct=True),
        f"a comma list of distinct identities from {', '.join(IDENTITIES)}",
    ),
    "orders": ("orders", _values(int, _is_order, distinct=True), "a comma list of distinct integers >= 4"),
    "probes.count": ("probe_count", *_COUNT),
    "probes.exterior_count": ("exterior_count", *_COUNT),
    "probes.seed": ("seed", *_SEED),
    "probes.margin": ("margin", _value(float, lambda v: 0.0 < v < 1.0), "a number in (0, 1)"),
    "double.order_outer": ("order_outer", *_ORDER),
    "double.order_inner": ("order_inner", *_ORDER),
    "bound.exponents": ("bound_exponents", _bound_exponents, "a comma list of exponents > domain.dim"),
    "bound.include_extremal": ("bound_include_extremal", _value(_flag), "true or false"),
    "table.dims": (
        "table_dims",
        _values(int, lambda n: n >= 2, distinct=True),
        "a comma list of distinct integers >= 2",
    ),
    "table.exponents": ("table_exponents", _values(_exponent, lambda p: p > 1.0), "a comma list of exponents > 1"),
    "table.radii": ("table_radii", _values(float, _positive), "a comma list of positive numbers"),
    "output.format": ("output_format", _choice("csv", "jsonl"), "csv or jsonl"),
    "output.path": ("output_path", _value(str), "text"),
}

#: keys read by ``_domain``, which checks them against each other
_DOMAIN_KEYS = ("shape", "dim", "center", "radius", "base_radius", "cosine_amplitude", "cosine_frequency")

KNOWN_KEYS = set(_SUITE_KEYS) | {f"domain.{name}" for name in _DOMAIN_KEYS}


def _reject(key, what, text, line):
    raise ConfigError(f"{key} must be {what}, got {text!r}", line=line)


def _read(raw, key, parse, what, default, dim=2):
    """The parsed value of ``key``, or ``default`` when the config omits it."""
    if key not in raw:
        return default
    text, line = raw[key]
    try:
        return parse(text, dim)
    except ValueError:
        _reject(key, what, text, line)


@dataclass
class SuiteConfig:
    """Validated run configuration for every harness command."""

    suite: str = "default"
    domain: object = None
    fields: tuple = (catalog("constant", 1.0), catalog("coordinate", 1))
    identities: tuple = DEFAULT_IDENTITIES
    orders: tuple = (64,)
    probe_count: int = 5
    exterior_count: int = 2
    seed: int = 1234
    margin: float = 0.25
    order_outer: int = 32
    order_inner: int = 64
    bound_exponents: tuple = (math.inf, 3.0)
    bound_include_extremal: bool = True
    table_dims: tuple = (2, 3, 4)
    table_exponents: tuple = (math.inf, 3.0, 4.0)
    table_radii: tuple = (1.0,)
    output_format: str = "csv"
    output_path: str = "-"


def _domain(raw):
    """The ball (default: the unit disk) or star domain the ``domain.*`` keys describe."""
    shape = _read(raw, "domain.shape", _choice("ball", "star"), "ball or star", "ball")
    star = shape == "star"
    # quadrature rules exist in 2-D and 3-D; a star is planar
    what = "2 for a star domain" if star else "2 or 3"
    dim = _read(raw, "domain.dim", _value(int, lambda n: n == 2 if star else n in (2, 3)), what, 2)
    coords = _value(
        lambda s: tuple(float(v) for v in s.split(",")), lambda c: len(c) == dim and all(map(math.isfinite, c))
    )
    center = _read(raw, "domain.center", coords, f"{dim} comma-separated finite numbers", (0.0,) * dim)
    # every domain key is checked, also those only the other shape reads
    radius = _read(raw, "domain.radius", _value(float, _positive), "a positive number", 1.0)
    base = _read(raw, "domain.base_radius", _value(float, _positive), "a positive number", 1.0)
    amp = _read(raw, "domain.cosine_amplitude", _value(float, math.isfinite), "a finite number", 0.25)
    freq = _read(raw, "domain.cosine_frequency", _value(int), "an integer", 3)
    if not star:
        return Ball(center, radius)
    if abs(amp) >= base:
        key = "domain.cosine_amplitude" if "domain.cosine_amplitude" in raw else "domain.base_radius"
        _reject(key, "such that |domain.cosine_amplitude| < domain.base_radius", *raw[key])
    return StarShaped2D(
        lambda th: base + amp * np.cos(freq * th),
        center=center,
        radius_d1=lambda th: -amp * freq * np.sin(freq * th),
        radius_d2=lambda th: -amp * freq * freq * np.cos(freq * th),
    )


def build_config(text: str, command: str | None = None) -> SuiteConfig:
    """The run configuration ``text`` describes; with ``command``, also
    checked for what that command reads (``check_command``)."""
    raw = parse_config(text)
    cfg = SuiteConfig(domain=_domain(raw))
    for key, (attr, parse, what) in _SUITE_KEYS.items():
        setattr(cfg, attr, _read(raw, key, parse, what, getattr(cfg, attr), cfg.domain.dim))
    if command is not None:
        check_command(cfg, command, raw)
    return cfg


def _listed(values) -> str:
    return ", ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)


def check_command(cfg: SuiteConfig, command: str, raw=None) -> None:
    """Reject what ``command`` cannot run, naming the line of ``raw`` (the
    parsed config text) that set the offending key; a key the config text
    does not set is named without a line."""
    raw = raw or {}

    def reject(key, what, value):
        _reject(key, what, *raw.get(key, (value, None)))

    ball_only = [name for name in cfg.identities if name in BALL_IDENTITIES]
    if command in ("verify", "converge") and ball_only and not isinstance(cfg.domain, Ball):
        if "domain.shape" in raw and "identities" not in raw:
            what = f"ball unless identities are set: the default {', '.join(ball_only)} hold on balls only"
            reject("domain.shape", what, "star")
        what = f"free of the ball-only {', '.join(BALL_IDENTITIES)} on a star domain"
        reject("identities", what, _listed(cfg.identities))
    if command == "converge" and len(cfg.orders) < 3:
        reject("orders", "at least 3 distinct integers >= 4 for a convergence study", _listed(cfg.orders))
    if command != "bound":
        return
    n, exponents = cfg.domain.dim, cfg.bound_exponents
    # the parser checks a value the config sets; the default may not fit
    if not all(p > n for p in exponents):
        reject("bound.exponents", _SUITE_KEYS["bound.exponents"][2], _listed(exponents))
    unbounded = [f.name for f in cfg.fields if f.gradient_power < 0]
    if unbounded and math.inf in exponents:
        what = f"finite: {', '.join(unbounded)} has an unbounded gradient"
        reject("bound.exponents", what, _listed(exponents))
    # |grad f|^p ~ |x - a|^(gradient_power p) is integrable at a singular
    # point a in the closure iff gradient_power p > -N
    for f in cfg.fields:
        if f.gradient_power < 0 and any(cfg.domain.classify(a) != EXTERIOR for a in f.singular_arrays()):
            limit = n / -f.gradient_power
            if any(p >= limit for p in exponents):
                what = f"below {limit:g}: |grad {f.name}|^p is not integrable at its singular point"
                reject("bound.exponents", what, _listed(exponents))
