"""Command-line front end.

Usage:
    spinorbit-bell chsh|noise-scan|mode-pattern|verify --config run.yaml
        [--output PATH] [--format csv|json]

The config is a YAML document; unknown keys, and state keys that the
family does not take, are rejected so that typos in physics parameters fail
loudly. Angles accept radian numbers or pi-rational literals such as
``pi/8`` or ``3pi/4``.

Exit codes: 0 success, 1 verify FAIL, 2 config error, 3 truncation error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import io
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import analysis, modes, states, verify
from .apparatus import ChshSettings, DEFAULT_CHSH_SETTINGS
from .errors import DOMAINS, ConfigError, SimulationError, TruncationError, checked
from .partitions import BellModeLabel
from .states import Family, StateSpec

SCHEMA_VERSION = 1

#: Most points a grid may have: each scan axis, the alpha x beta scan and the
#: resolution^2 of a pattern. Rendering a JSON scan peaks near 1.8 kB per
#: point, so a grid at the cap stays near 2 GB; a pattern at the cap (1024^2)
#: peaks at 190 MB.
MAX_GRID_POINTS = 2**20

_PI_LITERAL = re.compile(
    r"^\s*(-)?\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$"
)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads YAML 1.2 floats such as ``1e-12`` and ``1.0e200``
    (PyYAML's YAML 1.1 resolver needs a dot and a signed exponent in a float)
    and, as YAML 1.2 requires, refuses a key repeated in one mapping.
    """

    def construct_mapping(self, node, deep=False):
        # A merge (``<<: *anchor``) may still supply keys that the mapping overrides.
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in own:
            if (key := self.construct_object(key_node)) in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return mapping


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _checked(field: str, value, domain=None):
    """``errors.checked`` of value under the field's last name; a refusal is a
    ConfigError naming the field."""
    try:
        return checked(field.rpartition(".")[2], value, domain)
    except SimulationError as exc:
        raise ConfigError(field, str(exc)) from None


def parse_angle(value, field: str) -> float:
    """Radians from a finite number, or from text: a decimal or a pi-rational
    literal like '3pi/8'."""
    if isinstance(value, str) and (m := _PI_LITERAL.match(value)):
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ConfigError(field, f"zero denominator in angle {value!r}")
        value = sign * num * math.pi / den
    elif isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(field, f"cannot parse angle {value!r}") from None
    return _checked(field, value, DOMAINS["angle"])


def _section(doc, field: str, required=(), optional=()) -> dict:
    """``doc`` as a mapping with every ``required`` key and no key outside
    ``required`` and ``optional``; a ConfigError names the first offender."""
    if not isinstance(doc, dict):
        raise ConfigError(field, "expected a mapping")
    unknown = set(doc) - {*required, *optional}
    if unknown:
        # YAML keys may be numbers too, so they are ordered by their text.
        raise ConfigError(f"{field}.{min(unknown, key=str)}", "unknown key (strict mode)")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{field}.{key}", "missing required key")
    return doc


def _member(kind: type[enum.Enum], doc: dict, field: str, key: str):
    """``kind(doc[key])``; an unknown value is a ConfigError listing the choices."""
    try:
        return kind(doc[key])
    except ValueError:
        names = ", ".join(m.value for m in kind)
        raise ConfigError(
            f"{field}.{key}", f"unknown {key} {doc[key]!r}; one of: {names}"
        ) from None


@dataclass(frozen=True)
class ScanGrid:
    alphas: tuple[float, ...]
    betas: tuple[float, ...]


@dataclass(frozen=True)
class PatternSpec:
    label: BellModeLabel
    extent: float
    resolution: int


@dataclass(frozen=True)
class RunConfig:
    mode: str
    state: StateSpec | None
    chsh_settings: ChshSettings
    scan_grid: ScanGrid | None
    pattern: PatternSpec | None
    output: str | None
    format: str


_STATE_KEYS = {field.name for field in dataclasses.fields(StateSpec)}


def _state_value(key: str, value):
    """A state value as a Python number where YAML cannot write one: an
    [re, im] pair becomes a complex number, and an angle is parsed as one."""
    if isinstance(value, list) and len(value) == 2:
        try:
            return complex(*(float(v) for v in value))
        except (TypeError, ValueError, OverflowError):
            return value
    if DOMAINS[key] is DOMAINS["angle"]:
        return parse_angle(value, f"state.{key}")
    return value


def _parse_state(doc) -> StateSpec:
    doc = _section(doc, "state", ("family",), _STATE_KEYS)
    family = _member(Family, doc, "state", "family")
    routes = states.FAMILIES[family]
    _section(doc, "state", routes.required, _STATE_KEYS)
    foreign = set(doc) - {"family", *routes.required, *routes.optional}
    if foreign:
        raise ConfigError(f"state.{min(foreign)}", f"not a parameter of {family.value}")
    kwargs = {
        key: _checked(f"state.{key}", _state_value(key, value))
        for key, value in doc.items()
        if key != "family"
    }
    return StateSpec(family, **kwargs)


def _parse_chsh_settings(doc) -> ChshSettings:
    keys = ("alpha", "alpha_prime", "beta", "beta_prime")
    doc = _section(doc, "chsh_settings", keys)
    return ChshSettings(*(parse_angle(doc[k], f"chsh_settings.{k}") for k in keys))


def _check_grid_size(points: int, field: str) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigError(field, f"{points} points exceed MAX_GRID_POINTS = {MAX_GRID_POINTS}")


def _parse_axis(doc, field: str) -> tuple[float, float, int]:
    """(start, stop, points) of one scan axis."""
    doc = _section(doc, field, ("start", "stop", "points"))
    points = _checked(f"{field}.points", doc["points"])
    _check_grid_size(points, f"{field}.points")
    start = parse_angle(doc["start"], f"{field}.start")
    stop = parse_angle(doc["stop"], f"{field}.stop")
    if points > 1 and not math.isfinite(stop - start):
        raise ConfigError(field, f"span from {start:g} to {stop:g} overflows")
    return start, stop, points


def _parse_scan_grid(doc) -> ScanGrid:
    doc = _section(doc, "scan_grid", ("alpha", "beta"))
    axes = [_parse_axis(doc[k], f"scan_grid.{k}") for k in ("alpha", "beta")]
    _check_grid_size(axes[0][2] * axes[1][2], "scan_grid")
    return ScanGrid(*(tuple(np.linspace(*axis)) if axis[2] > 1 else axis[:1] for axis in axes))


def _parse_pattern(doc) -> PatternSpec:
    doc = _section(doc, "pattern", ("label",), ("extent", "resolution"))
    label = _member(BellModeLabel, doc, "pattern", "label")
    extent = _checked("pattern.extent", doc.get("extent", 2.0))
    resolution = _checked("pattern.resolution", doc.get("resolution", 21))
    _check_grid_size(resolution**2, "pattern.resolution")
    return PatternSpec(label, extent, resolution)


#: Each config section: its parser and its value when absent.
_SECTIONS = {
    "state": (_parse_state, None),
    "chsh_settings": (_parse_chsh_settings, DEFAULT_CHSH_SETTINGS),
    "scan_grid": (_parse_scan_grid, None),
    "pattern": (_parse_pattern, None),
}

#: Each mode and the sections it requires; every section present is parsed
#: whatever the mode.
_MODES = {
    "chsh": ("state",),
    "noise-scan": ("state", "scan_grid"),
    "mode-pattern": ("pattern",),
    "verify": (),
}


def parse_config(text: str, mode: str) -> RunConfig:
    """Parse and validate a YAML run configuration for the given mode."""
    if mode not in _MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"not valid YAML: {exc}") from None
    except RecursionError:
        raise ConfigError("config", "YAML nested too deeply") from None
    except ValueError as exc:
        # PyYAML's int and timestamp constructors: a 5 000-digit integer, 2020-13-45.
        raise ConfigError("config", f"unreadable YAML value: {exc}") from None
    if doc is None:
        doc = {}
    doc = _section(doc, "config", optional=(*_SECTIONS, "output", "format"))

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "expected a path string")
    fmt = doc.get("format", "json" if mode == "chsh" else "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"expected 'csv' or 'json', got {fmt!r}")

    sections = {}
    for name, (parse, default) in _SECTIONS.items():
        if name in doc:
            sections[name] = parse(doc[name])
        elif name in _MODES[mode]:
            raise ConfigError(name, "missing required key")
        else:
            sections[name] = default
    return RunConfig(mode, output=output, format=fmt, **sections)


#: The columns every noise point writes, in order.
_POINT_COLUMNS = ("alpha", "beta", "mean_m", "var_m", "itot")


def _point_rows(points, ratios=()):
    """Each point's ``_POINT_COLUMNS`` values, then the attributes named in ``ratios``."""
    for pt in points:
        yield (
            pt.settings.alpha, pt.settings.beta, pt.mean_m, pt.var_m, pt.itot,
            *(getattr(pt, name) for name in ratios),
        )


def _render_csv(columns, rows, digits: int = 12) -> str:
    """A header line, then one line of ``digits`` significant digits per row."""
    # One template per document: f"{v:.{digits}g}" would rebuild its spec per value.
    line = ",".join([f"{{:.{digits}g}}"] * len(columns)) + "\n"
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(line.format(*row))
    return buf.getvalue()


def _render_json(doc: dict) -> str:
    """Strict JSON: a NaN or infinite value is an error, never written."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise SimulationError("result contains a non-finite number") from None


def run(config: RunConfig) -> str:
    """Execute a run and return the rendered output document."""
    if config.mode in ("mode-pattern", "verify") and config.format != "csv":
        raise ConfigError("format", f"{config.mode} has no {config.format} output")
    if config.mode == "chsh":
        result = analysis.s_parameter(states.build(config.state), config.chsh_settings)
        columns = (*_POINT_COLUMNS, "squeezing_ratio")
        rows = _point_rows(result.points, ("var_ratio",))
        if config.format == "csv":
            return _render_csv(columns, rows) + f"# s_value,{result.s_value:.12g}\n"
        return _render_json(
            {
                "schema_version": SCHEMA_VERSION,
                "state_family": config.state.family.value,
                "settings": dataclasses.asdict(result.settings),
                "s_value": result.s_value,
                "points": [dict(zip(columns, row)) for row in rows],
            }
        )

    if config.mode == "noise-scan":
        points = analysis.settings_scan(
            states.build(config.state), config.scan_grid.alphas, config.scan_grid.betas
        )
        if config.format == "csv":
            ratios = ("mean_ratio", "var_ratio")
            return _render_csv((*_POINT_COLUMNS, *ratios), _point_rows(points, ratios))
        # No ratio columns, so a scan at zero total intensity still renders.
        rows = [dict(zip(_POINT_COLUMNS, row)) for row in _point_rows(points)]
        return _render_json({"schema_version": SCHEMA_VERSION, "points": rows})

    if config.mode == "mode-pattern":
        x, y, e_h, e_v = modes.sample_polarization_grid(
            config.pattern.label, config.pattern.extent, config.pattern.resolution
        )
        return _render_csv(
            ("x", "y", "EH_re", "EH_im", "EV_re", "EV_im"),
            zip(x, y, e_h.real, e_h.imag, e_v.real, e_v.imag),
            digits=9,
        )

    if config.mode == "verify":
        return verify.format_report(verify.run_verification())

    raise ConfigError("mode", f"unknown mode {config.mode!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinorbit-bell",
        description="Spin-orbit Bell measurement simulator",
    )
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--output", help="output path (overrides config)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 4
            except UnicodeDecodeError as exc:
                raise ConfigError("config", f"not UTF-8 text: {exc}") from None
        elif args.mode == "verify":
            text = ""
        else:
            print("error: --config is required for this mode", file=sys.stderr)
            return 2
        overrides = {"output": args.output, "format": args.format}
        config = dataclasses.replace(
            parse_config(text, args.mode),
            **{k: v for k, v in overrides.items() if v is not None},
        )
        if config.output == "":
            raise ConfigError("output", "expected a path, got an empty string")
        rendered = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.output is not None:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(rendered)

    if config.mode == "verify" and "FAIL" in rendered:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
