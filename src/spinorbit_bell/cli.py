"""Command-line front end.

Usage:
    spinorbit-bell chsh|noise-scan|mode-pattern|verify --config run.yaml
        [--output PATH] [--format csv|json]

The config is a YAML document; unknown keys are rejected so that typos in
physics parameters fail loudly. Angles accept radian numbers or pi-rational
literals such as ``pi/8`` or ``3pi/4``.

Exit codes: 0 success, 2 config error, 3 truncation error, 4 I/O error.
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
from .errors import ConfigError, SimulationError, TruncationError
from .partitions import BellModeLabel
from .states import Family, StateSpec

SCHEMA_VERSION = 1

_PI_LITERAL = re.compile(
    r"^\s*(-)?\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$"
)


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``1e-12`` and ``1.0e200``.

    PyYAML's YAML 1.1 resolver needs a dot and a signed exponent in a float,
    so it reads those two as strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _finite(value, field: str) -> float:
    """float(value); a NaN or infinite value is a ConfigError naming the field."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return x


def _number(value, field: str, low, high=math.inf, integer=False, open_low=False):
    """A finite number in [low, high], or (low, high] if ``open_low``.

    With ``integer`` only ints are accepted; bools never are.
    """
    kind = "an integer" if integer else "a real"
    bounds = f"{'(' if open_low else '['}{low:g}, {high:g}{']' if high < math.inf else ')'}"
    if isinstance(value, int if integer else (int, float)) and not isinstance(value, bool):
        x = value if integer else _finite(value, field)
        if (low < x if open_low else low <= x) and x <= high:
            return x
    raise ConfigError(field, f"expected {kind} in {bounds}, got {value!r}")


def parse_angle(value, field: str) -> float:
    """Radians from a finite number or a pi-rational literal like '3pi/8'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, field)
    if isinstance(value, str):
        m = _PI_LITERAL.match(value)
        if m:
            sign = -1.0 if m.group(1) else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            if den == 0.0:
                raise ConfigError(field, f"zero denominator in angle {value!r}")
            return _finite(sign * num * math.pi / den, field)
        try:
            angle = float(value)
        except ValueError:
            raise ConfigError(field, f"cannot parse angle {value!r}") from None
        return _finite(angle, field)
    raise ConfigError(field, f"expected an angle, got {type(value).__name__}")


def _parse_complex(value, field: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_finite(value, field))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            re_part, im_part = (float(v) for v in value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(field, f"cannot parse complex {value!r}") from None
        return complex(_finite(re_part, field), _finite(im_part, field))
    raise ConfigError(field, "expected a number or a [re, im] pair")


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


#: Numeric state keys: (low, high, integer, open_low) as taken by ``_number``.
_STATE_NUMBERS = {
    "n": (0, math.inf, True, False),
    "p": (0.0, 1.0, False, False),
    "reflectivity": (0.0, 1.0, False, False),
    "phase_points": (5, math.inf, True, False),
    "epsilon": (0.0, 1e-3, False, True),
}

_STATE_KEYS = {"family", "u", "phi", "zeta", *_STATE_NUMBERS}


def _parse_state(doc, field: str = "state") -> StateSpec:
    doc = _section(doc, field, ("family",), _STATE_KEYS)
    family = _member(Family, doc, field, "family")
    required, _ = states.FAMILIES[family]
    _section(doc, field, required, _STATE_KEYS)
    kwargs = {
        key: _number(doc[key], f"{field}.{key}", *bounds)
        for key, bounds in _STATE_NUMBERS.items()
        if key in doc
    }
    for key in ("u", "zeta"):
        if key in doc:
            kwargs[key] = _parse_complex(doc[key], f"{field}.{key}")
    if "phi" in doc:
        kwargs["phi"] = parse_angle(doc["phi"], f"{field}.phi")
    try:
        return StateSpec(family, **kwargs)
    except SimulationError as exc:
        raise ConfigError(field, str(exc)) from None


def _parse_chsh_settings(doc) -> ChshSettings:
    keys = ("alpha", "alpha_prime", "beta", "beta_prime")
    doc = _section(doc, "chsh_settings", keys)
    return ChshSettings(*(parse_angle(doc[k], f"chsh_settings.{k}") for k in keys))


def _parse_axis(doc, field: str) -> tuple[float, ...]:
    doc = _section(doc, field, ("start", "stop", "points"))
    points = _number(doc["points"], f"{field}.points", 1, integer=True)
    start = parse_angle(doc["start"], f"{field}.start")
    stop = parse_angle(doc["stop"], f"{field}.stop")
    if points == 1:
        return (start,)
    if not math.isfinite(stop - start):
        raise ConfigError(field, f"span from {start:g} to {stop:g} overflows")
    return tuple(np.linspace(start, stop, points))


def _parse_scan_grid(doc) -> ScanGrid:
    doc = _section(doc, "scan_grid", ("alpha", "beta"))
    return ScanGrid(*(_parse_axis(doc[k], f"scan_grid.{k}") for k in ("alpha", "beta")))


def _parse_pattern(doc) -> PatternSpec:
    doc = _section(doc, "pattern", ("label",), ("extent", "resolution"))
    label = _member(BellModeLabel, doc, "pattern", "label")
    # The grid spans [-extent, extent]; its length must stay finite.
    extent = _number(
        doc.get("extent", 2.0), "pattern.extent", 0.0, sys.float_info.max / 2, open_low=True
    )
    resolution = _number(doc.get("resolution", 21), "pattern.resolution", 1, integer=True)
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


def _chsh_document(config: RunConfig) -> dict:
    ensemble = states.build(config.state)
    result = analysis.s_parameter(ensemble, config.chsh_settings)
    return {
        "schema_version": SCHEMA_VERSION,
        "state_family": config.state.family.value,
        "settings": {
            "alpha": result.settings.alpha,
            "alpha_prime": result.settings.alpha_prime,
            "beta": result.settings.beta,
            "beta_prime": result.settings.beta_prime,
        },
        "s_value": result.s_value,
        "points": [
            {
                "alpha": pt.settings.alpha,
                "beta": pt.settings.beta,
                "mean_m": pt.mean_m,
                "var_m": pt.var_m,
                "itot": pt.itot,
                "squeezing_ratio": pt.var_ratio,
            }
            for pt in result.points
        ],
    }


def _render_json(doc: dict) -> str:
    """Strict JSON: a NaN or infinite value is an error, never written."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise SimulationError("result contains a non-finite number") from None


def run(config: RunConfig) -> str:
    """Execute a run and return the rendered output document."""
    if config.mode == "chsh":
        doc = _chsh_document(config)
        if config.format == "json":
            return _render_json(doc)
        buf = io.StringIO()
        buf.write("alpha,beta,mean_m,var_m,itot,squeezing_ratio\n")
        for pt in doc["points"]:
            buf.write(
                ",".join(
                    f"{pt[k]:.12g}"
                    for k in ("alpha", "beta", "mean_m", "var_m", "itot", "squeezing_ratio")
                )
                + "\n"
            )
        buf.write(f"# s_value,{doc['s_value']:.12g}\n")
        return buf.getvalue()

    if config.mode == "noise-scan":
        ensemble = states.build(config.state)
        points = analysis.settings_scan(
            ensemble, config.scan_grid.alphas, config.scan_grid.betas
        )
        if config.format == "json":
            return _render_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "points": [
                        {
                            "alpha": pt.settings.alpha,
                            "beta": pt.settings.beta,
                            "mean_m": pt.mean_m,
                            "var_m": pt.var_m,
                            "itot": pt.itot,
                        }
                        for pt in points
                    ],
                }
            )
        buf = io.StringIO()
        analysis.write_scan_csv(points, buf)
        return buf.getvalue()

    if config.mode == "mode-pattern":
        rows = modes.sample_polarization_grid(
            config.pattern.label, config.pattern.extent, config.pattern.resolution
        )
        buf = io.StringIO()
        modes.write_grid_csv(rows, buf)
        return buf.getvalue()

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

    if config.output:
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
