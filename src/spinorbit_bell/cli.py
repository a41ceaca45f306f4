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

_MODES = ("chsh", "noise-scan", "mode-pattern", "verify")

_PI_LITERAL = re.compile(
    r"^\s*(-)?\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$"
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


def _require_mapping(doc, field: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(field, "expected a mapping")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], field: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"{field}.{sorted(unknown)[0]}", "unknown key (strict mode)"
        )


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
    doc = _require_mapping(doc, field)
    _reject_unknown(doc, _STATE_KEYS, field)
    if "family" not in doc:
        raise ConfigError(f"{field}.family", "missing required key")
    try:
        family = Family(doc["family"])
    except ValueError:
        names = ", ".join(f.value for f in Family)
        raise ConfigError(
            f"{field}.family", f"unknown family {doc['family']!r}; one of: {names}"
        ) from None
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
    doc = _require_mapping(doc, "chsh_settings")
    keys = {"alpha", "alpha_prime", "beta", "beta_prime"}
    _reject_unknown(doc, keys, "chsh_settings")
    missing = keys - set(doc)
    if missing:
        raise ConfigError(f"chsh_settings.{sorted(missing)[0]}", "missing required key")
    return ChshSettings(
        parse_angle(doc["alpha"], "chsh_settings.alpha"),
        parse_angle(doc["alpha_prime"], "chsh_settings.alpha_prime"),
        parse_angle(doc["beta"], "chsh_settings.beta"),
        parse_angle(doc["beta_prime"], "chsh_settings.beta_prime"),
    )


def _parse_axis(doc, field: str) -> tuple[float, ...]:
    doc = _require_mapping(doc, field)
    _reject_unknown(doc, {"start", "stop", "points"}, field)
    for key in ("start", "stop", "points"):
        if key not in doc:
            raise ConfigError(f"{field}.{key}", "missing required key")
    points = _number(doc["points"], f"{field}.points", 1, integer=True)
    start = parse_angle(doc["start"], f"{field}.start")
    stop = parse_angle(doc["stop"], f"{field}.stop")
    if points == 1:
        return (start,)
    return tuple(np.linspace(start, stop, points))


def _parse_scan_grid(doc) -> ScanGrid:
    doc = _require_mapping(doc, "scan_grid")
    _reject_unknown(doc, {"alpha", "beta"}, "scan_grid")
    for key in ("alpha", "beta"):
        if key not in doc:
            raise ConfigError(f"scan_grid.{key}", "missing required key")
    return ScanGrid(
        _parse_axis(doc["alpha"], "scan_grid.alpha"),
        _parse_axis(doc["beta"], "scan_grid.beta"),
    )


def _parse_pattern(doc) -> PatternSpec:
    doc = _require_mapping(doc, "pattern")
    _reject_unknown(doc, {"label", "extent", "resolution"}, "pattern")
    if "label" not in doc:
        raise ConfigError("pattern.label", "missing required key")
    try:
        label = BellModeLabel(doc["label"])
    except ValueError:
        names = ", ".join(l.value for l in BellModeLabel)
        raise ConfigError(
            "pattern.label", f"unknown label {doc['label']!r}; one of: {names}"
        ) from None
    extent = _number(doc.get("extent", 2.0), "pattern.extent", 0.0, open_low=True)
    resolution = _number(doc.get("resolution", 21), "pattern.resolution", 1, integer=True)
    return PatternSpec(label, extent, resolution)


def parse_config(text: str, mode: str) -> RunConfig:
    """Parse and validate a YAML run configuration for the given mode."""
    if mode not in _MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    doc = _require_mapping(doc, "config")
    allowed = {"state", "chsh_settings", "scan_grid", "pattern", "output", "format"}
    _reject_unknown(doc, allowed, "config")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "expected a path string")
    fmt = doc.get("format", "json" if mode == "chsh" else "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format", f"expected 'csv' or 'json', got {fmt!r}")

    state = None
    if mode in ("chsh", "noise-scan"):
        if "state" not in doc:
            raise ConfigError("state", "missing required key")
        state = _parse_state(doc["state"])
    elif "state" in doc:
        state = _parse_state(doc["state"])

    chsh_settings = DEFAULT_CHSH_SETTINGS
    if "chsh_settings" in doc:
        chsh_settings = _parse_chsh_settings(doc["chsh_settings"])

    scan_grid = None
    if mode == "noise-scan":
        if "scan_grid" not in doc:
            raise ConfigError("scan_grid", "missing required key")
        scan_grid = _parse_scan_grid(doc["scan_grid"])

    pattern = None
    if mode == "mode-pattern":
        if "pattern" not in doc:
            raise ConfigError("pattern", "missing required key")
        pattern = _parse_pattern(doc["pattern"])

    return RunConfig(mode, state, chsh_settings, scan_grid, pattern, output, fmt)


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
