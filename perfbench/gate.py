"""Oracle gate: strict parsing of CLI outputs and comparison with closed forms.

Every output the benchmark collects passes through one of the ``check_*``
functions, which return a :class:`Verdict`. An output fails when it does not
parse strictly (``NaN``/``Infinity`` are rejected), when its structure is not
the documented one, or when an oracle residual exceeds ``BOUND``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

#: Residual bound of the package's own closed-form verify checks.
BOUND = 1e-8

#: Tolerance on echoed angles (CSV prints 12 significant digits).
ANGLE_TOL = 1e-9

SCAN_HEADER = ["alpha", "beta", "mean_m", "var_m", "itot", "mean_ratio", "var_ratio"]

_REPORT_LINE = re.compile(r"^(PASS|FAIL)  .+: residual \S+ \(bound \S+\)$")
_REPORT_TAIL = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass
class Verdict:
    """Outcome of gating one output."""

    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    worst_residual: float = 0.0
    unchecked_variances: int = 0
    verify_checks: int = 0
    verify_failed: int = 0

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)

    def residual(self, what: str, value: float) -> None:
        if not math.isfinite(value) or value > BOUND:
            self.fail(f"{what}: residual {value:.3g} over bound {BOUND:g}")
        elif value > self.worst_residual:
            self.worst_residual = value


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what}: not finite")
    return float(value)


def check_chsh_json(text: str, spec, settings) -> Verdict:
    """Gate a ``chsh`` JSON document for the given StateSpec and ChshSettings."""
    verdict = Verdict()
    try:
        doc = parse_json_strict(text)
        points = doc["points"]
        if len(points) != 4:
            raise ValueError(f"expected 4 points, got {len(points)}")
        if doc["state_family"] != spec.family.value:
            raise ValueError(f"state_family {doc['state_family']!r}")
        echoed = doc["settings"]
        for key in ("alpha", "alpha_prime", "beta", "beta_prime"):
            if abs(_finite(echoed[key], key) - getattr(settings, key)) > ANGLE_TOL:
                raise ValueError(f"settings.{key} does not echo the input")
        rows = [
            tuple(
                _finite(pt[k], f"points[{i}].{k}")
                for k in ("alpha", "beta", "mean_m", "var_m", "itot", "squeezing_ratio")
            )
            for i, pt in enumerate(points)
        ]
        s_value = _finite(doc["s_value"], "s_value")
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(f"malformed chsh output: {exc}")
        return verdict
    for row in rows:
        _, _, mean_m, var_m, itot, ratio = row
        if itot > 0:
            verdict.residual("squeezing_ratio", abs(ratio - var_m / itot))
    check_chsh_values(verdict, spec, settings, s_value, [r[:5] for r in rows])
    return verdict


def check_chsh_result(result, spec, settings) -> Verdict:
    """Gate an in-process ChshResult from ``analysis.s_parameter``."""
    verdict = Verdict()
    rows = [(p.settings.alpha, p.settings.beta, p.mean_m, p.var_m, p.itot) for p in result.points]
    check_chsh_values(verdict, spec, settings, result.s_value, rows)
    return verdict


def check_chsh_values(verdict: Verdict, spec, settings, s_value: float, rows) -> None:
    """Oracle comparison of S and four (alpha, beta, mean, var, itot) rows."""
    pairs = settings.pairs()
    if len(rows) != len(pairs):
        verdict.fail(f"expected {len(pairs)} points, got {len(rows)}")
        return
    means = []
    for pair, row in zip(pairs, rows):
        if abs(row[0] - pair.alpha) > ANGLE_TOL or abs(row[1] - pair.beta) > ANGLE_TOL:
            verdict.fail(f"point at ({row[0]}, {row[1]}) is not setting {pair}")
            return
        means.append(_check_point(verdict, spec, pair, *row[2:]))
    s_ref = means[0] + means[1] - means[2] + means[3]
    verdict.residual("s_value", abs(s_value - s_ref))


def _check_point(verdict: Verdict, spec, pair, mean_m, var_m, itot) -> float:
    from spinorbit_bell import analysis

    mean_ref, var_ref = analysis.closed_form(spec, pair)
    verdict.residual("itot", abs(itot - analysis.closed_form_itot(spec)))
    if itot <= 0:
        verdict.fail(f"non-positive itot {itot}")
        return mean_ref
    verdict.residual("mean_m/itot", abs(mean_m / itot - mean_ref))
    if var_ref is None:
        verdict.unchecked_variances += 1
    else:
        verdict.residual("var_m/itot", abs(var_m / itot - var_ref))
    return mean_ref


def check_scan_csv(text: str, spec, alphas, betas) -> Verdict:
    """Gate a ``noise-scan`` CSV for the given StateSpec and grid axes."""
    verdict = Verdict()
    try:
        if not text.endswith("\n"):
            raise ValueError("output does not end with a newline")
        table = list(csv.reader(io.StringIO(text), strict=True))
        if not table or table[0] != SCAN_HEADER:
            raise ValueError(f"header {table[0] if table else None!r}")
        rows = []
        for lineno, fields in enumerate(table[1:], start=2):
            if len(fields) != len(SCAN_HEADER):
                raise ValueError(f"line {lineno}: {len(fields)} fields")
            rows.append([_finite(float(v), f"line {lineno}") for v in fields])
    except (ValueError, csv.Error) as exc:
        verdict.fail(f"malformed scan output: {exc}")
        return verdict
    for _, _, mean_m, var_m, itot, mean_ratio, var_ratio in rows:
        if itot > 0:
            verdict.residual("mean_ratio", abs(mean_ratio - mean_m / itot))
            verdict.residual("var_ratio", abs(var_ratio - var_m / itot))
    _check_scan_rows(verdict, [r[:5] for r in rows], spec, alphas, betas)
    return verdict


def check_scan_points(points, spec, alphas, betas) -> Verdict:
    """Gate in-process NoisePoints from ``analysis.settings_scan``."""
    verdict = Verdict()
    rows = [(p.settings.alpha, p.settings.beta, p.mean_m, p.var_m, p.itot) for p in points]
    _check_scan_rows(verdict, rows, spec, alphas, betas)
    return verdict


def _check_scan_rows(verdict: Verdict, rows, spec, alphas, betas) -> None:
    """Oracle comparison of (alpha, beta, mean, var, itot) rows, alpha slowest."""
    from spinorbit_bell.apparatus import Settings

    expected = [(a, b) for a in alphas for b in betas]
    if len(rows) != len(expected):
        verdict.fail(f"expected {len(expected)} rows, got {len(rows)}")
        return
    for (a, b), (alpha, beta, mean_m, var_m, itot) in zip(expected, rows):
        if abs(alpha - a) > ANGLE_TOL or abs(beta - b) > ANGLE_TOL:
            verdict.fail(f"row at ({alpha}, {beta}) is not grid point ({a}, {b})")
            return
        _check_point(verdict, spec, Settings(a, b), mean_m, var_m, itot)


def check_verify_report(text: str) -> Verdict:
    """Gate a ``verify`` report: every line PASS/FAIL, a consistent tally."""
    verdict = Verdict()
    lines = text.splitlines()
    if not text.endswith("\n") or len(lines) < 2:
        verdict.fail("malformed verify report: too short or unterminated")
        return verdict
    checks = lines[:-1]
    for line in checks:
        if not _REPORT_LINE.match(line):
            verdict.fail(f"malformed verify line {line!r}")
            return verdict
    failed = sum(line.startswith("FAIL") for line in checks)
    verdict.verify_checks = len(checks)
    verdict.verify_failed = failed
    tail = _REPORT_TAIL.match(lines[-1])
    if not tail or int(tail.group(2)) != len(checks) or int(tail.group(1)) != len(checks) - failed:
        verdict.fail(f"verify tally {lines[-1]!r} disagrees with {len(checks)} check lines")
    if failed:
        verdict.fail(f"{failed} verify checks FAIL")
    return verdict


def _oracle_chsh_json(spec, settings) -> str:
    """A ``chsh`` document built from the closed forms alone."""
    from spinorbit_bell import analysis

    itot = analysis.closed_form_itot(spec)
    means, points = [], []
    for pair in settings.pairs():
        mean, var = analysis.closed_form(spec, pair)
        means.append(mean)
        points.append(
            {
                "alpha": pair.alpha,
                "beta": pair.beta,
                "mean_m": mean * itot,
                "var_m": var * itot,
                "itot": itot,
                "squeezing_ratio": var,
            }
        )
    keys = ("alpha", "alpha_prime", "beta", "beta_prime")
    doc = {
        "state_family": spec.family.value,
        "settings": {k: getattr(settings, k) for k in keys},
        "s_value": means[0] + means[1] - means[2] + means[3],
        "points": points,
    }
    return json.dumps(doc, indent=2) + "\n"


def _oracle_scan_csv(spec, alphas, betas) -> str:
    """A ``noise-scan`` CSV built from the closed forms alone."""
    from spinorbit_bell import analysis
    from spinorbit_bell.apparatus import Settings

    itot = analysis.closed_form_itot(spec)
    lines = [",".join(SCAN_HEADER)]
    for a in alphas:
        for b in betas:
            mean, var = analysis.closed_form(spec, Settings(a, b))
            row = (a, b, mean * itot, var * itot, itot, mean, var)
            lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def self_test() -> list[str]:
    """Feed the gate valid and corrupted outputs; return the broken expectations.

    The valid outputs are built from the closed forms, not by the program, so
    the test checks the gate alone. An empty list means the gate accepts them
    and counts each corruption as a failure.
    """
    from spinorbit_bell.apparatus import ChshSettings
    from spinorbit_bell.states import Family, StateSpec

    problems = []

    def expect(verdict: Verdict, ok: bool, what: str) -> None:
        if verdict.ok != ok:
            problems.append(f"{what}: gate said ok={verdict.ok}, expected {ok}")

    spec = StateSpec(Family.WERNER_FOCK, n=2, p=0.4)
    settings = ChshSettings(0.3, 1.1, 0.7, 2.0)
    good = _oracle_chsh_json(spec, settings)
    expect(check_chsh_json(good, spec, settings), True, "chsh output")
    nan_text = re.sub(r'"s_value": [^,\n]+', '"s_value": NaN', good)
    expect(check_chsh_json(nan_text, spec, settings), False, "NaN s_value")
    doc = json.loads(good)
    doc["points"][1]["mean_m"] += 1e-6
    expect(check_chsh_json(json.dumps(doc), spec, settings), False, "mean_m off by 1e-6")

    alphas, betas = (0.1, 1.2), (0.3, 0.9)
    good = _oracle_scan_csv(spec, alphas, betas)
    expect(check_scan_csv(good, spec, alphas, betas), True, "scan output")
    lines = good.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[6] = f"{float(fields[6]) + 1e-6:.12g}\n"
    lines[2] = ",".join(fields)
    expect(check_scan_csv("".join(lines), spec, alphas, betas), False, "var_ratio off by 1e-6")
    expect(check_scan_csv(good.replace("\n", "\nnan,", 1), spec, alphas, betas), False, "nan field")

    report = "PASS  a: residual 0 (bound 1e-08)\nPASS  b: residual 0 (bound 1e-08)\n2/2 checks passed\n"
    expect(check_verify_report(report), True, "verify report")
    corrupted = report.replace("PASS  b", "FAIL  b").replace("2/2", "1/2")
    expect(check_verify_report(corrupted), False, "verify report with a FAIL line")
    return problems
