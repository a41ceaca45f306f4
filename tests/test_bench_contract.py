"""What the benchmark in ``perfbench/`` relies on in the package.

``perfbench/spans.py`` wraps the functions it names in ``TARGETS`` at their
module-level bindings, reads the Fock oracle's size from what
``states.build`` returns, and counts ``analysis.noise_point`` calls to
compute a rate. A refactor that breaks one of these breaks the benchmark
without failing any other test.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorbit_bell
from spinorbit_bell import analysis, cli, states, verify

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_is_a_module_level_function():
    # Trace mode installs its wrappers after `import spinorbit_bell.cli` alone,
    # so a fresh interpreter checks what that import loads.
    code = (
        "import importlib.util, inspect, sys\n"
        "import spinorbit_bell.cli\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(_SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "for mod, fn in spans.TARGETS:\n"
        "    module = sys.modules.get(f'{spans.PACKAGE}.{mod}')\n"
        "    if not inspect.isfunction(getattr(module, fn, None)):\n"
        "        print(f'{mod}.{fn}')\n"
        "print('checked')\n"
    )
    src = os.path.dirname(os.path.dirname(spinorbit_bell.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["checked"]


_CATALOG_SPECS = [spec for _, spec in verify._CATALOG]


@pytest.mark.parametrize("spec", _CATALOG_SPECS, ids=lambda s: s.family.value)
def test_build_exposes_the_oracle_size(spec):
    # The probe on states.build reads these two.
    built = states.build(spec)
    assert built.basis.dimension > 0
    assert len(built.members) > 0


def test_verify_makes_99_noise_point_calls(monkeypatch):
    # verify-suite's settings_per_s divides by this count, so a change to it
    # moves that metric without any change in speed.
    calls = 0
    original = analysis.noise_point

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "noise_point", counted)
    verify.run_verification()
    assert calls == 99


def _counter(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_span_target_is_called(monkeypatch):
    # A target that nothing reaches leaves its per-layer metric reading 0.
    spec = importlib.util.spec_from_file_location("spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    package = [
        m for n, m in list(sys.modules.items())
        if n == spans.PACKAGE or n.startswith(spans.PACKAGE + ".")
    ]
    calls = {}
    for mod, fn in spans.TARGETS:
        name = f"{mod}.{fn}"
        original = getattr(importlib.import_module(f"{spans.PACKAGE}.{mod}"), fn)
        calls[name] = 0
        counted = _counter(calls, name, original)
        # Every binding, so a caller that imported the name is counted too.
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    verify.run_verification()
    cli.run(cli.parse_config("state: {family: entangled_fock, n: 1}", "chsh"))
    scan = (
        "state: {family: mixed_fock, n: 2}\n"
        "scan_grid:\n"
        "  alpha: {start: 0, stop: pi/4, points: 2}\n"
        "  beta: {start: 0, stop: pi/4, points: 2}"
    )
    cli.run(cli.parse_config(scan, "noise-scan"))
    assert [name for name, n in calls.items() if n == 0] == []
