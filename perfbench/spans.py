"""In-memory span tracer installed around the package's public functions.

Wrappers are installed at every module-level binding of a target function,
so that a caller that imported the name (``from .apparatus import
m_operator``) or calls it as a module global is traced as well. Spans are
kept in flat arrays while tracing and written out once at the end.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs whose calls become spans; the span name is
#: ``<module>.<function>``.
TARGETS = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("states", "build"),
    ("fock", "displace"),
    ("fock", "two_mode_squeeze"),
    ("fock", "displace_pair_generator"),
    ("fock", "apply_one_body"),
    ("fock", "expect_one_body"),
    ("fock", "variance_one_body"),
    ("apparatus", "m_operator"),
    ("analysis", "noise_point"),
    ("analysis", "s_parameter"),
    ("analysis", "settings_scan"),
    ("analysis", "total_intensity"),
    ("verify", "run_verification"),
    ("modes", "eval_hg_mode"),
    ("partitions", "coherent_on_bell_mode"),
)

PACKAGE = "spinorbit_bell"

_MARK = "__perfbench_span__"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _originals(targets=TARGETS):
    out = {}
    for mod, fn in targets:
        module = sys.modules[f"{PACKAGE}.{mod}"]
        out[f"{mod}.{fn}"] = getattr(module, fn)
    return out


def assert_untraced() -> None:
    """Raise unless every binding in the package is an original function."""
    originals = _originals()
    for name, fn in originals.items():
        if hasattr(fn, _MARK):
            raise RuntimeError(f"{name} is still wrapped")
    for module in _package_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{module.__name__}.{key} is still wrapped")


class Tracer:
    """Records spans (name, start, end, parent) and per-layer work counts."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ensembles: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        probe = _PROBES.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        """Wrap every package-level binding of each target function."""
        assert_untraced()
        modules = _package_modules()
        for name, original in _originals(self.targets).items():
            wrapper = self._wrap(original, name)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of {name} found")

    def restore(self) -> None:
        """Put every original back, then check that no wrapper is left."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        self._ensembles.clear()
        assert_untraced()

    def bindings(self) -> list[str]:
        return [f"{m.__name__}.{k}" for m, k, _ in self._patched]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            t = totals[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            t["s"] += dur * 1e-9
            t["self_s"] += (dur - child_ns[i]) * 1e-9
        return totals

    def write(self, path) -> None:
        """Write the spans as parallel arrays; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_of.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": [s - t0 for s in self.start],
                    "end_ns": [e - t0 for e in self.end],
                },
                fh,
                separators=(",", ":"),
            )


def _probe_apply_one_body(tracer, args, result):
    tracer.counts["fock.apply_one_body.amplitudes"] += args[0].basis.dimension


def _probe_build(tracer, args, result):
    tracer.counts["states.basis_dim"] += result.basis.dimension
    tracer.counts["states.members"] += len(result.members)


def _probe_total_intensity(tracer, args, result):
    # Holding the ensemble keeps its id from being reused within the pass.
    tracer._ensembles[id(args[0])] = args[0]
    tracer.counts["analysis.total_intensity.distinct"] = len(tracer._ensembles)


def _probe_run(tracer, args, result):
    tracer.counts["cli.output_bytes"] += len(result.encode("utf-8"))


_PROBES = {
    "fock.apply_one_body": _probe_apply_one_body,
    "states.build": _probe_build,
    "analysis.total_intensity": _probe_total_intensity,
    "cli.run": _probe_run,
}
