"""The verify catalogue: every check, its name and its bound, pinned.

A change that drops, renames or loosens a check, leaves one failing, or
changes how many settings the suite evaluates, fails here. The table is copied from the report of the 34-check suite.
"""

import re

from spinorbit_bell import analysis, verify

CATALOGUE = [
    ("hg-mode unit power (trapezoid quadrature)", 1e-06),
    ("concurrence of Bell modes equals 1", 1e-12),
    ("concurrence of product modes equals 0", 1e-12),
    ("partition matrix orthogonality", 1e-12),
    ("partition identity N<=5", 1e-12),
    ("coherent displacement factorization", 1e-09),
    ("setting unitary orthogonality", 1e-12),
    ("m-operator spectrum {+1,+1,-1,-1}", 1e-12),
    ("eight-mode vacuum-port reduction", 1e-12),
    ("closed-form agreement: entangled_fock N=2", 1e-08),
    ("total intensity: entangled_fock N=2", 1e-08),
    ("closed-form agreement: mixed_fock N=2", 1e-08),
    ("total intensity: mixed_fock N=2", 1e-08),
    ("closed-form agreement: werner_fock N=2 p=0.4", 1e-08),
    ("total intensity: werner_fock N=2 p=0.4", 1e-08),
    ("closed-form agreement: pure_coherent u=1.5", 1e-08),
    ("total intensity: pure_coherent u=1.5", 1e-08),
    ("closed-form agreement: mixed_coherent u=1.5 R=0", 1e-08),
    ("total intensity: mixed_coherent u=1.5 R=0", 1e-08),
    ("closed-form agreement: two_mode_squeezed zeta=1", 1e-08),
    ("total intensity: two_mode_squeezed zeta=1", 1e-08),
    ("S value: entangled_fock N=1", 1e-10),
    ("S value: mixed_fock N=3", 1e-10),
    ("S value: werner_fock p=sqrt(2)-1", 1e-10),
    ("S value: pure_coherent u=1.5", 1e-08),
    ("S value: mixed_coherent R=0.25", 1e-08),
    ("S value: two_mode_squeezed zeta=1", 1e-08),
    ("Werner variance decomposition", 1e-10),
    ("phase quadrature exactness K=5 vs K=16", 1e-10),
    ("total intensity independent of settings", 1e-10),
    ("mixture variance convexity", 1e-09),
    ("moment core vs Fock route (apply_one_body)", 1e-10),
    ("closed-form Gaussian builds vs expm route", 1e-09),
    ("closed-form moments vs Fock-tensor moments", 1e-09),
]

_LINE = re.compile(r"(PASS|FAIL)  (.+): residual (\S+) \(bound (\S+)\)")


def test_catalogue_names_bounds_and_passes(monkeypatch):
    # The per-setting route's call count is the benchmark's setting count.
    calls = []
    noise_point = analysis.noise_point
    monkeypatch.setattr(analysis, "noise_point", lambda *a: calls.append(a) or noise_point(*a))
    *lines, tally = verify.format_report(verify.run_verification()).splitlines()
    assert len(calls) == 99
    parsed = [_LINE.fullmatch(line) for line in lines]
    assert all(parsed), [line for line, m in zip(lines, parsed) if not m]
    assert [(m[2], float(m[4])) for m in parsed] == CATALOGUE
    assert [m[2] for m in parsed if m[1] != "PASS"] == []
    assert all(0.0 <= float(m[3]) <= float(m[4]) for m in parsed)
    assert tally == f"{len(CATALOGUE)}/{len(CATALOGUE)} checks passed"
    assert len(CATALOGUE) == 34
