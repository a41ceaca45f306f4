"""The four benchmark workloads, generated from a seed.

Each workload is a round of CLI invocations. The program only ever sees the
generated YAML text; the benchmark keeps the parsed specs and angles to gate
the outputs against the closed-form oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from spinorbit_bell.apparatus import ChshSettings
from spinorbit_bell.states import Family, StateSpec

#: Half-width of the band around multiples of pi/4 that drawn angles avoid:
#: there sin 2x or cos 2x vanishes and entries of the observable become 0,
#: which ``fock.apply_one_body`` skips.
_GENERIC_MARGIN = 0.05


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``spinorbit-bell <mode> [--config <yaml>]``.

    ``spec``, ``settings`` and ``axes`` are what the YAML describes, built
    independently of the program's parser so that the gate can use them.
    """

    label: str
    mode: str
    yaml: str | None
    spec: StateSpec | None = None
    settings: ChshSettings | None = None
    axes: tuple[tuple[float, ...], tuple[float, ...]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    drawn: dict = field(default_factory=dict)


def _generic_angle(rng: random.Random) -> float:
    while True:
        x = rng.uniform(0.0, math.pi)
        k = round(x / (math.pi / 4))
        if abs(x - k * math.pi / 4) > _GENERIC_MARGIN:
            return x


def _chsh_yaml(state: str, angles: tuple[float, float, float, float] | None) -> str:
    text = f"state: {state}\n"
    if angles is None:
        # The package defaults, spelled as pi literals to exercise angle parsing.
        return text + (
            "chsh_settings: {alpha: pi/8, alpha_prime: 3pi/8, beta: 0, beta_prime: pi/4}\n"
        )
    a, ap, b, bp = (repr(x) for x in angles)
    return text + f"chsh_settings: {{alpha: {a}, alpha_prime: {ap}, beta: {b}, beta_prime: {bp}}}\n"


DEFAULT_SETTINGS = ChshSettings(math.pi / 8, 3 * math.pi / 8, 0.0, math.pi / 4)

#: The verify catalog, one state per family at the sizes ``verify`` uses.
CATALOG = (
    ("{family: entangled_fock, n: 2}", StateSpec(Family.ENTANGLED_FOCK, n=2)),
    ("{family: mixed_fock, n: 2}", StateSpec(Family.MIXED_FOCK, n=2)),
    ("{family: werner_fock, n: 2, p: 0.4}", StateSpec(Family.WERNER_FOCK, n=2, p=0.4)),
    ("{family: pure_coherent, u: 1.5}", StateSpec(Family.PURE_COHERENT, u=1.5)),
    (
        "{family: mixed_coherent, u: 1.5, reflectivity: 0.0}",
        StateSpec(Family.MIXED_COHERENT, u=1.5, reflectivity=0.0),
    ),
    (
        "{family: two_mode_squeezed_vacuum, zeta: 1.0}",
        StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.0),
    ),
)

SCAN_POINTS = 9


def cli_small(seed: int) -> Workload:
    invs = tuple(
        Invocation(state, "chsh", _chsh_yaml(state, None), spec, DEFAULT_SETTINGS)
        for state, spec in CATALOG
    )
    return Workload("cli-small", invs)


def scan_fock(seed: int) -> Workload:
    rng = random.Random(seed)
    step = math.pi / SCAN_POINTS
    a0, b0 = rng.uniform(0.0, step), rng.uniform(0.0, step)
    span = step * (SCAN_POINTS - 1)
    yaml = (
        "state: {family: mixed_fock, n: 20}\n"
        "scan_grid:\n"
        f"  alpha: {{start: {a0!r}, stop: {a0 + span!r}, points: {SCAN_POINTS}}}\n"
        f"  beta: {{start: {b0!r}, stop: {b0 + span!r}, points: {SCAN_POINTS}}}\n"
    )
    axes = (
        tuple(np.linspace(a0, a0 + span, SCAN_POINTS)),
        tuple(np.linspace(b0, b0 + span, SCAN_POINTS)),
    )
    inv = Invocation(
        f"mixed_fock n=20 {SCAN_POINTS}x{SCAN_POINTS}",
        "noise-scan",
        yaml,
        StateSpec(Family.MIXED_FOCK, n=20),
        axes=axes,
    )
    return Workload("scan-fock", (inv,), {"alpha_start": a0, "beta_start": b0})


def build_gaussian(seed: int) -> Workload:
    rng = random.Random(seed)
    angles = tuple(_generic_angle(rng) for _ in range(4))
    settings = ChshSettings(*angles)
    invs = tuple(
        Invocation(state, "chsh", _chsh_yaml(state, angles), spec, settings)
        for state, spec in (
            (
                "{family: two_mode_squeezed_vacuum, zeta: 3.0}",
                StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=3.0),
            ),
            (
                "{family: mixed_coherent, u: 4.0, reflectivity: 0.25}",
                StateSpec(Family.MIXED_COHERENT, u=4.0, reflectivity=0.25),
            ),
        )
    )
    drawn = dict(zip(("alpha", "alpha_prime", "beta", "beta_prime"), angles))
    return Workload("build-gaussian", invs, drawn)


def verify_suite(seed: int) -> Workload:
    return Workload("verify-suite", (Invocation("verify", "verify", None),))


WORKLOADS = {
    "cli-small": cli_small,
    "scan-fock": scan_fock,
    "build-gaussian": build_gaussian,
    "verify-suite": verify_suite,
}
