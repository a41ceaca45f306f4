"""Intensity averages, noise, and the CHSH parameter for catalog states.

The closed-form route evaluates the known analytic expressions for each
family and serves as an independent oracle against the Fock-space route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from . import fock
from .apparatus import ChshSettings, Settings, m_operator
from .errors import SimulationError
from .fock import StateEnsemble
from .states import Family, StateSpec


@dataclass(frozen=True)
class NoisePoint:
    """Mean, variance and total intensity at one setting pair."""

    settings: Settings
    mean_m: float
    var_m: float
    itot: float

    @property
    def mean_ratio(self) -> float:
        return self.mean_m / self.itot

    @property
    def var_ratio(self) -> float:
        """Intensity-difference noise normalized to shot noise."""
        return self.var_m / self.itot


@dataclass(frozen=True)
class ChshResult:
    settings: ChshSettings
    s_value: float
    points: tuple[NoisePoint, NoisePoint, NoisePoint, NoisePoint]


def total_intensity(ensemble: StateEnsemble) -> float:
    """Total photon number, the trace of the moment matrix G."""
    return float(ensemble.moments[0].trace().real)


def noise_point(
    ensemble: StateEnsemble, settings: Settings, itot: float | None = None
) -> NoisePoint:
    """Mean and mixture-level variance of M at one setting pair.

    A total intensity the caller already holds may be passed in.
    """
    mean, var = fock.mean_and_variance(ensemble, m_operator(settings))
    if itot is None:
        itot = total_intensity(ensemble)
    return NoisePoint(settings, mean, var, itot)


def s_parameter(ensemble: StateEnsemble, settings: ChshSettings) -> ChshResult:
    """Intensity-based CHSH parameter S over the four setting pairs.

    A single settings-independent total intensity normalizes the whole
    combination.
    """
    itot = total_intensity(ensemble)
    if itot <= 0.0:
        raise SimulationError("total intensity is zero; S undefined for vacuum input")
    points = tuple(noise_point(ensemble, pair, itot) for pair in settings.pairs())
    s = (
        points[0].mean_m + points[1].mean_m - points[2].mean_m + points[3].mean_m
    ) / itot
    return ChshResult(settings, s, points)


def closed_form_itot(spec: StateSpec) -> float:
    """Analytic total intensity for a catalog family."""
    f = spec.family
    if f in (Family.ENTANGLED_FOCK, Family.MIXED_FOCK, Family.WERNER_FOCK):
        return float(spec.n)
    if f is Family.PURE_COHERENT:
        return abs(spec.u) ** 2
    if f is Family.MIXED_COHERENT:
        return 2.0 * abs(spec.u) ** 2
    if f is Family.TWO_MODE_SQUEEZED_VACUUM:
        return 2.0 * math.sinh(abs(spec.zeta) / 2.0) ** 2
    raise SimulationError(f"unknown family {f}")


def closed_form(spec: StateSpec, settings: Settings) -> tuple[float, float | None]:
    """Analytic (mean_m/itot, var_m/itot) for a catalog family.

    The variance entry is None where no analytic expression is available
    (mixed coherent with 0 < R < 1).
    """
    a, b = settings.alpha, settings.beta
    c2a, s2a = math.cos(2 * a), math.sin(2 * a)
    c2b, s2b = math.cos(2 * b), math.sin(2 * b)
    relative = math.cos(2 * (b - a))
    f = spec.family

    if f is Family.ENTANGLED_FOCK:
        return relative, math.sin(2 * (b - a)) ** 2

    if f is Family.MIXED_FOCK:
        return c2a * c2b, _mixed_fock_var(spec.n, s2a, s2b)

    if f is Family.WERNER_FOCK:
        p, n = spec.p, spec.n
        mean_pure = relative
        mean_mix = c2a * c2b
        var = (
            p * math.sin(2 * (b - a)) ** 2
            + (1.0 - p) * _mixed_fock_var(n, s2a, s2b)
            + p * (1.0 - p) * n * (mean_pure - mean_mix) ** 2
        )
        return p * mean_pure + (1.0 - p) * mean_mix, var

    if f is Family.PURE_COHERENT:
        return relative, 1.0

    if f is Family.MIXED_COHERENT:
        root_r = math.sqrt(spec.reflectivity)
        mean = c2a * c2b + root_r * math.cos(spec.phi) * s2a * s2b
        if spec.reflectivity == 0.0:
            var = 1.0 + (closed_form_itot(spec) / 2.0) * s2a**2 * s2b**2
        elif spec.reflectivity == 1.0:
            var = 1.0
        else:
            var = None
        return mean, var

    if f is Family.TWO_MODE_SQUEEZED_VACUUM:
        itot = closed_form_itot(spec)
        var = 1.0 + (itot + 1.0) * (1.0 + math.cos(4 * a) * math.cos(4 * b)) / 2.0
        return c2a * c2b, var

    raise SimulationError(f"unknown family {f}")


def _mixed_fock_var(n: int, s2a: float, s2b: float) -> float:
    return s2a**2 + s2b**2 + ((n - 3.0) / 2.0) * s2a**2 * s2b**2


def settings_scan(
    ensemble: StateEnsemble,
    alphas: Sequence[float],
    betas: Sequence[float],
) -> list[NoisePoint]:
    """Noise point at each lattice vertex; alpha varies slowest."""
    if len(alphas) == 0 or len(betas) == 0:
        raise SimulationError("scan grid must be nonempty")
    itot = total_intensity(ensemble)
    return [
        noise_point(ensemble, Settings(a, b), itot) for a in alphas for b in betas
    ]


def write_scan_csv(points: Iterable[NoisePoint], stream: TextIO) -> None:
    stream.write("alpha,beta,mean_m,var_m,itot,mean_ratio,var_ratio\n")
    for pt in points:
        row = (
            pt.settings.alpha,
            pt.settings.beta,
            pt.mean_m,
            pt.var_m,
            pt.itot,
            pt.mean_ratio,
            pt.var_ratio,
        )
        stream.write(",".join(f"{v:.12g}" for v in row) + "\n")


def werner_decomposition_check(n_photons: int, p: float, settings: Settings) -> float:
    """Residual of the Werner variance decomposition, all terms simulated.

    The mixture variance must equal the weighted member variances plus the
    spread term p(1-p)(<M>_pure - <M>_mix)^2.
    """
    from . import states

    werner = states.werner_fock(n_photons, p)
    pure = states.entangled_fock(n_photons)
    mix = states.mixed_fock(n_photons)
    pt_w = noise_point(werner, settings)
    pt_p = noise_point(pure, settings)
    pt_m = noise_point(mix, settings)
    combined = (
        p * pt_p.var_m
        + (1.0 - p) * pt_m.var_m
        + p * (1.0 - p) * (pt_p.mean_m - pt_m.mean_m) ** 2
    )
    return abs(pt_w.var_m - combined)
