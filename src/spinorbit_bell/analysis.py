"""Intensity averages, noise, and the CHSH parameter for catalog states.

Every setting is evaluated from a state's moments (``fock.Moments``): the
closed-form moments of ``states.build``, or those of a Fock ensemble, which
the functions here accept too. ``settings_scan`` and ``s_parameter`` evaluate
a whole grid of settings in one contraction; ``noise_point`` evaluates one
setting through ``fock.mean_and_variance`` and is the independent per-setting
route. ``closed_form`` evaluates the known analytic expressions for each
family and serves as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .apparatus import ChshSettings, Settings, m_operator
from .errors import SimulationError
from .fock import Moments, StateEnsemble
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
        return self.mean_m / _normal_itot(self.itot, "intensity ratios")

    @property
    def var_ratio(self) -> float:
        """Intensity-difference noise normalized to shot noise."""
        return self.var_m / _normal_itot(self.itot, "intensity ratios")


def _normal_itot(itot: float, what: str) -> float:
    """The total intensity, unless it is zero or below the smallest normal float.

    A subnormal intensity has lost significant digits, so a ratio to it would
    be wrong while looking finite.
    """
    if itot < sys.float_info.min:
        raise SimulationError(f"total intensity is zero or subnormal ({itot:g}); {what} undefined")
    return itot


@dataclass(frozen=True)
class ChshResult:
    settings: ChshSettings
    s_value: float
    points: tuple[NoisePoint, NoisePoint, NoisePoint, NoisePoint]


def total_intensity(state: Moments | StateEnsemble) -> float:
    """Total photon number, the trace of the moment matrix G."""
    return fock.as_moments(state).itot


def noise_point(state: Moments | StateEnsemble, settings: Settings) -> NoisePoint:
    """Mean and mixture-level variance of M at one setting pair.

    Evaluates ``m_operator`` through ``fock.mean_and_variance``, independently
    of the grid contraction that ``settings_scan`` and ``s_parameter`` use.
    """
    mean, var = fock.mean_and_variance(state, m_operator(settings))
    return NoisePoint(settings, mean, var, total_intensity(state))


def _axis_rows(angles: Sequence[float]) -> np.ndarray:
    """A(theta) = cos2theta sz + sin2theta sx for each angle, one flat row each."""
    # 2 theta overflows past 8.9e307; A(theta) has period pi, and fmod is exact.
    theta = [a if abs(a) < 1e307 else math.fmod(a, math.pi) for a in angles]
    twice = 2.0 * np.asarray(theta, dtype=float)
    c, s = np.cos(twice), np.sin(twice)
    return np.stack([c, s, s, -c], axis=1)


def _grid(
    state: Moments | StateEnsemble, alphas: Sequence[float], betas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean and variance of M(alpha, beta) on the grid alphas x betas, and itot.

    M = A(alpha) (x) B(beta) with mode index 2p + o (p polarization, o
    orbital), so <M> = sum A_pq B_or G_(po)(qr) is A G' B^T with G' the 4x4
    regrouping (pq) x (or) of G. M^2 = 1, so var = itot + sum M_ij M_kl K_ikjl,
    which is (A (x) A) K' (B (x) B)^T with K' the 16x16 regrouping
    (p1 q1 p2 q2) x (o1 r1 o2 r2) of K. The checks of
    ``fock.mean_and_variance`` hold over the whole grid.
    """
    m = fock.as_moments(state)
    if m.g.shape != (4, 4):
        raise SimulationError(f"the settings act on 4 modes, state has {m.g.shape[0]}")
    a, b = _axis_rows(alphas), _axis_rows(betas)
    g = m.g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    k = m.k.real.reshape((2,) * 8).transpose(0, 4, 2, 6, 1, 5, 3, 7).reshape(16, 16)
    aa = (a[:, :, None] * a[:, None, :]).reshape(-1, 16)
    bb = (b[:, :, None] * b[:, None, :]).reshape(-1, 16)
    # Real and imaginary parts apart: numpy multiplies a complex matrix by a
    # real one without BLAS, about 500 times slower on a 201x201 grid.
    mean = a @ g.real @ b.T
    residue = np.abs(a @ g.imag @ b.T).max()
    var = m.itot + aa @ k @ bb.T
    tol = 1e-9 * max(1.0, m.itot)
    if residue > tol:
        raise SimulationError(f"expectation has imaginary residue {residue}")
    if var.min() < -tol:
        raise SimulationError(f"negative variance {var.min()}")
    return mean, var, m.itot


def s_parameter(state: Moments | StateEnsemble, settings: ChshSettings) -> ChshResult:
    """Intensity-based CHSH parameter S over the four setting pairs.

    The 2x2 grid (alpha, alpha') x (beta, beta'). A single
    settings-independent total intensity normalizes the whole combination.
    """
    itot = _normal_itot(total_intensity(state), "S")
    mean, var, _ = _grid(
        state, (settings.alpha, settings.alpha_prime), (settings.beta, settings.beta_prime)
    )
    means = mean.ravel().tolist()
    points = tuple(
        NoisePoint(pair, m, v, itot)
        for pair, m, v in zip(settings.pairs(), means, var.ravel().tolist())
    )
    s = (means[0] + means[1] - means[2] + means[3]) / itot
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


def closed_form(spec: StateSpec, settings: Settings) -> tuple[float, float]:
    """Analytic (mean_m/itot, var_m/itot) for a catalog family."""
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
        r = spec.reflectivity
        root_r = math.sqrt(r)
        mean = c2a * c2b + root_r * math.cos(spec.phi) * s2a * s2b
        # Only the phase-averaged part of the Vv beam, of weight |u|^2 (1 - R), adds noise.
        beat = s2a * s2b + root_r * cmath.exp(1j * spec.phi) * c2a * c2b
        return mean, 1.0 + abs(spec.u) ** 2 * (1.0 - r) * abs(beat) ** 2

    if f is Family.TWO_MODE_SQUEEZED_VACUUM:
        itot = closed_form_itot(spec)
        var = 1.0 + (itot + 1.0) * (1.0 + math.cos(4 * a) * math.cos(4 * b)) / 2.0
        return c2a * c2b, var

    raise SimulationError(f"unknown family {f}")


def _mixed_fock_var(n: int, s2a: float, s2b: float) -> float:
    return s2a**2 + s2b**2 + ((n - 3.0) / 2.0) * s2a**2 * s2b**2


def settings_scan(
    state: Moments | StateEnsemble,
    alphas: Sequence[float],
    betas: Sequence[float],
) -> list[NoisePoint]:
    """Noise point at each lattice vertex, from one grid contraction; alpha varies slowest."""
    if len(alphas) == 0 or len(betas) == 0:
        raise SimulationError("scan grid must be nonempty")
    mean, var, itot = _grid(state, alphas, betas)
    return [
        NoisePoint(Settings(a, b), m, v, itot)
        for a, means, variances in zip(alphas, mean.tolist(), var.tolist())
        for b, m, v in zip(betas, means, variances)
    ]
