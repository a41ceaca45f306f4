"""Catalog of the six input-state families used in the Bell-noise comparison.

All families excite only the Hh and Vv modes, so the measurement-only modes
Hv and Vh carry cutoff 0. Observables are evaluated from the moment tensors
of the state (``fock.moments``), which never raise a photon into a mode, so
no room for moved photons is needed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import SimulationError
from .fock import BasisConfig, ModeIndex, PureState, StateEnsemble
from .partitions import BellModeLabel, fock_on_bell_mode

#: Extra headroom on source-mode cutoffs so that boundary bins carry mass
#: well below the tail tolerance even after observable applications.
SOURCE_HEADROOM = 2

#: Default number of phase points in the mixed-coherent ensemble. Discrete
#: averaging is exact for trigonometric degree < K and the intensity moments
#: have degree <= 4; 8 adds margin.
DEFAULT_PHASE_POINTS = 8


class Family(enum.Enum):
    ENTANGLED_FOCK = "entangled_fock"
    MIXED_FOCK = "mixed_fock"
    WERNER_FOCK = "werner_fock"
    PURE_COHERENT = "pure_coherent"
    MIXED_COHERENT = "mixed_coherent"
    TWO_MODE_SQUEEZED_VACUUM = "two_mode_squeezed_vacuum"


@dataclass(frozen=True)
class StateSpec:
    """Family plus its parameters; the unit of CLI configuration."""

    family: Family
    n: int | None = None
    p: float | None = None
    u: complex | None = None
    reflectivity: float | None = None
    phi: float = 0.0
    phase_points: int = DEFAULT_PHASE_POINTS
    zeta: complex | None = None
    epsilon: float = fock.DEFAULT_EPS

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1e-3:
            raise SimulationError(f"epsilon {self.epsilon} outside (0, 1e-3]")
        if self.phase_points < 5:
            raise SimulationError("phase_points must be at least 5")


def _source_basis(source_cutoff: int) -> BasisConfig:
    return BasisConfig((source_cutoff, 0, 0, source_cutoff))


def fock_basis(n_photons: int) -> BasisConfig:
    return _source_basis(n_photons + SOURCE_HEADROOM)


def coherent_basis(max_mean_n: float, eps: float) -> BasisConfig:
    return _source_basis(fock.poisson_tail_cutoff(max_mean_n, eps) + SOURCE_HEADROOM)


def squeezed_basis(zeta: complex, eps: float) -> BasisConfig:
    # Second moments weight the thermal tail by n^2, so the cutoff is chosen
    # against a much smaller tail mass than the declared tolerance.
    tail = eps * 1e-4
    return _source_basis(fock.tmsv_tail_cutoff(abs(zeta) / 2.0, tail) + SOURCE_HEADROOM)


def entangled_fock(n_photons: int, basis: BasisConfig | None = None) -> StateEnsemble:
    """N photons coherently shared between Hh and Vv (Fock state on Psi+)."""
    if basis is None:
        basis = fock_basis(n_photons)
    return StateEnsemble.pure(fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis))


def binomial_weights(n_photons: int) -> list[float]:
    return [math.comb(n_photons, n) / 2**n_photons for n in range(n_photons + 1)]


def _number_state(basis: BasisConfig, n_hh: int, n_vv: int) -> PureState:
    amps = np.zeros(basis.dims, dtype=np.complex128)
    idx = [0] * basis.n_modes
    idx[ModeIndex.HH] = n_hh
    idx[ModeIndex.VV] = n_vv
    amps[tuple(idx)] = 1.0
    return PureState(basis, amps)


def mixed_fock(n_photons: int, basis: BasisConfig | None = None) -> StateEnsemble:
    """Fully dephased N-photon state: binomial mixture of |n, N-n> splits."""
    if basis is None:
        basis = fock_basis(n_photons)
    if basis.cutoffs[ModeIndex.HH] < n_photons or basis.cutoffs[ModeIndex.VV] < n_photons:
        raise SimulationError("cutoffs too small for the requested photon number")
    weights = binomial_weights(n_photons)
    members = tuple(
        (w, _number_state(basis, n, n_photons - n)) for n, w in enumerate(weights)
    )
    return StateEnsemble(members)


def werner_fock(
    n_photons: int, p: float, basis: BasisConfig | None = None
) -> StateEnsemble:
    """Convex mixture p * entangled + (1-p) * dephased."""
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"p={p} outside [0, 1]")
    if basis is None:
        basis = fock_basis(n_photons)
    if p == 1.0:
        return entangled_fock(n_photons, basis)
    if p == 0.0:
        return mixed_fock(n_photons, basis)
    members = [(p, fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis))]
    for w, s in mixed_fock(n_photons, basis).members:
        members.append(((1.0 - p) * w, s))
    return StateEnsemble(tuple(members))


def pure_coherent(
    u: complex, basis: BasisConfig | None = None, eps: float = fock.DEFAULT_EPS
) -> StateEnsemble:
    """Coherent state on the Psi+ mode: displacements u/sqrt(2) on Hh and Vv."""
    if basis is None:
        basis = coherent_basis(abs(u) ** 2 / 2.0, eps)
    amp = u / math.sqrt(2.0)
    state = fock.vacuum(basis)
    state = fock.displace(state, ModeIndex.HH, amp, eps)
    state = fock.displace(state, ModeIndex.VV, amp, eps)
    return StateEnsemble.pure(state)


def mixed_coherent(
    u: complex,
    reflectivity: float,
    phi: float = 0.0,
    phase_points: int = DEFAULT_PHASE_POINTS,
    basis: BasisConfig | None = None,
    eps: float = fock.DEFAULT_EPS,
) -> StateEnsemble:
    """Coherent Hh beam paired with a phase-contaminated coherent Vv beam.

    Member k displaces Vv by u (sqrt(R) e^{i phi} + sqrt(1-R) e^{i theta_k})
    with theta_k uniform on the circle; the discrete average is exact for all
    moments of trigonometric degree below the number of phase points.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise SimulationError(f"reflectivity={reflectivity} outside [0, 1]")
    if phase_points < 5:
        raise SimulationError("phase_points must be at least 5")
    root_r = math.sqrt(reflectivity)
    root_t = math.sqrt(1.0 - reflectivity)
    if basis is None:
        max_mean = max(abs(u) ** 2, (abs(u) * (root_r + root_t)) ** 2)
        basis = coherent_basis(max_mean, eps)
    members = []
    w = 1.0 / phase_points
    for k in range(phase_points):
        theta = 2.0 * math.pi * k / phase_points
        u_prime = u * (root_r * cmath.exp(1j * phi) + root_t * cmath.exp(1j * theta))
        state = fock.vacuum(basis)
        state = fock.displace(state, ModeIndex.HH, u, eps)
        state = fock.displace(state, ModeIndex.VV, u_prime, eps)
        members.append((w, state))
    return StateEnsemble(tuple(members))


def two_mode_squeezed(
    zeta: complex, basis: BasisConfig | None = None, eps: float = fock.DEFAULT_EPS
) -> StateEnsemble:
    """Two-mode squeezed vacuum on (Hh, Vv) with squeezing strength |zeta|/2."""
    if basis is None:
        basis = squeezed_basis(zeta, eps)
    state = fock.two_mode_squeeze(fock.vacuum(basis), ModeIndex.HH, ModeIndex.VV, zeta, eps)
    return StateEnsemble.pure(state)


def build(spec: StateSpec, basis: BasisConfig | None = None) -> StateEnsemble:
    """Construct the ensemble described by a StateSpec."""
    f = spec.family
    if f is Family.ENTANGLED_FOCK:
        _require(spec, "n")
        return entangled_fock(spec.n, basis)
    if f is Family.MIXED_FOCK:
        _require(spec, "n")
        return mixed_fock(spec.n, basis)
    if f is Family.WERNER_FOCK:
        _require(spec, "n")
        _require(spec, "p")
        return werner_fock(spec.n, spec.p, basis)
    if f is Family.PURE_COHERENT:
        _require(spec, "u")
        return pure_coherent(spec.u, basis, spec.epsilon)
    if f is Family.MIXED_COHERENT:
        _require(spec, "u")
        _require(spec, "reflectivity")
        return mixed_coherent(
            spec.u, spec.reflectivity, spec.phi, spec.phase_points, basis, spec.epsilon
        )
    if f is Family.TWO_MODE_SQUEEZED_VACUUM:
        _require(spec, "zeta")
        return two_mode_squeezed(spec.zeta, basis, spec.epsilon)
    raise SimulationError(f"unknown family {f}")


def _require(spec: StateSpec, name: str):
    if getattr(spec, name) is None:
        raise SimulationError(f"family {spec.family.value} requires parameter {name!r}")
