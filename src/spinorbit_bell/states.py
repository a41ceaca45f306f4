"""Catalog of the six input-state families used in the Bell-noise comparison.

The Gaussian families (coherent, mixed coherent, two-mode squeezed) are built
from their closed-form number-basis amplitudes, truncated at the cutoffs and
renormalized; ``fock.displace`` and ``fock.two_mode_squeeze`` remain as the
expm route that ``verify`` checks them against.

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
from .errors import SimulationError, TruncationError
from .fock import BasisConfig, ModeIndex, PureState, StateEnsemble
from .partitions import BellModeLabel, fock_on_bell_mode

#: Extra headroom on source-mode cutoffs so that boundary bins carry mass
#: well below the tail tolerance even after observable applications.
SOURCE_HEADROOM = 2

#: Default number of phase points in the mixed-coherent ensemble. Discrete
#: averaging is exact for trigonometric degree < K and the intensity moments
#: have degree <= 4; 8 adds margin.
DEFAULT_PHASE_POINTS = 8

#: Cap on the amplitudes an ensemble holds over all its members (1 GiB of
#: complex128); ``fock.MAX_DIMENSION`` guards one member only.
MAX_ENSEMBLE_AMPLITUDES = 2**26


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


def _check_ensemble_size(members: int, basis: BasisConfig) -> None:
    """Raise TruncationError before allocating an ensemble over the guard."""
    if members * basis.dimension > MAX_ENSEMBLE_AMPLITUDES:
        raise TruncationError(
            f"ensemble of {members} members of dimension {basis.dimension} exceeds "
            f"the guard MAX_ENSEMBLE_AMPLITUDES={MAX_ENSEMBLE_AMPLITUDES}"
        )


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
    _check_ensemble_size(n_photons + 1, basis)
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
    _check_ensemble_size(n_photons + 2, basis)
    members = [(p, fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis))]
    for w, s in mixed_fock(n_photons, basis).members:
        members.append(((1.0 - p) * w, s))
    return StateEnsemble(tuple(members))


def _on_source_modes(basis: BasisConfig, pair: np.ndarray) -> PureState:
    """Normalized state with amplitudes ``pair[n_hh, n_vv]``, vacuum on Hv/Vh."""
    amps = np.zeros(basis.dims, dtype=np.complex128)
    idx = [0] * basis.n_modes
    idx[ModeIndex.HH] = idx[ModeIndex.VV] = slice(None)
    amps[tuple(idx)] = pair
    return PureState(basis, amps).normalized()


def _coherent_column(u: complex, cutoff: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|u|^2/2} u^n / sqrt(n!) for n = 0..cutoff.

    The moduli come from the Poisson log-probabilities, so the column is
    finite and accurate wherever ``fock.poisson_tail_cutoff`` converges.
    """
    mean = abs(u) ** 2
    if mean == 0.0:
        return np.eye(1, cutoff + 1, dtype=np.complex128)[0]
    n = np.arange(cutoff + 1)
    return np.exp(0.5 * fock.log_poisson(mean, cutoff) + 1j * cmath.phase(u) * n)


def _coherent_pair(basis: BasisConfig, u_hh: complex, u_vv: complex) -> PureState:
    """Product of coherent states u_hh on Hh and u_vv on Vv, from closed form."""
    cut = basis.cutoffs
    column_hh = _coherent_column(u_hh, cut[ModeIndex.HH])
    column_vv = _coherent_column(u_vv, cut[ModeIndex.VV])
    return _on_source_modes(basis, np.multiply.outer(column_hh, column_vv))


def pure_coherent(
    u: complex, basis: BasisConfig | None = None, eps: float = fock.DEFAULT_EPS
) -> StateEnsemble:
    """Coherent state on the Psi+ mode: displacements u/sqrt(2) on Hh and Vv."""
    if basis is None:
        basis = coherent_basis(fock.coherent_mean(u) / 2.0, eps)
    amp = u / math.sqrt(2.0)
    fock.check_displacement_room(basis, ModeIndex.HH, amp, eps)
    fock.check_displacement_room(basis, ModeIndex.VV, amp, eps)
    return StateEnsemble.pure(_coherent_pair(basis, amp, amp))


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
        max_mean = max(fock.coherent_mean(u), fock.coherent_mean(abs(u) * (root_r + root_t)))
        basis = coherent_basis(max_mean, eps)
    fock.check_displacement_room(basis, ModeIndex.HH, u, eps)
    _check_ensemble_size(phase_points, basis)
    members = []
    w = 1.0 / phase_points
    for k in range(phase_points):
        theta = 2.0 * math.pi * k / phase_points
        u_prime = u * (root_r * cmath.exp(1j * phi) + root_t * cmath.exp(1j * theta))
        fock.check_displacement_room(basis, ModeIndex.VV, u_prime, eps)
        members.append((w, _coherent_pair(basis, u, u_prime)))
    return StateEnsemble(tuple(members))


def two_mode_squeezed(
    zeta: complex, basis: BasisConfig | None = None, eps: float = fock.DEFAULT_EPS
) -> StateEnsemble:
    """Two-mode squeezed vacuum on (Hh, Vv) with squeezing strength |zeta|/2.

    The state exp((zeta* a b - zeta a+ b+)/2)|0, 0> in closed form:
    sum_n (-e^{i theta} tanh r)^n / cosh r |n, n> with r = |zeta|/2 and
    theta = arg zeta.
    """
    if basis is None:
        basis = squeezed_basis(zeta, eps)
    fock.check_squeezing_room(basis, ModeIndex.HH, ModeIndex.VV, zeta, eps)
    r = abs(zeta) / 2.0
    dims = (basis.dims[ModeIndex.HH], basis.dims[ModeIndex.VV])
    n = np.arange(min(dims))
    pair = np.zeros(dims, dtype=np.complex128)
    phase = np.exp(1j * (cmath.phase(zeta) + math.pi) * n)
    pair[n, n] = math.tanh(r) ** n * phase / math.cosh(r)
    return StateEnsemble.pure(_on_source_modes(basis, pair))


#: Each family: the StateSpec fields it requires, and its constructor.
FAMILIES = {
    Family.ENTANGLED_FOCK: (("n",), lambda s, basis: entangled_fock(s.n, basis)),
    Family.MIXED_FOCK: (("n",), lambda s, basis: mixed_fock(s.n, basis)),
    Family.WERNER_FOCK: (("n", "p"), lambda s, basis: werner_fock(s.n, s.p, basis)),
    Family.PURE_COHERENT: (("u",), lambda s, basis: pure_coherent(s.u, basis, s.epsilon)),
    Family.MIXED_COHERENT: (
        ("u", "reflectivity"),
        lambda s, basis: mixed_coherent(
            s.u, s.reflectivity, s.phi, s.phase_points, basis, s.epsilon
        ),
    ),
    Family.TWO_MODE_SQUEEZED_VACUUM: (
        ("zeta",),
        lambda s, basis: two_mode_squeezed(s.zeta, basis, s.epsilon),
    ),
}


def build(spec: StateSpec, basis: BasisConfig | None = None) -> StateEnsemble:
    """Construct the ensemble described by a StateSpec."""
    required, construct = FAMILIES[spec.family]
    for name in required:
        if getattr(spec, name) is None:
            raise SimulationError(f"family {spec.family.value} requires parameter {name!r}")
    return construct(spec, basis)
