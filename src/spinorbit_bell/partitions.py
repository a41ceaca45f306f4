"""Mode-partition change between separable (Hh, Hv, Vh, Vv) and Bell modes.

``BELL_MODES`` is the one table of the four Bell modes as unit vectors on the
separable modes: Psi+ = (1, 0, 0, 1)/sqrt2 (radial, field prop. to (x, y)),
Psi- = (1, 0, 0, -1)/sqrt2, Phi+ = (0, 1, 1, 0)/sqrt2 and
Phi- = (0, -1, 1, 0)/sqrt2 (azimuthal, field prop. to (-y, x), as
``mode-pattern`` prints it). Bell modes are materialized directly in the
separable-partition Fock basis; the partition matrix stacks the table's rows.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import fock
from .errors import DOMAINS, SimulationError, checked
from .fock import BasisConfig, ModeIndex, PureState


class BellModeLabel(enum.Enum):
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


_S = 1.0 / math.sqrt(2.0)

#: Each Bell mode as a unit vector (c_Hh, c_Hv, c_Vh, c_Vv) on the separable modes.
BELL_MODES = {
    BellModeLabel.PSI_PLUS: (_S, 0.0, 0.0, _S),
    BellModeLabel.PSI_MINUS: (_S, 0.0, 0.0, -_S),
    BellModeLabel.PHI_PLUS: (0.0, _S, _S, 0.0),
    BellModeLabel.PHI_MINUS: (0.0, -_S, _S, 0.0),
}


def bell_partition_matrix() -> np.ndarray:
    """Orthogonal matrix taking separable-mode annihilators to Bell-mode ones.

    Rows are the ``BELL_MODES`` vectors (Psi+, Psi-, Phi+, Phi-), columns (Hh, Hv, Vh, Vv).
    """
    return np.array([BELL_MODES[label] for label in BellModeLabel])


def _constituents(label: BellModeLabel) -> list[tuple[ModeIndex, float]]:
    """The two separable modes of a Bell mode, each with the sign of its coefficient."""
    return [(ModeIndex(j), math.copysign(1.0, c)) for j, c in enumerate(BELL_MODES[label]) if c]


def fock_on_bell_mode(n_photons: int, label: BellModeLabel, basis: BasisConfig) -> PureState:
    """N-photon Fock state on one Bell mode, expanded in the separable basis.

    The expansion is binomial: sqrt(N!/2^N / (n! (N-n)!)) on |n, N-n> over the
    constituent pair, times s_a^n s_b^(N-n) for the pair's coefficient signs.
    """
    n_photons = checked("n_photons", n_photons, DOMAINS["n"])
    (ma, sa), (mb, sb) = _constituents(label)
    if basis.cutoffs[ma] < n_photons or basis.cutoffs[mb] < n_photons:
        raise SimulationError(
            f"cutoffs {basis.cutoffs} too small for {n_photons} photons on modes "
            f"{ma.name}/{mb.name}"
        )
    amps = np.zeros(basis.dims, dtype=np.complex128)
    idx = [0] * basis.n_modes
    for n in range(n_photons + 1):
        # Exact integer ratio, rounded once; floats overflow for N > ~170.
        coeff = math.sqrt(math.comb(n_photons, n) / 2**n_photons)
        idx[ma] = n
        idx[mb] = n_photons - n
        amps[tuple(idx)] = coeff * sa**n * sb ** (n_photons - n)
    return PureState(basis, amps)


def verify_partition_identity(n_photons: int, basis: BasisConfig) -> float:
    """Residual between two constructions of the N-photon Psi+ state.

    One route applies (a+_Psi+)^N / sqrt(N!) to vacuum using the partition
    matrix coefficients; the other is the explicit binomial expansion.
    """
    row = bell_partition_matrix()[0]  # the Psi+ row
    state = fock.vacuum(basis)
    for _ in range(n_photons):
        acc = np.zeros(basis.dims, dtype=np.complex128)
        for j, c in enumerate(row):
            if c != 0.0:
                acc += c * fock.apply_ladder(state, j, "create").amplitudes
        state = PureState(basis, acc)
    built = PureState(basis, state.amplitudes / math.sqrt(math.factorial(n_photons)))
    reference = fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis)
    return float(np.linalg.norm(built.amplitudes - reference.amplitudes))


def coherent_on_bell_mode(u: complex, label: BellModeLabel, basis: BasisConfig) -> PureState:
    """Coherent state on one Bell mode as a product of separable displacements.

    Since the constituent annihilators commute, the Bell-mode displacement
    factorizes into displacements by +-u/sqrt(2) on the pair.
    """
    amp = checked("u", u) / math.sqrt(2.0)
    state = fock.vacuum(basis)
    for mode, sign in _constituents(label):
        state = fock.displace(state, mode, sign * amp)
    return state
