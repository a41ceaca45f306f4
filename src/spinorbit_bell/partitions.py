"""Mode-partition change between separable (Hh, Hv, Vh, Vv) and Bell modes.

Bell modes are materialized directly in the separable-partition Fock basis;
the partition matrix encodes how their ladder operators decompose.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import fock
from .errors import SimulationError
from .fock import BasisConfig, ModeIndex, PureState


class BellModeLabel(enum.Enum):
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


#: Constituent separable-mode pair and relative sign for each Bell mode.
#: The minus sign attaches to the second-listed constituent.
BELL_CONSTITUENTS = {
    BellModeLabel.PSI_PLUS: (ModeIndex.HH, ModeIndex.VV, +1),
    BellModeLabel.PSI_MINUS: (ModeIndex.HH, ModeIndex.VV, -1),
    BellModeLabel.PHI_PLUS: (ModeIndex.HV, ModeIndex.VH, +1),
    BellModeLabel.PHI_MINUS: (ModeIndex.HV, ModeIndex.VH, -1),
}

_BELL_ROW = {
    BellModeLabel.PSI_PLUS: 0,
    BellModeLabel.PSI_MINUS: 1,
    BellModeLabel.PHI_PLUS: 2,
    BellModeLabel.PHI_MINUS: 3,
}


def bell_partition_matrix() -> np.ndarray:
    """Orthogonal matrix taking separable-mode annihilators to Bell-mode ones.

    Rows are ordered (Psi+, Psi-, Phi+, Phi-), columns (Hh, Hv, Vh, Vv).
    """
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [s, 0.0, 0.0, s],
            [s, 0.0, 0.0, -s],
            [0.0, s, s, 0.0],
            [0.0, s, -s, 0.0],
        ]
    )


def fock_on_bell_mode(n_photons: int, label: BellModeLabel, basis: BasisConfig) -> PureState:
    """N-photon Fock state on one Bell mode, expanded in the separable basis.

    The expansion is binomial: sqrt(N!/2^N / (n! (N-n)!)) on |n, N-n> over the
    constituent pair, with sign (-1)^(N-n) for the minus-labelled modes.
    """
    if n_photons < 0:
        raise SimulationError("photon number must be nonnegative")
    ma, mb, sign = BELL_CONSTITUENTS[label]
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
        if sign < 0 and (n_photons - n) % 2 == 1:
            coeff = -coeff
        idx[ma] = n
        idx[mb] = n_photons - n
        amps[tuple(idx)] = coeff
    return PureState(basis, amps)


def verify_partition_identity(n_photons: int, basis: BasisConfig) -> float:
    """Residual between two constructions of the N-photon Psi+ state.

    One route applies (a+_Psi+)^N / sqrt(N!) to vacuum using the partition
    matrix coefficients; the other is the explicit binomial expansion.
    """
    row = bell_partition_matrix()[_BELL_ROW[BellModeLabel.PSI_PLUS]]
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


def coherent_on_bell_mode(
    u: complex,
    label: BellModeLabel,
    basis: BasisConfig,
    eps: float = fock.DEFAULT_EPS,
) -> PureState:
    """Coherent state on one Bell mode as a product of separable displacements.

    Since the constituent annihilators commute, the Bell-mode displacement
    factorizes into displacements by +-u/sqrt(2) on the pair.
    """
    ma, mb, sign = BELL_CONSTITUENTS[label]
    amp = u / math.sqrt(2.0)
    state = fock.vacuum(basis)
    state = fock.displace(state, ma, amp, eps)
    return fock.displace(state, mb, sign * amp, eps)
