"""Measurement apparatus: wave-plate/Dove-prism settings and MZIM sorting.

The half-wave plate (oriented at alpha/2) and Dove prism (at beta/2) each act
as a reflection T(theta) on their two-dimensional degree of freedom; their
combined action on the four input modes is the Kronecker product
T(alpha) (x) T(beta), polarization factor first.

Only the four port-1 input modes are simulated: port-2 modes stay in vacuum
and contribute nothing to normally ordered intensity moments. The function
``eight_mode_m_matrix`` provides the full two-port observable for the
regression check of that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import ModeIndex, OneBodyOperator


@dataclass(frozen=True)
class Settings:
    """One measurement setting pair (angles in radians)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("settings must be finite")


@dataclass(frozen=True)
class ChshSettings:
    """The four angles entering the CHSH combination."""

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float

    def pairs(self) -> tuple[Settings, Settings, Settings, Settings]:
        """Setting pairs in the order (a,b), (a,b'), (a',b), (a',b')."""
        return (
            Settings(self.alpha, self.beta),
            Settings(self.alpha, self.beta_prime),
            Settings(self.alpha_prime, self.beta),
            Settings(self.alpha_prime, self.beta_prime),
        )


DEFAULT_CHSH_SETTINGS = ChshSettings(math.pi / 8, 3 * math.pi / 8, 0.0, math.pi / 4)

#: Intensity-difference sign of each port-1 input mode at zero settings:
#: even modes (Hh, Vv) exit port 1, odd modes (Hv, Vh) exit port 2.
_PARITY = np.diag([1.0, -1.0, -1.0, 1.0])


def reflection_matrix(theta: float) -> np.ndarray:
    """Reflection along the axis at angle theta/2 of the physical element."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def setting_unitary(settings: Settings) -> np.ndarray:
    """Combined mode transform T(alpha) (x) T(beta) on (Hh, Hv, Vh, Vv)."""
    return np.kron(reflection_matrix(settings.alpha), reflection_matrix(settings.beta))


def mzim_sort() -> dict[tuple[int, ModeIndex], int]:
    """Routing map (input port, mode) -> output port of the ideal sorter."""
    routing = {}
    for mode in ModeIndex:
        even = mode in (ModeIndex.HH, ModeIndex.VV)
        routing[(1, mode)] = 1 if even else 2
        routing[(2, mode)] = 2 if even else 1
    return routing


def m_operator(settings: Settings) -> OneBodyOperator:
    """Intensity-difference observable M(alpha, beta) on the port-1 modes.

    Conjugating the port parity by the setting unitary gives
    (cos2a sz + sin2a sx) (x) (cos2b sz + sin2b sx); spectrum {+1, +1, -1, -1}.
    """
    u = setting_unitary(settings)
    return OneBodyOperator(u.T @ _PARITY @ u)


def itot_operator() -> OneBodyOperator:
    """Total-intensity observable; the identity on the four input modes."""
    return OneBodyOperator(np.eye(4))


def eight_mode_m_matrix(settings: Settings) -> OneBodyOperator:
    """Intensity-difference matrix with the four port-2 modes included.

    Port-1 block is the usual conjugated parity; the untransformed port-2
    modes enter with opposite parity because the sorter routes them to the
    complementary outputs.
    """
    u = setting_unitary(settings)
    mat = np.zeros((8, 8))
    mat[:4, :4] = u.T @ _PARITY @ u
    mat[4:, 4:] = -_PARITY
    return OneBodyOperator(mat)
