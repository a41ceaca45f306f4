"""Classical first-order vector-mode layer.

Works at the beam waist (w = 1, constant phase) with lengths in waist units.
The first-order Hermite-Gaussian amplitudes are x e^{-r^2/2} and y e^{-r^2/2}
up to normalization, chosen so each mode carries unit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError, checked
from .partitions import BELL_MODES, BellModeLabel

#: Normalization giving unit transverse power: integral of x^2 e^{-r^2} is pi/2.
_NORM = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class VectorModeCoefficients:
    """Amplitudes (A_Hh, A_Hv, A_Vh, A_Vv) of a general first-order vector mode."""

    a_hh: complex
    a_hv: complex
    a_vh: complex
    a_vv: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.a_hh, self.a_hv, self.a_vh, self.a_vv], dtype=complex)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.as_array()) ** 2))

    def validate_normalized(self) -> None:
        if abs(self.norm_sq() - 1.0) > 1e-9:
            raise SimulationError(
                f"coefficients have squared norm {self.norm_sq()}, expected 1"
            )


def bell_coefficients(label: BellModeLabel) -> VectorModeCoefficients:
    return VectorModeCoefficients(*BELL_MODES[label])


def eval_hg_mode(orientation: str, x, y):
    """First-order Hermite-Gaussian amplitude at waist-plane coordinates.

    ``x`` and ``y`` may be numbers or broadcastable arrays.
    """
    if orientation not in ("h", "v"):
        raise SimulationError(f"orientation must be 'h' or 'v', got {orientation!r}")
    linear = x if orientation == "h" else y
    # x * x, unlike x**2, gives inf, not OverflowError, on a far-out Python float;
    # a squared radius of inf gives a field of 0, so array overflow stays silent.
    with np.errstate(over="ignore"):
        return _NORM * linear * np.exp(-(x * x + y * y) / 2.0)


def eval_vector_mode(coeffs: VectorModeCoefficients, x, y):
    """Transverse field (E_H, E_V) of a general vector mode at numbers or arrays x, y."""
    coeffs.validate_normalized()
    psi_h, psi_v = eval_hg_mode("h", x, y), eval_hg_mode("v", x, y)
    e_h = coeffs.a_hh * psi_h + coeffs.a_hv * psi_v
    e_v = coeffs.a_vh * psi_h + coeffs.a_vv * psi_v
    return e_h, e_v


def concurrence(coeffs: VectorModeCoefficients) -> float:
    """Spin-orbit separability measure: 0 for product modes, 1 for Bell modes."""
    coeffs.validate_normalized()
    return 2.0 * abs(coeffs.a_hh * coeffs.a_vv - coeffs.a_hv * coeffs.a_vh)


def sample_polarization_grid(label: BellModeLabel, extent: float, resolution: int):
    """Sample a Bell mode's transverse field on a square grid.

    The grid spans [-extent, extent] in both coordinates with `resolution`
    points per axis. Returns the flat arrays (x, y, E_H, E_V), x varying fastest.
    """
    extent, resolution = checked("extent", extent), checked("resolution", resolution)
    axis = np.linspace(-extent, extent, resolution) if resolution > 1 else np.array([0.0])
    y, x = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    return (x, y, *eval_vector_mode(bell_coefficients(label), x, y))
