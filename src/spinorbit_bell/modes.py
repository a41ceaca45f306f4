"""Classical first-order vector-mode layer.

Works at the beam waist (w = 1, constant phase) with lengths in waist units.
The first-order Hermite-Gaussian amplitudes are x e^{-r^2/2} and y e^{-r^2/2}
up to normalization, chosen so each mode carries unit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import SimulationError
from .partitions import BellModeLabel

#: Normalization giving unit transverse power: integral of x^2 e^{-r^2} is pi/2.
_NORM = math.sqrt(2.0 / math.pi)

_SQ2 = 1.0 / math.sqrt(2.0)

#: (A_Hh, A_Hv, A_Vh, A_Vv) for the four maximally non-separable modes.
BELL_COEFFICIENTS = {
    BellModeLabel.PSI_PLUS: (_SQ2, 0.0, 0.0, _SQ2),
    BellModeLabel.PSI_MINUS: (_SQ2, 0.0, 0.0, -_SQ2),
    BellModeLabel.PHI_PLUS: (0.0, _SQ2, _SQ2, 0.0),
    BellModeLabel.PHI_MINUS: (0.0, -_SQ2, _SQ2, 0.0),
}


@dataclass(frozen=True)
class SpatialPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise SimulationError("coordinates must be finite")


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

    def validate_normalized(self, tol: float = 1e-9) -> None:
        if abs(self.norm_sq() - 1.0) > tol:
            raise SimulationError(
                f"coefficients have squared norm {self.norm_sq()}, expected 1"
            )


def bell_coefficients(label: BellModeLabel) -> VectorModeCoefficients:
    return VectorModeCoefficients(*BELL_COEFFICIENTS[label])


def hg_amplitude(orientation: str, x, y):
    """First-order Hermite-Gaussian amplitude at waist-plane coordinates.

    ``x`` and ``y`` may be numbers or broadcastable arrays.
    """
    if orientation not in ("h", "v"):
        raise SimulationError(f"orientation must be 'h' or 'v', got {orientation!r}")
    linear = x if orientation == "h" else y
    # x * x, unlike x**2, does not raise OverflowError on a far-out Python float.
    return _NORM * linear * np.exp(-(x * x + y * y) / 2.0)


def eval_hg_mode(orientation: str, point: SpatialPoint) -> float:
    """First-order Hermite-Gaussian amplitude at a waist-plane point."""
    return float(hg_amplitude(orientation, point.x, point.y))


def eval_vector_mode(
    coeffs: VectorModeCoefficients, point: SpatialPoint
) -> tuple[complex, complex]:
    """Transverse field (E_H, E_V) of a general vector mode at one point."""
    coeffs.validate_normalized()
    psi_h = eval_hg_mode("h", point)
    psi_v = eval_hg_mode("v", point)
    e_h = coeffs.a_hh * psi_h + coeffs.a_hv * psi_v
    e_v = coeffs.a_vh * psi_h + coeffs.a_vv * psi_v
    return e_h, e_v


def concurrence(coeffs: VectorModeCoefficients) -> float:
    """Spin-orbit separability measure: 0 for product modes, 1 for Bell modes."""
    coeffs.validate_normalized()
    return 2.0 * abs(coeffs.a_hh * coeffs.a_vv - coeffs.a_hv * coeffs.a_vh)


@dataclass(frozen=True)
class GridRow:
    x: float
    y: float
    e_h: complex
    e_v: complex


def sample_polarization_grid(
    label: BellModeLabel, extent: float, resolution: int
) -> list[GridRow]:
    """Sample a Bell mode's transverse field on a square grid.

    The grid spans [-extent, extent] in both coordinates with `resolution`
    points per axis; rows are emitted with x varying fastest.
    """
    if extent <= 0.0:
        raise SimulationError("grid extent must be positive")
    if resolution <= 0:
        raise SimulationError("grid resolution must be positive")
    coeffs = bell_coefficients(label)
    axis = (
        np.linspace(-extent, extent, resolution) if resolution > 1 else np.array([0.0])
    )
    rows = []
    for y in axis:
        for x in axis:
            e_h, e_v = eval_vector_mode(coeffs, SpatialPoint(float(x), float(y)))
            rows.append(GridRow(float(x), float(y), e_h, e_v))
    return rows


def write_grid_csv(rows: Iterable[GridRow], stream: TextIO) -> None:
    """Grid CSV, x fastest, 9 significant digits."""
    stream.write("x,y,EH_re,EH_im,EV_re,EV_im\n")
    for r in rows:
        vals = (r.x, r.y, r.e_h.real, r.e_h.imag, r.e_v.real, r.e_v.imag)
        stream.write(",".join(f"{v:.9g}" for v in vals) + "\n")
