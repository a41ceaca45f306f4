import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinorbit_bell import modes
from spinorbit_bell.errors import SimulationError
from spinorbit_bell.modes import SpatialPoint, VectorModeCoefficients
from spinorbit_bell.partitions import BellModeLabel


def normalized_coeffs(values):
    arr = np.asarray(values, dtype=complex)
    arr = arr / np.linalg.norm(arr)
    return VectorModeCoefficients(*arr)


class TestHgMode:
    def test_vanishes_at_origin(self):
        assert modes.eval_hg_mode("h", SpatialPoint(0.0, 0.0)) == 0.0

    def test_xy_symmetry(self):
        for x, y in [(0.3, -1.2), (2.0, 0.7), (-0.5, -0.5)]:
            assert modes.eval_hg_mode("h", SpatialPoint(x, y)) == pytest.approx(
                modes.eval_hg_mode("v", SpatialPoint(y, x))
            )

    def test_unit_power(self):
        # Independent 2-D trapezoid quadrature over a 12x12 waist-unit window.
        grid = np.linspace(-6.0, 6.0, 481)
        vals = np.array(
            [
                [modes.eval_hg_mode("h", SpatialPoint(float(x), float(y))) for x in grid]
                for y in grid
            ]
        )
        power = np.trapezoid(np.trapezoid(vals**2, grid, axis=1), grid)
        assert power == pytest.approx(1.0, abs=1e-6)

    def test_rejects_unknown_orientation(self):
        with pytest.raises(SimulationError):
            modes.eval_hg_mode("d", SpatialPoint(0.0, 0.0))

    @pytest.mark.parametrize("orientation", ["h", "v"])
    def test_array_form_matches_pointwise(self, orientation):
        xs = np.linspace(-4.0, 4.0, 37)
        ys = np.linspace(-3.0, 5.0, 29)
        grid = modes.hg_amplitude(orientation, xs[None, :], ys[:, None])
        pointwise = [
            [modes.eval_hg_mode(orientation, SpatialPoint(float(x), float(y))) for x in xs]
            for y in ys
        ]
        assert np.array_equal(grid, np.array(pointwise))


class TestVectorMode:
    def test_radial_on_x_axis(self):
        coeffs = modes.bell_coefficients(BellModeLabel.PSI_PLUS)
        e_h, e_v = modes.eval_vector_mode(coeffs, SpatialPoint(1.0, 0.0))
        assert e_h.real > 0
        assert e_v == 0

    def test_pure_hh_has_no_vertical_component(self):
        coeffs = VectorModeCoefficients(1.0, 0.0, 0.0, 0.0)
        _, e_v = modes.eval_vector_mode(coeffs, SpatialPoint(0.7, -1.3))
        assert e_v == 0

    def test_azimuthal_on_x_axis(self):
        coeffs = modes.bell_coefficients(BellModeLabel.PHI_MINUS)
        e_h, e_v = modes.eval_vector_mode(coeffs, SpatialPoint(1.0, 0.0))
        assert e_h == 0
        assert e_v.real > 0

    def test_rejects_unnormalized(self):
        with pytest.raises(SimulationError):
            modes.eval_vector_mode(
                VectorModeCoefficients(1.0, 1.0, 0.0, 0.0), SpatialPoint(0.0, 0.0)
            )

    def test_linear_in_coefficients(self):
        p = SpatialPoint(0.4, -0.9)
        a = normalized_coeffs([1, 2j, -0.5, 0.3])
        b = normalized_coeffs([0.1, -1, 0.7j, 2])
        mixed = normalized_coeffs(0.6 * a.as_array() + 0.8j * b.as_array())
        scale = np.linalg.norm(0.6 * a.as_array() + 0.8j * b.as_array())
        ea = modes.eval_vector_mode(a, p)
        eb = modes.eval_vector_mode(b, p)
        em = modes.eval_vector_mode(mixed, p)
        for i in range(2):
            assert em[i] * scale == pytest.approx(0.6 * ea[i] + 0.8j * eb[i])


class TestConcurrence:
    def test_bell_modes_maximal(self):
        for label in BellModeLabel:
            assert modes.concurrence(modes.bell_coefficients(label)) == pytest.approx(1.0)

    def test_product_mode_zero(self):
        assert modes.concurrence(VectorModeCoefficients(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_partial(self):
        c = VectorModeCoefficients(0.8, 0.0, 0.0, 0.6)
        assert modes.concurrence(c) == pytest.approx(0.96)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=4,
            max_size=4,
        ),
        st.floats(0, 2 * math.pi),
    )
    def test_bounded_and_phase_invariant(self, raw, phase):
        arr = np.array([complex(re, im) for re, im in raw])
        norm = np.linalg.norm(arr)
        if norm < 1e-3:
            return
        c = VectorModeCoefficients(*(arr / norm))
        value = modes.concurrence(c)
        assert -1e-12 <= value <= 1.0 + 1e-12
        rotated = VectorModeCoefficients(*(arr / norm * np.exp(1j * phase)))
        assert modes.concurrence(rotated) == pytest.approx(value, abs=1e-12)

    @given(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    )
    def test_outer_products_are_separable(self, raw):
        pol = np.array([complex(raw[0]), complex(raw[1])])
        orb = np.array([complex(raw[2]), complex(raw[3])])
        norm = np.linalg.norm(pol) * np.linalg.norm(orb)
        if norm < 1e-3:
            return
        c = VectorModeCoefficients(*(np.outer(pol, orb).reshape(-1) / norm))
        assert modes.concurrence(c) == pytest.approx(0.0, abs=1e-12)


class TestPolarizationGrid:
    def test_row_count_and_radial_alignment(self):
        rows = modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, 2.0, 5)
        assert len(rows) == 25
        for r in rows:
            # Radial mode: E parallel to (x, y) away from the axis.
            cross = r.e_h * r.y - r.e_v * r.x
            assert abs(cross) < 1e-12

    def test_azimuthal_orthogonal_to_radius(self):
        rows = modes.sample_polarization_grid(BellModeLabel.PHI_MINUS, 2.0, 5)
        for r in rows:
            dot = r.e_h * r.x + r.e_v * r.y
            assert abs(dot) < 1e-12

    def test_zero_on_axis(self):
        for label in BellModeLabel:
            rows = modes.sample_polarization_grid(label, 1.0, 3)
            center = [r for r in rows if r.x == 0.0 and r.y == 0.0]
            assert len(center) == 1
            assert center[0].e_h == 0 and center[0].e_v == 0

    def test_rejects_bad_grid(self):
        with pytest.raises(SimulationError):
            modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, 2.0, 0)
        with pytest.raises(SimulationError):
            modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, -1.0, 5)
