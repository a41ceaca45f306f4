import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinorbit_bell import modes, partitions
from spinorbit_bell.errors import SimulationError
from spinorbit_bell.modes import VectorModeCoefficients
from spinorbit_bell.partitions import BellModeLabel


#: Unit-power normalization of the first-order HG modes, sqrt(2 / pi).
_NORM = math.sqrt(2.0 / math.pi)


def pointwise_field(label, x, y):
    """(E_H, E_V) of a Bell mode at one point, in Python floats, term by term."""
    a_hh, a_hv, a_vh, a_vv = partitions.BELL_MODES[label]
    envelope = float(np.exp(-(x * x + y * y) / 2.0))
    psi_h, psi_v = _NORM * x * envelope, _NORM * y * envelope
    return a_hh * psi_h + a_hv * psi_v, a_vh * psi_h + a_vv * psi_v


def normalized_coeffs(values):
    arr = np.asarray(values, dtype=complex)
    arr = arr / np.linalg.norm(arr)
    return VectorModeCoefficients(*arr)


class TestHgMode:
    def test_vanishes_at_origin(self):
        assert modes.eval_hg_mode("h", 0.0, 0.0) == 0.0

    def test_xy_symmetry(self):
        for x, y in [(0.3, -1.2), (2.0, 0.7), (-0.5, -0.5)]:
            assert modes.eval_hg_mode("h", x, y) == pytest.approx(modes.eval_hg_mode("v", y, x))

    def test_unit_power(self):
        # Independent 2-D trapezoid quadrature over a 12x12 waist-unit window.
        grid = np.linspace(-6.0, 6.0, 481)
        vals = modes.eval_hg_mode("h", grid[None, :], grid[:, None])
        power = np.trapezoid(np.trapezoid(vals**2, grid, axis=1), grid)
        assert power == pytest.approx(1.0, abs=1e-6)

    def test_rejects_unknown_orientation(self):
        with pytest.raises(SimulationError):
            modes.eval_hg_mode("d", 0.0, 0.0)


class TestVectorMode:
    def test_radial_on_x_axis(self):
        coeffs = modes.bell_coefficients(BellModeLabel.PSI_PLUS)
        e_h, e_v = modes.eval_vector_mode(coeffs, 1.0, 0.0)
        assert e_h.real > 0
        assert e_v == 0

    def test_pure_hh_has_no_vertical_component(self):
        coeffs = VectorModeCoefficients(1.0, 0.0, 0.0, 0.0)
        _, e_v = modes.eval_vector_mode(coeffs, 0.7, -1.3)
        assert e_v == 0

    def test_azimuthal_on_x_axis(self):
        coeffs = modes.bell_coefficients(BellModeLabel.PHI_MINUS)
        e_h, e_v = modes.eval_vector_mode(coeffs, 1.0, 0.0)
        assert e_h == 0
        assert e_v.real > 0

    def test_rejects_unnormalized(self):
        with pytest.raises(SimulationError):
            modes.eval_vector_mode(VectorModeCoefficients(1.0, 1.0, 0.0, 0.0), 0.0, 0.0)

    def test_linear_in_coefficients(self):
        p = (0.4, -0.9)
        a = normalized_coeffs([1, 2j, -0.5, 0.3])
        b = normalized_coeffs([0.1, -1, 0.7j, 2])
        mixed = normalized_coeffs(0.6 * a.as_array() + 0.8j * b.as_array())
        scale = np.linalg.norm(0.6 * a.as_array() + 0.8j * b.as_array())
        ea = modes.eval_vector_mode(a, *p)
        eb = modes.eval_vector_mode(b, *p)
        em = modes.eval_vector_mode(mixed, *p)
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
        x, y, e_h, e_v = modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, 2.0, 5)
        assert len(x) == len(y) == len(e_h) == len(e_v) == 25
        # Radial mode: E parallel to (x, y) away from the axis.
        assert np.all(np.abs(e_h * y - e_v * x) < 1e-12)

    def test_azimuthal_orthogonal_to_radius(self):
        x, y, e_h, e_v = modes.sample_polarization_grid(BellModeLabel.PHI_MINUS, 2.0, 5)
        assert np.all(np.abs(e_h * x + e_v * y) < 1e-12)

    def test_zero_on_axis(self):
        for label in BellModeLabel:
            x, y, e_h, e_v = modes.sample_polarization_grid(label, 1.0, 3)
            center = (x == 0.0) & (y == 0.0)
            assert np.count_nonzero(center) == 1
            assert e_h[center] == 0 and e_v[center] == 0

    @pytest.mark.parametrize(
        "extent, resolution", [(2.0, 41), (40.0, 9), (1e300, 3), (1.0, 1)]
    )
    @pytest.mark.parametrize("label", list(BellModeLabel), ids=lambda m: m.value)
    def test_matches_pointwise_reference(self, label, extent, resolution):
        # Exact, signed zeros included: -0 and 0 are different CSV bytes.
        axis = np.linspace(-extent, extent, resolution) if resolution > 1 else [0.0]
        expected = []
        for y in axis:
            for x in axis:
                e_h, e_v = pointwise_field(label, float(x), float(y))
                expected.append((float(x), float(y), e_h.real, e_h.imag, e_v.real, e_v.imag))
        expected = np.array(expected).T
        x, y, e_h, e_v = modes.sample_polarization_grid(label, extent, resolution)
        got = np.array([x, y, e_h.real, e_h.imag, e_v.real, e_v.imag])
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_rejects_bad_grid(self):
        with pytest.raises(SimulationError):
            modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, 2.0, 0)
        with pytest.raises(SimulationError):
            modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, -1.0, 5)

    def test_validates_the_coefficients_once(self, monkeypatch):
        calls = 0
        original = VectorModeCoefficients.validate_normalized

        def counted(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(VectorModeCoefficients, "validate_normalized", counted)
        modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, 2.0, 41)
        assert calls == 1

    @pytest.mark.parametrize("extent", [math.nan, math.inf, 1e308])
    def test_rejects_a_non_finite_span_without_warning(self, extent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="^extent="):
                modes.sample_polarization_grid(BellModeLabel.PSI_PLUS, extent, 5)
