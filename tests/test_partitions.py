import math

import numpy as np
import pytest

from spinorbit_bell import fock, modes, partitions
from spinorbit_bell.errors import SimulationError
from spinorbit_bell.fock import BasisConfig, ModeIndex, StateEnsemble
from spinorbit_bell.partitions import BellModeLabel


def test_partition_matrix_rows():
    mat = partitions.bell_partition_matrix()
    s = 1 / math.sqrt(2)
    assert np.allclose(mat[0], [s, 0, 0, s])
    assert np.allclose(mat[1], [s, 0, 0, -s])
    assert np.allclose(mat[2], [0, s, s, 0])
    assert np.allclose(mat[3], [0, -s, s, 0])


@pytest.mark.parametrize("label", list(BellModeLabel))
def test_partition_rows_are_the_mode_coefficients(label):
    row = partitions.bell_partition_matrix()[list(BellModeLabel).index(label)]
    assert np.array_equal(row, modes.bell_coefficients(label).as_array())


def _on_constituents(label, cutoff):
    """A basis with ``cutoff`` on the label's two constituent modes and 0 elsewhere."""
    return BasisConfig(tuple(cutoff if c else 0 for c in partitions.BELL_MODES[label]))


@pytest.mark.parametrize("label", list(BellModeLabel))
def test_fock_and_coherent_g_is_the_mode_projector(label):
    # G_jk = <a+_j a_k> of any state on the mode v alone is (its photon number) v v^T.
    v = np.array(partitions.BELL_MODES[label])
    n = 3
    g, _ = fock.moments(
        StateEnsemble.pure(partitions.fock_on_bell_mode(n, label, _on_constituents(label, n)))
    )
    assert np.allclose(g, n * np.outer(v, v), atol=1e-12)
    u = 1.2 - 0.5j
    g, _ = fock.moments(
        StateEnsemble.pure(partitions.coherent_on_bell_mode(u, label, _on_constituents(label, 30)))
    )
    assert np.allclose(g, abs(u) ** 2 * np.outer(v, v), atol=1e-9)


def test_partition_matrix_orthogonal():
    mat = partitions.bell_partition_matrix()
    assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-15)
    assert abs(abs(np.linalg.det(mat)) - 1.0) < 1e-14


def test_psi_plus_row_action():
    mat = partitions.bell_partition_matrix()
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert mat[0] @ vec == pytest.approx(1.0)


class TestFockOnBellMode:
    def test_single_photon(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = partitions.fock_on_bell_mode(1, BellModeLabel.PSI_PLUS, basis)
        assert s.amplitudes[1, 0, 0, 0] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[0, 0, 0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_zero_photons_is_vacuum(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = partitions.fock_on_bell_mode(0, BellModeLabel.PSI_PLUS, basis)
        assert np.allclose(s.amplitudes, fock.vacuum(basis).amplitudes)

    def test_two_photon_binomial(self):
        basis = BasisConfig((2, 1, 1, 2))
        s = partitions.fock_on_bell_mode(2, BellModeLabel.PSI_PLUS, basis)
        assert s.amplitudes[0, 0, 0, 2] == pytest.approx(0.5)
        assert s.amplitudes[1, 0, 0, 1] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[2, 0, 0, 0] == pytest.approx(0.5)

    def test_minus_sign_pattern(self):
        basis = BasisConfig((2, 1, 1, 2))
        s = partitions.fock_on_bell_mode(2, BellModeLabel.PSI_MINUS, basis)
        # sign (-1)^(N-n) with N-n photons on Vv
        assert s.amplitudes[0, 0, 0, 2] == pytest.approx(0.5)
        assert s.amplitudes[1, 0, 0, 1] == pytest.approx(-1 / math.sqrt(2))
        assert s.amplitudes[2, 0, 0, 0] == pytest.approx(0.5)

    def test_phi_modes_use_cross_pair(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = partitions.fock_on_bell_mode(1, BellModeLabel.PHI_MINUS, basis)
        assert s.amplitudes[0, 1, 0, 0] == pytest.approx(-1 / math.sqrt(2))
        assert s.amplitudes[0, 0, 1, 0] == pytest.approx(1 / math.sqrt(2))

    def test_normalized_with_binomial_marginal(self):
        basis = BasisConfig((6, 1, 1, 6))
        s = partitions.fock_on_bell_mode(6, BellModeLabel.PSI_PLUS, basis)
        assert s.norm() == pytest.approx(1.0)
        probs = np.abs(s.amplitudes[:, 0, 0, :]) ** 2
        occupancy = probs.sum(axis=1)
        expected = np.array([math.comb(6, n) / 2**6 for n in range(7)])
        assert np.allclose(occupancy, expected, atol=1e-12)

    def test_cutoff_too_small(self):
        with pytest.raises(SimulationError):
            partitions.fock_on_bell_mode(3, BellModeLabel.PSI_PLUS, BasisConfig((2, 1, 1, 2)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_partition_identity(n):
    basis = BasisConfig((5, 1, 1, 5))
    assert partitions.verify_partition_identity(n, basis) < 1e-12


class TestCoherentOnBellMode:
    def test_zero_is_vacuum(self):
        basis = BasisConfig((3, 1, 1, 3))
        s = partitions.coherent_on_bell_mode(0.0, BellModeLabel.PSI_PLUS, basis)
        assert np.allclose(s.amplitudes, fock.vacuum(basis).amplitudes)

    def test_per_mode_mean_photon_number(self):
        basis = BasisConfig((25, 1, 1, 25))
        s = partitions.coherent_on_bell_mode(2.0, BellModeLabel.PSI_PLUS, basis)
        e = StateEnsemble.pure(s)
        for m in (ModeIndex.HH, ModeIndex.VV):
            n = fock.expect_one_body(e, fock.number_operator(4, m))
            assert n == pytest.approx(2.0, abs=1e-9)

    def test_matches_joint_generator_displacement(self):
        # Factorized construction must equal the single exponential of the
        # collective-mode generator.
        basis = BasisConfig((25, 1, 1, 25))
        u = 2.0
        prod = partitions.coherent_on_bell_mode(u, BellModeLabel.PSI_PLUS, basis)
        joint = fock.displace_pair_generator(
            fock.vacuum(basis),
            ModeIndex.HH,
            ModeIndex.VV,
            u / math.sqrt(2),
            u / math.sqrt(2),
        )
        assert np.linalg.norm(prod.amplitudes - joint.amplitudes) < 1e-9

    def test_no_cross_correlation(self):
        basis = BasisConfig((20, 1, 1, 20))
        s = partitions.coherent_on_bell_mode(1.5, BellModeLabel.PSI_PLUS, basis)
        e = StateEnsemble.pure(s)
        n_hh = fock.expect_one_body(e, fock.number_operator(4, ModeIndex.HH))
        n_vv = fock.expect_one_body(e, fock.number_operator(4, ModeIndex.VV))
        # <n_Hh n_Vv> via two number operators applied in sequence
        tmp = fock.apply_one_body(s, fock.number_operator(4, ModeIndex.VV))
        tmp = fock.apply_one_body(tmp, fock.number_operator(4, ModeIndex.HH))
        corr = complex(np.vdot(s.amplitudes, tmp.amplitudes)).real
        assert corr - n_hh * n_vv == pytest.approx(0.0, abs=1e-9)


def test_commutators_preserved_under_partition_change():
    # Orthogonality of the partition matrix implies the Bell-mode ladder
    # operators keep bosonic commutators; check the action on a small state.
    basis = BasisConfig((3, 3, 3, 3))
    mat = partitions.bell_partition_matrix()
    rng = np.random.default_rng(5)
    amps = np.zeros(basis.dims, dtype=np.complex128)
    amps[:2, :2, :2, :2] = rng.normal(size=(2, 2, 2, 2))
    psi = fock.PureState(basis, amps / np.linalg.norm(amps))

    def bell_ladder(state, row, kind):
        acc = np.zeros(basis.dims, dtype=np.complex128)
        for j, c in enumerate(mat[row]):
            if c:
                acc += c * fock.apply_ladder(state, j, kind).amplitudes
        return fock.PureState(basis, acc)

    for row in range(4):
        aad = bell_ladder(bell_ladder(psi, row, "create"), row, "annihilate")
        ada = bell_ladder(bell_ladder(psi, row, "annihilate"), row, "create")
        assert np.allclose(aad.amplitudes - ada.amplitudes, psi.amplitudes, atol=1e-12)
