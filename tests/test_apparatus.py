import math

import numpy as np
import pytest

from spinorbit_bell import apparatus, fock, partitions, verify
from spinorbit_bell.apparatus import ChshSettings, Settings
from spinorbit_bell.errors import SimulationError
from spinorbit_bell.fock import BasisConfig, StateEnsemble

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


class TestReflection:
    def test_zero_angle(self):
        assert np.allclose(apparatus.reflection_matrix(0.0), SZ)

    def test_quarter_turn(self):
        assert np.allclose(apparatus.reflection_matrix(math.pi / 2), SX, atol=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 1.3, -2.7, 5.0])
    def test_involution(self, theta):
        t = apparatus.reflection_matrix(theta)
        assert np.allclose(t @ t, np.eye(2), atol=1e-15)


class TestSettingUnitary:
    def test_zero_settings(self):
        u = apparatus.setting_unitary(Settings(0.0, 0.0))
        assert np.allclose(u, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_polarization_flip(self):
        u = apparatus.setting_unitary(Settings(math.pi / 2, 0.0))
        assert np.allclose(u, np.kron(SX, SZ), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        u = apparatus.setting_unitary(Settings(rng.uniform(0, 7), rng.uniform(0, 7)))
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-14)

    def test_equals_kron_bit_for_bit(self):
        # Each entry is one product a_ik b_jl either way, so they must agree exactly.
        rng = np.random.default_rng(77)
        angles = list(rng.uniform(-10.0, 10.0, (200, 2)))
        angles += [(0.0, 0.0), (math.pi / 4, -math.pi / 8), (1e300, -1e-300), (-0.0, 3.0)]
        for alpha, beta in angles:
            t_alpha, t_beta = (apparatus.reflection_matrix(x) for x in (alpha, beta))
            expected = np.kron(t_alpha, t_beta)
            actual = apparatus.setting_unitary(Settings(alpha, beta))
            assert actual.shape == (4, 4)
            assert actual.tobytes() == expected.tobytes(), (alpha, beta)


class TestMOperator:
    def test_zero_settings_is_parity(self):
        op = apparatus.m_operator(Settings(0.0, 0.0))
        assert np.allclose(op.matrix, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_quarter_settings(self):
        op = apparatus.m_operator(Settings(math.pi / 4, math.pi / 4))
        assert np.allclose(op.matrix, np.kron(SX, SX), atol=1e-15)

    def test_factored_form(self):
        a, b = 0.37, 1.21
        op = apparatus.m_operator(Settings(a, b))
        factored = np.kron(
            math.cos(2 * a) * SZ + math.sin(2 * a) * SX,
            math.cos(2 * b) * SZ + math.sin(2 * b) * SX,
        )
        assert np.allclose(op.matrix, factored, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum(self, seed):
        rng = np.random.default_rng(seed + 100)
        op = apparatus.m_operator(Settings(rng.uniform(0, 7), rng.uniform(0, 7)))
        eig = np.sort(np.linalg.eigvalsh(op.matrix))
        assert np.allclose(eig, [-1, -1, 1, 1], atol=1e-12)

    def test_period_pi(self):
        s = Settings(0.61, 1.07)
        shifted = Settings(s.alpha + math.pi, s.beta)
        assert np.allclose(
            apparatus.m_operator(s).matrix, apparatus.m_operator(shifted).matrix, atol=1e-12
        )

    def test_commutes_with_itot(self):
        m = apparatus.m_operator(Settings(0.9, 0.2)).matrix
        i = fock.total_number_operator(4).matrix
        assert np.allclose(m @ i - i @ m, 0.0)


class TestItot:
    @pytest.mark.parametrize("n", [1, 3])
    def test_counts_photons_on_bell_fock(self, n):
        basis = BasisConfig((n, 1, 1, n))
        s = partitions.fock_on_bell_mode(n, partitions.BellModeLabel.PSI_PLUS, basis)
        val = fock.expect_one_body(StateEnsemble.pure(s), fock.total_number_operator(4))
        assert val == pytest.approx(float(n))


def test_chsh_settings_pair_order():
    cs = ChshSettings(0.1, 0.2, 0.3, 0.4)
    pairs = cs.pairs()
    assert pairs[0] == Settings(0.1, 0.3)
    assert pairs[1] == Settings(0.1, 0.4)
    assert pairs[2] == Settings(0.2, 0.3)
    assert pairs[3] == Settings(0.2, 0.4)


def test_eight_mode_vacuum_port_reduction():
    # Including the four port-2 vacuum modes changes nothing: their
    # annihilators kill the state in every normally ordered moment.
    rng = np.random.default_rng(42)
    assert verify.eight_mode_residual(rng) < 1e-12


def test_settings_must_be_finite():
    with pytest.raises(SimulationError):
        Settings(float("nan"), 0.0)


@pytest.mark.parametrize("field", ["alpha", "alpha_prime", "beta", "beta_prime"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chsh_settings_must_be_finite(field, value):
    angles = dict(alpha=0.1, alpha_prime=0.2, beta=0.3, beta_prime=0.4)
    angles[field] = value
    with pytest.raises(SimulationError):
        ChshSettings(**angles)


@pytest.mark.parametrize(
    "alpha,beta",
    [("a", 0.0), (0.0, "b"), (10**400, 0.0), (0.0, -(10**400)), (True, 0.0), (0.0, False), (1j, 0.0)],
    ids=["str", "str-beta", "huge-int", "huge-int-beta", "bool", "bool-beta", "complex"],
)
def test_settings_refuse_what_is_not_a_finite_real(alpha, beta):
    with pytest.raises(SimulationError, match="^settings must be finite real numbers$"):
        Settings(alpha, beta)


@pytest.mark.parametrize("field", ["alpha", "alpha_prime", "beta", "beta_prime"])
@pytest.mark.parametrize("value", ["a", 10**400, True, 1j], ids=["str", "huge-int", "bool", "complex"])
def test_chsh_settings_refuse_what_is_not_a_finite_real(field, value):
    angles = dict(alpha=0.1, alpha_prime=0.2, beta=0.3, beta_prime=0.4)
    angles[field] = value
    with pytest.raises(SimulationError, match=f"^{field}="):
        ChshSettings(**angles)
