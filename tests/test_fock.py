import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorbit_bell import fock
from spinorbit_bell.errors import SimulationError, TruncationError
from spinorbit_bell.fock import (
    BasisConfig,
    ModeIndex,
    OneBodyOperator,
    PureState,
    StateEnsemble,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def number_state(basis, occupations):
    amps = np.zeros(basis.dims, dtype=np.complex128)
    amps[tuple(occupations)] = 1.0
    return PureState(basis, amps)


def test_vacuum():
    basis = BasisConfig((1, 1, 1, 1))
    vac = fock.vacuum(basis)
    assert vac.amplitudes.size == 16
    assert vac.amplitudes[0, 0, 0, 0] == 1.0
    assert vac.norm() == 1.0
    for m in ModeIndex:
        n_op = fock.number_operator(4, m)
        assert fock.expect_one_body(StateEnsemble.pure(vac), n_op) == 0.0


def test_dimension_guard():
    with pytest.raises(SimulationError):
        BasisConfig((500, 500, 500, 500))


def test_annihilate_vacuum_is_zero():
    vac = fock.vacuum(BasisConfig((2, 2)))
    out = fock.apply_ladder(vac, 0, "annihilate")
    assert np.all(out.amplitudes == 0)


def test_create_twice():
    vac = fock.vacuum(BasisConfig((3, 1, 1, 1)))
    s = fock.apply_ladder(vac, ModeIndex.HH, "create")
    s = fock.apply_ladder(s, ModeIndex.HH, "create")
    assert s.amplitudes[2, 0, 0, 0] == pytest.approx(math.sqrt(2))


def test_create_at_cutoff_records_leakage():
    basis = BasisConfig((1,))
    top = number_state(basis, (1,))
    out = fock.apply_ladder(top, 0, "create")
    assert np.all(out.amplitudes == 0)
    assert out.leakage == pytest.approx(2.0)  # sqrt(2)^2


def test_ladder_vs_one_body_number():
    basis = BasisConfig((3, 3))
    rng = np.random.default_rng(7)
    amps = rng.normal(size=basis.dims) + 1j * rng.normal(size=basis.dims)
    state = PureState(basis, amps / np.linalg.norm(amps))
    lowered = fock.apply_ladder(state, 1, "annihilate")
    direct = float(np.vdot(lowered.amplitudes, lowered.amplitudes).real)
    via_op = fock.expect_one_body(
        StateEnsemble.pure(state), fock.number_operator(2, 1)
    )
    assert direct == pytest.approx(via_op, abs=1e-12)


class TestOneBody:
    def test_identity_counts_photons(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = number_state(basis, (1, 0, 0, 1))
        out = fock.apply_one_body(s, fock.total_number_operator(4))
        assert np.allclose(out.amplitudes, 2 * s.amplitudes)

    def test_parity_diag(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = number_state(basis, (1, 0, 0, 1))
        op = OneBodyOperator(np.diag([1.0, -1.0, -1.0, 1.0]))
        out = fock.apply_one_body(s, op)
        assert np.allclose(out.amplitudes, 2 * s.amplitudes)

    def test_sx_sx_transfers_photon(self):
        basis = BasisConfig((1, 1, 1, 1))
        s = number_state(basis, (1, 0, 0, 0))
        out = fock.apply_one_body(s, OneBodyOperator(np.kron(SX, SX)))
        assert out.amplitudes[0, 0, 0, 1] == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(SimulationError):
            OneBodyOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_second_moment_consistency(self):
        # ||B psi||^2 equals <psi|B(B psi)> for the projected operator.
        basis = BasisConfig((2, 2, 2, 2))
        rng = np.random.default_rng(3)
        amps = rng.normal(size=basis.dims) + 1j * rng.normal(size=basis.dims)
        psi = PureState(basis, amps / np.linalg.norm(amps))
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = OneBodyOperator((mat + mat.conj().T) / 2)
        bpsi = fock.apply_one_body(psi, op)
        bbpsi = fock.apply_one_body(bpsi, op)
        norm_sq = float(np.vdot(bpsi.amplitudes, bpsi.amplitudes).real)
        direct = complex(np.vdot(psi.amplitudes, bbpsi.amplitudes))
        assert norm_sq == pytest.approx(direct.real, abs=1e-12)
        assert abs(direct.imag) < 1e-12

    def test_commutator_on_interior_states(self):
        # (a a+ - a+ a) |psi> = |psi> away from the cutoff boundary.
        basis = BasisConfig((4, 4))
        rng = np.random.default_rng(11)
        amps = np.zeros(basis.dims, dtype=np.complex128)
        amps[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        psi = PureState(basis, amps / np.linalg.norm(amps))
        for mode in (0, 1):
            up_down = fock.apply_ladder(fock.apply_ladder(psi, mode, "create"), mode, "annihilate")
            down_up = fock.apply_ladder(fock.apply_ladder(psi, mode, "annihilate"), mode, "create")
            comm = up_down.amplitudes - down_up.amplitudes
            assert np.allclose(comm, psi.amplitudes, atol=1e-12)


class TestExpectation:
    def test_total_number_of_mixture(self):
        basis = BasisConfig((2, 1, 1, 2))
        e = StateEnsemble(
            (
                (0.5, number_state(basis, (1, 0, 0, 0))),
                (0.5, number_state(basis, (0, 0, 0, 2))),
            )
        )
        assert fock.expect_one_body(e, fock.total_number_operator(4)) == pytest.approx(1.5)

    def test_parity_average(self):
        basis = BasisConfig((1, 1, 1, 1))
        op = OneBodyOperator(np.diag([1.0, -1.0, -1.0, 1.0]))
        single = StateEnsemble.pure(number_state(basis, (1, 0, 0, 0)))
        assert fock.expect_one_body(single, op) == pytest.approx(1.0)
        mixed = StateEnsemble(
            (
                (0.5, number_state(basis, (1, 0, 0, 0))),
                (0.5, number_state(basis, (0, 1, 0, 0))),
            )
        )
        assert fock.expect_one_body(mixed, op) == pytest.approx(0.0)

    def test_variance_of_number_eigenstate_is_zero(self):
        basis = BasisConfig((2, 1, 1, 2))
        e = StateEnsemble.pure(number_state(basis, (2, 0, 0, 1)))
        assert fock.variance_one_body(e, fock.total_number_operator(4)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_mixture_level_variance(self):
        # Equal mixture of +1/-1 eigenstates has variance 1 even though each
        # member alone has variance 0.
        basis = BasisConfig((1, 1, 1, 1))
        op = OneBodyOperator(np.diag([1.0, -1.0, -1.0, 1.0]))
        e = StateEnsemble(
            (
                (0.5, number_state(basis, (1, 0, 0, 0))),
                (0.5, number_state(basis, (0, 1, 0, 0))),
            )
        )
        assert fock.variance_one_body(e, op) == pytest.approx(1.0)

    def test_ensemble_validation(self):
        basis = BasisConfig((1,))
        good = number_state(basis, (1,))
        with pytest.raises(SimulationError):
            StateEnsemble(((0.5, good),))
        with pytest.raises(SimulationError):
            StateEnsemble(((1.0, PureState(basis, [0.5, 0.0])),))


class TestMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.integers(2, 3)] * 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_fock_route(self, cutoffs, n_members, seed):
        # With the top bin of every mode empty, B never raises a photon past a
        # cutoff, so <psi|B psi> and ||B psi||^2 are the exact moments.
        rng = np.random.default_rng(seed)
        basis = BasisConfig(cutoffs)
        interior = tuple(slice(0, c) for c in cutoffs)
        members = []
        for w in rng.dirichlet(np.ones(n_members)):
            amps = np.zeros(basis.dims, dtype=np.complex128)
            shape = amps[interior].shape
            amps[interior] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            members.append((w, PureState(basis, amps / np.linalg.norm(amps))))
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = OneBodyOperator((mat + mat.conj().T) / 2)
        ensemble = StateEnsemble(tuple(members))

        mean = 0.0
        second = 0.0
        for w, s in ensemble.members:
            bs = fock.apply_one_body(s, op)
            assert bs.leakage == 0.0
            mean += w * s.overlap(bs).real
            second += w * bs.norm() ** 2
        got_mean, got_var = fock.mean_and_variance(ensemble, op)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert got_var + got_mean**2 == pytest.approx(second, rel=1e-12, abs=1e-12)

    def test_cutoff_zero_modes_are_skipped(self):
        s = number_state(BasisConfig((2, 0, 0, 2)), (1, 0, 0, 2))
        g, gamma = fock.moments(StateEnsemble.pure(s))
        assert np.allclose(g, np.diag([1.0, 0.0, 0.0, 2.0]))
        assert gamma[3, 3, 3, 3] == pytest.approx(2.0)  # n(n-1) for n = 2
        assert gamma[0, 3, 0, 3] == pytest.approx(2.0)
        assert np.count_nonzero(gamma) == 5

    def test_cached_on_the_ensemble(self):
        e = StateEnsemble.pure(number_state(BasisConfig((1, 1)), (1, 0)))
        assert e.moments is e.moments
        with pytest.raises(ValueError):
            e.moments[0][0, 0] = 5.0


class TestDisplace:
    def test_zero_is_identity(self):
        vac = fock.vacuum(BasisConfig((5,)))
        out = fock.displace(vac, 0, 0.0)
        assert np.allclose(out.amplitudes, vac.amplitudes)

    def test_coherent_expansion(self):
        # Frozen oracle: coherent amplitudes u^n e^{-|u|^2/2} / sqrt(n!).
        u = 0.8 - 0.3j
        vac = fock.vacuum(BasisConfig((25,)))
        out = fock.displace(vac, 0, u)
        expected = np.array(
            [
                u**n * math.exp(-abs(u) ** 2 / 2) / math.sqrt(math.factorial(n))
                for n in range(26)
            ]
        )
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_vacuum_amplitude(self):
        out = fock.displace(fock.vacuum(BasisConfig((20,))), 0, 1.0)
        assert abs(out.amplitudes[0]) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_mean_photon_number(self):
        out = fock.displace(fock.vacuum(BasisConfig((20,))), 0, 1.0)
        n = fock.expect_one_body(StateEnsemble.pure(out), fock.number_operator(1, 0))
        assert n == pytest.approx(1.0, abs=1e-9)

    def test_poisson_variance(self):
        out = fock.displace(fock.vacuum(BasisConfig((25,))), 0, 1.0)
        var = fock.variance_one_body(StateEnsemble.pure(out), fock.number_operator(1, 0))
        assert var == pytest.approx(1.0, abs=1e-9)

    def test_norm_preserved(self):
        out = fock.displace(fock.vacuum(BasisConfig((30,))), 0, 1.5 + 0.5j)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert out.leakage == pytest.approx(1.0 - out.norm() ** 2, abs=1e-12)

    def test_cutoff_hint(self):
        with pytest.raises(TruncationError) as err:
            fock.displace(fock.vacuum(BasisConfig((2,))), 0, 2.0)
        assert err.value.required_cutoff > 2


class TestTwoModeSqueeze:
    def test_zero_is_identity(self):
        vac = fock.vacuum(BasisConfig((3, 3)))
        out = fock.two_mode_squeeze(vac, 0, 1, 0.0)
        assert np.allclose(out.amplitudes, vac.amplitudes)

    def test_schmidt_expansion(self):
        # Frozen oracle: |c_n| = tanh^n(r)/cosh(r) with r = |zeta|/2.
        zeta = 2.0
        r = 1.0
        vac = fock.vacuum(BasisConfig((45, 45)))
        out = fock.two_mode_squeeze(vac, 0, 1, zeta)
        diag = np.abs(np.diagonal(out.amplitudes))
        expected = np.array([math.tanh(r) ** n / math.cosh(r) for n in range(46)])
        # Truncation distorts only the last few coefficients, whose weight is
        # below the tail tolerance; the interior matches to round-off.
        assert np.allclose(diag[:20], expected[:20], atol=1e-10)
        assert np.allclose(diag, expected, atol=1e-5)
        assert abs(out.amplitudes[0, 0]) == pytest.approx(1 / math.cosh(1.0), abs=1e-10)

    def test_mean_photon_numbers(self):
        vac = fock.vacuum(BasisConfig((45, 45)))
        out = fock.two_mode_squeeze(vac, 0, 1, 2.0)
        e = StateEnsemble.pure(out)
        per_mode = fock.expect_one_body(e, fock.number_operator(2, 0))
        assert per_mode == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)
        total = fock.expect_one_body(e, fock.total_number_operator(2))
        assert total == pytest.approx(2 * math.sinh(1.0) ** 2, abs=1e-9)

    def test_pair_correlation_support(self):
        out = fock.two_mode_squeeze(fock.vacuum(BasisConfig((30, 30))), 0, 1, 1.0)
        off = out.amplitudes - np.diag(np.diagonal(out.amplitudes))
        assert np.max(np.abs(off)) < 1e-14

    def test_tail_violation(self):
        with pytest.raises(TruncationError):
            fock.two_mode_squeeze(fock.vacuum(BasisConfig((3, 3))), 0, 1, 2.0)

    def test_same_mode_rejected(self):
        with pytest.raises(SimulationError):
            fock.two_mode_squeeze(fock.vacuum(BasisConfig((3, 3))), 1, 1, 0.5)


def test_json_dump_round_trip():
    import json

    basis = BasisConfig((1, 1))
    s = number_state(basis, (1, 0))
    doc = json.loads(s.to_json())
    assert doc["cutoffs"] == [1, 1]
    # C-order flattening: first mode slowest.
    assert doc["amplitudes"][2] == [1.0, 0.0]


def test_states_are_immutable():
    s = fock.vacuum(BasisConfig((2, 2)))
    with pytest.raises(ValueError):
        s.amplitudes[0, 0] = 5.0
