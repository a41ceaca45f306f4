import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorbit_bell import apparatus, fock, states
from spinorbit_bell.apparatus import Settings
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


def test_create_at_cutoff_leaves_the_space():
    basis = BasisConfig((1,))
    top = number_state(basis, (1,))
    out = fock.apply_ladder(top, 0, "create")
    assert np.all(out.amplitudes == 0)


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


@pytest.mark.parametrize(
    "shape", [(4,), (4, 3), (3, 4), (2, 4, 3), (4, 4, 2), (3, 2, 4), (2, 3, 2, 4)]
)
def test_ladder_tables_against_dense_matrices(shape):
    # The shapes share cutoff 3 at different axes and ranks, so a table
    # cached by cutoff or axis alone would act on the wrong axis or broadcast
    # against the wrong rank.
    rng = np.random.default_rng(7)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for axis, d in enumerate(shape):
        down = np.diag(np.sqrt(np.arange(1, d)), k=1)
        for action, mat in ((fock._lower, down), (fock._raise, down.T)):
            dense = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
            np.testing.assert_allclose(action(arr, axis), dense, rtol=0, atol=1e-14)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.inf)])
    @pytest.mark.parametrize("where", ["diagonal", "symmetric pair"])
    def test_rejects_non_finite(self, value, where):
        # Hermitian in form, so only finiteness can reject it; a NaN compares
        # False both ways, so a test written as `> tol` would let it through.
        mat = np.zeros((2, 2), dtype=np.complex128)
        if where == "diagonal":
            mat[1, 1] = value
        else:
            mat[0, 1], mat[1, 0] = value, np.conj(value)
        with pytest.raises(SimulationError, match="finite and Hermitian"):
            OneBodyOperator(mat)

    def test_matches_the_pairwise_loop(self):
        # The double loop that apply_one_body replaced: B_jk a+_j a_k one pair
        # at a time, the diagonal as n_j.
        def pairwise(arr, mat):
            out = np.zeros_like(arr)
            for j in range(arr.ndim):
                for k in range(arr.ndim):
                    if mat[j, k] == 0:
                        continue
                    if j == k:
                        n = np.arange(arr.shape[j]).reshape((-1,) + (1,) * (arr.ndim - j - 1))
                        out += mat[j, j] * (n * arr)
                    else:
                        out += mat[j, k] * fock._raise(fock._lower(arr, k), j)
            return out

        basis = BasisConfig((3, 3, 3, 3))
        rng = np.random.default_rng(2024)
        amps = rng.normal(size=basis.dims) + 1j * rng.normal(size=basis.dims)
        psi = PureState(basis, amps / np.linalg.norm(amps))
        mats = [apparatus.m_operator(Settings(*rng.uniform(0, math.pi, 2))).matrix]
        mats.append(np.diag([1.0, -1.0, -1.0, 1.0]))
        for _ in range(4):
            mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mats.append(mat + mat.conj().T)
        for mat in mats:
            out = fock.apply_one_body(psi, OneBodyOperator(mat)).amplitudes
            assert np.max(np.abs(out - pairwise(psi.amplitudes, mat))) <= 1e-13

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

    def test_overflow_to_nan_is_an_error(self):
        # B of order 1e200 overflows the variance to inf - inf = NaN, which
        # the negative-variance test must not let through.
        moments = states.build(states.StateSpec(states.Family.ENTANGLED_FOCK, n=1))
        op = OneBodyOperator(1e200 * apparatus.m_operator(Settings(0.3, 0.7)).matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="negative variance nan"):
                fock.mean_and_variance(moments, op)

    @pytest.mark.parametrize("entry", ["g", "k"])
    def test_nan_moments_are_an_error(self, entry):
        # Moments refuse non-finite tensors, so the NaN is put in afterwards:
        # this pins the checks themselves.
        moments = states.build(states.StateSpec(states.Family.ENTANGLED_FOCK, n=1))
        object.__setattr__(moments, entry, np.full_like(getattr(moments, entry), math.nan))
        op = apparatus.m_operator(Settings(0.3, 0.7))
        message = "imaginary residue nan" if entry == "g" else "negative variance nan"
        with pytest.raises(SimulationError, match=message):
            fock.mean_and_variance(moments, op)

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
            for axis, cutoff in enumerate(cutoffs):
                assert not np.take(s.amplitudes, cutoff, axis=axis).any()
            bs = fock.apply_one_body(s, op)
            mean += w * s.overlap(bs).real
            second += w * bs.norm() ** 2
        got_mean, got_var = fock.mean_and_variance(ensemble, op)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert got_var + got_mean**2 == pytest.approx(second, rel=1e-12, abs=1e-12)

    @staticmethod
    def _member_loop(ensemble):
        """G and Gamma member by member, from single lowerings and vdot."""
        n = ensemble.basis.n_modes
        g = np.zeros((n, n), dtype=np.complex128)
        gamma = np.zeros((n,) * 4, dtype=np.complex128)
        for w, s in ensemble.members:
            once = [fock.apply_ladder(s, j, "annihilate") for j in range(n)]
            twice = [[fock.apply_ladder(o, j, "annihilate") for j in range(n)] for o in once]
            for j, k in np.ndindex(n, n):
                g[j, k] += w * once[j].overlap(once[k])
            for i, j, k, l in np.ndindex(n, n, n, n):
                gamma[i, j, k, l] += w * twice[i][j].overlap(twice[k][l])
        return g, gamma

    @staticmethod
    def _random_ensemble():
        rng = np.random.default_rng(41)
        basis = BasisConfig((3, 2, 2, 3))
        members = []
        for w in rng.dirichlet(np.ones(3)):
            amps = rng.normal(size=basis.dims) + 1j * rng.normal(size=basis.dims)
            members.append((w, PureState(basis, amps / np.linalg.norm(amps))))
        return StateEnsemble(tuple(members))

    BUILDS = pytest.mark.parametrize(
        "build",
        [
            lambda: states.werner_fock(3, 0.4),
            lambda: states.mixed_coherent(1.2 - 0.4j, 0.3, 0.7, phase_points=8),
            lambda: TestMoments._random_ensemble(),
        ],
        ids=["werner N=3 p=0.4", "mixed_coherent K=8", "random 3 members"],
    )

    @BUILDS
    def test_batched_matches_member_loop(self, build):
        ensemble = build()
        g, gamma = fock.moments(ensemble)
        ref_g, ref_gamma = self._member_loop(ensemble)
        bound = 1e-13 * max(1.0, float(ref_g.trace().real))
        assert np.max(np.abs(g - ref_g)) < bound
        assert np.max(np.abs(gamma - ref_gamma)) < bound

    @BUILDS
    def test_member_moments(self, build):
        # Each member's moments are its own, and their weighted sum is the ensemble's.
        ensemble = build()
        total = ensemble.moments
        bound = 1e-13 * max(1.0, total.itot)

        def gamma(m):
            return m.k + m.g[:, None, :, None] * m.g[None, :, None, :]

        assert len(ensemble.member_moments) == len(ensemble.members)
        sum_g, sum_gamma = 0.0, 0.0
        for (w, s), m in zip(ensemble.members, ensemble.member_moments):
            alone = StateEnsemble.pure(s).moments
            assert np.max(np.abs(m.g - alone.g)) < bound
            assert np.max(np.abs(m.k - alone.k)) < bound
            sum_g, sum_gamma = sum_g + w * m.g, sum_gamma + w * gamma(m)
        assert np.max(np.abs(sum_g - total.g)) < bound
        assert np.max(np.abs(sum_gamma - gamma(total))) < bound

    def test_all_cutoffs_zero(self):
        g, gamma = fock.moments(StateEnsemble.pure(fock.vacuum(BasisConfig((0, 0)))))
        assert not g.any() and g.shape == (2, 2)
        assert not gamma.any() and gamma.shape == (2,) * 4

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
            e.moments.g[0, 0] = 5.0


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

    def test_cutoff_hint(self):
        with pytest.raises(TruncationError) as err:
            fock.displace(fock.vacuum(BasisConfig((2,))), 0, 2.0)
        assert err.value.required_cutoff > 2


class TestPoissonTailCutoff:
    @pytest.mark.parametrize(
        "mean,eps,expected",
        # Reference cutoffs from the regularized incomplete gamma function
        # P(X > n) = P(n + 1, mean) evaluated at 50 digits.
        [
            (2.25, 1e-10, 17),
            (3.4731626506024096, 1e-14, 26),
            (100.0, 1e-14, 186),
            (800.0, 1e-10, 986),
            (10_000.0, 1e-10, 10_643),
            (0.3, 1e-20, 14),
            (50.0, 1e-40, 170),
        ],
    )
    def test_matches_exact_tail(self, mean, eps, expected):
        assert fock.poisson_tail_cutoff(mean, eps) == expected

    def test_zero_mean(self):
        assert fock.poisson_tail_cutoff(0.0, 1e-10) == 0

    def test_divergent_mean(self):
        with pytest.raises(TruncationError):
            fock.poisson_tail_cutoff(1e9, 1e-10)

    @pytest.mark.parametrize("mean", [1e300, math.inf, math.nan])
    def test_mean_beyond_search_limit(self, mean):
        with pytest.raises(TruncationError, match="tail search limit"):
            fock.poisson_tail_cutoff(mean, 1e-10)

    @staticmethod
    def _scalar_search(mean_n, eps):
        """The loop that poisson_tail_cutoff replaced, one term per step."""
        floor = math.log(eps) - 40.0
        top = max(math.ceil(mean_n), 1)
        while top * math.log(mean_n) - mean_n - math.lgamma(top + 1.0) > floor:
            top += 1
            if top > fock._TAIL_SEARCH_LIMIT:
                raise TruncationError("Poisson tail does not converge")
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(top + 1)])
        log_p = np.arange(top + 1) * math.log(mean_n) - mean_n - log_fact
        at_least = np.cumsum(np.exp(log_p)[::-1])[::-1]
        return int(np.argmax(at_least[1:] <= eps))

    def test_matches_the_scalar_search(self):
        rng = np.random.default_rng(1414)
        means = 10.0 ** rng.uniform(-6.0, 4.0, 300)
        epss = 10.0 ** rng.uniform(-15.0, -3.0, 300)
        cases = list(zip(means, epss)) + [(1e-6, 1e-3), (1e4, 1e-15), (1.0, 1e-15), (0.5, 1e-3)]
        for mean, eps in cases:
            assert fock.poisson_tail_cutoff(mean, eps) == self._scalar_search(mean, eps), (
                mean,
                eps,
            )

    @pytest.mark.parametrize("mean", [fock._TAIL_SEARCH_LIMIT, fock._TAIL_SEARCH_LIMIT - 1.5])
    def test_raises_past_the_search_limit(self, mean):
        # The mean is within the limit, but the cutoff the tail needs is not.
        for search in (fock.poisson_tail_cutoff, self._scalar_search):
            with pytest.raises(TruncationError, match="does not converge"):
                search(mean, 1e-10)

    @pytest.mark.parametrize("eps", [0.0, -1e-10, math.nan, -math.inf])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(TruncationError, match="cannot fall"):
            fock.poisson_tail_cutoff(2.0, eps)

    def test_overflowing_coherent_mean(self):
        assert fock.coherent_mean(1e160) == math.inf
        assert fock.coherent_mean(3.0 - 4.0j) == pytest.approx(25.0)
        with pytest.raises(TruncationError):
            fock.check_displacement_room(BasisConfig((5,)), 0, 1e160j)


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


class TestPairArguments:
    """Repeated modes and non-finite strengths are rejected by name."""

    STATE = fock.vacuum(BasisConfig((3, 3)))

    def test_joint_displacement_same_mode_rejected(self):
        with pytest.raises(SimulationError, match="needs two distinct modes"):
            fock.displace_pair_generator(self.STATE, 1, 1, 0.3, 0.2)

    @pytest.mark.parametrize("zeta", [math.nan, complex(0.1, math.nan), math.inf])
    def test_squeeze_non_finite(self, zeta):
        with pytest.raises(SimulationError, match="not finite"):
            fock.two_mode_squeeze(self.STATE, 0, 1, zeta)

    @pytest.mark.parametrize(
        "coeffs",
        [(math.nan, 0.2), (0.3, complex(math.nan, 0.0)), (math.inf, 0.2), (0.3, -1j * math.inf)],
    )
    def test_joint_displacement_non_finite(self, coeffs):
        with pytest.raises(SimulationError, match="not finite"):
            fock.displace_pair_generator(self.STATE, 0, 1, *coeffs)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_tail_cutoff_non_finite(self, r):
        with pytest.raises(TruncationError, match=f"r={r}"):
            fock.tmsv_tail_cutoff(r, 1e-10)


def random_interior_state(rng, basis, top=3):
    """Normalized random state whose occupations of ``top`` and more are empty."""
    amps = np.zeros(basis.dims, dtype=np.complex128)
    inner = tuple(slice(0, min(top, d)) for d in basis.dims)
    shape = amps[inner].shape
    amps[inner] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return PureState(basis, amps / np.linalg.norm(amps))


def squeeze_norm(basis, mode_a, mode_b, zeta):
    """The bound |zeta| sqrt(c_A c_B) on the norm of the squeezing generator."""
    return abs(zeta) * math.sqrt(basis.cutoffs[mode_a] * basis.cutoffs[mode_b])


def pair_norm(basis, mode_a, mode_b, c_a, c_b):
    """The bound 2 (|c_A| sqrt(c_A) + |c_B| sqrt(c_B)) on the joint displacement's generator."""
    cut = basis.cutoffs
    return 2.0 * (abs(c_a) * math.sqrt(cut[mode_a]) + abs(c_b) * math.sqrt(cut[mode_b]))


#: Room for squeezing at |zeta| = 1.4, where the generator's norm bound exceeds 40.
WIDE = BasisConfig((30, 1, 30))


class TestExponentialRoundTrips:
    """exp(A) then exp(-A) is the identity on the truncated space."""

    BASIS = BasisConfig((14, 2, 13))

    @pytest.mark.parametrize("u", [0.7, -0.4 + 0.5j, 1.1j])
    def test_displace(self, u):
        rng = np.random.default_rng(11)
        for mode in (0, 2):
            state = random_interior_state(rng, self.BASIS)
            out = fock.displace(state, mode, u)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)
            back = fock.displace(out, mode, -u)
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    @pytest.mark.parametrize("zeta", [0.8, 0.6j, -0.5 + 0.3j])
    def test_two_mode_squeeze(self, zeta):
        rng = np.random.default_rng(12)
        state = random_interior_state(rng, self.BASIS)
        out = fock.two_mode_squeeze(state, 0, 2, zeta)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        back = fock.two_mode_squeeze(out, 0, 2, -zeta)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_displace_pair_generator(self):
        rng = np.random.default_rng(13)
        state = random_interior_state(rng, self.BASIS)
        out = fock.displace_pair_generator(state, 2, 0, 0.6, -0.3j)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        back = fock.displace_pair_generator(out, 2, 0, -0.6, 0.3j)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    @pytest.mark.parametrize("coeff", [1e-300, 1e-17, 1e-15j])
    def test_displace_pair_generator_near_zero(self, coeff):
        state = random_interior_state(np.random.default_rng(16), self.BASIS)
        out = fock.displace_pair_generator(state, 0, 2, coeff, 0.0)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-14

    # Generators whose norm bound is below 1 or above 40, on states that fill every chain.
    @pytest.mark.parametrize(
        "basis,zeta", [(BASIS, 0.05 - 0.03j), (WIDE, 1.4 * cmath.exp(0.3j))], ids=["<1", ">=40"]
    )
    def test_two_mode_squeeze_filled(self, basis, zeta):
        assert not 1.0 <= squeeze_norm(basis, 0, 2, zeta) < 40.0
        state = random_interior_state(np.random.default_rng(14), basis, top=basis.dims[0])
        out = fock.two_mode_squeeze(state, 0, 2, zeta)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        back = fock.two_mode_squeeze(out, 0, 2, -zeta)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    @pytest.mark.parametrize(
        "basis,coeffs", [(BASIS, (0.05, -0.03j)), (WIDE, (2 + 1j, -1.5 + 1j))], ids=["<1", ">=40"]
    )
    def test_displace_pair_generator_filled(self, basis, coeffs):
        assert not 1.0 <= pair_norm(basis, 2, 0, *coeffs) < 40.0
        state = random_interior_state(np.random.default_rng(15), basis, top=basis.dims[0])
        out = fock.displace_pair_generator(state, 2, 0, *coeffs)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        back = fock.displace_pair_generator(out, 2, 0, *(-c for c in coeffs))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def _ladder(d):
    return np.diag(np.sqrt(np.arange(1, d)), k=1)


def _on_pair(state, mode_a, mode_b, apply):
    """Amplitudes after ``apply`` acts on the (mode_a, mode_b) pair's rows."""
    da, db = state.basis.dims[mode_a], state.basis.dims[mode_b]
    moved = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    res = apply(moved.reshape(da * db, -1)).reshape(moved.shape)
    return np.moveaxis(res, (0, 1), (mode_a, mode_b))


class TestAgainstScipy:
    """The numpy exponentials against scipy's expm and expm_multiply."""

    BASIS = BasisConfig((12, 1, 11))
    #: Four modes with non-trivial axes on both sides of the pair (1, 2).
    FOUR = BasisConfig((2, 8, 8, 2))
    #: (basis, mode_a, mode_b): the pair in order, reversed, and inside four modes.
    PAIRS = [(BASIS, 0, 2), (BASIS, 2, 0), (FOUR, 1, 2), (FOUR, 2, 1)]

    def test_displace(self):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(21)
        state = random_interior_state(rng, self.BASIS, top=12)
        a = _ladder(self.BASIS.dims[2])
        # All four quadrants, both imaginary half-axes and zero.
        for u in (0.5, 0.3 - 0.6j, 0.4 + 0.5j, -0.6 + 0.2j, -0.3 - 0.4j, 0.7j, -0.5j, 0.0):
            unitary = expm(u * a.T - np.conj(u) * a)
            ref = np.moveaxis(np.tensordot(unitary, state.amplitudes, axes=(1, 2)), 0, 2)
            out = fock.displace(state, 2, u)
            assert np.max(np.abs(out.amplitudes - ref)) < 1e-12, u

    @pytest.mark.parametrize("zeta", [0.5, 0.4 - 0.3j])
    def test_two_mode_squeeze(self, zeta):
        sp = pytest.importorskip("scipy.sparse")
        expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
        rng = np.random.default_rng(22)
        for basis, mode_a, mode_b in self.PAIRS:
            state = random_interior_state(rng, basis, top=12)
            pair_down = np.kron(_ladder(basis.dims[mode_a]), _ladder(basis.dims[mode_b]))
            gen = (np.conj(zeta) / 2.0) * pair_down - (zeta / 2.0) * pair_down.conj().T
            sparse = sp.csc_matrix(gen)
            ref = _on_pair(state, mode_a, mode_b, lambda rows: expm_multiply(sparse, rows))
            out = fock.two_mode_squeeze(state, mode_a, mode_b, zeta)
            assert np.max(np.abs(out.amplitudes - ref)) < 1e-12, (mode_a, mode_b)

    @pytest.mark.parametrize(
        "basis,zeta", [(BASIS, 0.05 - 0.03j), (WIDE, 1.4 * cmath.exp(0.3j))], ids=["<1", ">=40"]
    )
    def test_two_mode_squeeze_norm_extremes(self, basis, zeta):
        sp = pytest.importorskip("scipy.sparse")
        expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
        assert not 1.0 <= squeeze_norm(basis, 0, 2, zeta) < 40.0
        state = random_interior_state(np.random.default_rng(24), basis, top=basis.dims[0])
        pair_down = sp.kron(_ladder(basis.dims[0]), _ladder(basis.dims[2]), format="csc")
        gen = (np.conj(zeta) / 2.0) * pair_down - (zeta / 2.0) * pair_down.conj().T
        ref = _on_pair(state, 0, 2, lambda rows: expm_multiply(gen, rows))
        out = fock.two_mode_squeeze(state, 0, 2, zeta)
        assert np.max(np.abs(out.amplitudes - ref)) < 1e-12

    @pytest.mark.parametrize(
        "basis,coeffs", [(BASIS, (0.05, -0.03j)), (WIDE, (2 + 1j, -1.5 + 1j))], ids=["<1", ">=40"]
    )
    def test_displace_pair_generator_norm_extremes(self, basis, coeffs):
        sp = pytest.importorskip("scipy.sparse")
        expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
        assert not 1.0 <= pair_norm(basis, 0, 2, *coeffs) < 40.0
        state = random_interior_state(np.random.default_rng(25), basis, top=basis.dims[0])
        (c_a, c_b), da, db = coeffs, basis.dims[0], basis.dims[2]
        a = sp.kron(_ladder(da), np.eye(db), format="csc")
        b = sp.kron(np.eye(da), _ladder(db), format="csc")
        gen = c_a * a.T + c_b * b.T - np.conj(c_a) * a - np.conj(c_b) * b
        ref = _on_pair(state, 0, 2, lambda rows: expm_multiply(gen, rows))
        out = fock.displace_pair_generator(state, 0, 2, c_a, c_b)
        assert np.max(np.abs(out.amplitudes - ref)) < 1e-12

    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 24.0, 44.0, 700.0])
    def test_bessel_series(self, x):
        # Far past x the recurrence would overflow without its rescaling.
        jv = pytest.importorskip("scipy.special").jv
        values = fock._bessel_j(x)
        assert values.size > x
        assert np.max(np.abs(values - jv(np.arange(values.size), x))) < 1e-13
        assert abs(jv(values.size, x)) < fock._ROUND_OFF

    def test_displace_pair_generator(self):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(23)
        c_a, c_b = 0.4 + 0.2j, -0.3 - 0.5j
        for basis, mode_a, mode_b in self.PAIRS:
            state = random_interior_state(rng, basis, top=12)
            da, db = basis.dims[mode_a], basis.dims[mode_b]
            a = np.kron(_ladder(da), np.eye(db))
            b = np.kron(np.eye(da), _ladder(db))
            gen = c_a * a.T + c_b * b.T - np.conj(c_a) * a - np.conj(c_b) * b
            ref = _on_pair(state, mode_a, mode_b, lambda rows: expm(gen) @ rows)
            out = fock.displace_pair_generator(state, mode_a, mode_b, c_a, c_b)
            assert np.max(np.abs(out.amplitudes - ref)) < 1e-12, (mode_a, mode_b)


def test_states_are_immutable():
    s = fock.vacuum(BasisConfig((2, 2)))
    with pytest.raises(ValueError):
        s.amplitudes[0, 0] = 5.0
