import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorbit_bell import analysis, fock, partitions, states
from spinorbit_bell.apparatus import DEFAULT_CHSH_SETTINGS, Settings
from spinorbit_bell.errors import SimulationError, TruncationError
from spinorbit_bell.fock import BasisConfig, ModeIndex
from spinorbit_bell.partitions import BellModeLabel
from spinorbit_bell.states import Family, StateSpec


class TestEntangledFock:
    def test_single_photon(self):
        e = states.entangled_fock(1)
        assert len(e.members) == 1
        s = e.members[0][1]
        hh = [0] * 4
        hh[ModeIndex.HH] = 1
        vv = [0] * 4
        vv[ModeIndex.VV] = 1
        assert s.amplitudes[tuple(hh)] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[tuple(vv)] == pytest.approx(1 / math.sqrt(2))

    def test_zero_photons(self):
        e = states.entangled_fock(0)
        assert e.members[0][1].amplitudes.reshape(-1)[0] == pytest.approx(1.0)

    def test_three_photon_support(self):
        e = states.entangled_fock(3)
        s = e.members[0][1]
        nonzero = np.count_nonzero(np.abs(s.amplitudes) > 1e-15)
        assert nonzero == 4
        assert s.norm() == pytest.approx(1.0)


class TestMixedFock:
    def test_single_photon_mixture(self):
        e = states.mixed_fock(1)
        weights = sorted(w for w, _ in e.members)
        assert weights == pytest.approx([0.5, 0.5])

    def test_binomial_weights_n2(self):
        e = states.mixed_fock(2)
        assert sorted(w for w, _ in e.members) == pytest.approx([0.25, 0.25, 0.5])

    def test_weights_sum_n10(self):
        assert sum(states.binomial_weights(10)) == pytest.approx(1.0, abs=1e-15)

    def test_members_are_number_states(self):
        for w, s in states.mixed_fock(3).members:
            assert np.count_nonzero(np.abs(s.amplitudes) > 0) == 1


class TestWernerFock:
    def test_endpoints(self):
        pure = states.werner_fock(2, 1.0)
        assert len(pure.members) == 1
        mixed = states.werner_fock(2, 0.0)
        assert len(mixed.members) == 3

    def test_half_mixture_weights(self):
        e = states.werner_fock(1, 0.5)
        assert sorted(w for w, _ in e.members) == pytest.approx([0.25, 0.25, 0.5])

    def test_p_out_of_range(self):
        for p in (1.5, "0.5", True, 10**5000):
            with pytest.raises(SimulationError, match="^p="):
                states.werner_fock(1, p)

    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_mean_affine_in_p(self, p):
        s = Settings(0.4, 1.1)
        m_pure = analysis.noise_point(states.entangled_fock(2), s).mean_m
        m_mix = analysis.noise_point(states.mixed_fock(2), s).mean_m
        m_w = analysis.noise_point(states.werner_fock(2, p), s).mean_m
        assert m_w == pytest.approx(p * m_pure + (1 - p) * m_mix, abs=1e-12)


class TestPureCoherent:
    def test_zero_is_vacuum(self):
        e = states.pure_coherent(0.0)
        assert abs(e.members[0][1].amplitudes.reshape(-1)[0]) == pytest.approx(1.0)

    def test_total_intensity(self):
        e = states.pure_coherent(2.0)
        assert analysis.total_intensity(e) == pytest.approx(4.0, abs=1e-9)

    def test_total_number_is_poisson(self):
        u = 1.2
        e = states.pure_coherent(u)
        s = e.members[0][1]
        probs = np.abs(s.amplitudes) ** 2
        dims = s.basis.dims
        idx = np.indices(dims).sum(axis=0)
        lam = u**2
        for n in range(8):
            p_n = float(probs[idx == n].sum())
            expected = math.exp(-lam) * lam**n / math.factorial(n)
            assert p_n == pytest.approx(expected, abs=1e-9)

    def test_shot_noise_at_large_amplitude(self):
        # A build by truncated expm distorts the top bins enough to move
        # var/itot by 6e-8 here.
        e = states.pure_coherent(20.0)
        for a, b in ((0.3, 0.9), (1.2, 0.1), (0.7, 2.2), (2.9, 1.7)):
            s = Settings(a, b)
            assert abs(analysis.noise_point(e, s).var_ratio - 1.0) <= 1e-8

    def test_mean_photon_number_beyond_exp_underflow(self):
        # 800 photons per mode: exp(-800) underflows, the log-space build does not.
        e = states.pure_coherent(40.0)
        assert e.basis.dimension == 978_121
        assert analysis.total_intensity(e) == pytest.approx(1600.0, rel=1e-9)
        s_value = analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS).s_value
        assert s_value == pytest.approx(2 * math.sqrt(2), abs=1e-9)


class TestMixedCoherent:
    def test_full_reflectivity_members_identical(self):
        e = states.mixed_coherent(1.5, 1.0, 0.0)
        ref = e.members[0][1].amplitudes
        for _, s in e.members[1:]:
            assert np.allclose(s.amplitudes, ref, atol=1e-12)

    def test_r0_total_intensity(self):
        e = states.mixed_coherent(2.0, 0.0)
        assert analysis.total_intensity(e) == pytest.approx(8.0, abs=1e-8)

    def test_quadrature_exactness(self):
        basis = states.coherent_basis(2 * 1.5**2, 1e-10)
        small = states.mixed_coherent(1.5, 0.3, 0.8, 5, basis)
        large = states.mixed_coherent(1.5, 0.3, 0.8, 16, basis)
        for s in (Settings(0.3, 0.9), Settings(1.2, 0.1)):
            a = analysis.noise_point(small, s)
            b = analysis.noise_point(large, s)
            assert a.mean_m == pytest.approx(b.mean_m, abs=1e-10)
            assert a.var_m == pytest.approx(b.var_m, abs=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            states.mixed_coherent(1.0, 1.2)
        with pytest.raises(SimulationError):
            states.mixed_coherent(1.0, 0.5, 0.0, 3)
        with pytest.raises(SimulationError):
            states.mixed_coherent(1.0, 0.5, 0.0, 5.5)
        with pytest.raises(SimulationError):
            states.mixed_coherent(1.0, 0.5, phase_points=np.float64(6.0))
        with pytest.raises(SimulationError, match="^phase_points="):
            states.mixed_coherent(1.0, 0.5, 0.0, -(10**5000))
        for reflectivity in ("0.5", False, math.nan, 10**5000):
            with pytest.raises(SimulationError, match="^reflectivity="):
                states.mixed_coherent(1.0, reflectivity)


class TestTwoModeSqueezed:
    def test_zero_is_vacuum(self):
        e = states.two_mode_squeezed(0.0)
        assert abs(e.members[0][1].amplitudes.reshape(-1)[0]) == pytest.approx(1.0)

    def test_total_intensity(self):
        e = states.two_mode_squeezed(2.0)
        expected = 2 * math.sinh(1.0) ** 2
        assert analysis.total_intensity(e) == pytest.approx(expected, abs=1e-10)

    def test_support_on_equal_occupations(self):
        e = states.two_mode_squeezed(1.0)
        s = e.members[0][1]
        amps = np.moveaxis(s.amplitudes, (ModeIndex.HH, ModeIndex.VV), (0, 1))
        amps = amps.reshape(amps.shape[0], amps.shape[1], -1)[:, :, 0]
        off = amps - np.diag(np.diagonal(amps))
        assert np.max(np.abs(off)) < 1e-13


def _expm_coherent(basis, u_hh, u_vv):
    state = fock.displace(fock.vacuum(basis), ModeIndex.HH, u_hh)
    return fock.displace(state, ModeIndex.VV, u_vv).amplitudes


class TestClosedFormBuilds:
    """The closed-form Gaussian builds against the expm route, and their truncation checks."""

    def test_coherent_matches_expm_route_on_roomy_basis(self):
        u = 1.5 - 0.5j
        basis = BasisConfig((24, 2, 2, 24))
        amps = states.pure_coherent(u, basis).members[0][1].amplitudes
        assert np.max(np.abs(amps[:, 1:, :, :])) == 0.0
        assert np.max(np.abs(amps[:, :, 1:, :])) == 0.0
        # The tail beyond cutoff 24 is far below eps, so expm distorts no bin.
        ref = _expm_coherent(basis, u / math.sqrt(2), u / math.sqrt(2))
        assert np.max(np.abs(amps - ref)) < 1e-9

    def test_mixed_coherent_members_match_expm_route(self):
        # The truncated expm folds the tail mass (below eps) back into its top
        # bins, so amplitudes there differ by up to about sqrt(eps).
        e = states.mixed_coherent(1.5, 0.3, 0.4, phase_points=5)
        for k, (w, s) in enumerate(e.members):
            theta = 2 * math.pi * k / 5
            u_vv = 1.5 * (
                math.sqrt(0.3) * cmath.exp(0.4j) + math.sqrt(0.7) * cmath.exp(1j * theta)
            )
            assert w == pytest.approx(0.2)
            assert np.max(np.abs(s.amplitudes - _expm_coherent(e.basis, 1.5, u_vv))) < 1e-6

    @pytest.mark.parametrize("zeta", [1.0, 1.2j, 0.4 - 0.9j])
    def test_squeezed_matches_expm_route(self, zeta):
        basis = states.squeezed_basis(zeta)
        amps = states.two_mode_squeezed(zeta, basis).members[0][1].amplitudes
        ref = fock.two_mode_squeeze(fock.vacuum(basis), ModeIndex.HH, ModeIndex.VV, zeta)
        # As above, the truncated expm distorts its top bins by about sqrt(eps).
        assert np.max(np.abs(amps - ref.amplitudes)) < 1e-6

    def test_amplitude_with_underflowing_mean_is_vacuum(self):
        # |u|^2 underflows to 0.0 although u does not.
        amps = states.pure_coherent(1e-170).members[0][1].amplitudes
        assert amps.reshape(-1)[0] == 1.0
        assert np.count_nonzero(amps) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda basis: states.pure_coherent(3.0, basis),
            lambda basis: states.mixed_coherent(3.0, 0.5, basis=basis),
            lambda basis: states.two_mode_squeezed(3.0, basis),
        ],
    )
    def test_small_basis_is_a_truncation_error(self, build):
        with pytest.raises(TruncationError) as err:
            build(BasisConfig((6, 0, 0, 6)))
        assert err.value.required_cutoff is not None
        assert err.value.required_cutoff > 6


class TestBuild:
    def test_dispatch(self):
        spec = StateSpec(Family.ENTANGLED_FOCK, n=1)
        e = states.build(spec)
        assert analysis.total_intensity(e) == pytest.approx(1.0)

    def test_missing_parameter(self):
        with pytest.raises(SimulationError):
            states.build(StateSpec(Family.WERNER_FOCK, n=1))


class TestSpecValidation:
    """StateSpec checks its own fields; ``build`` calls no Fock builder that would."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": Family.ENTANGLED_FOCK, "n": -1},
            {"family": Family.ENTANGLED_FOCK, "n": 2.0},
            {"family": Family.ENTANGLED_FOCK, "n": True},
            {"family": Family.WERNER_FOCK, "n": 1, "p": 1.5},
            {"family": Family.WERNER_FOCK, "n": 1, "p": -0.1},
            {"family": Family.WERNER_FOCK, "n": 1, "p": math.nan},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": 2.0},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": -0.5},
            {"family": Family.PURE_COHERENT, "u": complex(math.inf, 0.0)},
            {"family": Family.PURE_COHERENT, "u": complex(0.0, math.nan)},
            {"family": Family.TWO_MODE_SQUEEZED_VACUUM, "zeta": math.inf},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": 0.5, "phi": math.nan},
            {"family": Family.WERNER_FOCK, "n": 1, "p": True},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": False},
            {"family": Family.WERNER_FOCK, "n": 1, "p": "0.5"},
            {"family": Family.WERNER_FOCK, "n": 1, "p": 0.5j},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": "0.5"},
            {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": 0.5, "phi": "0.3"},
            {"family": Family.PURE_COHERENT, "u": "1"},
            {"family": Family.PURE_COHERENT, "u": [1, 2]},
            {"family": Family.PURE_COHERENT, "u": True},
            {"family": Family.TWO_MODE_SQUEEZED_VACUUM, "zeta": "1"},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v!r}" for k, v in kwargs.items() if k != "family"),
    )
    def test_out_of_range_field(self, kwargs):
        with pytest.raises(SimulationError):
            StateSpec(**kwargs)

    @pytest.mark.parametrize("field", ["p", "u", "phi", "zeta"])
    def test_int_beyond_the_float_range(self, field):
        # n may be any size (build then raises TruncationError); these may not.
        with pytest.raises(SimulationError, match=f"^{field}="):
            StateSpec(Family.WERNER_FOCK, **{field: 10**400})

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("u", {"family": Family.PURE_COHERENT, "u": 10**5000}),
            ("n", {"family": Family.MIXED_FOCK, "n": -(10**5000)}),
            ("p", {"family": Family.WERNER_FOCK, "n": 1, "p": 10**5000}),
            ("phi", {"family": Family.MIXED_COHERENT, "u": 1.0, "reflectivity": 0.5, "phi": 10**5000}),
        ],
        ids=["u", "n", "p", "phi"],
    )
    def test_int_too_long_to_show(self, field, kwargs):
        # Past the int-to-str digit limit, so the refusal cannot repr the value.
        with pytest.raises(SimulationError, match=f"^{field}="):
            StateSpec(**kwargs)

    def test_integer_types_accepted(self):
        assert type(StateSpec(Family.MIXED_FOCK, n=np.int64(3)).n) is int
        assert StateSpec(Family.MIXED_FOCK, n=0).n == 0


_PSI_PLUS_BASIS = BasisConfig((3, 0, 0, 3))


class TestBuilderArguments:
    """The Fock builders refuse what StateSpec refuses, naming the argument."""

    @pytest.mark.parametrize(
        "name,build",
        [
            ("u", lambda: states.pure_coherent("1")),
            ("zeta", lambda: states.two_mode_squeezed("1")),
            ("u", lambda: states.mixed_coherent("1", 0.5)),
            ("n_photons", lambda: states.entangled_fock("2")),
            ("u", lambda: states.pure_coherent(10**400)),
            ("n_photons", lambda: states.mixed_fock(True)),
            ("n_photons", lambda: states.entangled_fock(2.5)),
            ("n_photons", lambda: states.werner_fock(-1, 0.5)),
            ("zeta", lambda: states.two_mode_squeezed(complex(math.nan, 0.0))),
            ("phi", lambda: states.mixed_coherent(1.0, 0.5, "0.3")),
            (
                "n_photons",
                lambda: partitions.fock_on_bell_mode("2", BellModeLabel.PSI_PLUS, _PSI_PLUS_BASIS),
            ),
            (
                "u",
                lambda: partitions.coherent_on_bell_mode(
                    "1", BellModeLabel.PSI_PLUS, _PSI_PLUS_BASIS
                ),
            ),
        ],
        ids=[
            "pure_coherent-str",
            "two_mode_squeezed-str",
            "mixed_coherent-str",
            "entangled_fock-str",
            "pure_coherent-huge-int",
            "mixed_fock-bool",
            "entangled_fock-float",
            "werner_fock-negative",
            "two_mode_squeezed-nan",
            "mixed_coherent-phi-str",
            "fock_on_bell_mode-str",
            "coherent_on_bell_mode-str",
        ],
    )
    def test_refused_by_name(self, name, build):
        with pytest.raises(SimulationError, match=f"^{name}="):
            build()

    def test_integer_types_accepted(self):
        assert len(states.mixed_fock(np.int64(2)).members) == 3
        assert states.pure_coherent(1).basis == states.pure_coherent(1.0).basis


def _family_specs():
    """StateSpecs of every family at sizes the Fock oracle holds."""
    amplitude = st.builds(complex, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))  # |u| < 2
    unit = st.floats(0.0, 1.0)
    return st.one_of(
        st.builds(StateSpec, st.just(Family.ENTANGLED_FOCK), n=st.integers(0, 12)),
        st.builds(StateSpec, st.just(Family.MIXED_FOCK), n=st.integers(0, 12)),
        st.builds(StateSpec, st.just(Family.WERNER_FOCK), n=st.integers(0, 12), p=unit),
        st.builds(StateSpec, st.just(Family.PURE_COHERENT), u=amplitude),
        st.builds(
            StateSpec,
            st.just(Family.MIXED_COHERENT),
            u=amplitude,
            reflectivity=unit,
            phi=st.floats(-4.0, 4.0),
        ),
        st.builds(
            StateSpec,
            st.just(Family.TWO_MODE_SQUEEZED_VACUUM),
            zeta=st.builds(complex, st.floats(-1.06, 1.06), st.floats(-1.06, 1.06)),
        ),
    )


class TestClosedFormMoments:
    @settings(max_examples=120, deadline=None)
    @given(_family_specs(), st.integers(5, 9))
    def test_matches_fock_oracle(self, spec, phase_points):
        closed = states.build(spec)
        if spec.family is Family.MIXED_COHERENT:
            # Any number of phase points from 5 on averages the moments exactly.
            u, r, phi = spec.u, spec.reflectivity, spec.phi
            oracle = states.mixed_coherent(u, r, phi, phase_points).moments
        else:
            oracle = states.fock_ensemble(spec).moments
        itot = oracle.itot
        # The Fock builders take an amplitude whose |u|^2 underflows as vacuum.
        assert np.max(np.abs(closed.g - oracle.g)) <= 1e-9 * itot + 1e-300
        assert np.max(np.abs(closed.k - oracle.k)) <= 1e-9 * max(1.0, itot**2)

    def test_read_only_and_lazy_oracle(self, monkeypatch):
        spec = StateSpec(Family.MIXED_FOCK, n=3)
        calls = []
        real = states.fock_ensemble
        monkeypatch.setattr(states, "fock_ensemble", lambda s: calls.append(s) or real(s))
        m = states.build(spec)
        with pytest.raises(ValueError):
            m.k[0, 0, 0, 0] = 1.0
        assert m.itot == 3.0
        assert calls == []
        assert (m.basis.dimension, len(m.members)) == (36, 4)
        # Built once, on first access.
        assert calls == [spec]

    def test_overflow_is_a_truncation_error(self):
        for spec in (
            StateSpec(Family.PURE_COHERENT, u=1e160),
            StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=2000.0),
            StateSpec(Family.MIXED_FOCK, n=10**400),
        ):
            with pytest.raises(TruncationError, match="beyond the float range"):
                states.build(spec)


class TestEnsembleGuard:
    """The guard on members x dimension, patched low so that nothing large is built."""

    @pytest.mark.parametrize(
        "spec,members,dimension",
        [
            (StateSpec(Family.MIXED_FOCK, n=3), 4, 36),
            (StateSpec(Family.WERNER_FOCK, n=3, p=0.5), 5, 36),
            (StateSpec(Family.MIXED_COHERENT, u=1.0, reflectivity=0.5), 8, None),
        ],
    )
    def test_over_the_guard_before_any_member(self, monkeypatch, spec, members, dimension):
        def no_member(*args):
            raise AssertionError("a member was built before the guard")

        for name in ("_on_source_modes", "fock_on_bell_mode"):
            monkeypatch.setattr(states, name, no_member)
        monkeypatch.setattr(states, "MAX_ENSEMBLE_AMPLITUDES", members * 35)
        with pytest.raises(TruncationError) as err:
            states.fock_ensemble(spec)
        message = str(err.value)
        assert f"ensemble of {members} members" in message
        assert f"MAX_ENSEMBLE_AMPLITUDES={members * 35}" in message
        if dimension is not None:
            assert f"dimension {dimension}" in message
        # The refused basis's largest cutoff, named in the message too.
        monkeypatch.undo()
        assert err.value.required_cutoff == max(states.fock_ensemble(spec).basis.cutoffs)
        assert f"at cutoff {err.value.required_cutoff} exceeds" in message

    def test_at_the_guard_builds(self, monkeypatch):
        monkeypatch.setattr(states, "MAX_ENSEMBLE_AMPLITUDES", 4 * 36)
        assert len(states.mixed_fock(3).members) == 4

    def test_guard_admits_documented_sizes(self):
        # Arithmetic only: mixed_fock and werner_fock N=400 stay under 2**26.
        dimension = states.fock_basis(400).dimension
        assert 402 * dimension <= states.MAX_ENSEMBLE_AMPLITUDES


def test_all_constructors_normalized():
    ensembles = [
        states.entangled_fock(2),
        states.mixed_fock(3),
        states.werner_fock(2, 0.4),
        states.pure_coherent(1.0),
        states.mixed_coherent(1.0, 0.5, 0.3),
        states.two_mode_squeezed(1.0),
    ]
    for e in ensembles:
        assert sum(w for w, _ in e.members) == pytest.approx(1.0, abs=1e-12)
        for _, s in e.members:
            assert s.norm() == pytest.approx(1.0, abs=1e-9)


def test_dephasing_relation():
    # The dephased mixture matches the entangled state exactly when the
    # cross-coherence term sin2a*sin2b drops out, and differs otherwise.
    ent = states.entangled_fock(2)
    mix = states.mixed_fock(2)
    aligned = Settings(0.7, 0.0)  # sin(2*beta) = 0
    a = analysis.noise_point(ent, aligned).mean_m
    b = analysis.noise_point(mix, aligned).mean_m
    assert a == pytest.approx(b, abs=1e-12)
    generic = Settings(0.7, 0.6)
    a = analysis.noise_point(ent, generic).mean_m
    b = analysis.noise_point(mix, generic).mean_m
    assert abs(a - b) > 1e-3
