import math

import numpy as np
import pytest

from spinorbit_bell import analysis, cli, fock, states, verify
from spinorbit_bell.apparatus import ChshSettings, DEFAULT_CHSH_SETTINGS, Settings
from spinorbit_bell.errors import SimulationError
from spinorbit_bell.fock import BasisConfig, StateEnsemble, vacuum
from spinorbit_bell.states import Family, StateSpec

SQRT2 = math.sqrt(2.0)


class TestNoisePoint:
    def test_entangled_fock_mean(self):
        pt = analysis.noise_point(states.entangled_fock(1), Settings(math.pi / 8, 0.0))
        assert pt.mean_ratio == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_entangled_fock_variance(self):
        pt = analysis.noise_point(states.entangled_fock(1), Settings(math.pi / 8, 0.0))
        assert pt.var_ratio == pytest.approx(0.5, abs=1e-12)

    def test_coherent_shot_noise(self):
        e = states.pure_coherent(2.0)
        for s in (Settings(0.3, 1.7), Settings(0.0, 0.0)):
            pt = analysis.noise_point(e, s)
            assert pt.var_ratio == pytest.approx(1.0, abs=1e-8)


class TestSParameter:
    def test_entangled_fock_max_violation(self):
        res = analysis.s_parameter(states.entangled_fock(1), DEFAULT_CHSH_SETTINGS)
        assert res.s_value == pytest.approx(2 * SQRT2, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_mixed_fock(self, n):
        res = analysis.s_parameter(states.mixed_fock(n), DEFAULT_CHSH_SETTINGS)
        assert res.s_value == pytest.approx(SQRT2, abs=1e-10)

    def test_werner_threshold(self):
        res = analysis.s_parameter(
            states.werner_fock(1, SQRT2 - 1), DEFAULT_CHSH_SETTINGS
        )
        assert res.s_value == pytest.approx(2.0, abs=1e-10)

    def test_vacuum_rejected(self):
        e = StateEnsemble.pure(vacuum(BasisConfig((1, 1, 1, 1))))
        with pytest.raises(SimulationError):
            analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS)

    def test_angle_past_half_the_float_range(self):
        # 2 * 1.7e308 overflows; the grid reduces such an angle modulo pi first.
        state = states.build(StateSpec(Family.ENTANGLED_FOCK, n=1))
        huge = analysis.s_parameter(state, ChshSettings(0.3, 0.0, 0.0, 1.7e308))
        reduced = ChshSettings(0.3, 0.0, 0.0, math.fmod(1.7e308, math.pi))
        assert math.isfinite(huge.s_value)
        assert huge.s_value == analysis.s_parameter(state, reduced).s_value

    def test_consistency_invariant(self):
        res = analysis.s_parameter(states.werner_fock(2, 0.6), DEFAULT_CHSH_SETTINGS)
        combo = (
            res.points[0].mean_m
            + res.points[1].mean_m
            - res.points[2].mean_m
            + res.points[3].mean_m
        ) / res.points[0].itot
        assert res.s_value == pytest.approx(combo, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.3, -0.8])
    def test_shift_invariance_for_relative_angle_families(self, delta):
        # <M> of these families depends only on beta - alpha.
        base = DEFAULT_CHSH_SETTINGS
        shifted = ChshSettings(
            base.alpha + delta,
            base.alpha_prime + delta,
            base.beta + delta,
            base.beta_prime + delta,
        )
        for e, tol in [(states.entangled_fock(1), 1e-12), (states.pure_coherent(1.0), 1e-9)]:
            s0 = analysis.s_parameter(e, base).s_value
            s1 = analysis.s_parameter(e, shifted).s_value
            assert s0 == pytest.approx(s1, abs=tol)


class TestClosedForm:
    def test_mixed_fock_quarter_settings(self):
        spec = StateSpec(Family.MIXED_FOCK, n=1)
        _, var = analysis.closed_form(spec, Settings(math.pi / 4, math.pi / 4))
        assert var == pytest.approx(1.0)  # (N+1)/2 at N=1

    def test_entangled_perfect_squeezing(self):
        spec = StateSpec(Family.ENTANGLED_FOCK, n=3)
        _, var = analysis.closed_form(spec, Settings(0.0, math.pi / 2))
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_tmsv_at_zero_settings(self):
        spec = StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=2.0)
        itot = analysis.closed_form_itot(spec)
        _, var = analysis.closed_form(spec, Settings(0.0, 0.0))
        assert var == pytest.approx(itot + 2.0)
        assert var == pytest.approx(4.762195691083631, abs=1e-12)

    def test_mixed_coherent_var_against_fock_oracle(self):
        # Strictly between the extremes R = 0 and R = 1, with phi != 0.
        for u, reflectivity, phi in [(1.0, 0.5, 0.7), (1.2 - 0.4j, 0.25, -2.0), (2j, 0.9, 1.0)]:
            spec = StateSpec(Family.MIXED_COHERENT, u=u, reflectivity=reflectivity, phi=phi)
            ensemble = states.fock_ensemble(spec)
            for s in (Settings(0.1, 0.2), Settings(1.3, 0.4), Settings(2.6, 2.9)):
                pt = analysis.noise_point(ensemble, s)
                mean_ref, var_ref = analysis.closed_form(spec, s)
                assert pt.mean_ratio == pytest.approx(mean_ref, abs=1e-9)
                assert pt.var_ratio == pytest.approx(var_ref, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_agreement_random_settings(self, seed):
        rng = np.random.default_rng(seed)
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        cases = [
            (states.entangled_fock(2), StateSpec(Family.ENTANGLED_FOCK, n=2), 1e-9),
            (states.mixed_fock(3), StateSpec(Family.MIXED_FOCK, n=3), 1e-9),
            (states.werner_fock(2, 0.35), StateSpec(Family.WERNER_FOCK, n=2, p=0.35), 1e-9),
            (states.pure_coherent(1.5), StateSpec(Family.PURE_COHERENT, u=1.5), 1e-8),
            (
                states.mixed_coherent(1.5, 0.0),
                StateSpec(Family.MIXED_COHERENT, u=1.5, reflectivity=0.0),
                1e-8,
            ),
            (
                states.mixed_coherent(1.5, 0.4, 1.1),
                StateSpec(Family.MIXED_COHERENT, u=1.5, reflectivity=0.4, phi=1.1),
                1e-8,
            ),
            (
                states.two_mode_squeezed(1.0),
                StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.0),
                1e-8,
            ),
        ]
        for ensemble, spec, tol in cases:
            pt = analysis.noise_point(ensemble, s)
            mean_ref, var_ref = analysis.closed_form(spec, s)
            assert pt.mean_ratio == pytest.approx(mean_ref, abs=tol)
            assert pt.var_ratio == pytest.approx(var_ref, abs=tol)


@pytest.mark.parametrize(
    "spec",
    [
        StateSpec(Family.ENTANGLED_FOCK, n=3),
        StateSpec(Family.MIXED_FOCK, n=4),
        StateSpec(Family.WERNER_FOCK, n=3, p=0.3),
        StateSpec(Family.PURE_COHERENT, u=1.5 - 0.5j),
        StateSpec(Family.MIXED_COHERENT, u=1.2, reflectivity=0.3, phi=0.4),
        StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.2),
    ],
    ids=lambda spec: spec.family.value,
)
def test_measurement_modes_need_no_cutoff(spec):
    # Hv/Vh carry cutoff 0 by default; a basis with cutoff 2 there, room for
    # every photon M can move, must give the same noise points.
    small = states.fock_ensemble(spec)
    hh, hv, vh, vv = small.basis.cutoffs
    assert (hv, vh) == (0, 0)
    large = states.fock_ensemble(spec, BasisConfig((hh, 2, 2, vv)))
    for s in (Settings(0.3, 1.1), Settings(2.0, 0.7), Settings(0.0, math.pi / 4)):
        a = analysis.noise_point(small, s)
        b = analysis.noise_point(large, s)
        for x, y in ((a.mean_m, b.mean_m), (a.var_m, b.var_m), (a.itot, b.itot)):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12)


class TestScan:
    def test_row_count_and_order(self):
        e = states.pure_coherent(0.1)
        pts = analysis.settings_scan(e, [0.0, 0.5], [0.0, 1.0])
        assert len(pts) == 4
        assert [(p.settings.alpha, p.settings.beta) for p in pts] == [
            (0.0, 0.0),
            (0.0, 1.0),
            (0.5, 0.0),
            (0.5, 1.0),
        ]

    def test_entangled_fock_against_closed_form(self):
        grid = np.linspace(0, math.pi, 17)
        pts = analysis.settings_scan(states.entangled_fock(1), grid, grid)
        worst = max(
            abs(p.mean_ratio - math.cos(2 * (p.settings.beta - p.settings.alpha)))
            for p in pts
        )
        assert worst < 1e-10

    def test_mixed_coherent_noise_value(self):
        e = states.mixed_coherent(2.0, 0.0)
        pt = analysis.noise_point(e, Settings(math.pi / 8, math.pi / 8))
        # 1 + (<I>/8) with <I> = 8
        assert pt.var_ratio == pytest.approx(2.0, abs=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(SimulationError):
            analysis.settings_scan(states.pure_coherent(0.1), [], [0.0])


class TestWernerDecomposition:
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate(self, p):
        assert verify.werner_decomposition_check(1, p, Settings(0.2, 0.9)) < 1e-10

    def test_specific_cases(self):
        assert (
            verify.werner_decomposition_check(2, 0.3, Settings(math.pi / 8, 0.0)) < 1e-10
        )
        assert (
            verify.werner_decomposition_check(1, 0.5, Settings(math.pi / 4, math.pi / 4))
            < 1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        rng = np.random.default_rng(seed + 50)
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(0, 1))
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        assert verify.werner_decomposition_check(n, p, s) < 1e-10


def test_variance_convexity():
    # Law of total variance: mixture variance >= average member variance.
    s = Settings(0.77, 0.31)
    for e in (states.mixed_fock(3), states.werner_fock(2, 0.5), states.mixed_coherent(1.0, 0.2)):
        total = analysis.noise_point(e, s).var_m
        member_avg = sum(
            w * analysis.noise_point(StateEnsemble.pure(m), s).var_m
            for w, m in e.members
        )
        assert total >= member_avg - 1e-9


#: Generic, non-uniform angle axes, away from the multiples of pi/4 where entries of M vanish.
_ALPHAS = (-0.71, 0.013, 0.4, 1.37, 2.9)
_BETAS = (0.23, 0.77, 1.91, -2.2)

_GRID_SPECS = [
    StateSpec(Family.ENTANGLED_FOCK, n=3),
    StateSpec(Family.MIXED_FOCK, n=20),
    StateSpec(Family.WERNER_FOCK, n=7, p=0.4),
    StateSpec(Family.PURE_COHERENT, u=1.5 - 0.5j),
    StateSpec(Family.MIXED_COHERENT, u=4.0, reflectivity=0.25),
    StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=3.0),
]


def _grid_states():
    for spec in _GRID_SPECS:
        yield pytest.param(states.build(spec), id=spec.family.value)
    spec = StateSpec(Family.WERNER_FOCK, n=3, p=0.6)
    yield pytest.param(states.fock_ensemble(spec), id="fock_ensemble werner_fock")


class TestGridRoute:
    """The one-contraction grid against the per-setting route ``noise_point``.

    Mean and variance are compared separately: a wrong regrouping of K leaves
    the mean right and the variance wrong.
    """

    @staticmethod
    def _assert_matches(pts, state):
        itot = analysis.total_intensity(state)
        tol = 1e-13 * max(1.0, itot)
        for pt in pts:
            ref = analysis.noise_point(state, pt.settings)
            assert pt.itot == ref.itot
            assert abs(pt.mean_m - ref.mean_m) <= tol
            assert abs(pt.var_m - ref.var_m) <= tol

    @pytest.mark.parametrize("state", _grid_states())
    def test_scan(self, state):
        pts = analysis.settings_scan(state, _ALPHAS, _BETAS)
        assert [(p.settings.alpha, p.settings.beta) for p in pts] == [
            (a, b) for a in _ALPHAS for b in _BETAS
        ]
        self._assert_matches(pts, state)

    @pytest.mark.parametrize("state", _grid_states())
    def test_chsh(self, state):
        settings = ChshSettings(0.29, 1.13, -0.41, 2.03)
        res = analysis.s_parameter(state, settings)
        assert tuple(p.settings for p in res.points) == settings.pairs()
        self._assert_matches(res.points, state)


@pytest.mark.parametrize(
    "alpha,beta,reference",
    [
        (0.0, math.pi / 4 + 1e-5, 1.0970330390675429616),
        (1e-7, math.pi / 4 + 3e-6, 1.0087426768208565546),
        (0.0, 3 * math.pi / 4 + 1e-4, 10.703303778841550163),
    ],
)
def test_tmsv_near_cancellation(alpha, beta, reference):
    # At zeta=20 the O(itot^2) part of the variance nearly vanishes where
    # 1 + cos4a cos4b ~ 0. The references are 1 + (itot+1)(1 + cos4a cos4b)/2
    # at these float angles, evaluated with 50-digit arithmetic.
    state = states.build(StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=20.0))
    (pt,) = analysis.settings_scan(state, [alpha], [beta])
    assert abs(pt.var_m / pt.itot - reference) <= 1e-14 * reference


def _moments_with_negative_k():
    g = np.diag([1.0, 0.0, 0.0, 1.0])
    k = np.zeros((4,) * 4)
    k[0, 0, 0, 0] = -1e3
    return fock.Moments(g, k)


class TestGridChecks:
    """Every check of ``fock.mean_and_variance`` holds over a whole grid."""

    def test_negative_variance(self):
        bad = _moments_with_negative_k()
        with pytest.raises(SimulationError, match="negative variance"):
            analysis.settings_scan(bad, _ALPHAS, _BETAS)
        with pytest.raises(SimulationError, match="negative variance"):
            analysis.s_parameter(bad, DEFAULT_CHSH_SETTINGS)

    def test_imaginary_residue(self):
        g = np.diag([1.0, 0.0, 0.0, 1.0]) + 1j * np.ones((4, 4))
        bad = fock.Moments(g, np.zeros((4,) * 4))
        with pytest.raises(SimulationError, match="imaginary residue"):
            analysis.settings_scan(bad, _ALPHAS, _BETAS)
        with pytest.raises(SimulationError, match="imaginary residue"):
            analysis.s_parameter(bad, DEFAULT_CHSH_SETTINGS)

    def test_eight_modes_rejected(self):
        eight = fock.Moments(np.eye(8), np.zeros((8,) * 4))
        with pytest.raises(SimulationError, match="4 modes"):
            analysis.settings_scan(eight, _ALPHAS, _BETAS)
        with pytest.raises(SimulationError, match="4 modes"):
            analysis.s_parameter(eight, DEFAULT_CHSH_SETTINGS)

    @pytest.mark.parametrize(
        "mode,section",
        [
            ("chsh", ""),
            ("noise-scan", "scan_grid: {alpha: {start: 0, stop: 1, points: 3}, "
                           "beta: {start: 0, stop: 1, points: 3}}"),
        ],
        ids=["chsh", "noise-scan"],
    )
    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch, mode, section):
        monkeypatch.setattr(states, "build", lambda spec: _moments_with_negative_k())
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text("state: {family: mixed_fock, n: 2}\n" + section + "\n")
        assert cli.main([mode, "--config", str(cfgfile)]) == 2
        assert "negative variance" in capsys.readouterr().err
