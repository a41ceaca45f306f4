"""Self-contained verification suite comparing both computation routes.

Each check pits the Fock-space simulation against an independent reference:
the analytic closed forms, direct quadrature, or an alternative construction
of the same state; the last one checks the closed-form moments that the CLI
evaluates against the Fock-tensor moments. Randomized checks draw from the
standard library's ``random.Random`` under a fixed seed, so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import analysis, apparatus, fock, modes, partitions, states
from .apparatus import DEFAULT_CHSH_SETTINGS, Settings
from .fock import BasisConfig, ModeIndex, StateEnsemble
from .partitions import BellModeLabel
from .states import Family, StateSpec

_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, value <= bound, f"residual {value:.3g} (bound {bound:g})")


def _mode_power_check() -> CheckResult:
    # On this smooth integrand, about 5e-15 at |x| = 6, the trapezoid rule is at
    # round-off long before 601 points per axis: 61 leave a residual of 2.2e-15,
    # 121 leave 1.4e-15 and 601 leave 1.6e-15. So 121 points, at 1/25 the cost.
    grid, step = np.linspace(-6.0, 6.0, 121, retstep=True)
    psi = modes.eval_hg_mode("h", grid[None, :], grid[:, None])
    # The trapezoid rule on each axis as one weight vector.
    weights = step * np.concatenate(([0.5], np.ones(grid.size - 2), [0.5]))
    power = weights @ psi**2 @ weights
    return _check("hg-mode unit power (trapezoid quadrature)", abs(power - 1.0), 1e-6)


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normal draws of the given shape, filled in row-major order."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _concurrence_checks(rng) -> list[CheckResult]:
    out = []
    worst = max(
        abs(modes.concurrence(modes.bell_coefficients(label)) - 1.0)
        for label in BellModeLabel
    )
    out.append(_check("concurrence of Bell modes equals 1", worst, 1e-12))
    worst = 0.0
    for _ in range(20):
        pol = _normal(rng, 2) + 1j * _normal(rng, 2)
        orb = _normal(rng, 2) + 1j * _normal(rng, 2)
        c = np.outer(pol, orb).reshape(-1)
        c /= np.linalg.norm(c)
        worst = max(worst, modes.concurrence(modes.VectorModeCoefficients(*c)))
    out.append(_check("concurrence of product modes equals 0", worst, 1e-12))
    return out


def _partition_checks() -> list[CheckResult]:
    out = []
    mat = partitions.bell_partition_matrix()
    out.append(
        _check(
            "partition matrix orthogonality",
            float(np.max(np.abs(mat @ mat.T - np.eye(4)))),
            1e-12,
        )
    )
    basis = BasisConfig((5, 1, 1, 5))
    worst = max(partitions.verify_partition_identity(n, basis) for n in range(6))
    out.append(_check("partition identity N<=5", worst, 1e-12))
    basis = states.coherent_basis(2.0, 1e-12)
    worst = 0.0
    for u in (0.5, 1.0 + 0.5j, 2.0):
        direct = partitions.coherent_on_bell_mode(u, BellModeLabel.PSI_PLUS, basis)
        joint = fock.displace_pair_generator(
            fock.vacuum(basis),
            ModeIndex.HH,
            ModeIndex.VV,
            u / math.sqrt(2.0),
            u / math.sqrt(2.0),
        )
        worst = max(worst, float(np.linalg.norm(direct.amplitudes - joint.amplitudes)))
    out.append(_check("coherent displacement factorization", worst, 1e-9))
    return out


def _apparatus_checks(rng) -> list[CheckResult]:
    out = []
    worst_orth = 0.0
    worst_spec = 0.0
    for _ in range(10):
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        u = apparatus.setting_unitary(s)
        worst_orth = max(worst_orth, float(np.max(np.abs(u.T @ u - np.eye(4)))))
        eig = np.sort(np.linalg.eigvalsh(apparatus.m_operator(s).matrix))
        worst_spec = max(worst_spec, float(np.max(np.abs(eig - [-1, -1, 1, 1]))))
    out.append(_check("setting unitary orthogonality", worst_orth, 1e-12))
    out.append(_check("m-operator spectrum {+1,+1,-1,-1}", worst_spec, 1e-12))
    out.append(_check("eight-mode vacuum-port reduction", eight_mode_residual(rng), 1e-12))
    return out


def eight_mode_residual(rng) -> float:
    """Max deviation between 4-mode and 8-mode (vacuum port 2) moments."""
    basis4 = BasisConfig((1, 1, 1, 1))
    basis8 = BasisConfig((1,) * 8)
    single4 = partitions.fock_on_bell_mode(1, BellModeLabel.PSI_PLUS, basis4)
    amps8 = np.zeros(basis8.dims, dtype=np.complex128)
    amps8[(1, 0, 0, 0) + (0,) * 4] = 1 / math.sqrt(2)
    amps8[(0, 0, 0, 1) + (0,) * 4] = 1 / math.sqrt(2)
    e4 = StateEnsemble.pure(single4)
    e8 = StateEnsemble.pure(fock.PureState(basis8, amps8))
    worst = 0.0
    for _ in range(5):
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        m4 = apparatus.m_operator(s)
        m8 = apparatus.eight_mode_m_matrix(s)
        worst = max(worst, abs(fock.expect_one_body(e4, m4) - fock.expect_one_body(e8, m8)))
        worst = max(
            worst, abs(fock.variance_one_body(e4, m4) - fock.variance_one_body(e8, m8))
        )
    return worst


#: One state per family, at the sizes the closed-form checks use.
_CATALOG = (
    ("entangled_fock N=2", StateSpec(Family.ENTANGLED_FOCK, n=2)),
    ("mixed_fock N=2", StateSpec(Family.MIXED_FOCK, n=2)),
    ("werner_fock N=2 p=0.4", StateSpec(Family.WERNER_FOCK, n=2, p=0.4)),
    ("pure_coherent u=1.5", StateSpec(Family.PURE_COHERENT, u=1.5)),
    ("mixed_coherent u=1.5 R=0", StateSpec(Family.MIXED_COHERENT, u=1.5, reflectivity=0.0)),
    ("two_mode_squeezed zeta=1", StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.0)),
)

_Catalog = list[tuple[str, StateEnsemble, StateSpec]]


def _cataloged(catalog: _Catalog, spec: StateSpec) -> StateEnsemble:
    """The catalog's ensemble of a state it holds, with its moments cached."""
    return next(ensemble for _, ensemble, held in catalog if held == spec)


def _closed_form_checks(rng, catalog: _Catalog) -> list[CheckResult]:
    out = []
    for name, ensemble, spec in catalog:
        itot = analysis.total_intensity(ensemble)
        worst = 0.0
        for _ in range(5):
            s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            pt = analysis.noise_point(ensemble, s)
            mean_ref, var_ref = analysis.closed_form(spec, s)
            worst = max(worst, abs(pt.mean_ratio - mean_ref), abs(pt.var_ratio - var_ref))
        out.append(_check(f"closed-form agreement: {name}", worst, 1e-8))
        ref_itot = analysis.closed_form_itot(spec)
        out.append(
            _check(f"total intensity: {name}", abs(itot - ref_itot), 1e-8)
        )
    return out


def _s_value_checks(catalog: _Catalog) -> list[CheckResult]:
    cases = [
        ("entangled_fock N=1", states.entangled_fock(1), 2 * math.sqrt(2), 1e-10),
        ("mixed_fock N=3", states.mixed_fock(3), math.sqrt(2), 1e-10),
        (
            "werner_fock p=sqrt(2)-1",
            states.werner_fock(2, math.sqrt(2) - 1),
            2.0,
            1e-10,
        ),
        (
            "pure_coherent u=1.5",
            _cataloged(catalog, StateSpec(Family.PURE_COHERENT, u=1.5)),
            2 * math.sqrt(2),
            1e-8,
        ),
        (
            "mixed_coherent R=0.25",
            states.mixed_coherent(1.5, 0.25),
            1.5 * math.sqrt(2),
            1e-8,
        ),
        (
            "two_mode_squeezed zeta=1",
            _cataloged(catalog, StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.0)),
            math.sqrt(2),
            1e-8,
        ),
    ]
    out = []
    for name, ensemble, expected, tol in cases:
        # The grid route, and the combination of four per-setting noise points.
        grid = analysis.s_parameter(ensemble, DEFAULT_CHSH_SETTINGS).s_value
        pts = [analysis.noise_point(ensemble, pair) for pair in DEFAULT_CHSH_SETTINGS.pairs()]
        single = (pts[0].mean_m + pts[1].mean_m - pts[2].mean_m + pts[3].mean_m) / pts[0].itot
        worst = max(abs(grid - expected), abs(single - expected))
        out.append(_check(f"S value: {name}", worst, tol))
    return out


def werner_decomposition_check(n_photons: int, p: float, settings: Settings) -> float:
    """Residual of the Werner variance decomposition, all terms simulated.

    The mixture variance must equal the weighted member variances plus the
    spread term p(1-p)(<M>_pure - <M>_mix)^2.
    """
    pt_w = analysis.noise_point(states.werner_fock(n_photons, p), settings)
    pt_p = analysis.noise_point(states.entangled_fock(n_photons), settings)
    pt_m = analysis.noise_point(states.mixed_fock(n_photons), settings)
    combined = (
        p * pt_p.var_m
        + (1.0 - p) * pt_m.var_m
        + p * (1.0 - p) * (pt_p.mean_m - pt_m.mean_m) ** 2
    )
    return abs(pt_w.var_m - combined)


def _misc_checks(rng, catalog: _Catalog) -> list[CheckResult]:
    out = []
    worst = 0.0
    for _ in range(5):
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        n = rng.randint(1, 3)
        worst = max(worst, werner_decomposition_check(n, rng.uniform(0, 1), s))
    out.append(_check("Werner variance decomposition", worst, 1e-10))

    basis = states.coherent_basis(2.0 * 1.5**2, 1e-10)
    small = states.mixed_coherent(1.5, 0.5, 0.7, 5, basis)
    large = states.mixed_coherent(1.5, 0.5, 0.7, 16, basis)
    worst = 0.0
    for _ in range(3):
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        a = analysis.noise_point(small, s)
        b = analysis.noise_point(large, s)
        worst = max(worst, abs(a.mean_m - b.mean_m), abs(a.var_m - b.var_m))
    out.append(_check("phase quadrature exactness K=5 vs K=16", worst, 1e-10))

    # Settings independence of the total intensity.
    worst = 0.0
    for _, ensemble, _ in catalog:
        itot = analysis.total_intensity(ensemble)
        for _ in range(3):
            s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            u = apparatus.setting_unitary(s)
            rotated = fock.OneBodyOperator(u.T @ np.eye(4) @ u)
            worst = max(worst, abs(fock.expect_one_body(ensemble, rotated) - itot))
    out.append(_check("total intensity independent of settings", worst, 1e-10))

    # Mixture variance is at least the average member variance.
    worst = 0.0
    for _, ensemble, _ in catalog:
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        total = analysis.noise_point(ensemble, s).var_m
        member_avg = sum(
            w * analysis.noise_point(member, s).var_m
            for (w, _), member in zip(ensemble.members, ensemble.member_moments)
        )
        worst = max(worst, member_avg - total)
    out.append(_check("mixture variance convexity", worst, 1e-9))
    return out


def _fock_route(ensemble: StateEnsemble, op: fock.OneBodyOperator) -> tuple[float, float]:
    """Mean <psi|B psi> and variance from ||B psi||^2, member by member."""
    mean = 0.0
    second = 0.0
    for w, s in ensemble.members:
        bs = fock.apply_one_body(s, op)
        mean += w * s.overlap(bs).real
        second += w * float(np.vdot(bs.amplitudes, bs.amplitudes).real)
    return mean, second - mean * mean


def _measurement_room(basis: BasisConfig) -> BasisConfig:
    """A catalog basis with cutoff 2 on Hv/Vh, room for the photons M moves."""
    return BasisConfig((basis.cutoffs[ModeIndex.HH], 2, 2, basis.cutoffs[ModeIndex.VV]))


def _moment_core_check(rng) -> CheckResult:
    """Moment-tensor contraction against applying M to the Fock tensor.

    The two routes agree exactly when no photon is raised past a cutoff, so
    the random states leave the top bin of every mode empty and the catalog
    states are built on bases with room on Hv/Vh.
    """
    basis = BasisConfig((3, 3, 3, 3))
    ensembles = []
    for _ in range(3):
        amps = np.zeros(basis.dims, dtype=np.complex128)
        amps[:3, :3, :3, :3] = _normal(rng, 3, 3, 3, 3) + 1j * _normal(rng, 3, 3, 3, 3)
        state = fock.PureState(basis, amps / np.linalg.norm(amps))
        ensembles.append(StateEnsemble.pure(state))
    squeezed = states.squeezed_basis(1.0)
    ensembles.append(states.werner_fock(2, 0.4, _measurement_room(states.fock_basis(2))))
    ensembles.append(states.two_mode_squeezed(1.0, _measurement_room(squeezed)))
    worst = 0.0
    for ensemble in ensembles:
        for _ in range(3):
            s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            op = apparatus.m_operator(s)
            core = fock.mean_and_variance(ensemble, op)
            oracle = _fock_route(ensemble, op)
            worst = max(worst, *(abs(a - b) for a, b in zip(core, oracle)))
    return _check("moment core vs Fock route (apply_one_body)", worst, 1e-10)


def _gaussian_build_check(rng, catalog: _Catalog) -> CheckResult:
    """Closed-form Gaussian builds against exponentiating their generators.

    Each state is rebuilt on the same basis with ``fock.displace`` or
    ``fock.two_mode_squeeze``; residuals are relative to the total intensity.
    """
    u = 1.5 - 0.5j
    pure = states.pure_coherent(u)
    amp = u / math.sqrt(2.0)
    on_hh = fock.displace(fock.vacuum(pure.basis), ModeIndex.HH, amp)
    pairs = [(pure, StateEnsemble.pure(fock.displace(on_hh, ModeIndex.VV, amp)))]

    u, reflectivity, phi, k = 1.5, 0.3, 0.4, states.DEFAULT_PHASE_POINTS
    mixed = states.mixed_coherent(u, reflectivity, phi, k)
    root_r, root_t = math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity)
    # Every member shares the displacement of Hh.
    on_hh = fock.displace(fock.vacuum(mixed.basis), ModeIndex.HH, u)
    members = []
    for j in range(k):
        u_vv = u * (root_r * cmath.exp(1j * phi) + root_t * cmath.exp(2j * math.pi * j / k))
        members.append((1.0 / k, fock.displace(on_hh, ModeIndex.VV, u_vv)))
    pairs.append((mixed, StateEnsemble(tuple(members))))

    squeezed_catalog = _cataloged(catalog, StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=1.0))
    for zeta, squeezed in ((1.0, squeezed_catalog), (1.2j, states.two_mode_squeezed(1.2j))):
        vacuum = fock.vacuum(squeezed.basis)
        oracle = fock.two_mode_squeeze(vacuum, ModeIndex.HH, ModeIndex.VV, zeta)
        pairs.append((squeezed, StateEnsemble.pure(oracle)))

    worst = 0.0
    for closed, oracle in pairs:
        itot = analysis.total_intensity(closed)
        for _ in range(3):
            s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            op = apparatus.m_operator(s)
            a = fock.mean_and_variance(closed, op)
            b = fock.mean_and_variance(oracle, op)
            worst = max(worst, *(abs(x - y) / itot for x, y in zip(a, b)))
    return _check("closed-form Gaussian builds vs expm route", worst, 1e-9)


def _random_specs(rng) -> list[StateSpec]:
    """One state per family with seeded parameters at Fock-oracle sizes."""

    def amplitude(bound: float) -> complex:
        return complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))

    return [
        StateSpec(Family.ENTANGLED_FOCK, n=rng.randint(1, 5)),
        StateSpec(Family.MIXED_FOCK, n=rng.randint(1, 5)),
        StateSpec(Family.WERNER_FOCK, n=rng.randint(1, 5), p=rng.random()),
        StateSpec(Family.PURE_COHERENT, u=amplitude(1.0)),
        StateSpec(
            Family.MIXED_COHERENT,
            u=amplitude(1.0),
            reflectivity=rng.random(),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        ),
        StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=amplitude(1.0)),
    ]


def _closed_form_moments_check(rng, catalog: _Catalog) -> CheckResult:
    """Closed-form moments of ``states.build`` against the Fock-tensor moments.

    The catalog states and one seeded random state per family, each at the
    same three seeded settings; residuals are relative to the total intensity.
    """
    cases = [(spec, ensemble) for _, ensemble, spec in catalog]
    cases.extend((spec, states.fock_ensemble(spec)) for spec in _random_specs(rng))
    ops = [
        apparatus.m_operator(Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi)))
        for _ in range(3)
    ]
    worst = 0.0
    for spec, ensemble in cases:
        closed = states.build(spec)
        itot = analysis.total_intensity(ensemble)
        for op in ops:
            a = fock.mean_and_variance(closed, op)
            b = fock.mean_and_variance(ensemble, op)
            worst = max(worst, *(abs(x - y) / itot for x, y in zip(a, b)))
    return _check("closed-form moments vs Fock-tensor moments", worst, 1e-9)


def run_verification() -> list[CheckResult]:
    rng = random.Random(_SEED)
    catalog = [(name, states.fock_ensemble(spec), spec) for name, spec in _CATALOG]
    results = [_mode_power_check()]
    results.extend(_concurrence_checks(rng))
    results.extend(_partition_checks())
    results.extend(_apparatus_checks(rng))
    results.extend(_closed_form_checks(rng, catalog))
    results.extend(_s_value_checks(catalog))
    results.extend(_misc_checks(rng, catalog))
    results.append(_moment_core_check(rng))
    results.append(_gaussian_build_check(rng, catalog))
    results.append(_closed_form_moments_check(rng, catalog))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
