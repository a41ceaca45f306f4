"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s);
failures surface as ordinary assertion errors.
"""

import math
import time

import numpy as np
import pytest

from spinorbit_bell import analysis, fock, partitions, states, verify
from spinorbit_bell.apparatus import DEFAULT_CHSH_SETTINGS, Settings
from spinorbit_bell.fock import BasisConfig, ModeIndex, StateEnsemble
from spinorbit_bell.partitions import BellModeLabel
from spinorbit_bell.states import Family, StateSpec

SQRT2 = math.sqrt(2.0)
GRID_17 = np.linspace(0.0, math.pi, 17)
GRID_9 = np.linspace(0.0, math.pi, 9)


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_single_photon_max_violation():
    start = time.perf_counter()
    result = analysis.s_parameter(states.entangled_fock(1), DEFAULT_CHSH_SETTINGS)
    elapsed = time.perf_counter() - start
    assert abs(result.s_value - 2 * SQRT2) < 1e-10
    assert elapsed < 1.0
    report(1, f"single-photon S = 2*sqrt(2) within 1e-10 in {elapsed:.3f}s")


@pytest.mark.parametrize("n", [1, 2, 5])
def test_criterion_02_entangled_fock_grid(n):
    pts = analysis.settings_scan(states.entangled_fock(n), GRID_17, GRID_17)
    worst = 0.0
    for pt in pts:
        rel = 2 * (pt.settings.beta - pt.settings.alpha)
        worst = max(worst, abs(pt.mean_ratio - math.cos(rel)))
        worst = max(worst, abs(pt.var_ratio - math.sin(rel) ** 2))
    assert worst < 1e-9
    report(2, f"entangled Fock N={n} mean/variance over 17x17 grid, max err {worst:.2e}")


@pytest.mark.parametrize("n", [1, 2, 5])
def test_criterion_03_entangled_fock_squeezing(n):
    e = states.entangled_fock(n)
    for pair in DEFAULT_CHSH_SETTINGS.pairs():
        pt = analysis.noise_point(e, pair)
        assert abs(pt.var_ratio - 0.5) < 1e-9
    perfect = analysis.noise_point(e, Settings(0.0, math.pi / 2))
    assert perfect.var_ratio < 1e-9
    report(3, f"N={n}: 50% squeezing at Bell settings; perfect at beta-alpha=pi/2")


@pytest.mark.parametrize("n", [1, 2, 5])
def test_criterion_04_mixed_fock(n):
    e = states.mixed_fock(n)
    s_val = analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS).s_value
    assert abs(s_val - SQRT2) < 1e-10
    spec = StateSpec(Family.MIXED_FOCK, n=n)
    pts = analysis.settings_scan(e, GRID_17, GRID_17)
    worst = max(
        abs(pt.var_ratio - analysis.closed_form(spec, pt.settings)[1]) for pt in pts
    )
    assert worst < 1e-9
    quarter = analysis.noise_point(e, Settings(math.pi / 4, math.pi / 4))
    assert abs(quarter.var_ratio - (n + 1) / 2.0) < 1e-9
    report(4, f"mixed Fock N={n}: S = sqrt(2), variance formula over grid, max err {worst:.2e}")


def test_criterion_05_werner_family():
    for p in (0.0, 0.2, SQRT2 - 1, 0.8, 1.0):
        s_val = analysis.s_parameter(states.werner_fock(2, p), DEFAULT_CHSH_SETTINGS).s_value
        assert abs(s_val - (1 + p) * SQRT2) < 1e-10
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(0, 1))
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        worst = max(worst, verify.werner_decomposition_check(n, p, s))
    assert worst < 1e-10
    report(5, f"Werner S = (1+p)*sqrt(2); decomposition residual max {worst:.2e}")


@pytest.mark.parametrize("u", [1.0, 2.0])
def test_criterion_06_pure_coherent(u):
    eps = 1e-10
    e = states.pure_coherent(u)
    result = analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS)
    itot = result.points[0].itot
    tol = 5.0 * eps * max(1.0, itot**2)
    assert abs(result.s_value - 2 * SQRT2) < tol
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = Settings(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        pt = analysis.noise_point(e, s)
        assert abs(pt.var_ratio - 1.0) < 1e-6
    report(6, f"pure coherent u={u}: S = 2*sqrt(2) within {tol:.1e}, shot noise at 10 settings")


def test_criterion_07_mixed_coherent():
    for big_r, phi in ((0.0, 0.0), (0.25, 0.0), (1.0, 0.0), (0.5, math.pi / 3)):
        e = states.mixed_coherent(2.0, big_r, phi)
        s_val = analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS).s_value
        expected = (1 + math.sqrt(big_r) * math.cos(phi)) * SQRT2
        assert abs(s_val - expected) < 1e-8
    e = states.mixed_coherent(2.0, 0.0)
    spec = StateSpec(Family.MIXED_COHERENT, u=2.0, reflectivity=0.0)
    pts = analysis.settings_scan(e, GRID_9, GRID_9)
    worst = max(
        abs(pt.var_ratio - analysis.closed_form(spec, pt.settings)[1]) for pt in pts
    )
    assert worst < 1e-8
    report(7, f"mixed coherent S values; R=0 noise formula over grid, max err {worst:.2e}")


@pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
def test_criterion_08_two_mode_squeezed(zeta):
    start = time.perf_counter()
    e = states.two_mode_squeezed(zeta)
    itot = analysis.total_intensity(e)
    expected_itot = 2 * math.sinh(zeta / 2.0) ** 2
    assert abs(itot - expected_itot) < 1e-10
    s_val = analysis.s_parameter(e, DEFAULT_CHSH_SETTINGS).s_value
    assert abs(s_val - SQRT2) < 1e-8
    spec = StateSpec(Family.TWO_MODE_SQUEEZED_VACUUM, zeta=zeta)
    pts = analysis.settings_scan(e, GRID_9, GRID_9)
    worst = max(
        abs(pt.var_ratio - analysis.closed_form(spec, pt.settings)[1]) for pt in pts
    )
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    report(8, f"TMSV zeta={zeta}: itot, S, noise formula (err {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_09_partition_identities():
    basis = BasisConfig((5, 1, 1, 5))
    for n in range(6):
        assert partitions.verify_partition_identity(n, basis) < 1e-12
    cbasis = states.coherent_basis(2.0, 1e-12)
    for u in (0.5, 1.0 + 1.0j, 2.0):
        prod = partitions.coherent_on_bell_mode(u, BellModeLabel.PSI_PLUS, cbasis)
        joint = fock.displace_pair_generator(
            fock.vacuum(cbasis),
            ModeIndex.HH,
            ModeIndex.VV,
            u / SQRT2,
            u / SQRT2,
        )
        assert float(np.linalg.norm(prod.amplitudes - joint.amplitudes)) < 1e-9
    report(9, "partition identities N<=5 and coherent factorization |u|<=2")


def test_criterion_10_vacuum_port_regression():
    rng = np.random.default_rng(99)
    residual = verify.eight_mode_residual(rng)
    assert residual < 1e-12
    report(10, f"8-mode vs 4-mode single-photon moments agree, residual {residual:.2e}")


def test_criterion_11_property_suites():
    results = verify.run_verification()
    failed = [r for r in results if not r.passed]
    assert not failed, verify.format_report(results)
    report(11, f"all {len(results)} invariant/oracle checks pass")
