"""Catalog of the six input-state families used in the Bell-noise comparison.

``build`` gives a state's moments (``fock.Moments``) from each family's
closed form, in constant time and memory whatever the photon number,
amplitude or squeezing. The Fock builders (``entangled_fock`` ...
``two_mode_squeezed``, reached from a StateSpec through ``fock_ensemble``)
are the oracle that ``verify`` and the tests check the closed forms against.
They truncate at the one tail tolerance ``fock.DEFAULT_EPS``, average the
mixed coherent state over ``DEFAULT_PHASE_POINTS`` phases, and are guarded by
``fock.MAX_DIMENSION`` and ``MAX_ENSEMBLE_AMPLITUDES``.

The Gaussian Fock builders (coherent, mixed coherent, two-mode squeezed) use
the closed-form number-basis amplitudes, truncated at the cutoffs and
renormalized; ``fock.displace`` and ``fock.two_mode_squeeze`` remain as the
expm route that ``verify`` checks them against. All families excite only the
Hh and Vv modes, so the measurement-only modes Hv and Vh carry cutoff 0:
``fock.moments`` only lowers, so no room for moved photons is needed. The
builders refuse the arguments ``StateSpec`` refuses, by name, and check a
basis for room only when the caller gives one.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import fock
from .errors import DOMAINS, SimulationError, TruncationError, checked
from .fock import BasisConfig, ModeIndex, Moments, PureState, StateEnsemble
from .partitions import BELL_MODES, BellModeLabel, fock_on_bell_mode

#: Headroom on the Fock oracle's source cutoffs: DEFAULT_EPS bounds the tail's
#: probability, but the moments weight it by n and n^2. Without headroom the
#: oracle misses the closed forms by 2.5e-8 of itot, over the `verify` bounds.
SOURCE_HEADROOM = 2

#: Default number of phase points in the mixed-coherent ensemble. Discrete
#: averaging is exact for trigonometric degree < K and the intensity moments
#: have degree <= 4; 8 adds margin.
DEFAULT_PHASE_POINTS = 8

#: Cap on the amplitudes an ensemble holds over all its members (1 GiB of
#: complex128); ``fock.MAX_DIMENSION`` guards one member only.
MAX_ENSEMBLE_AMPLITUDES = 2**26


class Family(enum.Enum):
    ENTANGLED_FOCK = "entangled_fock"
    MIXED_FOCK = "mixed_fock"
    WERNER_FOCK = "werner_fock"
    PURE_COHERENT = "pure_coherent"
    MIXED_COHERENT = "mixed_coherent"
    TWO_MODE_SQUEEZED_VACUUM = "two_mode_squeezed_vacuum"


@dataclass(frozen=True)
class StateSpec:
    """Family plus its parameters; the unit of CLI configuration. Each given
    parameter is checked against, and stored as the Python type of, its
    ``errors.DOMAINS`` entry; every parameter the family requires is given."""

    family: Family
    n: int | None = None
    p: float | None = None
    u: complex | None = None
    reflectivity: float | None = None
    phi: float = 0.0
    zeta: complex | None = None

    def __post_init__(self):
        for field in dataclasses.fields(self)[1:]:
            if (value := getattr(self, field.name)) is not None:
                object.__setattr__(self, field.name, checked(field.name, value))
        for name in FAMILIES[self.family].required:
            if getattr(self, name) is None:
                raise SimulationError(f"family {self.family.value} requires parameter {name!r}")


def _source_basis(source_cutoff: int) -> BasisConfig:
    return BasisConfig((source_cutoff, 0, 0, source_cutoff))


def fock_basis(n_photons: int) -> BasisConfig:
    return _source_basis(n_photons + SOURCE_HEADROOM)


def coherent_basis(max_mean_n: float, eps: float) -> BasisConfig:
    return _source_basis(fock.poisson_tail_cutoff(max_mean_n, eps) + SOURCE_HEADROOM)


def squeezed_basis(zeta: complex) -> BasisConfig:
    # Second moments weight the thermal tail by n^2, so the cutoff is chosen
    # against a much smaller tail mass than DEFAULT_EPS.
    tail = fock.DEFAULT_EPS * 1e-4
    return _source_basis(fock.tmsv_tail_cutoff(abs(zeta) / 2.0, tail) + SOURCE_HEADROOM)


def _check_ensemble_size(members: int, basis: BasisConfig) -> None:
    """Raise TruncationError before allocating an ensemble over the guard."""
    if members * basis.dimension > MAX_ENSEMBLE_AMPLITUDES:
        raise TruncationError(
            f"ensemble of {members} members of dimension {basis.dimension} at cutoff "
            f"{max(basis.cutoffs)} exceeds the guard "
            f"MAX_ENSEMBLE_AMPLITUDES={MAX_ENSEMBLE_AMPLITUDES}",
            required_cutoff=max(basis.cutoffs),
        )


def entangled_fock(n_photons: int, basis: BasisConfig | None = None) -> StateEnsemble:
    """N photons coherently shared between Hh and Vv (Fock state on Psi+)."""
    n_photons = checked("n_photons", n_photons, DOMAINS["n"])
    if basis is None:
        basis = fock_basis(n_photons)
    return StateEnsemble.pure(fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis))


def binomial_weights(n_photons: int) -> list[float]:
    return [math.comb(n_photons, n) / 2**n_photons for n in range(n_photons + 1)]


def mixed_fock(n_photons: int, basis: BasisConfig | None = None) -> StateEnsemble:
    """Fully dephased N-photon state: binomial mixture of |n, N-n> splits."""
    n_photons = checked("n_photons", n_photons, DOMAINS["n"])
    if basis is None:
        basis = fock_basis(n_photons)
    elif basis.cutoffs[ModeIndex.HH] < n_photons or basis.cutoffs[ModeIndex.VV] < n_photons:
        raise SimulationError("cutoffs too small for the requested photon number")
    _check_ensemble_size(n_photons + 1, basis)
    n = np.arange(n_photons + 1)
    pairs = np.zeros((n.size, basis.dims[ModeIndex.HH], basis.dims[ModeIndex.VV]))
    pairs[n, n, n_photons - n] = 1.0
    members = zip(binomial_weights(n_photons), pairs)
    return StateEnsemble(tuple((w, _on_source_modes(basis, pair)) for w, pair in members))


def werner_fock(
    n_photons: int, p: float, basis: BasisConfig | None = None
) -> StateEnsemble:
    """Convex mixture p * entangled + (1-p) * dephased."""
    n_photons = checked("n_photons", n_photons, DOMAINS["n"])
    p = checked("p", p)
    if basis is None:
        basis = fock_basis(n_photons)
    if p == 1.0:
        return entangled_fock(n_photons, basis)
    if p == 0.0:
        return mixed_fock(n_photons, basis)
    _check_ensemble_size(n_photons + 2, basis)
    members = [(p, fock_on_bell_mode(n_photons, BellModeLabel.PSI_PLUS, basis))]
    for w, s in mixed_fock(n_photons, basis).members:
        members.append(((1.0 - p) * w, s))
    return StateEnsemble(tuple(members))


def _on_source_modes(basis: BasisConfig, pair: np.ndarray) -> PureState:
    """Normalized state with amplitudes ``pair[n_hh, n_vv]``, vacuum on Hv/Vh."""
    amps = np.zeros(basis.dims, dtype=np.complex128)
    idx = [0] * basis.n_modes
    idx[ModeIndex.HH] = idx[ModeIndex.VV] = slice(None)
    amps[tuple(idx)] = pair
    amps /= np.linalg.norm(amps)
    return PureState(basis, amps)


def _coherent_column(u: complex, cutoff: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|u|^2/2} u^n / sqrt(n!) for n = 0..cutoff.

    The moduli come from the Poisson log-probabilities, so the column is
    finite and accurate wherever ``fock.poisson_tail_cutoff`` converges.
    """
    mean = abs(u) ** 2
    if mean == 0.0:
        return np.eye(1, cutoff + 1, dtype=np.complex128)[0]
    n = np.arange(cutoff + 1)
    return np.exp(0.5 * fock.log_poisson(mean, cutoff) + 1j * cmath.phase(u) * n)


def _coherent_pairs(basis: BasisConfig, u_hh: complex, u_vv: list[complex]) -> list[PureState]:
    """Products of a coherent state u_hh on Hh with each coherent state of u_vv
    on Vv, from closed form."""
    column_hh = _coherent_column(u_hh, basis.cutoffs[ModeIndex.HH])
    cut_vv = basis.cutoffs[ModeIndex.VV]
    return [
        _on_source_modes(basis, np.multiply.outer(column_hh, _coherent_column(v, cut_vv)))
        for v in u_vv
    ]


def pure_coherent(u: complex, basis: BasisConfig | None = None) -> StateEnsemble:
    """Coherent state on the Psi+ mode: displacements u/sqrt(2) on Hh and Vv.

    A derived basis has room by construction; a given one is checked.
    """
    amp = checked("u", u) / math.sqrt(2.0)
    if basis is None:
        basis = coherent_basis(fock.coherent_mean(u) / 2.0, fock.DEFAULT_EPS)
    else:
        fock.check_displacement_room(basis, ModeIndex.HH, amp)
        fock.check_displacement_room(basis, ModeIndex.VV, amp)
    return StateEnsemble.pure(_coherent_pairs(basis, amp, [amp])[0])


def mixed_coherent(
    u: complex,
    reflectivity: float,
    phi: float = 0.0,
    phase_points: int = DEFAULT_PHASE_POINTS,
    basis: BasisConfig | None = None,
) -> StateEnsemble:
    """Coherent Hh beam paired with a phase-contaminated coherent Vv beam.

    Member k displaces Vv by u (sqrt(R) e^{i phi} + sqrt(1-R) e^{i theta_k})
    with theta_k uniform on the circle; the discrete average is exact for all
    moments of trigonometric degree below the number of phase points. A
    derived basis has room for every member by construction; a given one is
    checked.
    """
    u = checked("u", u)
    reflectivity = checked("reflectivity", reflectivity)
    phi = checked("phi", phi)
    phase_points = checked("phase_points", phase_points)
    root_r = math.sqrt(reflectivity)
    root_t = math.sqrt(1.0 - reflectivity)
    shift = root_r * cmath.exp(1j * phi)
    turns = (cmath.exp(2j * math.pi * k / phase_points) for k in range(phase_points))
    u_vv = [u * (shift + root_t * turn) for turn in turns]
    if basis is None:
        max_mean = max(fock.coherent_mean(u), fock.coherent_mean(abs(u) * (root_r + root_t)))
        basis = coherent_basis(max_mean, fock.DEFAULT_EPS)
    else:
        fock.check_displacement_room(basis, ModeIndex.HH, u)
        # The Poisson tail grows with the mean, so the largest displacement needs the most room.
        fock.check_displacement_room(basis, ModeIndex.VV, max(u_vv, key=abs))
    _check_ensemble_size(phase_points, basis)
    weight = 1.0 / phase_points
    return StateEnsemble(tuple((weight, s) for s in _coherent_pairs(basis, u, u_vv)))


def two_mode_squeezed(zeta: complex, basis: BasisConfig | None = None) -> StateEnsemble:
    """Two-mode squeezed vacuum on (Hh, Vv) with squeezing strength |zeta|/2.

    The state exp((zeta* a b - zeta a+ b+)/2)|0, 0> in closed form:
    sum_n (-e^{i theta} tanh r)^n / cosh r |n, n> with r = |zeta|/2 and
    theta = arg zeta. A derived basis has room by construction; a given one
    is checked.
    """
    zeta = checked("zeta", zeta)
    if basis is None:
        basis = squeezed_basis(zeta)
    else:
        fock.check_squeezing_room(basis, ModeIndex.HH, ModeIndex.VV, zeta)
    r = abs(zeta) / 2.0
    dims = (basis.dims[ModeIndex.HH], basis.dims[ModeIndex.VV])
    n = np.arange(min(dims))
    pair = np.zeros(dims, dtype=np.complex128)
    phase = np.exp(1j * (cmath.phase(zeta) + math.pi) * n)
    pair[n, n] = math.tanh(r) ** n * phase / math.cosh(r)
    return StateEnsemble.pure(_on_source_modes(basis, pair))


#: The Psi+ mode vector (e_Hh + e_Vv)/sqrt(2) on (Hh, Hv, Vh, Vv).
_PSI_PLUS = np.array(BELL_MODES[BellModeLabel.PSI_PLUS])


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The fourth-rank tensor x_ac y_bd."""
    return np.einsum("ac,bd->abcd", x, y)


def _entangled_fock_moments(n: int) -> tuple[np.ndarray, np.ndarray]:
    """G = N v*v^T and K = -N v*_a v*_b v_c v_d for N photons in the mode v."""
    v = _PSI_PLUS
    return n * np.outer(v, v), -n * np.einsum("a,b,c,d->abcd", v, v, v, v)


def _mixed_fock_moments(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The binomial mixture of |m, N-m> on (Hh, Vv).

    G = diag(N/2, 0, 0, N/2); K_abab = -N/4 and K_abba = N(N-1)/4 (a != b)
    for a, b in {Hh, Vv}, written directly rather than as Gamma - G G.
    """
    source = (ModeIndex.HH, ModeIndex.VV)
    g = np.zeros((4, 4))
    k = np.zeros((4,) * 4)
    for a in source:
        g[a, a] = n / 2
        for b in source:
            k[a, b, b, a] = n * (n - 1) / 4
            k[a, b, a, b] = -n / 4
    return g, k


def _werner_fock_moments(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The mixture p entangled + (1-p) dephased: K gains p(1-p) dG_ac dG_bd."""
    g_e, k_e = _entangled_fock_moments(n)
    g_m, k_m = _mixed_fock_moments(n)
    delta = g_e - g_m
    g = p * g_e + (1.0 - p) * g_m
    return g, p * k_e + (1.0 - p) * k_m + p * (1.0 - p) * _pair(delta, delta)


def _coherent_moments(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = alpha* alpha^T and K = 0 for the coherent amplitudes alpha."""
    return np.outer(alpha.conj(), alpha), np.zeros((4,) * 4)


def _mixed_coherent_moments(
    u: complex, reflectivity: float, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """The phase average of coherent states with amplitudes m + e^{i theta} f.

    m = (u, 0, 0, u sqrt(R) e^{i phi}) and f = (0, 0, 0, u sqrt(1-R)). Member
    G's deviate from their average m*m^T + f*f^T by e^{i theta} X +
    e^{-i theta} Y with X = m* f^T and Y = f* m^T, so the average of
    (G - G_avg)_ac (G - G_avg)_bd, which is K, is X_ac Y_bd + Y_ac X_bd. It
    equals the discrete average over any number of phase points from 3 on.
    """
    m = np.array([u, 0.0, 0.0, u * math.sqrt(reflectivity) * cmath.exp(1j * phi)])
    f = np.array([0.0, 0.0, 0.0, u * math.sqrt(1.0 - reflectivity)])
    x, y = np.outer(m.conj(), f), np.outer(f.conj(), m)
    return np.outer(m.conj(), m) + np.outer(f.conj(), f), _pair(x, y) + _pair(y, x)


def _two_mode_squeezed_moments(zeta: complex) -> tuple[np.ndarray, np.ndarray]:
    """Wick/Isserlis moments of the two-mode squeezed vacuum on (Hh, Vv).

    With r = |zeta|/2 and theta = arg zeta: N = <a+a> = sinh^2 r on both
    modes, M = <a_Hh a_Vv> = -e^{i theta} sinh r cosh r, and
    K_abcd = G_ad G_bc + M*_ab M_cd.
    """
    r = abs(zeta) / 2.0
    sinh = math.sinh(r)
    g = np.zeros((4, 4))
    g[ModeIndex.HH, ModeIndex.HH] = g[ModeIndex.VV, ModeIndex.VV] = sinh * sinh
    pairing = np.zeros((4, 4), dtype=np.complex128)
    pairing[ModeIndex.HH, ModeIndex.VV] = pairing[ModeIndex.VV, ModeIndex.HH] = (
        -cmath.exp(1j * cmath.phase(zeta)) * sinh * math.cosh(r)
    )
    k = np.einsum("ad,bc->abcd", g, g) + np.einsum("ab,cd->abcd", pairing.conj(), pairing)
    return g, k


class FamilyRoutes(NamedTuple):
    """What the package knows of one family."""

    #: StateSpec fields the family requires.
    required: tuple[str, ...]
    #: The state as a Fock ensemble, on a given basis or a default one.
    fock: Callable[[StateSpec, BasisConfig | None], StateEnsemble]
    #: The state's (G, K) in closed form.
    moments: Callable[[StateSpec], tuple[np.ndarray, np.ndarray]]
    #: StateSpec fields the family takes besides the required ones.
    optional: tuple[str, ...] = ()


FAMILIES = {
    Family.ENTANGLED_FOCK: FamilyRoutes(
        ("n",),
        lambda s, basis: entangled_fock(s.n, basis),
        lambda s: _entangled_fock_moments(s.n),
    ),
    Family.MIXED_FOCK: FamilyRoutes(
        ("n",),
        lambda s, basis: mixed_fock(s.n, basis),
        lambda s: _mixed_fock_moments(s.n),
    ),
    Family.WERNER_FOCK: FamilyRoutes(
        ("n", "p"),
        lambda s, basis: werner_fock(s.n, s.p, basis),
        lambda s: _werner_fock_moments(s.n, s.p),
    ),
    Family.PURE_COHERENT: FamilyRoutes(
        ("u",),
        lambda s, basis: pure_coherent(s.u, basis),
        lambda s: _coherent_moments(s.u * _PSI_PLUS),
    ),
    Family.MIXED_COHERENT: FamilyRoutes(
        ("u", "reflectivity"),
        lambda s, basis: mixed_coherent(s.u, s.reflectivity, s.phi, basis=basis),
        lambda s: _mixed_coherent_moments(s.u, s.reflectivity, s.phi),
        ("phi",),
    ),
    Family.TWO_MODE_SQUEEZED_VACUUM: FamilyRoutes(
        ("zeta",),
        lambda s, basis: two_mode_squeezed(s.zeta, basis),
        lambda s: _two_mode_squeezed_moments(s.zeta),
    ),
}


def build(spec: StateSpec) -> Moments:
    """The moments of the state described by a StateSpec, in closed form.

    No Fock tensor is built: time and memory do not depend on the state's
    size. The returned moments carry :func:`fock_ensemble` of the same spec as
    their oracle, which only ``basis`` and ``members`` build. Moments beyond
    the float range raise TruncationError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            g, k = FAMILIES[spec.family].moments(spec)
    except OverflowError:
        raise TruncationError("the moments of the state are beyond the float range") from None
    return Moments(g, k, oracle=functools.partial(fock_ensemble, spec))


def fock_ensemble(spec: StateSpec, basis: BasisConfig | None = None) -> StateEnsemble:
    """The state described by a StateSpec as a Fock ensemble: the oracle for
    :func:`build`. The basis defaults to the family's own cutoffs, guarded by
    ``fock.MAX_DIMENSION`` and ``MAX_ENSEMBLE_AMPLITUDES``."""
    return FAMILIES[spec.family].fock(spec, basis)
