"""Truncated multimode bosonic Fock-space engine.

States live on a product of per-mode truncated harmonic-oscillator spaces.
The standard four spin-orbit modes are (Hh, Hv, Vh, Vv); the engine itself
works for any mode count so that vacuum ancilla ports can be included in
regression checks.

Linear indexing convention: occupation of the first mode varies slowest,
the last mode fastest (C order over the axis tuple).

The exponentials are taken of the truncated generators, each once and
exactly where the generator allows it: a displacement through one
eigendecomposition per cutoff, two-mode squeezing chain by chain on the
chains of fixed n_A - n_B, and the joint displacement of a mode pair as a
Chebyshev series. ``moments`` lowers all members of an ensemble at once.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SimulationError, TruncationError

#: The Fock oracle's one truncation tolerance: the probability a state may
#: keep beyond its source cutoffs, which the room checks and builders enforce.
DEFAULT_EPS = 1e-10

#: Hard cap on state-vector length; guards against accidental huge bases.
MAX_DIMENSION = 4_000_000


class ModeIndex(enum.IntEnum):
    """The four spin-orbit input modes, ordered as (Hh, Hv, Vh, Vv).

    Capital letter is the polarization (H/V), lowercase the first-order
    transverse orientation (h/v).
    """

    HH = 0
    HV = 1
    VH = 2
    VV = 3


@dataclass(frozen=True)
class BasisConfig:
    """Per-mode occupation cutoffs defining the truncated product basis."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.cutoffs) == 0:
            raise SimulationError("basis needs at least one mode")
        if any(int(c) != c or c < 0 for c in self.cutoffs):
            raise SimulationError("cutoffs must be nonnegative integers")
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))
        if self.dimension > MAX_DIMENSION:
            raise TruncationError(
                f"basis dimension {self.dimension} at cutoff {max(self.cutoffs)} (cutoffs "
                f"{self.cutoffs}) exceeds the guard MAX_DIMENSION={MAX_DIMENSION}",
                required_cutoff=max(self.cutoffs),
            )

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dimension(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)


@dataclass(frozen=True)
class PureState:
    """Complex amplitude tensor over the truncated occupation basis."""

    basis: BasisConfig
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != self.basis.dims:
            raise SimulationError(
                f"amplitude shape {amps.shape} does not match basis dims {self.basis.dims}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        if other.basis != self.basis:
            raise SimulationError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class StateEnsemble:
    """Weighted list of pure states representing a (possibly mixed) state."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.members:
            raise SimulationError("ensemble needs at least one member")
        members = tuple((float(w), s) for w, s in self.members)
        object.__setattr__(self, "members", members)
        basis = members[0][1].basis
        total = 0.0
        for w, s in members:
            if not 0.0 < w <= 1.0:
                raise SimulationError(f"weight {w} outside (0, 1]")
            if s.basis != basis:
                raise SimulationError("ensemble members must share one basis")
            if abs(s.norm() - 1.0) > 1e-9:
                raise SimulationError(f"member norm {s.norm()} deviates from 1")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise SimulationError(f"weights sum to {total}, expected 1")

    @property
    def basis(self) -> BasisConfig:
        return self.members[0][1].basis

    @functools.cached_property
    def _grams(self) -> tuple[np.ndarray, np.ndarray]:
        """Each member's Gram matrices of its lowered vectors (see :func:`_member_grams`)."""
        return _member_grams(self)

    @functools.cached_property
    def moments(self) -> "Moments":
        """The :class:`Moments` of the truncated state, computed on first use.

        K is formed from :func:`moments` by subtraction, which is exact
        enough at the sizes a Fock tensor can hold.
        """
        return _connected(*moments(self))

    @functools.cached_property
    def member_moments(self) -> tuple["Moments", ...]:
        """The :class:`Moments` of each member alone, from the same lowering as ``moments``."""
        return tuple(
            _connected(*_expand(self.basis.cutoffs, g, gram)) for g, gram in zip(*self._grams)
        )

    @classmethod
    def pure(cls, state: PureState) -> "StateEnsemble":
        return cls(((1.0, state),))


@dataclass(frozen=True, eq=False)
class Moments:
    """Normally ordered moments of a state: all that any one-body observable needs.

    ``g[j, k]`` = <a+_j a_k>, and ``k`` is the connected fourth moment
    K_abcd = <a+_a a+_b a_c a_d> - G_ac G_bd. Keeping K rather than the raw
    fourth moment lets a variance of order itot come out of a sum whose terms
    are of that order, not as the difference of two numbers of order itot^2.

    ``oracle``, when given, builds the same state as a Fock ensemble; it runs
    on first access to ``basis`` or ``members``, which describe that ensemble.
    Moments that are not finite, or whose entries sum beyond the float range,
    raise TruncationError.
    """

    g: np.ndarray
    k: np.ndarray
    oracle: Callable[[], StateEnsemble] | None = field(default=None, repr=False)

    def __post_init__(self):
        g = np.array(self.g, dtype=np.complex128)
        k = np.array(self.k, dtype=np.complex128)
        # A bound on every contraction with a matrix whose entries are at most 1.
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.abs(g).sum() + np.abs(k).sum()
        if not np.isfinite(scale):
            raise TruncationError("the moments of the state are beyond the float range")
        g.flags.writeable = False
        k.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)

    @functools.cached_property
    def itot(self) -> float:
        """Total photon number, the trace of G."""
        return float(self.g.trace().real)

    @functools.cached_property
    def _k_pairs(self) -> np.ndarray:
        """K regrouped to (ij) x (kl) from K_ikjl: the matrix of a variance's bilinear form."""
        n = self.g.shape[0]
        return self.k.transpose(0, 2, 1, 3).reshape(n * n, n * n)

    @functools.cached_property
    def _ensemble(self) -> StateEnsemble:
        if self.oracle is None:
            raise SimulationError("these moments have no Fock oracle")
        return self.oracle()

    @property
    def basis(self) -> BasisConfig:
        """Basis of the Fock oracle, built on first access."""
        return self._ensemble.basis

    @property
    def members(self) -> tuple[tuple[float, PureState], ...]:
        """Members of the Fock oracle, built on first access."""
        return self._ensemble.members


def as_moments(state: Moments | StateEnsemble) -> Moments:
    """The moments of a state given either as moments or as a Fock ensemble."""
    return state.moments if isinstance(state, StateEnsemble) else state


@dataclass(frozen=True)
class OneBodyOperator:
    """Hermitian single-particle matrix B for the observable sum_jk B_jk a+_j a_k."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SimulationError("one-body matrix must be square")
        if not (np.isfinite(mat).all() and np.max(np.abs(mat - mat.conj().T)) <= 1e-12):
            raise SimulationError("one-body matrix must be finite and Hermitian")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


def vacuum(basis: BasisConfig) -> PureState:
    amps = np.zeros(basis.dims, dtype=np.complex128)
    amps[(0,) * basis.n_modes] = 1.0
    return PureState(basis, amps)


@functools.lru_cache(maxsize=256)
def _ladder_table(shape: tuple[int, ...], axis: int):
    """Index tuples for occupations 0..d-2 and 1..d-1 along axis, and sqrt(1..d-1)."""
    d = shape[axis]
    lead = (slice(None),) * axis
    w = np.sqrt(np.arange(1, d)).reshape((-1,) + (1,) * (len(shape) - axis - 1))
    w.flags.writeable = False
    return lead + (slice(0, d - 1),), lead + (slice(1, d),), w


def _lower(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Annihilation along one axis, out[n-1] = sqrt(n) arr[n]; a given out is 0 at the top."""
    below, above, w = _ladder_table(arr.shape, axis)
    out = np.zeros(arr.shape, arr.dtype) if out is None else out
    np.multiply(w, arr[above], out=out[below])
    return out


def _raise(arr: np.ndarray, axis: int) -> np.ndarray:
    """Creation action along one axis, projected onto the truncated space.

    The component already at the cutoff would map to occupation cutoff+1,
    outside the space, and is dropped.
    """
    below, above, w = _ladder_table(arr.shape, axis)
    out = np.zeros(arr.shape, arr.dtype)
    np.multiply(w, arr[below], out=out[above])
    return out


def apply_ladder(state: PureState, mode: int, kind: str) -> PureState:
    """Apply a single ladder operator; result is unnormalized."""
    axis = int(mode)
    if kind == "annihilate":
        return PureState(state.basis, _lower(state.amplitudes, axis))
    if kind == "create":
        return PureState(state.basis, _raise(state.amplitudes, axis))
    raise SimulationError(f"unknown ladder kind {kind!r}")


def apply_one_body(state: PureState, op: OneBodyOperator) -> PureState:
    """Apply the second-quantized operator sum_jk B_jk a+_j a_k (unnormalized).

    The implemented action is the projection of the exact operator onto the
    truncated space, which keeps it Hermitian as a matrix on that space. It
    is the Fock-route oracle for :func:`mean_and_variance`.
    """
    if op.n_modes != state.basis.n_modes:
        raise SimulationError(
            f"operator acts on {op.n_modes} modes, state has {state.basis.n_modes}"
        )
    # Each mode is lowered once, one product mixes them into
    # mix_j = sum_k B_jk a_k psi, and each mix_j is raised once on its mode j.
    arr, n = state.amplitudes, op.n_modes
    mixed = op.matrix @ np.stack([_lower(arr, k) for k in range(n)]).reshape(n, -1)
    mixed = mixed.reshape((n,) + arr.shape)
    return PureState(state.basis, sum(_raise(mixed[j], j) for j in range(n)))


@functools.lru_cache(maxsize=64)
def _active_blocks(cutoffs: tuple[int, ...]):
    """The modes with a nonzero cutoff, the np.ix_ indices of their G and Gamma
    blocks, and the index pair that expands a Gram matrix of the pairs i <= j
    to Gamma: row j(j+1)/2 + i holds the pair (i, j), and so does entry
    [i, j] or [j, i] of the table."""
    active = [m for m, c in enumerate(cutoffs) if c > 0]
    k = len(active)
    pair = [[max(i, j) * (max(i, j) + 1) // 2 + min(i, j) for j in range(k)] for i in range(k)]
    row = np.array(pair, dtype=np.intp).reshape(k, k)
    expand = (row[:, :, None, None], row[None, None, :, :])
    return active, np.ix_(active, active), np.ix_(*[active] * 4), expand


def _member_grams(ensemble: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Per member, the Gram matrices <a_i psi|a_j psi> over the active modes,
    shape (members, k, k), and <a_i a_j psi|a_k a_l psi> over the pairs i <= j,
    shape (members, k(k+1)/2, k(k+1)/2).

    The members are stacked on a leading axis, so that one lowering acts on
    all of them. Since a_i a_j psi = a_j a_i psi, only the pairs i <= j are
    lowered.
    """
    active = _active_blocks(ensemble.basis.cutoffs)[0]
    k = len(active)
    stacked = np.stack([s.amplitudes for _, s in ensemble.members])
    members, size = stacked.shape[0], stacked[0].size
    once = np.zeros((members, k) + stacked.shape[1:], dtype=np.complex128)
    twice = np.zeros((members, k * (k + 1) // 2) + stacked.shape[1:], dtype=np.complex128)
    for i, m in enumerate(active):
        _lower(stacked, m + 1, once[:, i])
    for j, m in enumerate(active):
        top = j * (j + 1) // 2
        _lower(once[:, : j + 1], m + 2, twice[:, top : top + j + 1])
    flat1 = once.reshape(members, k, size)
    flat2 = twice.reshape(members, -1, size)
    return flat1.conj() @ flat1.transpose(0, 2, 1), flat2.conj() @ flat2.transpose(0, 2, 1)


def _expand(cutoffs: tuple[int, ...], g: np.ndarray, gram: np.ndarray):
    """G and Gamma on all modes from the Gram matrices of :func:`_member_grams`."""
    n = len(cutoffs)
    active, block2, block4, expand = _active_blocks(cutoffs)
    gamma = gram[expand]
    if len(active) == n:
        return g, gamma
    g_full = np.zeros((n, n), dtype=np.complex128)
    g_full[block2] = g
    gamma_full = np.zeros((n,) * 4, dtype=np.complex128)
    gamma_full[block4] = gamma
    return g_full, gamma_full


def _connected(g: np.ndarray, gamma: np.ndarray) -> Moments:
    """Moments with K = Gamma - G_ac G_bd."""
    return Moments(g, gamma - g[:, None, :, None] * g[None, :, None, :])


def moments(ensemble: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Normally ordered moment tensors of a mixture, from lowering alone.

    Returns G with G_jk = <a+_j a_k> and Gamma with
    Gamma_ijkl = <a+_i a+_j a_k a_l>, summed over members with their weights
    as G_jk = <a_j psi|a_k psi> and Gamma_ijkl = <a_i a_j psi|a_k a_l psi>.
    Lowering never leaves the truncated space, so these are the exact moments
    of the truncated state. Modes with cutoff 0 contribute only zeros and are
    skipped. The lowering is done once per ensemble, which caches it for
    ``StateEnsemble.member_moments`` too.
    """
    weights = np.array([w for w, _ in ensemble.members])

    def weighted(x):  # sum_m w_m x[m], over the leading member axis
        return (weights @ x.reshape(weights.size, -1)).reshape(x.shape[1:])

    return _expand(ensemble.basis.cutoffs, *map(weighted, ensemble._grams))


def mean_and_variance(
    state: Moments | StateEnsemble, op: OneBodyOperator
) -> tuple[float, float]:
    """Mixture mean <B> and variance <B^2> - <B>^2 of a one-body observable.

    Contracts the state's moments: <B> = sum B_jk G_jk and
    var = sum B_ij B_kl K_ikjl + sum (B^2)_il G_il, the first sum a bilinear
    form in B with K regrouped to (ij) x (kl). The imaginary residue of the
    mean and a negative variance are checked against 1e-9 of max(1, itot),
    the scale of the rounding in the sums; a NaN fails both checks.
    """
    m = as_moments(state)
    b, n = op.matrix, op.n_modes
    if n != m.g.shape[0]:
        raise SimulationError(f"operator acts on {n} modes, state has {m.g.shape[0]}")
    tol = 1e-9 * max(1.0, m.itot)
    g = m.g.ravel()
    mean = complex(b.ravel() @ g)
    if not abs(mean.imag) <= tol:
        raise SimulationError(f"expectation has imaginary residue {mean.imag}")
    var = float((b.ravel() @ m._k_pairs @ b.ravel() + (b @ b).ravel() @ g).real)
    if not var >= -tol:
        raise SimulationError(f"negative variance {var}")
    return mean.real, var


def expect_one_body(state: Moments | StateEnsemble, op: OneBodyOperator) -> float:
    """Ensemble average of a one-body observable."""
    return mean_and_variance(state, op)[0]


def variance_one_body(state: Moments | StateEnsemble, op: OneBodyOperator) -> float:
    """Mixture-level variance <B^2> - <B>^2 of a one-body observable."""
    return mean_and_variance(state, op)[1]


#: Largest cutoff the tail searches consider before declaring divergence.
_TAIL_SEARCH_LIMIT = 100_000

#: Relative size below which a series term no longer changes the sum.
_ROUND_OFF = np.finfo(np.float64).eps / 2.0


@functools.lru_cache(maxsize=64)
def _log_factorials(length: int) -> np.ndarray:
    """log k! for k = 0..length-1."""
    table = np.array([math.lgamma(j + 1.0) for j in range(length)])
    table.flags.writeable = False
    return table


def log_poisson(mean_n: float, top: int) -> np.ndarray:
    """log P(X = k) of X ~ Poisson(mean_n) for k = 0..top, with mean_n > 0.

    Each term is formed in log space, so no term under- or overflows on the
    way even when exp(-mean_n) or mean_n^k / k! alone would.
    """
    # Tables of power-of-two lengths, so that a few serve every top.
    table = _log_factorials(1 << top.bit_length())
    return np.arange(top + 1) * math.log(mean_n) - mean_n - table[: top + 1]


def poisson_tail_cutoff(mean_n: float, eps: float) -> int:
    """Smallest cutoff n with Poisson(mean_n) mass above n at most eps.

    The tail is summed in log space from its far end, so neither an
    underflowing exp(-mean_n) nor the rounding of 1 - cdf limits it.
    """
    if mean_n <= 0.0:
        return 0
    if not mean_n <= _TAIL_SEARCH_LIMIT:
        raise TruncationError(
            f"Poisson mean {mean_n:.4g} is beyond the tail search limit {_TAIL_SEARCH_LIMIT}"
        )
    if not eps > 0.0:
        raise TruncationError(f"Poisson tail cannot fall to eps={eps}")
    # Past the mean the terms fall faster than geometrically; once below floor = eps e^-40
    # the rest cannot change the answer. By log t! >= t log t - t + 1 and Bernstein's bound,
    # all terms from t = m + L/3 + sqrt(L^2/9 + 2Lm) on, L = -log floor, are below it.
    floor = math.log(eps) - 40.0
    depth = max(-floor, 0.0)
    upper = mean_n + depth / 3.0 + math.sqrt(depth * depth / 9.0 + 2.0 * depth * mean_n)
    log_p = log_poisson(mean_n, min(math.ceil(upper), _TAIL_SEARCH_LIMIT))
    start = max(math.ceil(mean_n), 1)
    below = log_p[start:] <= floor
    if not below.any():
        raise TruncationError("Poisson tail does not converge")
    # at_least[k] = P(X >= k), so the mass above n is at_least[n + 1].
    at_least = np.cumsum(np.exp(log_p[: start + np.argmax(below) + 1])[::-1])[::-1]
    return int(np.argmax(at_least[1:] <= eps))


def coherent_mean(u: complex) -> float:
    """Mean photon number |u|^2 of a displacement by u; inf where it overflows."""
    try:
        return abs(u) ** 2
    except OverflowError:
        return math.inf


def check_displacement_room(basis: BasisConfig, mode: int, u: complex) -> None:
    """Raise TruncationError unless a displacement by u fits the mode's cutoff at DEFAULT_EPS."""
    axis = int(mode)
    cutoff = basis.cutoffs[axis]
    mean = coherent_mean(u)
    needed = poisson_tail_cutoff(mean, DEFAULT_EPS)
    if needed > cutoff:
        raise TruncationError(
            f"displacement |u|^2={mean:.4g} needs cutoff {needed} on mode "
            f"{axis}, basis has {cutoff}",
            required_cutoff=needed,
        )


def _displacement_generator(c: complex, d: int) -> np.ndarray:
    """c a+ - c* a on occupations 0..d-1, as a d x d matrix."""
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    return c * a.T - np.conj(c) * a


@functools.lru_cache(maxsize=64)
def _quadrature_eigh(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (Lambda, V) of the Hermitian i(a+ - a) on occupations 0..d-1."""
    lam, vec = np.linalg.eigh(1j * _displacement_generator(1.0, d))
    lam.flags.writeable = False
    vec.flags.writeable = False
    return lam, vec


def displace(state: PureState, mode: int, u: complex) -> PureState:
    """Apply the displacement exp(u a+ - u* a) on one mode.

    Exponentiates the generator truncated to the mode subspace. With
    R = diag(e^(i arg(u) n)), u a+ - u* a = |u| R (a+ - a) R+, so from the
    eigendecomposition i(a+ - a) = V Lambda V+, computed once per cutoff,
    U = (RV) exp(-i |u| Lambda) (RV)+, which is exactly unitary on the
    truncated space. It is the expm oracle for the closed-form coherent
    builds in ``states``.
    """
    axis = int(mode)
    check_displacement_room(state.basis, axis, u)
    if u == 0:
        return state
    d = state.basis.dims[axis]
    lam, vec = _quadrature_eigh(d)
    rotated = np.exp(1j * cmath.phase(u) * np.arange(d))[:, None] * vec
    unitary = (rotated * np.exp(-1j * abs(u) * lam)) @ rotated.conj().T
    shape = state.amplitudes.shape
    view = state.amplitudes.reshape(math.prod(shape[:axis]), d, -1)
    return PureState(state.basis, (unitary @ view).reshape(shape))


def tmsv_tail_cutoff(r: float, eps: float) -> int:
    """Smallest per-mode cutoff n with two-mode-squeezed tail below eps.

    The thermal marginal gives tail mass tanh(r)^(2(n+1)) beyond occupation n.
    """
    if not math.isfinite(r):
        raise TruncationError(f"squeezing r={r} has no finite tail cutoff")
    if r <= 0.0:
        return 0
    t2 = math.tanh(r) ** 2
    n = 0
    while t2 ** (n + 1) > eps:
        n += 1
        if n > _TAIL_SEARCH_LIMIT:
            raise TruncationError("squeezing tail does not converge")
    return n


def check_squeezing_room(basis: BasisConfig, mode_a: int, mode_b: int, zeta: complex) -> None:
    """Raise TruncationError unless squeezing by zeta fits on both cutoffs at DEFAULT_EPS."""
    r = abs(zeta) / 2.0
    needed = tmsv_tail_cutoff(r, DEFAULT_EPS)
    min_cut = min(basis.cutoffs[int(mode_a)], basis.cutoffs[int(mode_b)])
    if needed > min_cut:
        raise TruncationError(
            f"squeezing r={r:.4g} needs cutoff {needed}, basis has {min_cut}",
            required_cutoff=needed,
        )


def _distinct_finite_pair(mode_a: int, mode_b: int, what: str, *strengths: complex):
    """The pair's axes; SimulationError for a repeated mode or a non-finite strength."""
    ia, ib = int(mode_a), int(mode_b)
    if ia == ib:
        raise SimulationError(f"{what} needs two distinct modes")
    for c in strengths:
        if not cmath.isfinite(c):
            raise SimulationError(f"{what} strength {c} is not finite")
    return ia, ib


@functools.lru_cache(maxsize=16)
def _chains(da: int, db: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The chains (i + t, j + t), t = 0, 1, ..., of a (da, db) pair grid, on which
    n_A - n_B = i - j is fixed; each as its shift |i - j| and the flat indices
    (i + t) db + j + t of its sites."""
    out = []
    for s in range(1 - da, db):
        i, j = max(0, -s), max(0, s)
        t = np.arange(min(da - i, db - j))
        out.append((abs(s), (i + t) * db + j + t))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _chain_eigh(shift: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (Lambda, W) of a chain's real symmetric hopping matrix T,
    T[t, t + 1] = T[t + 1, t] = sqrt((t + 1)(t + 1 + shift)) for t = 0..length-2."""
    t = np.arange(1, length)
    hop = np.sqrt(t * (t + shift))
    lam, vec = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
    lam.flags.writeable = False
    vec.flags.writeable = False
    return lam, vec


def two_mode_squeeze(state: PureState, mode_a: int, mode_b: int, zeta: complex) -> PureState:
    """Apply exp((zeta* a_A a_B - zeta a+_A a+_B)/2) on a mode pair.

    Note the generator carries zeta/2, so the effective squeezing strength
    is r = |zeta|/2. The truncated generator keeps n_A - n_B, so it is
    exponentiated exactly on each chain of sites (i + t, j + t). On a chain it
    is P (i r T) P+ with the gauge P = diag(e^(i(arg zeta + pi/2) t)) and the
    chain's hopping matrix T = W Lambda W^T, decomposed once per chain, so its
    unitary is (PW) exp(i r Lambda) (PW)+. Chains the state leaves empty are
    skipped. It is the expm oracle for the closed-form squeezed build in
    ``states``.
    """
    ia, ib = _distinct_finite_pair(mode_a, mode_b, "two-mode squeezing", zeta)
    check_squeezing_room(state.basis, ia, ib, zeta)
    if zeta == 0:
        return state
    da, db = state.basis.dims[ia], state.basis.dims[ib]
    pair = np.moveaxis(state.amplitudes, (ia, ib), (-2, -1))
    flat = pair.reshape(-1, da * db)
    out = np.zeros(flat.shape, dtype=np.complex128)
    r = abs(zeta) / 2.0
    gauge = np.exp(1j * (cmath.phase(zeta) + math.pi / 2.0) * np.arange(min(da, db)))
    for shift, sites in _chains(da, db):
        x = flat[:, sites]
        if not x.any():
            continue
        lam, vec = _chain_eigh(shift, sites.size)
        p = gauge[: sites.size]
        out[:, sites] = ((x * p.conj()) @ vec * np.exp(1j * r * lam)) @ vec.T * p
    return PureState(state.basis, np.moveaxis(out.reshape(pair.shape), (-2, -1), (ia, ib)))


def displace_pair_generator(
    state: PureState,
    mode_a: int,
    mode_b: int,
    coeff_a: complex,
    coeff_b: complex,
) -> PureState:
    """Apply exp(c_a a+_A + c_b a+_B - h.c.) as a single joint exponential.

    Used to realize displacements of collective (superposition) modes without
    assuming they factorize into per-mode displacements.
    """
    ia, ib = _distinct_finite_pair(mode_a, mode_b, "a joint displacement", coeff_a, coeff_b)
    da, db = state.basis.dims[ia], state.basis.dims[ib]
    gen_a = _displacement_generator(coeff_a, da)
    gen_b_t = _displacement_generator(coeff_b, db).T

    def generator(x):
        return gen_a @ x + x @ gen_b_t

    norm = 2.0 * (abs(coeff_a) * math.sqrt(da - 1) + abs(coeff_b) * math.sqrt(db - 1))
    return _apply_exponential(state, ia, ib, generator, norm)


#: The factor by which Miller's recurrence is scaled down before it overflows; a power
#: of two, so that the scaling is exact.
_BESSEL_RESCALE = 2.0**64


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), ..., J_(K-1)(x) for x > 0, where K is the first order past x and
    past 1 with |J_K(x)| below round-off.

    Miller's backward recurrence J_(k-1) = (2k/x) J_k - J_(k+1), started at an
    arbitrary scale above every order it returns, rescaled before it can
    overflow, and normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.
    """
    # |J_k(x)| <= (x/2)^k / k!, below round-off from order top on; starting 16 orders
    # higher leaves a negligible admixture of the growing solution Y_k.
    log_half, log_floor = math.log(x / 2.0), math.log(_ROUND_OFF)
    top = math.floor(max(x, 1.0)) + 1
    while top * log_half - math.lgamma(top + 1.0) > log_floor:
        top += 1
    start = top + 16
    j = [0.0] * (start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > _BESSEL_RESCALE:
            j[k - 1 :] = [v / _BESSEL_RESCALE for v in j[k - 1 :]]
    values = np.array(j[: start + 1])
    values /= values[0] + 2.0 * values[2::2].sum()
    past = np.arange(values.size) > max(x, 1.0)
    return values[: np.argmax(past & (np.abs(values) < _ROUND_OFF))]


#: (-i)^k for k mod 4, exactly.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _apply_exponential(
    state: PureState, mode_a: int, mode_b: int, generator, norm: float
) -> PureState:
    """Apply exp(A) for A acting on a mode pair, given A's action and a bound R >= ||A||.

    The amplitudes are viewed once as (rest, d_A, d_B), the pair axes last,
    and the generator acts on that view. It acts with the truncated ladder
    operators P a P and P a+ P, so this is the exponential of the truncated
    generator. A is anti-Hermitian, so X = iA/R has its spectrum in [-1, 1],
    and exp(A) = exp(-iRX) = J_0(R) + 2 sum_k (-i)^k J_k(R) T_k(X) is summed
    with the Chebyshev recurrence T_(k+1) = 2X T_k - T_(k-1) (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967 (1984)). As ||T_k(X)|| <= 1, the series
    is cut where |J_k(R)| falls below round-off.
    """
    # Below round-off exp(A) is the identity to round-off; there Miller's
    # recurrence, whose steps grow like 2k/R, would overflow.
    if norm <= _ROUND_OFF:
        return state
    bessel = _bessel_j(norm)
    coeffs = 2.0 * bessel * _MINUS_I_POWERS[np.arange(bessel.size) % 4]
    pair = np.moveaxis(state.amplitudes, (mode_a, mode_b), (-2, -1))
    prev = pair.reshape((-1,) + pair.shape[-2:])
    cur = generator(prev) * (1j / norm)
    total = bessel[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        nxt = generator(cur)
        nxt *= 2j / norm
        nxt -= prev
        total += c * nxt
        prev, cur = cur, nxt
    out = np.moveaxis(total.reshape(pair.shape), (-2, -1), (mode_a, mode_b))
    return PureState(state.basis, out)


def number_operator(n_modes: int, mode: int) -> OneBodyOperator:
    mat = np.zeros((n_modes, n_modes))
    mat[mode, mode] = 1.0
    return OneBodyOperator(mat)


def total_number_operator(n_modes: int) -> OneBodyOperator:
    return OneBodyOperator(np.eye(n_modes))
