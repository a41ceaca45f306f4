"""Truncated multimode bosonic Fock-space engine.

States live on a product of per-mode truncated harmonic-oscillator spaces.
The standard four spin-orbit modes are (Hh, Hv, Vh, Vv); the engine itself
works for any mode count so that vacuum ancilla ports can be included in
regression checks.

Linear indexing convention: occupation of the first mode varies slowest,
the last mode fastest (C order over the axis tuple).
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import SimulationError, TruncationError

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
                f"basis dimension {self.dimension} (cutoffs {self.cutoffs}) exceeds "
                f"the guard MAX_DIMENSION={MAX_DIMENSION}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dimension(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)


@dataclass(frozen=True)
class PureState:
    """Complex amplitude tensor over the truncated occupation basis.

    ``leakage`` accumulates the squared amplitude mass dropped whenever an
    operation would populate occupations beyond a cutoff; nothing is ever
    discarded silently.
    """

    basis: BasisConfig
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != self.basis.dims:
            raise SimulationError(
                f"amplitude shape {amps.shape} does not match basis dims {self.basis.dims}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise SimulationError("cannot normalize the zero vector")
        return PureState(self.basis, self.amplitudes / n, self.leakage)

    def overlap(self, other: "PureState") -> complex:
        if other.basis != self.basis:
            raise SimulationError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json(self) -> str:
        flat = self.amplitudes.reshape(-1)
        return json.dumps(
            {
                "cutoffs": list(self.basis.cutoffs),
                "amplitudes": [[float(a.real), float(a.imag)] for a in flat],
            }
        )


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
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (G, Gamma) of :func:`moments`, computed on first use."""
        g, gamma = moments(self)
        g.flags.writeable = False
        gamma.flags.writeable = False
        return g, gamma

    @classmethod
    def pure(cls, state: PureState) -> "StateEnsemble":
        return cls(((1.0, state),))


@dataclass(frozen=True)
class OneBodyOperator:
    """Hermitian single-particle matrix B for the observable sum_jk B_jk a+_j a_k."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SimulationError("one-body matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise SimulationError("one-body matrix must be Hermitian")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


def vacuum(basis: BasisConfig) -> PureState:
    amps = np.zeros(basis.dims, dtype=np.complex128)
    amps[(0,) * basis.n_modes] = 1.0
    return PureState(basis, amps)


def _lower(arr: np.ndarray, axis: int) -> np.ndarray:
    """Annihilation action along one axis: out[n-1] += sqrt(n) arr[n]."""
    d = arr.shape[axis]
    out = np.zeros_like(arr)
    src = np.moveaxis(arr, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    w = np.sqrt(np.arange(1, d)).reshape((-1,) + (1,) * (arr.ndim - 1))
    dst[: d - 1] = w * src[1:]
    return out


def _raise(arr: np.ndarray, axis: int) -> tuple[np.ndarray, float]:
    """Creation action along one axis; returns (result, dropped mass).

    The component already at the cutoff would map to occupation cutoff+1,
    outside the space; its squared amplitude (times the ladder factor) is
    returned as leakage.
    """
    d = arr.shape[axis]
    out = np.zeros_like(arr)
    src = np.moveaxis(arr, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    w = np.sqrt(np.arange(1, d)).reshape((-1,) + (1,) * (arr.ndim - 1))
    dst[1:] = w * src[: d - 1]
    lost = float(d) * float(np.sum(np.abs(src[d - 1]) ** 2))
    return out, lost


def apply_ladder(state: PureState, mode: int, kind: str) -> PureState:
    """Apply a single ladder operator; result is unnormalized."""
    axis = int(mode)
    if kind == "annihilate":
        return PureState(state.basis, _lower(state.amplitudes, axis), state.leakage)
    if kind == "create":
        out, lost = _raise(state.amplitudes, axis)
        return PureState(state.basis, out, state.leakage + lost)
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
    arr = state.amplitudes
    out = np.zeros_like(arr)
    lost = 0.0
    B = op.matrix
    for j in range(op.n_modes):
        for k in range(op.n_modes):
            if B[j, k] == 0:
                continue
            if j == k:
                d = arr.shape[j]
                n = np.arange(d).reshape((-1,) + (1,) * (arr.ndim - j - 1))
                out += B[j, j] * (n * np.moveaxis(arr, j, j))
            else:
                raised, drop = _raise(_lower(arr, k), j)
                out += B[j, k] * raised
                lost += abs(B[j, k]) ** 2 * drop
    return PureState(state.basis, out, state.leakage + lost)


def moments(ensemble: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Normally ordered moment tensors of a mixture, from lowering alone.

    Returns G with G_jk = <a+_j a_k> and Gamma with
    Gamma_ijkl = <a+_i a+_j a_k a_l>, summed over members with their weights
    as G_jk = <a_j psi|a_k psi> and Gamma_ijkl = <a_i a_j psi|a_k a_l psi>.
    Lowering never leaves the truncated space, so these are the exact moments
    of the truncated state. Modes with cutoff 0 contribute only zeros and are
    skipped.
    """
    basis = ensemble.basis
    n = basis.n_modes
    active = [m for m, c in enumerate(basis.cutoffs) if c > 0]
    k = len(active)
    g = np.zeros((k, k), dtype=np.complex128)
    gamma = np.zeros((k * k, k * k), dtype=np.complex128)
    once = np.empty((k,) + basis.dims, dtype=np.complex128)
    twice = np.empty((k, k) + basis.dims, dtype=np.complex128)
    for w, s in ensemble.members:
        for i, m in enumerate(active):
            once[i] = _lower(s.amplitudes, m)
        for i, j in np.ndindex(k, k):
            twice[i, j] = _lower(once[i], active[j])
        flat1 = once.reshape(k, -1)
        flat2 = twice.reshape(k * k, -1)
        g += w * (flat1.conj() @ flat1.T)
        gamma += w * (flat2.conj() @ flat2.T)
    g_full = np.zeros((n, n), dtype=np.complex128)
    g_full[np.ix_(active, active)] = g
    gamma_full = np.zeros((n,) * 4, dtype=np.complex128)
    gamma_full[np.ix_(active, active, active, active)] = gamma.reshape((k,) * 4)
    return g_full, gamma_full


def mean_and_variance(ensemble: StateEnsemble, op: OneBodyOperator) -> tuple[float, float]:
    """Mixture mean <B> and variance <B^2> - <B>^2 of a one-body observable.

    Contracts the ensemble's cached moment tensors:
    <B> = sum B_jk G_jk and <B^2> = sum B_ij B_kl Gamma_ikjl + sum (B^2)_il G_il.
    """
    g, gamma = ensemble.moments
    if op.n_modes != g.shape[0]:
        raise SimulationError(
            f"operator acts on {op.n_modes} modes, state has {g.shape[0]}"
        )
    b = op.matrix
    mean = complex(np.sum(b * g))
    if abs(mean.imag) > 1e-9:
        raise SimulationError(f"expectation has imaginary residue {mean.imag}")
    second = np.einsum("ij,kl,ikjl->", b, b, gamma) + np.sum((b @ b) * g)
    var = float(second.real) - mean.real * mean.real
    if var < -1e-9:
        raise SimulationError(f"negative variance {var}")
    return mean.real, var


def expect_one_body(ensemble: StateEnsemble, op: OneBodyOperator) -> float:
    """Ensemble average of a one-body observable."""
    return mean_and_variance(ensemble, op)[0]


def variance_one_body(ensemble: StateEnsemble, op: OneBodyOperator) -> float:
    """Mixture-level variance <B^2> - <B>^2 of a one-body observable."""
    return mean_and_variance(ensemble, op)[1]


def poisson_tail_cutoff(mean_n: float, eps: float) -> int:
    """Smallest cutoff n with Poisson(mean_n) mass above n below eps."""
    if mean_n <= 0.0:
        return 0
    term = math.exp(-mean_n)
    cdf = term
    n = 0
    while 1.0 - cdf > eps:
        n += 1
        term *= mean_n / n
        cdf += term
        if n > 100_000:
            raise TruncationError("Poisson tail does not converge")
    return n


def displace(state: PureState, mode: int, u: complex, eps: float = DEFAULT_EPS) -> PureState:
    """Apply the displacement exp(u a+ - u* a) on one mode.

    Uses the exponential of the generator truncated to the mode subspace
    (scaling-and-squaring), which is exactly unitary on the truncated space.
    """
    axis = int(mode)
    cutoff = state.basis.cutoffs[axis]
    needed = poisson_tail_cutoff(abs(u) ** 2, eps)
    if needed > cutoff:
        raise TruncationError(
            f"displacement |u|^2={abs(u) ** 2:.4g} needs cutoff {needed} on mode "
            f"{axis}, basis has {cutoff}",
            required_cutoff=needed,
        )
    if u == 0:
        return state
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    gen = u * a.T - np.conj(u) * a
    unitary = expm(gen)
    moved = np.moveaxis(state.amplitudes, axis, 0)
    res = np.tensordot(unitary, moved, axes=(1, 0))
    return PureState(state.basis, np.moveaxis(res, 0, axis), state.leakage)


def tmsv_tail_cutoff(r: float, eps: float) -> int:
    """Smallest per-mode cutoff n with two-mode-squeezed tail below eps.

    The thermal marginal gives tail mass tanh(r)^(2(n+1)) beyond occupation n.
    """
    if r <= 0.0:
        return 0
    t2 = math.tanh(r) ** 2
    n = 0
    while t2 ** (n + 1) > eps:
        n += 1
        if n > 100_000:
            raise TruncationError("squeezing tail does not converge")
    return n


def two_mode_squeeze(
    state: PureState,
    mode_a: int,
    mode_b: int,
    zeta: complex,
    eps: float = DEFAULT_EPS,
) -> PureState:
    """Apply exp((zeta* a_A a_B - zeta a+_A a+_B)/2) on a mode pair.

    Note the generator carries zeta/2, so the effective squeezing strength
    is r = |zeta|/2.
    """
    ia, ib = int(mode_a), int(mode_b)
    if ia == ib:
        raise SimulationError("two-mode squeezing needs two distinct modes")
    r = abs(zeta) / 2.0
    needed = tmsv_tail_cutoff(r, eps)
    min_cut = min(state.basis.cutoffs[ia], state.basis.cutoffs[ib])
    if needed > min_cut:
        raise TruncationError(
            f"squeezing r={r:.4g} needs cutoff {needed}, basis has {min_cut}",
            required_cutoff=needed,
        )
    if zeta == 0:
        return state
    da = state.basis.dims[ia]
    db = state.basis.dims[ib]
    a = sp.diags(np.sqrt(np.arange(1, da)), 1)
    b = sp.diags(np.sqrt(np.arange(1, db)), 1)
    pair_down = sp.kron(a, b, format="csc")
    gen = (np.conj(zeta) / 2.0) * pair_down - (zeta / 2.0) * pair_down.conj().T
    return _apply_pair_exponential(state, ia, ib, gen)


def _apply_pair_exponential(state, mode_a, mode_b, generator) -> PureState:
    """Apply expm(generator) where generator acts on the (mode_a, mode_b) pair."""
    dims = state.basis.dims
    da, db = dims[mode_a], dims[mode_b]
    moved = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    mat = moved.reshape(da * db, -1)
    res = expm_multiply(sp.csc_matrix(generator, dtype=np.complex128), mat)
    res = res.reshape((da, db) + moved.shape[2:])
    return PureState(state.basis, np.moveaxis(res, (0, 1), (mode_a, mode_b)), state.leakage)


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
    da = state.basis.dims[mode_a]
    db = state.basis.dims[mode_b]
    a = sp.kron(sp.diags(np.sqrt(np.arange(1, da)), 1), sp.identity(db), format="csc")
    b = sp.kron(sp.identity(da), sp.diags(np.sqrt(np.arange(1, db)), 1), format="csc")
    gen = (
        coeff_a * a.conj().T
        + coeff_b * b.conj().T
        - np.conj(coeff_a) * a
        - np.conj(coeff_b) * b
    )
    return _apply_pair_exponential(state, int(mode_a), int(mode_b), gen)


def number_operator(n_modes: int, mode: int) -> OneBodyOperator:
    mat = np.zeros((n_modes, n_modes))
    mat[mode, mode] = 1.0
    return OneBodyOperator(mat)


def total_number_operator(n_modes: int) -> OneBodyOperator:
    return OneBodyOperator(np.eye(n_modes))
