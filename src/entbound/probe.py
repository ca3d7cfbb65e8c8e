"""Probe-state recovery of concurrence lower bounds.

A full-rank N x N pure "probe" state |P> is sent through the channel
instead of the state of interest.  Its normalized image, together with
the initial density matrix, determines the fidelity-based lower bound of
the evolved state's concurrence exactly; the evolved state itself is
never needed.  The same data also yields the renormalization factor p_t
for non-trace-preserving channels, either through the reduced state of
the input or through a sum over the generalized Bell basis.

With one channel on each side, the two probe images determine both
channels' Choi matrices.  :func:`two_sided_witness` contracts them into
operators W and Q whose expectation values in the input state are the
MES overlap of the evolved state and p_t; both are linear in the input,
so many input states share one witness.

All formulas below assume the package's first-index-major vectorization,
under which |psi> = (psi P^-1 o 1)|P> = (1 o psi^T (P^-1)^T)|P> holds
literally for coefficient matrices psi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .concurrence import BoundValue, _prefactor
from .errors import DimensionMismatch, NotNormalized, SingularProbe, ZeroProbability
from .qlinalg import (
    DensityMatrix,
    PureState,
    TOL_RECONSTRUCT,
    first_false,
    partial_trace,
    state_to_matrix,
    swap_operator,
)

_RANK_FLOOR = 1e-8
_PT_FLOOR = 1e-14

# P^-1 enters the one-sided bound quadratically and the two-sided bound
# quartically; past this condition number the result deserves a warning.
CONDITION_WARN = 1e4


@dataclass(frozen=True)
class MesBasis:
    """Orthonormal basis of N^2 maximally entangled states.

    State j = N*j0 + j1 is (1/sqrt(N)) sum_k exp(2 pi i j0 k / N) |k>|k + j1 mod N>.
    """

    dim: int
    states: tuple

    def coefficient_matrices(self):
        """Unit-Frobenius-norm coefficient matrices C_j with vec(C_j) = |Phi_j>."""
        return [state_to_matrix(s) for s in self.states]

    def transition_matrices(self):
        """Unitaries sqrt(N) C_j mapping the canonical MES onto each basis state.

        For N = 2 these are the identity and the three Pauli matrices
        (sigma_y carrying a factor i).
        """
        return [np.sqrt(self.dim) * state_to_matrix(s) for s in self.states]


@dataclass(frozen=True)
class ProbeState:
    """Validated full-rank probe with cached inverse and conditioning data."""

    dim: int
    matrix: np.ndarray
    inverse: np.ndarray
    condition: float

    def density(self) -> DensityMatrix:
        """The probe as a density matrix |P><P|."""
        vec = self.matrix.reshape(-1)
        return DensityMatrix((self.dim, self.dim), np.outer(vec, vec.conj()))


def mes_basis(n: int) -> MesBasis:
    """Generalized Bell basis for an N x N bipartition, N >= 2."""
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    states = []
    for j0 in range(n):
        for j1 in range(n):
            amp = np.zeros(n * n, dtype=complex)
            for k in range(n):
                amp[k * n + (k + j1) % n] = np.exp(2j * np.pi * j0 * k / n) / np.sqrt(n)
            states.append(PureState((n, n), amp))
    return MesBasis(n, tuple(states))


def probe_from_matrix(p) -> ProbeState:
    """Validate a coefficient matrix as a probe state.

    Raises
    ------
    SingularProbe
        If the smallest singular value is at most 1e-8.
    NotNormalized
        If the Frobenius norm is off 1 by more than 1e-10.
    DimensionMismatch
        If the matrix is not square.
    """
    p = np.array(p, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"probe matrix must be square, got shape {p.shape}")
    norm = np.linalg.norm(p)
    if abs(norm - 1.0) > TOL_RECONSTRUCT:
        raise NotNormalized(f"Frobenius norm {norm!r} is not 1 within 1e-10")
    p = p / norm
    s = np.linalg.svd(p, compute_uv=False)
    if s[-1] <= _RANK_FLOOR:
        raise SingularProbe(f"smallest singular value {s[-1]!r} <= 1e-8")
    p.setflags(write=False)
    inv = np.linalg.inv(p)
    inv.setflags(write=False)
    return ProbeState(p.shape[0], p, inv, float(s[0] / s[-1]))


def random_probe(dim: int, seed) -> ProbeState:
    """Probe from standard complex Gaussians, redrawn while its smallest
    singular value is at most 1e-4; ``seed`` may also be a Generator."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p = p / np.linalg.norm(p)
        if np.linalg.svd(p, compute_uv=False)[-1] > 1e-4:
            return probe_from_matrix(p)


def canonical_probe(n: int) -> ProbeState:
    """The canonical MES as a probe: P = I/sqrt(N)."""
    return probe_from_matrix(np.eye(n) / np.sqrt(n))


def decompose_via_probe(psi: PureState, probe: ProbeState) -> np.ndarray:
    """Operator L = psi P^-1 with (L o 1)|P> = |psi>.

    The mirrored form (1 o psi^T (P^-1)^T)|P> = |psi> holds as well.
    """
    if psi.dims != (probe.dim, probe.dim):
        raise DimensionMismatch(f"state dims {psi.dims} do not match probe dim {probe.dim}")
    return state_to_matrix(psi) @ probe.inverse


def _check_square(rho: DensityMatrix, probe: ProbeState):
    if rho.dims[0] != rho.dims[1]:
        raise DimensionMismatch(f"probe formulas need a square bipartition, got {rho.dims}")
    if rho.dims != (probe.dim, probe.dim):
        raise DimensionMismatch(f"state dims {rho.dims} do not match probe dim {probe.dim}")


def _swap_density(rho: DensityMatrix) -> DensityMatrix:
    n = rho.dims[0]
    s = swap_operator(n)
    return DensityMatrix(rho.dims, s @ rho.matrix @ s)


def _to_first_side(rho, evolved_probe, probe, side):
    """Reduce the side="second" case to side="first" by swapping subsystems.

    Swapping both states and transposing the probe matrix turns
    (1 o $)|P><P| into ($ o 1)|P^T><P^T|, after which every first-side
    formula applies unchanged.
    """
    if side == "first":
        return rho, evolved_probe, probe
    if side != "second":
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    return (_swap_density(rho), _swap_density(evolved_probe),
            probe_from_matrix(probe.matrix.T))


def pt_via_reduced(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   p_prime: float = 1.0, side: str = "first") -> float:
    """Renormalization factor p_t = p/p' from the reduced input state.

    p_t = Tr[ rho_P' (1 o (P^-1 rho_A P^-dag)^*) ] with rho_A the reduced
    state of the input on the channel side.  ``p_prime`` is carried for
    bookkeeping (p = p_t * p'); the normalized probe image already
    contains the 1/p' factor, so the value does not depend on it.
    """
    _check_square(rho, probe)
    rho, evolved_probe, probe = _to_first_side(rho, evolved_probe, probe, side)
    n = probe.dim
    rho_a = partial_trace(rho, keep="first")
    window = np.kron(np.eye(n), (probe.inverse @ rho_a @ probe.inverse.conj().T).conj())
    return float(np.real(np.trace(evolved_probe.matrix @ window)))


def pt_via_mes_sum(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   side: str = "first") -> float:
    """Renormalization factor p_t as a sum over the generalized Bell basis.

    p_t = sum_m Tr[ rho_P' (C_m o (P^-1)^*) S rho^* S (C_m^dag o (P^-1)^T) ],
    one term per basis state (four for a pair of qubits).  Agrees with
    :func:`pt_via_reduced` to machine precision.
    """
    _check_square(rho, probe)
    rho, evolved_probe, probe = _to_first_side(rho, evolved_probe, probe, side)
    n = probe.dim
    s = swap_operator(n)
    srs = s @ rho.matrix.conj() @ s
    total = 0.0
    for c in mes_basis(n).coefficient_matrices():
        left = np.kron(c, probe.inverse.conj())
        total += np.real(np.trace(evolved_probe.matrix @ left @ srs @ left.conj().T))
    return float(total)


def _warn_if_ill_conditioned(probe: ProbeState):
    if probe.condition > CONDITION_WARN:
        warnings.warn(
            f"probe condition number {probe.condition:.3g} exceeds {CONDITION_WARN:.0e}; "
            "the bound may carry amplified rounding error",
            RuntimeWarning,
            stacklevel=3,
        )


def lower_bound_one_sided(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                          p_prime: float = 1.0, side: str = "first") -> BoundValue:
    """Concurrence lower bound of the one-sided channel image, probe data only.

    Evaluates sqrt(2R/(R-1)) (Tr[f(rho_P') rho^*] - 1/R) with
    f(x) = (1/(p_t R)) S (1 o (P^-1)^T) x (1 o (P^-1)^*) S, which equals
    the fidelity lower bound of the directly evolved state.  ``rho`` is
    the *initial* state; the evolved state is never constructed.

    Raises
    ------
    ZeroProbability
        If p_t falls below 1e-14.
    """
    _check_square(rho, probe)
    _warn_if_ill_conditioned(probe)
    rho_f, ep_f, probe_f = _to_first_side(rho, evolved_probe, probe, side)
    n = probe_f.dim
    p_t = pt_via_reduced(rho_f, ep_f, probe_f)
    if p_t <= _PT_FLOOR:
        raise ZeroProbability(f"p_t = {p_t!r}; channel annihilates the state")
    s = swap_operator(n)
    pinv = probe_f.inverse
    dressed = np.kron(np.eye(n), pinv.T) @ ep_f.matrix @ np.kron(np.eye(n), pinv.conj())
    fid = np.real(np.trace(s @ rho_f.matrix.conj() @ s @ dressed)) / (p_t * n)
    return BoundValue(float(_prefactor(n) * (fid - 1.0 / n)), "lower")


@dataclass(frozen=True)
class TwoSidedWitness:
    """Operators W and Q with Tr[W rho] = <mes|($1 o $2) rho|mes> / (p1' p2')
    and Tr[Q rho] = p_t = p / (p1' p2') for every input state rho."""

    dim: int
    overlap: np.ndarray
    trace: np.ndarray

    def lower_bounds(self, mats):
        """Raw two-sided lower bounds for a (k, d, d) stack of input states.

        Returns (values, fault): ``fault`` is None or (index,
        ZeroProbability) for the first state with p_t <= 1e-14, and
        ``values`` covers the states before that index.
        """
        p_t = np.einsum("xy,kyx->k", self.trace, mats).real
        k = first_false(p_t > _PT_FLOOR)
        overlap = np.einsum("xy,kyx->k", self.overlap, mats[:k]).real
        values = _prefactor(self.dim) * (overlap / p_t[:k] - 1.0 / self.dim)
        if k == len(p_t):
            return values, None
        return values, (k, ZeroProbability(
            f"two-sided probability {p_t[k]!r}; channels annihilate the state"))


def two_sided_witness(evolved_probe_1: DensityMatrix, evolved_probe_2: DensityMatrix,
                      probe: ProbeState) -> TwoSidedWitness:
    """Build the two-sided witness from the normalized probe images.

    The images fix both channels' Choi matrices, J1 = sum_ij $1(|i><j|) o |i><j|
    and J2 = sum_ij |i><j| o $2(|i><j|):
    J1/p1' = (1 o P^-T) rho_P1' (1 o P^-T)^dag and
    J2/p2' = (P^-1 o 1) rho_P2' (P^-1 o 1)^dag
    (ancilla-assisted process tomography, D'Ariano & Lo Presti, PRL 86,
    4195 (2001)).  Contracting them over the canonical MES gives W, and
    their partial traces give Q.
    """
    _warn_if_ill_conditioned(probe)
    n = probe.dim
    left_1 = np.kron(np.eye(n), probe.inverse.T)
    left_2 = np.kron(probe.inverse, np.eye(n))
    j1 = (left_1 @ evolved_probe_1.matrix @ left_1.conj().T).reshape(n, n, n, n)
    j2 = (left_2 @ evolved_probe_2.matrix @ left_2.conj().T).reshape(n, n, n, n)
    overlap = np.einsum("aicj,kalc->jlik", j1, j2).reshape(n * n, n * n) / n
    trace = np.kron(np.einsum("aiaj->ji", j1), np.einsum("kblb->lk", j2))
    return TwoSidedWitness(n, overlap, trace)


def lower_bound_two_sided(rho: DensityMatrix, evolved_probe_1: DensityMatrix,
                          evolved_probe_2: DensityMatrix, probe: ProbeState) -> BoundValue:
    """Concurrence lower bound of the two-sided channel image, probe data only.

    ``evolved_probe_1`` is the normalized image of the probe under the
    first-side channel, ``evolved_probe_2`` under the second-side one.
    The MES-fidelity of the evolved state and the total two-sided
    probability are both linear in ``rho``; :func:`two_sided_witness`
    builds the two functionals from the images, and they are applied here
    to ``rho``.  Stage probabilities cancel in the ratio.

    Raises
    ------
    ZeroProbability
        If p_t falls below 1e-14.
    """
    _check_square(rho, probe)
    values, fault = two_sided_witness(evolved_probe_1, evolved_probe_2,
                                      probe).lower_bounds(rho.matrix[None])
    if fault is not None:
        raise fault[1]
    return BoundValue(float(values[0]), "lower")
