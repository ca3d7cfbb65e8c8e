"""Probe-state recovery of concurrence lower bounds.

A full-rank N x N pure "probe" state |P> is sent through the channel
instead of the state of interest.  The normalized probe image of each
channel side fixes that channel's superoperator up to the probe's own
probability p', and :func:`probe_channels` rebuilds S/p' from it.
:func:`probe_route` applies the rebuilt channels to the initial state
through :func:`entbound.channels.apply_stacked`, the path the real
channels take, and reads the fidelity lower bound of the result; its
trace is the renormalization factor p_t = p/p'.  A side without a channel
is simply not applied.  A stack of probes gives a stack of rebuilt
channels, and one rebuilt channel applies to a stack of states.

The paper's p_t formulas, through the reduced input state and through a
sum over the generalized Bell basis, are kept as independent oracles.

All formulas below assume the package's first-index-major vectorization,
under which |psi> = (psi P^-1 o 1)|P> = (1 o psi^T (P^-1)^T)|P> holds
literally for coefficient matrices psi.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import apply_stacked
from .concurrence import BoundValue, fidelity_lower_bounds
from .errors import DimensionMismatch, NotNormalized, SingularProbe
from .qlinalg import DensityMatrix, PureState, TOL_RECONSTRUCT, _frozen_complex, kron_stack, \
    raise_fault, state_to_matrix, swap_subsystems

_RANK_FLOOR = 1e-8

# Rounding error of the probe route grows as kappa^2 in the probe's
# condition number kappa, for one- and two-sided channels alike (n = 3:
# about 3e-14, 3e-12, 3e-10, 3e-8 at kappa = 1e2, 1e3, 1e4, 1e5); past
# this condition number the result deserves a warning.
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


@functools.lru_cache(maxsize=None)
def mes_basis(n: int) -> MesBasis:
    """Generalized Bell basis for an N x N bipartition, N >= 2, built once per N."""
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
    ValueError
        If an entry is not finite (checked first).
    DimensionMismatch
        If the matrix is not square.
    """
    p = _frozen_complex(p)
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


def random_probes(dim: int, count: int, seed):
    """``count`` probes from standard complex Gaussians as stacks (matrices,
    inverses, condition numbers); ``seed`` may also be a Generator.

    A normalized candidate is kept if its smallest singular value exceeds
    1e-4 (one SVD also gives the condition number).  The missing candidates
    are drawn as one (m, 2, N, N) block, in the stream order of m single
    draws, so neither the probes nor the generator's final state depend on
    how many are drawn at once."""
    rng = np.random.default_rng(seed)
    matrices, svals = np.empty((0, dim, dim), dtype=complex), np.empty((0, dim))
    while len(matrices) < count:
        block = rng.standard_normal((count - len(matrices), 2, dim, dim))
        candidates = block[:, 0] + 1j * block[:, 1]
        candidates = candidates / np.linalg.norm(candidates, axis=(1, 2))[:, None, None]
        s = np.linalg.svd(candidates, compute_uv=False)
        keep = s[:, -1] > 1e-4
        matrices = np.concatenate([matrices, candidates[keep]])
        svals = np.concatenate([svals, s[keep]])
    inverses = np.linalg.inv(matrices)
    matrices.setflags(write=False)
    inverses.setflags(write=False)
    return matrices, inverses, svals[:, 0] / svals[:, -1]


def random_probe(dim: int, seed) -> ProbeState:
    """One probe of :func:`random_probes`."""
    matrices, inverses, conditions = random_probes(dim, 1, seed)
    return ProbeState(dim, matrices[0], inverses[0], float(conditions[0]))


def canonical_probe(n: int) -> ProbeState:
    """The canonical MES as a probe: P = I/sqrt(N)."""
    return probe_from_matrix(np.eye(n) / np.sqrt(n))


def _check_square(rho: DensityMatrix, n: int):
    if rho.dims != (n, n):
        raise DimensionMismatch(f"probe formulas need an {n} x {n} state, got dims {rho.dims}")


def _to_first_side(rho, evolved_probe, probe, side):
    """Reduce the side="second" case to side="first" by swapping subsystems.

    Swapping both states and transposing the probe matrix turns
    (1 o $)|P><P| into ($ o 1)|P^T><P^T|; the first-side formulas apply to
    the returned matrices, and P^T, valid whenever P is, is not revalidated.
    """
    if side == "first":
        return rho.matrix, evolved_probe.matrix, probe
    if side != "second":
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    n = probe.dim
    mirrored = ProbeState(n, probe.matrix.T, probe.inverse.T, probe.condition)
    return swap_subsystems(rho.matrix, n), swap_subsystems(evolved_probe.matrix, n), mirrored


def pt_reduced_stack(mats, images, inverses) -> np.ndarray:
    """:func:`pt_via_reduced` on side "first" for (k, d, d) stacks of input states and
    normalized probe images and the (k, n, n) probe inverses."""
    n = inverses.shape[-1]
    rho_a = np.trace(mats.reshape(-1, n, n, n, n), axis1=2, axis2=4)
    window = (inverses @ rho_a @ inverses.conj().swapaxes(1, 2)).conj()
    return np.einsum("kaxay,kyx->k", images.reshape(-1, n, n, n, n), window).real


def pt_mes_sum_stack(mats, images, inverses) -> np.ndarray:
    """:func:`pt_via_mes_sum` on side "first" for (k, d, d) stacks of input states and
    normalized probe images and the (k, n, n) probe inverses."""
    n = inverses.shape[-1]
    srs = swap_subsystems(mats.conj(), n)[:, None]
    cs = np.array(mes_basis(n).coefficient_matrices())  # (n^2, n, n)
    lefts = kron_stack(cs, inverses.conj()[:, None])  # (k, m): C_m o (P^-1)^*
    terms = images[:, None] @ lefts @ srs @ lefts.conj().swapaxes(-1, -2)
    return np.trace(terms, axis1=-2, axis2=-1).real.sum(axis=1)


def pt_via_reduced(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   side: str = "first") -> float:
    """Renormalization factor p_t = p/p' from the reduced input state.

    p_t = Tr[ rho_P' (1 o (P^-1 rho_A P^-dag)^*) ] with rho_A the reduced
    state of the input on the channel side.  The normalized probe image
    already carries the 1/p' factor.
    """
    _check_square(rho, probe.dim)
    rho, image, probe = _to_first_side(rho, evolved_probe, probe, side)
    return float(pt_reduced_stack(rho[None], image[None], probe.inverse[None])[0])


def pt_via_mes_sum(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   side: str = "first") -> float:
    """Renormalization factor p_t as a sum over the generalized Bell basis.

    p_t = sum_m Tr[ rho_P' (C_m o (P^-1)^*) S rho^* S (C_m^dag o (P^-1)^T) ],
    one term per basis state (four for a pair of qubits).  Agrees with
    :func:`pt_via_reduced` to machine precision.
    """
    _check_square(rho, probe.dim)
    rho, image, probe = _to_first_side(rho, evolved_probe, probe, side)
    return float(pt_mes_sum_stack(rho[None], image[None], probe.inverse[None])[0])


def probe_channels(image_1, image_2, inverse, condition):
    """Superoperators S1/p1' and S2/p2' rebuilt from the normalized probe images.

    ``image_1`` (``image_2``) is the image of |P><P| under the first-side
    (second-side) channel divided by its trace p1' (p2'), or None for a
    side without a channel, which stays None.  With
    S[(a,c),(i,j)] = <a|$(|i><j|)|c>, the image fixes the channel
    (ancilla-assisted process tomography, D'Ariano & Lo Presti, PRL 86,
    4195 (2001)): S1/p1' = sum_xy P^-1[x,i] rho_P1'[(a,x),(c,y)] P^-1[y,j]^*
    and S2/p2' = sum_xy P^-1[i,x] rho_P2'[(x,a),(y,c)] P^-1[j,y]^*.  The
    images (..., d, d), ``inverse`` = P^-1 (..., n, n) and the probes'
    ``condition`` numbers may carry leading probe axes; each probe
    conditioned worse than 1e4 warns.
    """
    for value in np.ravel(condition):
        if value > CONDITION_WARN:
            warnings.warn(f"probe condition number {value:.3g} exceeds {CONDITION_WARN:.0e}; "
                          "the bound may carry amplified rounding error", RuntimeWarning,
                          stacklevel=2)
    n = inverse.shape[-1]

    def rebuild(image, spec):
        if image is None:
            return None
        stage = np.einsum(spec, inverse, image.reshape(image.shape[:-2] + (n,) * 4),
                          inverse.conj())
        return stage.reshape(stage.shape[:-4] + (n * n, n * n))

    return (rebuild(image_1, "...xi,...axcy,...yj->...acij"),
            rebuild(image_2, "...ix,...xayc,...jy->...acij"))


def probe_route(mats, dims, s1, s2):
    """Probe-route lower bounds of a (k, d, d) stack of input states.

    Applies the rebuilt stages ``s1`` (first side) and ``s2`` (second
    side) of :func:`probe_channels`, each (n^2, n^2) or (k, n^2, n^2) and
    skipped when None, and returns (values, p_t, fault): the raw fidelity
    lower bounds of the evolved states, p_t = p/(p1' p2') of the entries
    that reached the last stage, and None or (index, ZeroProbability) for
    the first entry whose stage trace is <= 1e-14.  A later stage sees
    only the entries before an earlier fault, and ``values`` covers the
    entries before the first one.
    """
    p_t, fault = np.ones(len(mats)), None
    for stage, side in ((s1, "first"), (s2, "second")):
        if stage is not None:
            stage = stage if stage.ndim == 2 else stage[:len(mats)]
            mats, p, stage_fault = apply_stacked(stage, mats, dims, side)
            p_t, fault = p_t[:len(p)] * p, stage_fault or fault
    return fidelity_lower_bounds(mats, dims), p_t, fault


def _bound(rho: DensityMatrix, probe: ProbeState, image_1, image_2) -> BoundValue:
    _check_square(rho, probe.dim)
    stages = probe_channels(image_1, image_2, probe.inverse, probe.condition)
    values, _, fault = probe_route(rho.matrix[None], rho.dims, *stages)
    raise_fault(fault)
    return BoundValue(float(values[0]), "lower")


def lower_bound_one_sided(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                          side: str = "first") -> BoundValue:
    """Concurrence lower bound of the one-sided channel image, probe data only.

    ``rho`` is the *initial* state and ``evolved_probe`` the normalized
    probe image under the channel on ``side``; the channel rebuilt from
    it is applied to ``rho``.  Equals the fidelity lower bound of the
    directly evolved state.  Raises ZeroProbability if p/p' <= 1e-14.
    """
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    images = (evolved_probe.matrix, None) if side == "first" else (None, evolved_probe.matrix)
    return _bound(rho, probe, *images)


def lower_bound_two_sided(rho: DensityMatrix, evolved_probe_1: DensityMatrix,
                          evolved_probe_2: DensityMatrix, probe: ProbeState) -> BoundValue:
    """Concurrence lower bound of the two-sided channel image, probe data only.

    ``evolved_probe_1`` is the normalized image of the probe under the
    first-side channel, ``evolved_probe_2`` under the second-side one;
    both rebuilt channels are applied to ``rho``.  Raises ZeroProbability
    if either stage's trace is <= 1e-14.
    """
    return _bound(rho, probe, evolved_probe_1.matrix, evolved_probe_2.matrix)
