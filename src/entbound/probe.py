"""Probe-state recovery of concurrence lower bounds.

A full-rank N x N pure "probe" state |P> is sent through the channel
instead of the state of interest.  The normalized probe image of each
channel stage fixes that channel's superoperator up to the probe's own
probability p', and :func:`probe_channels` rebuilds S/p' from it.
:func:`probe_route` takes the (image, side) stages the evaluation core
returns, rebuilds their channels and applies them in stage order to the
initial state through :func:`entbound.channels.apply_stacked`, the path
the real channels take, faults included, and reads the fidelity lower
bound of the result.  A stack of probes gives a stack of rebuilt channels.

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

from .channels import apply_stacked, check_side, kraus_factors
from .concurrence import BoundValue, fidelity_lower_bounds
from .errors import DimensionMismatch, NotNormalized, SingularProbe
from .qlinalg import DensityMatrix, TOL_RECONSTRUCT, _check_dim, _frozen_complex, kron_stack, \
    raise_fault, stack_of, swap_subsystems

_RANK_FLOOR = 1e-8

# A random probe candidate is redrawn unless its smallest singular value
# exceeds this.
PROBE_SIGMA_FLOOR = 1e-4

# Rounding error of the probe route grows as kappa^2 in the probe's
# condition number kappa, for one- and two-sided channels alike (n = 3:
# about 3e-14, 3e-12, 3e-10, 3e-8 at kappa = 1e2, 1e3, 1e4, 1e5); past
# this condition number the result deserves a warning.
CONDITION_WARN = 1e4


@dataclass(frozen=True)
class ProbeState:
    """Validated full-rank probe: its dim N and read-only N x N coefficient matrix P."""

    dim: int
    matrix: np.ndarray


def mes_basis(n: int) -> np.ndarray:
    """Generalized Bell basis for an N x N bipartition, N >= 2, built once per N.

    A read-only (N^2, N, N) stack of unit-Frobenius-norm coefficient
    matrices C_j with vec(C_j) = |Phi_j>: state j = N*j0 + j1 is
    (1/sqrt(N)) sum_k exp(2 pi i j0 k / N) |k>|k + j1 mod N>.  An N that
    is not an integer, such as 2.0 or True, raises TypeError.
    """
    n = _check_dim(n, "N")  # before the cache, so True raises instead of hitting N = 1
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    return _mes_basis(n)


@functools.lru_cache(maxsize=None)
def _mes_basis(n: int) -> np.ndarray:
    j0, j1, k = np.ogrid[:n, :n, :n]
    basis = np.zeros((n, n, n, n), dtype=complex)
    basis[j0, j1, k, (k + j1) % n] = np.exp(1j * (2 * np.pi * j0 * k / n)) / np.sqrt(n)
    basis = basis.reshape(n * n, n, n)
    basis.setflags(write=False)
    return basis


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
        raise NotNormalized(f"Frobenius norm {float(norm)} is not 1 within 1e-10")
    p = p / norm
    s = np.linalg.svd(p, compute_uv=False)
    if s[-1] <= _RANK_FLOOR:
        raise SingularProbe(f"smallest singular value {float(s[-1])} <= 1e-8")
    p.setflags(write=False)
    return ProbeState(p.shape[0], p)


def random_probes(dim: int, count: int, seed) -> np.ndarray:
    """A read-only (count, N, N) stack of probe matrices from standard complex
    Gaussians; ``seed`` may also be a Generator, which is then drawn from.

    The candidates are drawn as one :func:`entbound.channels.kraus_factors`
    block and normalized, and one SVD covers the block.  A candidate is kept if
    its smallest singular value exceeds 1e-4; the missing ones are drawn again
    as one block until there are ``count``.
    """
    rng = np.random.default_rng(seed)
    matrices = np.empty((0, dim, dim), dtype=complex)
    while len(matrices) < count:
        candidates = kraus_factors(dim, count - len(matrices), rng)
        candidates = candidates / np.linalg.norm(candidates, axis=(1, 2))[:, None, None]
        s = np.linalg.svd(candidates, compute_uv=False)
        matrices = np.concatenate([matrices, candidates[s[:, -1] > PROBE_SIGMA_FLOOR]])
    matrices.setflags(write=False)
    return matrices


def random_probe(dim: int, seed) -> ProbeState:
    """One probe of :func:`random_probes`."""
    return ProbeState(dim, random_probes(dim, 1, seed)[0])


def canonical_probe(n: int) -> ProbeState:
    """The canonical MES as a probe: P = I/sqrt(N)."""
    return probe_from_matrix(np.eye(n) / np.sqrt(n))


def _check_square(dims, n: int):
    if tuple(dims) != (n, n):
        raise DimensionMismatch(f"a probe of dim {n} needs a state of dims {(n, n)}, got a "
                                f"state of dims {tuple(dims)}")


def _on_first_side(side, inverses, *stacks):
    """P^-1 ``inverses`` and the (k, n^2, n^2) ``stacks`` of a formula for a channel on
    ``side``, mirrored to side "first": swapping the subsystems of every stack and
    transposing P^-1 turns (1 o $)|P><P| into ($ o 1)|P^T><P^T|."""
    check_side(side)
    if side == "first":
        return (inverses,) + stacks
    n = inverses.shape[-1]
    return (inverses.swapaxes(-1, -2),) + tuple(swap_subsystems(s, n) for s in stacks)


def pt_reduced_stack(mats, images, probes, side) -> np.ndarray:
    """:func:`pt_via_reduced` for (k, d, d) stacks of input states and normalized probe
    images under a channel on ``side`` and the (k, n, n) probe matrices."""
    inverses, mats, images = _on_first_side(side, np.linalg.inv(probes), mats, images)
    n = inverses.shape[-1]
    rho_a = np.trace(mats.reshape(-1, n, n, n, n), axis1=2, axis2=4)
    window = (inverses @ rho_a @ inverses.conj().swapaxes(1, 2)).conj()
    return np.einsum("kaxay,kyx->k", images.reshape(-1, n, n, n, n), window).real


def pt_mes_sum_stack(mats, images, probes, side) -> np.ndarray:
    """:func:`pt_via_mes_sum` for (k, d, d) stacks of input states and normalized probe
    images under a channel on ``side`` and the (k, n, n) probe matrices."""
    inverses, mats, images = _on_first_side(side, np.linalg.inv(probes), mats, images)
    n = inverses.shape[-1]
    srs = swap_subsystems(mats.conj(), n)[:, None]
    lefts = kron_stack(mes_basis(n), inverses.conj()[:, None])  # (k, m): C_m o (P^-1)^*
    terms = images[:, None] @ lefts @ srs @ lefts.conj().swapaxes(-1, -2)
    return np.trace(terms, axis1=-2, axis2=-1).real.sum(axis=1)


def pt_via_reduced(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   side: str = "first") -> float:
    """Renormalization factor p_t = p/p' from the reduced input state.

    p_t = Tr[ rho_P' (1 o (P^-1 rho_A P^-dag)^*) ] with rho_A the reduced
    state of the input on the channel side.  The normalized probe image
    already carries the 1/p' factor.  The one-entry case of
    :func:`pt_reduced_stack`.
    """
    _check_square(rho.dims, probe.dim)
    return float(pt_reduced_stack(rho.matrix[None], evolved_probe.matrix[None],
                                  probe.matrix[None], side)[0])


def pt_via_mes_sum(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                   side: str = "first") -> float:
    """Renormalization factor p_t as a sum over the generalized Bell basis.

    p_t = sum_m Tr[ rho_P' (C_m o (P^-1)^*) S rho^* S (C_m^dag o (P^-1)^T) ],
    one term per basis state (four for a pair of qubits).  Agrees with
    :func:`pt_via_reduced` to machine precision.  The one-entry case of
    :func:`pt_mes_sum_stack`.
    """
    _check_square(rho.dims, probe.dim)
    return float(pt_mes_sum_stack(rho.matrix[None], evolved_probe.matrix[None],
                                  probe.matrix[None], side)[0])


def probe_channels(stages, probes) -> list:
    """(S/p', side) rebuilt from each (normalized probe image, side) stage, in order.

    With S[(a,c),(i,j)] = <a|$(|i><j|)|c>, the image of |P><P| under a channel,
    divided by its trace p', fixes the channel (ancilla-assisted process
    tomography, D'Ariano & Lo Presti, PRL 86, 4195 (2001)):
    S/p' = sum_xy P^-1[x,i] rho_P'[(a,x),(c,y)] P^-1[y,j]^* on the first side
    and sum_xy P^-1[i,x] rho_P'[(x,a),(y,c)] P^-1[j,y]^* on the second.  A side
    other than "first" and "second" raises ValueError before anything is
    rebuilt.  The images, a (g, n^2, n^2) stack per stage, and the (g', n, n) stack of
    probe matrices ``probes`` P pair where g = g' or one is 1 (else DimensionMismatch), and
    each stage is a (max(g, g'), n^2, n^2) stack.  P^-1 is ``np.linalg.inv`` of P, and the
    condition number s[0]/s[-1] comes from one SVD of the stack; each probe conditioned
    worse than 1e4 warns, in probe order, naming the line that called
    :func:`probe_route` (a line of this module under :func:`lower_bound_one_sided`
    and :func:`lower_bound_two_sided`).  With no stage nothing is rebuilt, so
    the probes are neither factored nor checked.

    Each sum is two matmuls over a reshaped image: with its axes ordered
    (a, c, y, x), a (g, n^3, n) @ P^-1 contracts x, and after swapping the last
    two axes a (g, n^3, n) @ P^-1* contracts y.  The second side is the first on the
    image and P^-1 that :func:`_on_first_side` mirrors, as in the p_t oracles.
    """
    for _, side in stages:
        check_side(side)
    if not stages:
        return []
    n = np.shape(probes)[-1]
    probes = stack_of(probes, n, shared=True)
    images = [stack_of(image, n * n, shared=True) for image, _ in stages]
    for image in images:
        if len(image) != len(probes) and 1 not in (len(image), len(probes)):
            raise DimensionMismatch(f"{len(image)} probe images for {len(probes)} probes")
    s = np.linalg.svd(probes, compute_uv=False)
    condition = s[:, 0] / s[:, -1]
    for value in condition[condition > CONDITION_WARN]:
        warnings.warn(f"probe condition number {value:.3g} exceeds {CONDITION_WARN:.0e}; "
                      "the bound may carry amplified rounding error", RuntimeWarning,
                      stacklevel=3)
    inverse = np.linalg.inv(probes)

    def rebuild(image, side):
        inv, image = _on_first_side(side, inverse, image)  # image axes (g, a, x, c, y)
        half = image.reshape(-1, n, n, n, n).transpose(0, 1, 3, 4, 2).reshape(-1, n ** 3, n) @ inv
        half = half.reshape(-1, n, n, n, n).swapaxes(-1, -2)  # (g, a, c, i, y)
        return (half.reshape(-1, n ** 3, n) @ inv.conj()).reshape(-1, n * n, n * n)

    return [(rebuild(image, side), side) for image, (_, side) in zip(images, stages)]


def probe_route(mats, dims, stages, probes):
    """Probe-route lower bounds of a (k, d, d) stack of N x N input states.

    ``stages`` lists (normalized probe image, side) pairs, such as ``Evaluation.images``;
    :func:`probe_channels` rebuilds their channels with the probe matrices ``probes``, and
    they are applied in stage order: a stack of g rebuilt channels meets the states by the
    pairing rule of :func:`entbound.channels.apply_stacked` (g = 1: one channel for every
    state; g = k: one per state; else runs).  Returns the raw fidelity lower bounds of the
    evolved pairs; the first whose stage trace is <= 1e-14 raises its ZeroProbability.
    """
    _check_square(dims, np.shape(probes)[-1])
    for stage, side in probe_channels(stages, probes):
        mats, _, fault = apply_stacked(stage, mats, dims, side)
        raise_fault(fault)
    return fidelity_lower_bounds(mats, dims)


def lower_bound_one_sided(rho: DensityMatrix, evolved_probe: DensityMatrix, probe: ProbeState,
                          side: str = "first") -> BoundValue:
    """Concurrence lower bound of the one-sided channel image, probe data only.

    The one-stage :func:`probe_route` of the *initial* state ``rho`` with the
    normalized probe image ``evolved_probe`` under the channel on ``side``;
    equals the fidelity lower bound of the directly evolved state.
    """
    values = probe_route(rho.matrix[None], rho.dims, [(evolved_probe.matrix, side)],
                         probe.matrix)
    return BoundValue(float(values[0]))


def lower_bound_two_sided(rho: DensityMatrix, evolved_probe_1: DensityMatrix,
                          evolved_probe_2: DensityMatrix, probe: ProbeState) -> BoundValue:
    """Concurrence lower bound of the two-sided channel image, probe data only.

    The :func:`probe_route` of ``rho`` through the normalized probe images
    ``evolved_probe_1`` under the first-side channel and ``evolved_probe_2``
    under the second-side one, in that order.
    """
    values = probe_route(rho.matrix[None], rho.dims, [(evolved_probe_1.matrix, "first"),
                         (evolved_probe_2.matrix, "second")], probe.matrix)
    return BoundValue(float(values[0]))
