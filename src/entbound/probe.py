"""Probe-state recovery of concurrence lower bounds.

A full-rank N x N pure "probe" state |P> is sent through the channel
instead of the state of interest.  The normalized probe image of each
channel side fixes that channel's superoperator up to the probe's own
probability p', and :func:`probe_channels` rebuilds S/p' from it.
:func:`probe_route` takes the probe images, rebuilds the channels and
applies them to the initial state through
:func:`entbound.channels.apply_stacked`, the path the real channels take,
and reads the fidelity lower bound of the result; a rebuilt stage whose
trace is at the probability floor raises, as a real channel does.  A side
without a channel is simply not applied.  A stack of probes gives a stack
of rebuilt channels, and one rebuilt channel applies to a stack of states.

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
from .qlinalg import DensityMatrix, TOL_RECONSTRUCT, _check_dim, _frozen_complex, kron_stack, \
    raise_fault, swap_subsystems

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

    The candidates are drawn as one (count, 2, N, N) block (real parts before
    imaginary parts, one candidate after another) and normalized, and one SVD
    covers the block.  A candidate is kept if its smallest singular value
    exceeds 1e-4; the missing ones are drawn again as one block until there
    are ``count``.
    """
    rng = np.random.default_rng(seed)
    matrices = np.empty((0, dim, dim), dtype=complex)
    while len(matrices) < count:
        block = rng.standard_normal((count - len(matrices), 2, dim, dim))
        candidates = block[:, 0] + 1j * block[:, 1]
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


def _on_first_side(mats, images, probes, side):
    """The stacks of a p_t formula on ``side`` with the probes inverted, mirrored to side
    "first": swapping the subsystems of both states and transposing P^-1 turns
    (1 o $)|P><P| into ($ o 1)|P^T><P^T|."""
    inverses = np.linalg.inv(probes)
    if side == "first":
        return mats, images, inverses
    if side != "second":
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    n = inverses.shape[-1]
    return swap_subsystems(mats, n), swap_subsystems(images, n), inverses.swapaxes(-1, -2)


def pt_reduced_stack(mats, images, probes, side) -> np.ndarray:
    """:func:`pt_via_reduced` for (k, d, d) stacks of input states and normalized probe
    images under a channel on ``side`` and the (k, n, n) probe matrices."""
    mats, images, inverses = _on_first_side(mats, images, probes, side)
    n = inverses.shape[-1]
    rho_a = np.trace(mats.reshape(-1, n, n, n, n), axis1=2, axis2=4)
    window = (inverses @ rho_a @ inverses.conj().swapaxes(1, 2)).conj()
    return np.einsum("kaxay,kyx->k", images.reshape(-1, n, n, n, n), window).real


def pt_mes_sum_stack(mats, images, probes, side) -> np.ndarray:
    """:func:`pt_via_mes_sum` for (k, d, d) stacks of input states and normalized probe
    images under a channel on ``side`` and the (k, n, n) probe matrices."""
    mats, images, inverses = _on_first_side(mats, images, probes, side)
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


def probe_channels(image_1, image_2, probes):
    """Superoperators S1/p1' and S2/p2' rebuilt from the normalized probe images.

    ``image_1`` (``image_2``) is the image of |P><P| under the first-side
    (second-side) channel divided by its trace p1' (p2'), or None for a
    side without a channel, which stays None.  With
    S[(a,c),(i,j)] = <a|$(|i><j|)|c>, the image fixes the channel
    (ancilla-assisted process tomography, D'Ariano & Lo Presti, PRL 86,
    4195 (2001)): S1/p1' = sum_xy P^-1[x,i] rho_P1'[(a,x),(c,y)] P^-1[y,j]^*
    and S2/p2' = sum_xy P^-1[i,x] rho_P2'[(x,a),(y,c)] P^-1[j,y]^*.  The
    images (..., d, d) and the probe matrices ``probes`` P (..., n, n) may
    carry leading probe axes.  P^-1 is ``np.linalg.inv`` of P, and the
    condition number s[0]/s[-1] comes from one SVD of the stack; each probe
    conditioned worse than 1e4 warns, in probe order.  The warning names the
    line that called :func:`probe_route`: the caller's own for a direct
    call, a line of this module for :func:`lower_bound_one_sided` and
    :func:`lower_bound_two_sided`.

    Each sum is two matmuls over a reshaped image: with the image's axes
    ordered (a, c, y, x), an (n^3, n) @ P^-1 contracts x, and after
    swapping the last two axes an (n^3, n) @ P^-1* contracts y.  The
    second side is the first with its image's subsystems swapped and P^-1
    transposed.
    """
    n = probes.shape[-1]
    s = np.linalg.svd(probes.reshape(-1, n, n), compute_uv=False)
    condition = s[:, 0] / s[:, -1]
    for value in condition[condition > CONDITION_WARN]:
        warnings.warn(f"probe condition number {value:.3g} exceeds {CONDITION_WARN:.0e}; "
                      "the bound may carry amplified rounding error", RuntimeWarning,
                      stacklevel=3)
    inverse = np.linalg.inv(probes)

    def rebuild(image, axes, inv):
        if image is None:
            return None
        lead = image.shape[:-2]
        k = len(lead)
        image = image.reshape(lead + (n,) * 4).transpose(*range(k), *(k + a for a in axes))
        half = image.reshape(lead + (n ** 3, n)) @ inv  # (..., a, c, y, i)
        half = half.reshape(half.shape[:-2] + (n,) * 4).swapaxes(-1, -2)
        stage = half.reshape(half.shape[:-4] + (n ** 3, n)) @ inv.conj()  # (..., a, c, i, j)
        return stage.reshape(stage.shape[:-2] + (n * n, n * n))

    # image axes (a, x, c, y) on the first side and (x, a, y, c) on the second
    return (rebuild(image_1, (0, 2, 3, 1), inverse),
            rebuild(image_2, (1, 3, 2, 0), inverse.swapaxes(-1, -2)))


def probe_route(mats, dims, images, probes):
    """Probe-route lower bounds of a (k, d, d) stack of N x N input states.

    ``images`` holds the (first-side, second-side) normalized probe images,
    None for a side without a channel, which is then not applied; with the
    probe matrices ``probes`` they go to :func:`probe_channels`.  An image
    (d, d) with its probe (n, n) rebuilds one channel for the whole stack;
    images (..., d, d) with probes (..., n, n) rebuild one channel per
    entry, the leading axes flattened in order to the stack's.  The rebuilt
    channels are applied, first side first, and the raw fidelity lower
    bounds of the evolved states returned.  The first entry whose stage
    trace is <= 1e-14 raises its ZeroProbability.
    """
    _check_square(dims, probes.shape[-1])
    for stage, side in zip(probe_channels(*images, probes), ("first", "second")):
        if stage is not None:
            if stage.ndim > 2:  # one rebuilt channel per entry
                stage = stage.reshape((-1,) + stage.shape[-2:])
            mats, _, fault = apply_stacked(stage, mats, dims, side)
            raise_fault(fault)
    return fidelity_lower_bounds(mats, dims)


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
    values = probe_route(rho.matrix[None], rho.dims, images, probe.matrix)
    return BoundValue(float(values[0]))


def lower_bound_two_sided(rho: DensityMatrix, evolved_probe_1: DensityMatrix,
                          evolved_probe_2: DensityMatrix, probe: ProbeState) -> BoundValue:
    """Concurrence lower bound of the two-sided channel image, probe data only.

    ``evolved_probe_1`` is the normalized image of the probe under the
    first-side channel, ``evolved_probe_2`` under the second-side one;
    both rebuilt channels are applied to ``rho``.  Raises ZeroProbability
    if either stage's trace is <= 1e-14.
    """
    values = probe_route(rho.matrix[None], rho.dims, (evolved_probe_1.matrix,
                         evolved_probe_2.matrix), probe.matrix)
    return BoundValue(float(values[0]))
