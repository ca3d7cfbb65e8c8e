"""Concurrence values and their closed-form lower/upper bounds.

Pure-state concurrence comes from the Schmidt spectrum, two-qubit mixed
states get the exact spin-flip value, and arbitrary bipartite states get
a fidelity-with-MES lower bound.  The determinant-normalized upper
bounds tie the concurrence of a channel image to the concurrence of the
evolved probe state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply_checked, apply_stacked
from .errors import DimensionMismatch, SingularProbe, TrivialDimension
from .qlinalg import DensityMatrix, PureState, canonical_mes, density_fault, first_false, \
    pure_densities, state_to_matrix

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# Columns are the magic basis: (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2,
# i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.  Maximally entangled two-qubit
# states are exactly the real unit combinations of these columns, up to
# a global phase.
_MAGIC_BASIS = np.array([
    [1.0, 1j, 0.0, 0.0],
    [0.0, 0.0, 1j, 1.0],
    [0.0, 0.0, 1j, -1.0],
    [1.0, -1j, 0.0, 0.0],
]) / np.sqrt(2.0)

_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundValue:
    """A bound with its raw (possibly negative) value preserved.

    ``clamped`` is the value to quote for the nonnegative quantity being
    bounded; ``raw`` keeps the information a plot of the bound needs.
    """

    raw: float
    kind: str  # "lower" | "upper" | "exact"

    @property
    def clamped(self) -> float:
        return max(0.0, self.raw)


def _prefactor(r: int) -> float:
    return np.sqrt(2.0 * r / (r - 1.0))


def pure_concurrences(coefficients) -> np.ndarray:
    """:func:`concurrence_pure` of each (N1, N2) coefficient matrix of a (k, N1, N2) stack."""
    s = np.linalg.svd(coefficients, compute_uv=False)
    total = np.sum(s**2, axis=-1)
    return np.sqrt(np.maximum(0.0, 2.0 * (total * total - np.sum(s**4, axis=-1))))


def concurrence_pure(psi: PureState) -> float:
    """Concurrence of a pure bipartite state from its Schmidt spectrum.

    Equals sqrt(4 sum_{i<j} s_i^2 s_j^2) for singular values s of the
    coefficient matrix; ranges over [0, sqrt(2(R-1)/R)] with
    R = min(N1, N2).
    """
    return float(pure_concurrences(state_to_matrix(psi)[None])[0])


def concurrence_two_qubit_pure(psi: PureState) -> float:
    """Two-qubit pure-state concurrence 2|det(psi)| of the coefficient matrix."""
    if psi.dims != (2, 2):
        raise DimensionMismatch(f"requires a 2x2 bipartition, got {psi.dims}")
    return float(2.0 * abs(np.linalg.det(state_to_matrix(psi))))


def spin_flip_spectrum(mats) -> np.ndarray:
    """Decreasing sqrt-eigenvalues of rho rho~, rho~ the spin-flipped state,
    for each matrix of a (k, 4, 4) stack; returns shape (k, 4).

    Computed as the singular values of A^T (sy o sy) A for a factor
    rho = A A^dagger, which avoids taking square roots of near-zero
    eigenvalues of the non-Hermitian product rho rho~.  Eigenvalue mass
    below 1e-14 (relative) is treated as exact rank deficiency and its
    columns of A are zeroed: keeping them would couple null directions of
    the Gram matrix and inject O(sqrt(eps)) noise into the two smallest
    spectrum entries.
    """
    w, v = np.linalg.eigh(mats)
    keep = w > 1e-14 * np.maximum(1.0, w[:, -1:])
    factor = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    return np.linalg.svd(np.swapaxes(factor, 1, 2) @ _SPIN_FLIP @ factor, compute_uv=False)


def spin_flip_concurrence(mats) -> np.ndarray:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) of each matrix of a (k, 4, 4) stack."""
    lam = spin_flip_spectrum(mats)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit mixed-state concurrence max(0, l1 - l2 - l3 - l4)."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"requires a 2x2 bipartition, got {rho.dims}")
    return float(spin_flip_concurrence(rho.matrix[None])[0])


def fidelity_bound(fidelity, r: int):
    """The bound sqrt(2R/(R-1)) (F - 1/R) from an MES fidelity F, elementwise."""
    if r < 2:
        raise TrivialDimension("concurrence is identically 0 when min(N1, N2) = 1")
    return _prefactor(r) * (fidelity - 1.0 / r)


def fidelity_lower_bounds(mats, dims) -> np.ndarray:
    """Raw :func:`fidelity_lower_bound` of each state of a (k, d, d) stack with dims ``dims``."""
    mes = canonical_mes(dims).amplitudes
    overlap = (mats * np.outer(mes.conj(), mes)).sum(axis=(-2, -1)).real  # same order for any k
    return fidelity_bound(overlap, min(dims))


def fidelity_lower_bound(rho: DensityMatrix) -> BoundValue:
    """Lower bound sqrt(2R/(R-1)) (<mes|rho|mes> - 1/R) on the concurrence.

    Valid for every bipartite state; tight for the canonical maximally
    entangled state and generally weaker than :func:`theorem1_bound`.

    Raises
    ------
    TrivialDimension
        When min(N1, N2) = 1 and the prefactor is singular.
    """
    return BoundValue(float(fidelity_lower_bounds(rho.matrix[None], rho.dims)[0]), "lower")


def fully_entangled_fractions(mats) -> np.ndarray:
    """:func:`fef_two_qubit` of each matrix of a (k, 4, 4) stack."""
    overlap = _MAGIC_BASIS.conj().T @ mats @ _MAGIC_BASIS
    return np.linalg.eigvalsh(overlap.real)[:, -1]


def fef_two_qubit(rho: DensityMatrix) -> float:
    """Fully entangled fraction: max over maximally entangled |phi> of <phi|rho|phi>.

    For two qubits this is the largest eigenvalue of the real part of
    the overlap matrix of rho in the magic basis, an exact closed form.
    """
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"requires a 2x2 bipartition, got {rho.dims}")
    return float(fully_entangled_fractions(rho.matrix[None])[0])


def _haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def max_mes_fidelity(rho: DensityMatrix, samples: int = 10_000, seed: int = 0) -> float:
    """Best overlap with a maximally entangled state.

    Exact (magic-basis eigenvalue) for 2x2; otherwise the maximum over
    ``samples`` seeded random local-unitary rotations of the canonical
    MES, always including the unrotated MES itself.  The sampled value
    never exceeds the true maximum, so bounds built from it stay valid.
    """
    if rho.dims == (2, 2):
        return fef_two_qubit(rho)
    n1, n2 = rho.dims
    rng = np.random.default_rng(seed)
    mes = canonical_mes(rho.dims).amplitudes
    best = np.real(np.vdot(mes, rho.matrix @ mes))
    for _ in range(samples):
        u1 = _haar_unitary(n1, rng)
        u2 = _haar_unitary(n2, rng)
        phi = np.kron(u1, u2) @ mes
        best = max(best, np.real(np.vdot(phi, rho.matrix @ phi)))
    return float(best)


def theorem1_bound(rho: DensityMatrix, samples: int = 10_000, seed: int = 0) -> BoundValue:
    """Lower bound sqrt(2R/(R-1)) (max-MES-fidelity - 1/R) on the concurrence.

    Saturates for every two-qubit pure state (the analytic path) and for
    maximally entangled states in higher dimension; dominates
    :func:`fidelity_lower_bound` since the maximum beats any fixed MES.
    """
    r = min(rho.dims)
    if r < 2:
        raise TrivialDimension("concurrence is identically 0 when min(N1, N2) = 1")
    fid = max_mes_fidelity(rho, samples=samples, seed=seed)
    return BoundValue(float(fidelity_bound(fid, r)), "lower")


def upper_bound_factor(images, probe_matrices) -> np.ndarray:
    """Channel-side factors C(rho_P)/(2|det P|) of the upper bounds for a (k, 4, 4)
    stack of normalized probe images and the (k, 2, 2) probe matrices (either may
    hold one entry for all); the whole stack is checked first, and the first
    |det P| <= 1e-12 raises SingularProbe."""
    images = np.asarray(images)
    p = np.asarray(probe_matrices, dtype=complex)
    if images.shape[-2:] != (4, 4) or p.shape[-2:] != (2, 2):
        raise DimensionMismatch(f"needs 2x2 probe matrices and 4x4 probe images, got "
                                f"{p.shape[-2:]} and {images.shape[-2:]}")
    det = np.abs(np.linalg.det(p))
    k = first_false(det > _DET_FLOOR)
    if k < len(det):
        raise SingularProbe(f"|det P| = {det[k]!r} of probe {k} is numerically singular")
    return spin_flip_concurrence(images) / (2.0 * det)


def upper_bound_one_sided(c_in: float, rho_p: DensityMatrix, probe_matrix) -> BoundValue:
    """Upper bound c_in * C(rho_P) / (2|det P|) after a one-sided channel.

    ``rho_p`` is the normalized channel image of the probe state with
    coefficient matrix P; ``c_in`` is the concurrence of the input.
    For pure two-qubit inputs under trace-preserving channels the bound
    is an equality.
    """
    return BoundValue(float(c_in * upper_bound_factor(rho_p.matrix[None], [probe_matrix])[0]),
                      "upper")


def upper_bound_two_sided(c_in: float, rho_p1: DensityMatrix, rho_p2: DensityMatrix,
                          probe_matrix) -> BoundValue:
    """Upper bound with one evolved probe per channel side.

    c_in * C(rho_P1)/(2|det P|) * C(rho_P2)/(2|det P|).
    """
    factor1, factor2 = upper_bound_factor(np.array([rho_p1.matrix, rho_p2.matrix]),
                                          [probe_matrix] * 2)
    return BoundValue(float(c_in * factor1 * factor2), "upper")


@dataclass(frozen=True)
class Evaluation:
    """Per-entry arrays of :func:`evaluate` for the entries before ``fault``, which is
    None or (index, error) of the first entry to fail a check.  ``lower`` is the raw
    direct lower bound; ``exact``, ``upper``, ``p_prime`` and ``p_t`` are None where
    undefined.  ``images`` holds each stage's normalized probe image, (d, d) where
    probe and channel are shared, else one for each of the k input entries."""

    lower: np.ndarray
    exact: np.ndarray
    upper: np.ndarray
    p: np.ndarray
    p_prime: np.ndarray
    p_t: np.ndarray
    images: tuple
    fault: tuple


def evaluate(mats, dims, stages, probe_matrices=None) -> Evaluation:
    """Evolve a (k, d, d) stack of states and bracket the concurrence of each image.

    ``stages`` lists (superoperators, side) pairs for
    :func:`entbound.channels.apply_stacked`, each (n^2, n^2) or (k, n^2, n^2).
    The inputs and each stage's images pass :func:`density_fault` and each
    stage's traces the probability floor, every check only before the
    earliest fault so far, so the fault returned is the first entry to
    fail, whichever check it meets.  Each stage alone takes |P><P| of
    ``probe_matrices``, one (n, n) probe or one per entry (k, n, n), through
    :func:`entbound.channels.apply_checked`, which raises a probe image's
    fault; the traces multiply into p' and p_t = p/p'.  At 2x2 one
    spin-flip call gives the exact values and C(rho), and one
    :func:`upper_bound_factor` call every stage's factor of the upper bound.
    """
    fault = density_fault(mats)
    k = len(mats) if fault is None else fault[0]
    out, p = mats[:k], np.ones(k)
    for superoperators, side in stages:
        superoperators = superoperators if superoperators.ndim == 2 else superoperators[:k]
        out, stage_p, stage_fault = apply_stacked(superoperators, out, dims, side)
        fault = density_fault(out) or stage_fault or fault
        k = len(out) if fault is None else fault[0]
        out, p = out[:k], p[:k] * stage_p[:k]
    exact = upper = p_prime = p_t = None
    images = ()
    if probe_matrices is not None:
        probes = np.asarray(probe_matrices)
        densities = pure_densities(probes.reshape(probes.shape[:-2] + (probes.shape[-1] ** 2,)))
        p_prime = np.ones(len(mats))
        for superoperators, side in stages:  # a shared probe meets a per-entry channel k times
            shape = np.broadcast_shapes(superoperators.shape[:-2] + (1, 1), densities.shape)
            image, stage_p = apply_checked(superoperators, np.broadcast_to(densities, shape), side)
            images, p_prime = images + (image,), p_prime * stage_p
        p_prime = p_prime[:k]
        p_t = p / p_prime
    if tuple(dims) == (2, 2):
        values = spin_flip_concurrence(np.concatenate([out, mats[:k]]))
        exact, c_in = values[:k], values[k:]
        if images:  # one factor call for the images of every side; a shared image is one entry
            stacks = [np.reshape(image, (-1, 4, 4))[:k] for image in images]
            probes = np.reshape(probes, (-1, 2, 2))[:k]
            factors = upper_bound_factor(np.concatenate(stacks), np.concatenate(
                [np.broadcast_to(probes, (len(stack), 2, 2)) for stack in stacks]))
            upper = c_in
            for factor in np.split(factors, np.cumsum([len(stack) for stack in stacks])[:-1]):
                upper = upper * factor
    return Evaluation(fidelity_lower_bounds(out, dims), exact, upper, p, p_prime, p_t, images,
                      fault)
