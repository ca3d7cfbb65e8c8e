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

from .channels import evolve, probe_images
from .errors import DimensionMismatch, SingularProbe, TrivialDimension
from .qlinalg import DensityMatrix, PureState, _check_dim, _check_dims, first_false, \
    stack_of, state_to_matrix

_SPIN_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                      dtype=complex)  # sigma_y o sigma_y

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
_FULL_RANK = 1e-10  # spin_flip_spectrum's determinant certificate, relative to max(1, tr)^4
_PPT_SHIFT = 2e-10  # spin_flip_concurrence's separability certificate, relative to max(1, tr)
_MES_BLOCK = 4096  # samples per block of max_mes_fidelity

# rho^{T_B}[(i, j), (k, l)] = rho[(i, l), (k, j)]: the flat index into rho of each entry
# of the lower triangle of its partial transpose, column by column.
_PT_LOWER = np.arange(16).reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)[
    np.triu_indices(4)[::-1]]


@dataclass(frozen=True)
class BoundValue:
    """A bound with its raw (possibly negative) value preserved.

    ``clamped`` is the value to quote for the nonnegative quantity being
    bounded; ``raw`` keeps the information a plot of the bound needs.
    """

    raw: float

    @property
    def clamped(self) -> float:
        return max(0.0, self.raw)


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


def spin_flip_spectrum(mats) -> np.ndarray:
    """Decreasing sqrt-eigenvalues of rho rho~, rho~ the spin-flipped state,
    for each Hermitian matrix of a (k, 4, 4) stack; returns shape (k, 4).

    Computed as the singular values of A^T (sy o sy) A for a factor
    rho = A A^dagger, which avoids taking square roots of near-zero
    eigenvalues of the non-Hermitian product rho rho~.  Any two exact
    factors differ by a unitary on the right, which leaves those singular
    values unchanged, so each entry takes the cheapest factor it can:

    - An entry with det rho > 1e-10 max(1, tr rho)^4 is certified full
      rank.  If rho is positive semidefinite, no eigenvalue exceeds tr rho,
      so the smallest is at least det rho / (tr rho)^3 > 1e-10 max(1, tr rho),
      and its factor is the Cholesky factor of ``np.linalg.cholesky``.
    - Every other entry takes the eigen-factor V sqrt(W) of ``eigh``, with
      eigenvalue mass below 1e-14 (relative) treated as exact rank
      deficiency and its columns of A zeroed: keeping them would couple
      null directions of the Gram matrix and inject O(sqrt(eps)) noise into
      the two smallest spectrum entries.  The certificate's floor lies far
      above 1e-14, so this rule would have kept every eigenvalue of a
      certified entry, and both routes agree to rounding.

    If the Cholesky factorization fails on a certified entry (a Hermitian
    input with two negative eigenvalues has a positive determinant), only
    the entries whose own factorization fails take the ``eigh`` route.
    Anything but a (k, 4, 4) stack raises DimensionMismatch.
    """
    mats = stack_of(mats, 4)
    trace = np.trace(mats, axis1=-2, axis2=-1).real
    full = np.linalg.det(mats).real > _FULL_RANK * np.maximum(1.0, trace) ** 4
    factor = np.empty(mats.shape, dtype=complex)
    try:
        factor[full] = np.linalg.cholesky(mats[full])
    except np.linalg.LinAlgError:
        for j in np.flatnonzero(full):
            try:
                factor[j] = np.linalg.cholesky(mats[j])
            except np.linalg.LinAlgError:
                full[j] = False
    w, v = np.linalg.eigh(mats[~full])
    keep = w > 1e-14 * np.maximum(1.0, w[:, -1:])
    factor[~full] = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    return np.linalg.svd(np.swapaxes(factor, 1, 2) @ _SPIN_FLIP @ factor, compute_uv=False)


def _abs2(z) -> np.ndarray:
    return z.real**2 + z.imag**2


def _ppt_certified(mats) -> np.ndarray:
    """Whether the Cholesky factorization of rho^{T_B} - tau I, tau = 2e-10 max(1, tr rho),
    ends with four positive pivots, for each matrix of a (k, 4, 4) stack.

    The factorization L L^H is written out over the stack axis, one array per
    entry of the lower triangle, so each entry gets its own verdict, where
    ``np.linalg.cholesky`` raises for the whole stack.  d0..d3 are the squared
    pivots.  A pivot that is not positive turns the later ones of its entry to
    nan or -inf, silently inside ``np.errstate``, and every comparison with
    those is False.
    """
    a00, a10, a20, a30, a11, a21, a31, a22, a32, a33 = mats.reshape(-1, 16)[:, _PT_LOWER].T
    shift = _PPT_SHIFT * np.maximum(1.0, (a00 + a11 + a22 + a33).real)
    with np.errstate(all="ignore"):
        d0 = a00.real - shift
        l10, l20, l30 = np.array([a10, a20, a30]) / np.sqrt(d0)
        d1 = a11.real - shift - _abs2(l10)
        l21, l31 = (np.array([a21, a31]) - np.array([l20, l30]) * l10.conj()) / np.sqrt(d1)
        d2 = a22.real - shift - _abs2(l20) - _abs2(l21)
        l32 = (a32 - l30 * l20.conj() - l31 * l21.conj()) / np.sqrt(d2)
        d3 = a33.real - shift - _abs2(l30) - _abs2(l31) - _abs2(l32)
    return (d0 > 0) & (d1 > 0) & (d2 > 0) & (d3 > 0)


def spin_flip_concurrence(mats) -> np.ndarray:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) of each matrix of a (k, 4, 4) stack
    of positive semidefinite matrices (eigenvalues down to the -1e-10 density-matrix floor).

    A two-qubit state whose partial transpose rho^{T_B} is positive
    semidefinite is separable (Peres-Horodecki; Horodecki, Horodecki &
    Horodecki, Phys. Lett. A 223, 1 (1996)), so its concurrence is 0.  An
    entry whose Cholesky factorization of rho^{T_B} - tau I, with
    tau = 2e-10 max(1, tr rho), ends with four positive pivots is given
    exactly 0.0; only the other entries go through one
    :func:`spin_flip_spectrum` call.  The shift tau makes the shortcut report
    the value the spectrum would give.  That spectrum is the one of
    rho' = A A^dagger for the factor A it takes:

    - The ``eigh`` route zeroes up to three eigenvalues w of rho: negative
      ones down to -1e-10 and positive ones up to 1e-14 max(1, tr rho).  The
      partial transpose of a unit pure state has its eigenvalues in
      [-1/2, 1] (they are s_a^2 and +-s_a s_b for its Schmidt coefficients),
      so zeroing a negative w lowers lambda_min(rho^{T_B}) by at most |w|/2,
      and zeroing a positive one by at most w: together at most
      1.5e-10 + 3e-14 max(1, tr rho).  The Cholesky route's factor is exact
      for rho up to a backward error of the same order as the next item's.
    - If the factorization of rho^{T_B} - tau I runs with positive pivots,
      its factor is exact for rho^{T_B} - tau I + E with
      ||E||_2 <= 4 d(d+1) eps ||R^H R||_2, d = 4, with a factor of 4 for
      complex arithmetic (Higham, Accuracy and Stability of Numerical
      Algorithms, Thm 10.3); R^H R is positive semidefinite, so its 2-norm is
      at most its trace, about tr rho: ||E||_2 < 2e-14 max(1, tr rho).
      Hence lambda_min(rho^{T_B}) > tau - 2e-14 max(1, tr rho).

    So lambda_min(rho'^{T_B}) > (2e-10 - 1.5e-10 - 5e-14) max(1, tr rho) > 0:
    rho' is separable, its exact l1 - l2 - l3 - l4 is at most 0, and the
    clamp max(0, .) gives 0 for it too.  (On separable draws the computed
    value measured at most -2 lambda_min(rho^{T_B}) + 8e-16, far below the
    rounding that could lift it above 0.)  Anything but a (k, 4, 4) stack
    raises DimensionMismatch.
    """
    mats = stack_of(mats, 4)
    values = np.zeros(len(mats))
    rest = ~_ppt_certified(mats)
    lam = spin_flip_spectrum(mats[rest])
    values[rest] = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return values


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit mixed-state concurrence max(0, l1 - l2 - l3 - l4)."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"requires a 2x2 bipartition, got {rho.dims}")
    return float(spin_flip_concurrence(rho.matrix[None])[0])


def fidelity_bound(fidelity, r: int):
    """The bound sqrt(2R/(R-1)) (F - 1/R) from an MES fidelity F, elementwise."""
    if r < 2:
        raise TrivialDimension("concurrence is identically 0 when min(N1, N2) = 1")
    return np.sqrt(2.0 * r / (r - 1.0)) * (fidelity - 1.0 / r)


def _mes_overlaps(mats, dims) -> np.ndarray:
    """<mes|rho|mes> of each state of a (k, d, d) stack with dims ``dims``, for the
    canonical MES (1/sqrt(R)) sum_i |ii>: (1/R) sum_{i,j<R} rho[(i,i),(j,j)], read
    from the view of rows and columns 0, N2+1, ..., (R-1)(N2+1) of the stack.  A stack
    of another shape than (k, N1 N2, N1 N2) raises DimensionMismatch."""
    n1, n2 = _check_dims(dims)
    r, step = min(n1, n2), n2 + 1
    return stack_of(mats, n1 * n2)[:, :r * step:step, :r * step:step].real.sum(axis=(-2, -1)) / r


def fidelity_lower_bounds(mats, dims) -> np.ndarray:
    """Raw :func:`fidelity_lower_bound` of each state of a (k, d, d) stack with dims
    ``dims``: :func:`fidelity_bound` of the canonical-MES overlaps."""
    return fidelity_bound(_mes_overlaps(mats, dims), min(dims))


def fidelity_lower_bound(rho: DensityMatrix) -> BoundValue:
    """Lower bound sqrt(2R/(R-1)) (<mes|rho|mes> - 1/R) on the concurrence.

    Valid for every bipartite state; tight for the canonical maximally
    entangled state and generally weaker than :func:`theorem1_bound`.

    Raises
    ------
    TrivialDimension
        When min(N1, N2) = 1 and the prefactor is singular.
    """
    return BoundValue(float(fidelity_lower_bounds(rho.matrix[None], rho.dims)[0]))


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


def max_mes_fidelity(rho: DensityMatrix, samples: int = 10_000, seed: int = 0) -> float:
    """Best overlap with a maximally entangled state (MES), the fully entangled fraction.

    Exact at 2x2 (:func:`fef_two_qubit`).  Otherwise the largest overlap of the
    canonical MES and of ``samples`` Haar-random MES vec(W)/sqrt(R) drawn from
    ``seed``, W an N1 x N2 partial isometry of rank R = min(N1, N2): the QR of a
    (samples, max(N1, N2), R) Gaussian stack, R's diagonal phases moved into Q
    (Mezzadri, Notices AMS 54, 592 (2007)), transposed when N1 < N2.  The stack is
    drawn at once and factored and overlapped in blocks of 4,096 samples.  The value is
    never below the canonical overlap nor above the true maximum.  A ``samples``
    that is not an integer raises TypeError, a negative one ValueError.
    """
    samples = _check_dim(samples, "samples")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    best = float(_mes_overlaps(rho.matrix[None], rho.dims)[0])
    if rho.dims == (2, 2):
        return max(best, fef_two_qubit(rho))
    n1, n2 = rho.dims
    r = min(n1, n2)
    draw = np.random.default_rng(seed).standard_normal((2, samples, max(n1, n2), r))
    for z in np.split(draw, range(_MES_BLOCK, samples, _MES_BLOCK), axis=1):
        q, upper = np.linalg.qr(z[0] + 1j * z[1])
        d = np.diagonal(upper, axis1=-2, axis2=-1)
        w = q * (d / np.abs(d))[:, None, :]
        mes = (w if n1 >= n2 else w.swapaxes(1, 2)).reshape(len(w), n1 * n2) / np.sqrt(r)
        best = np.einsum("sa,sa->s", mes.conj() @ rho.matrix, mes).real.max(initial=best)
    return float(best)


def theorem1_bound(rho: DensityMatrix, samples: int = 10_000, seed: int = 0) -> BoundValue:
    """Lower bound sqrt(2R/(R-1)) (max-MES-fidelity - 1/R) on the concurrence.

    :func:`fidelity_bound` of :func:`max_mes_fidelity`.  Saturates for every
    two-qubit pure state and for maximally entangled states in higher
    dimension; never below :func:`fidelity_lower_bound`, with no tolerance.
    """
    fidelity = max_mes_fidelity(rho, samples=samples, seed=seed)
    return BoundValue(float(fidelity_bound(fidelity, min(rho.dims))))


def upper_bound_factor(concurrences, probe_matrices) -> np.ndarray:
    """Factors C(rho_P)/(2|det P|) of the upper bound of Konrad et al., Nature Physics 4,
    99 (2008), from the concurrences C(rho_P) of the normalized probe images and a (k, 2, 2)
    stack of probe matrices (one may serve all).  The first |det P| <= 1e-12 of the stack
    raises SingularProbe; anything but such a stack raises DimensionMismatch."""
    det = np.abs(np.linalg.det(stack_of(np.asarray(probe_matrices, dtype=complex), 2)))
    k = first_false(det > _DET_FLOOR)
    if k < len(det):
        raise SingularProbe(f"|det P| = {float(det[k])} of probe {k} is numerically singular")
    return concurrences / (2.0 * det)


def upper_bound_one_sided(c_in: float, rho_p: DensityMatrix, probe_matrix) -> BoundValue:
    """Upper bound c_in * C(rho_P) / (2|det P|) after a one-sided channel.

    ``rho_p`` is the normalized channel image of the probe state with
    coefficient matrix P; ``c_in`` is the concurrence of the input.
    For pure two-qubit inputs under trace-preserving channels the bound
    is an equality.
    """
    factor = upper_bound_factor(spin_flip_concurrence(rho_p.matrix[None]), [probe_matrix])
    return BoundValue(float(c_in * factor[0]))


def upper_bound_two_sided(c_in: float, rho_p1: DensityMatrix, rho_p2: DensityMatrix,
                          probe_matrix) -> BoundValue:
    """Upper bound with one evolved probe per channel side.

    c_in * C(rho_P1)/(2|det P|) * C(rho_P2)/(2|det P|).
    """
    factor1, factor2 = upper_bound_factor(
        spin_flip_concurrence(np.array([rho_p1.matrix, rho_p2.matrix])), [probe_matrix] * 2)
    return BoundValue(float(c_in * factor1 * factor2))


@dataclass(frozen=True)
class Evaluation:
    """Per-entry arrays of :func:`evaluate` for the entries before ``fault``, which is
    None or (index, error) of the first entry to fail a check.  ``states`` is the
    evolved stack; ``exact``, ``upper``, ``p_prime`` and ``p_t`` are None where
    undefined.  ``images`` are the (image stack, side) pairs of
    :func:`entbound.channels.probe_images`, one per stage, the stages
    :func:`entbound.probe.probe_route` takes."""

    states: np.ndarray
    exact: np.ndarray
    upper: np.ndarray
    p: np.ndarray
    p_prime: np.ndarray
    p_t: np.ndarray
    images: tuple
    fault: tuple


def evaluate(mats, dims, stages, probe_matrices=None) -> Evaluation:
    """Evolve a (k, d, d) stack of states; at 2x2 also bound its images' concurrence.

    :func:`entbound.channels.evolve` takes the states through ``stages``; with
    ``probe_matrices``, a stack of one (n, n) probe or of one per entry,
    :func:`entbound.channels.probe_images` takes |P><P| through each stage alone, and
    p_t = p/p'.  A probe stack of another length, or a probe whose dim differs from a
    stage's subsystem, raises DimensionMismatch before any probe image is built.  At 2x2
    one :func:`spin_flip_concurrence` call (so one :func:`spin_flip_spectrum` call, on the
    entries not certified separable) takes the images, the inputs and every stage's probe
    images as one stack: it gives the exact values, C(rho) and each stage's C(rho_P); the
    upper bound is C(rho) times one :func:`upper_bound_factor` call's factors, in order.
    """
    out, p, fault = evolve(mats, dims, stages)
    k = len(out)
    exact = upper = p_prime = p_t = None
    images = ()
    if probe_matrices is not None:
        n = np.shape(probe_matrices)[-1]
        probes = stack_of(probe_matrices, n, shared=True)
        if len(probes) not in (1, len(mats)):
            raise DimensionMismatch(f"{len(probes)} probes for {len(mats)} states")
        for _, side in stages:
            if n != dims[side == "second"]:
                raise DimensionMismatch(f"a probe of dim {n} does not fit the {side} subsystem "
                                        f"of a state of dims {tuple(dims)}")
        images, p_prime = probe_images(stages, probes)
        images = tuple((image[:k], side) for image, side in images)
        p_prime = (np.ones(len(mats)) * p_prime)[:k]  # one shared p' serves every entry
        p_t = p / p_prime
    if tuple(dims) == (2, 2):  # one spin-flip call; a shared probe image is one entry
        stacks = [out, mats[:k]] + [image for image, _ in images]
        values = np.split(spin_flip_concurrence(np.concatenate(stacks)),
                          np.cumsum([len(stack) for stack in stacks])[:-1])
        exact, c_in = values[:2]
        if images:
            probes, upper = probes[:k], c_in
            for factor in upper_bound_factor(np.array(np.broadcast_arrays(*values[2:])), probes):
                upper = upper * factor
    return Evaluation(out, exact, upper, p, p_prime, p_t, images, fault)
