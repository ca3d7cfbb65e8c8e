"""Complex dense linear algebra and bipartite-state structure.

A bipartite pure state on N1 x N2 levels is stored as a length N1*N2
amplitude vector ordered with the first subsystem index major, so the
amplitude of |i j> sits at position i*N2 + j.  Under this ordering the
vector is exactly the row-major flattening of the N1 x N2 coefficient
matrix psi, and (A o B)|psi> corresponds to the matrix A psi B^T.
Every operation in the package relies on that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidRank, NotNormalized

# Tolerance ladder: exact structure (hermiticity, trace, norm), then
# reconstruction identities, then compound derived-bound agreement.
TOL_STRUCTURE = 1e-12
TOL_RECONSTRUCT = 1e-10
TOL_BOUND = 1e-8

# Floating-point PSD drift below this magnitude is clamped to zero
# before any square root.
EIGENVALUE_FLOOR = -1e-10


def _frozen_complex(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _check_dim(n, what: str) -> int:
    """``n`` as an int; a float, string or bool raises TypeError, never truncated."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    return int(n)


def _check_dims(dims) -> tuple[int, int]:
    if np.ndim(dims) != 1 or len(dims) != 2:
        raise DimensionMismatch(f"need two subsystem dimensions, got {dims!r}")
    n1, n2 = (_check_dim(n, "a subsystem dimension") for n in dims)
    if n1 < 1 or n2 < 1:
        raise DimensionMismatch(f"subsystem dimensions must be positive, got {dims}")
    return n1, n2


@dataclass(frozen=True)
class PureState:
    """Normalized bipartite pure state with explicit subsystem dimensions.

    Parameters
    ----------
    dims : (int, int)
        Subsystem dimensions (N1, N2).
    amplitudes : array_like
        Length N1*N2 complex vector, first-subsystem-index major.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        n1, n2 = _check_dims(self.dims)
        object.__setattr__(self, "dims", (n1, n2))
        amp = _frozen_complex(self.amplitudes, shape=(n1 * n2,))
        _check_unit_norms(amp[None])
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> "DensityMatrix":
        """Rank-1 density matrix |psi><psi|."""
        return DensityMatrix(self.dims, pure_densities(self.amplitudes[None])[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite bipartite state.

    Hermiticity and trace are enforced within 1e-12; eigenvalues may dip
    to -1e-10 to absorb floating-point drift.
    """

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        n1, n2 = _check_dims(self.dims)
        object.__setattr__(self, "dims", (n1, n2))
        d = n1 * n2
        mat = _frozen_complex(self.matrix, shape=(d, d))
        raise_fault(density_fault(mat[None]))
        object.__setattr__(self, "matrix", mat)


def first_false(ok) -> int:
    """Index of the first False entry of a 1-D mask, else its length."""
    return len(ok) if ok.all() else int(ok.argmin())


def _norms(vecs) -> np.ndarray:
    """Euclidean norms of a (k, d) stack of complex vectors, each summed exactly as
    np.linalg.norm sums one vector (a dot product of the real and of the imaginary parts)."""
    re, im = vecs.real[:, None], vecs.imag[:, None]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def _check_unit_norms(vecs):
    """Raise NotNormalized for the first vector of a (k, d) stack whose norm is off 1
    by more than 1e-12."""
    off = np.abs(_norms(vecs) - 1.0)
    k = first_false(off <= TOL_STRUCTURE)
    if k < len(off):
        raise NotNormalized(f"|norm - 1| = {off[k]:.3e} exceeds {TOL_STRUCTURE}")


def stack_of(mats, n: int, shared: bool = False) -> np.ndarray:
    """``mats`` as a (k, n, n) stack, else DimensionMismatch.  With ``shared``, a lone (n, n)
    matrix, an operand that every entry shares, is a stack of one."""
    mats = np.asarray(mats)
    if mats.shape[-2:] != (n, n) or mats.ndim not in ((2, 3) if shared else (3,)):
        raise DimensionMismatch(f"needs a (k, {n}, {n}) stack, got shape {mats.shape}")
    return mats.reshape(-1, n, n)


def raise_fault(fault):
    """Raise the error of a (index, error) fault; None passes."""
    if fault is not None:
        raise fault[1]


def _certificate_shift(d: int) -> float:
    """The shift tau of the Cholesky certificate in :func:`density_fault` for d x d matrices.

    Cholesky and eigvalsh both read the lower triangle, so they see the same
    Hermitian A, and A has passed the trace check.  If cholesky(A + tau I)
    runs to completion, its factor R is exact for A + tau I + E with
    |E| <= gamma_(d+1) |R^H||R|, and ||E||_2 <= d(d+1) eps ||A + tau I + E||_2
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3 and
    Sec. 10.1.1); the shifted sum is R^H R, positive semidefinite, so its
    2-norm is at most its trace, 1 + d tau + tr E <= 2.  Hence
    lambda_min(A) >= -tau - 2 d(d+1) eps, and eigvalsh, backward stable, is
    off lambda_min(A) by at most p(d) eps ||A||_2 with p(d) <= d(d+1) and
    ||A||_2 <= 2.  A margin of 16 d(d+1) eps covers both, with a factor of 4
    for complex arithmetic and the rounding of the shifted diagonal, so a
    Cholesky that succeeds certifies what eigvalsh would report: no
    eigenvalue below -1e-10.  The bound holds for any sign of tau; where the
    margin reaches the floor (d >= 168) tau < 0, the certificate fails on
    every singular state and eigvalsh decides.
    """
    return -EIGENVALUE_FLOOR - 16 * d * (d + 1) * np.finfo(float).eps


def density_fault(mats):
    """(index, ValueError) for the first entry of a (k, d, d) stack that is not
    Hermitian and of unit trace within 1e-12 with eigenvalues >= -1e-10, else None.

    The eigenvalue floor of the entries that pass the structure checks is
    first certified by one Cholesky factorization of the shifted stack (see
    :func:`_certificate_shift`); only when it fails does eigvalsh name the
    first entry below the floor."""
    asym = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = mats.trace(axis1=1, axis2=2).real
    k = first_false((asym <= TOL_STRUCTURE) & (np.abs(trace - 1.0) <= TOL_STRUCTURE))
    d = mats.shape[-1]
    try:
        np.linalg.cholesky(mats[:k] + _certificate_shift(d) * np.eye(d))
        low = k
    except np.linalg.LinAlgError:
        low = first_false(np.linalg.eigvalsh(mats[:k])[:, 0] >= EIGENVALUE_FLOOR)
    if low < k:
        return low, ValueError("matrix has an eigenvalue below -1e-10")
    if k == len(mats):
        return None
    if not asym[k] <= TOL_STRUCTURE:
        return k, ValueError("matrix is not Hermitian within 1e-12")
    return k, ValueError(f"trace = {float(trace[k])} is not 1 within 1e-12")


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are the singular values of the coefficient matrix in
    decreasing order; the matrix is recovered as
    left_basis @ diag(coefficients) @ right_basis^dagger (the bases are
    square unitaries truncated/padded by numpy's full_matrices=False SVD).
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def state_to_matrix(psi: PureState) -> np.ndarray:
    """Coefficient matrix of a pure state: entry (i, j) is the amplitude of |i j>."""
    return psi.amplitudes.reshape(psi.dims).copy()


def partial_trace(rho: DensityMatrix, keep: str = "first") -> np.ndarray:
    """Reduced state of one subsystem.

    Parameters
    ----------
    rho : DensityMatrix
    keep : {"first", "second"}
        Which subsystem survives.
    """
    n1, n2 = rho.dims
    r4 = rho.matrix.reshape(n1, n2, n1, n2)
    if keep == "first":
        return np.trace(r4, axis1=1, axis2=3)
    if keep == "second":
        return np.trace(r4, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition via SVD of the coefficient matrix."""
    u, s, vh = np.linalg.svd(state_to_matrix(psi), full_matrices=False)
    return SchmidtForm(coefficients=s, left_basis=u, right_basis=vh.conj().T)


def swap_subsystems(mats, n: int) -> np.ndarray:
    """S mat S for the subsystem swap S and each matrix of a (..., n^2, n^2) stack, as an
    axis transpose of the (n, n, n, n) view."""
    view = mats.reshape(mats.shape[:-2] + (n,) * 4)
    return np.swapaxes(view, -4, -3).swapaxes(-2, -1).reshape(mats.shape)


def swap_operator(n: int) -> np.ndarray:
    """N^2 x N^2 permutation matrix with S|j>|k> = |k>|j>; symmetric and S^2 = I."""
    s = np.zeros((n * n, n * n))
    for j in range(n):
        for k in range(n):
            s[k * n + j, j * n + k] = 1.0
    return s


def canonical_mes(dims) -> PureState:
    """Canonical maximally entangled state (1/sqrt(R)) sum_i |ii>.

    For N1 != N2 the first R = min(N1, N2) levels of each subsystem
    carry the correlations.
    """
    n1, n2 = _check_dims(dims)
    r = min(n1, n2)
    amp = np.zeros(n1 * n2, dtype=complex)
    amp[np.arange(r) * (n2 + 1)] = 1.0 / np.sqrt(r)
    return PureState((n1, n2), amp)


def kron_stack(a, b) -> np.ndarray:
    """np.kron of the last two axes of two stacks, broadcast over the leading axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def gaussian(rng, shape) -> np.ndarray:
    """Standard complex Gaussians of an int or tuple ``shape``, drawn as one (2,) + shape
    block: the real parts are drawn first, then the imaginary parts."""
    z = rng.standard_normal((2, *shape) if isinstance(shape, tuple) else (2, shape))
    return z[0] + 1j * z[1]


def pure_stack(vecs) -> np.ndarray:
    """Normalized (k, d) stack of a (k, d) stack of nonzero vectors, checked finite
    and of unit norm; each entry equals that vector normalized alone."""
    vecs = np.asarray(vecs, dtype=complex)
    amps = vecs / _norms(vecs)[:, None]
    if not np.all(np.isfinite(amps.view(float))):
        raise ValueError("entries must be finite")
    _check_unit_norms(amps)
    return amps


def pure_densities(vecs) -> np.ndarray:
    """Unvalidated (k, d, d) stack of |v><v| for a (k, d) stack of vectors v."""
    return vecs[:, :, None] * vecs[:, None, :].conj()


def density_stack(dims, factors) -> np.ndarray:
    """Unvalidated (k, d, d) stack of G G^dagger / Tr for a (k, d, r) stack of Gaussian
    factors G, d = N1*N2; zeroed columns lower an entry's rank."""
    n1, n2 = _check_dims(dims)
    g = np.asarray(factors, dtype=complex)
    if g.shape[1] != n1 * n2:
        raise DimensionMismatch(f"factors need {n1 * n2} rows, got {g.shape[1]}")
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def random_pure_state(dims, seed) -> PureState:
    """Haar-distributed pure state: normalized vector of standard complex Gaussians.

    ``seed`` may also be a Generator, which is then drawn from.
    """
    n1, n2 = _check_dims(dims)
    rng = np.random.default_rng(seed)
    return PureState((n1, n2), pure_stack(gaussian(rng, n1 * n2)[None])[0])


def random_density(dims, rank, seed) -> DensityMatrix:
    """Random density matrix G G^dagger / Tr with an N1*N2 x rank Gaussian factor G.

    ``seed`` may also be a Generator, which is then drawn from.
    """
    n1, n2 = _check_dims(dims)
    d = n1 * n2
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    return DensityMatrix((n1, n2), density_stack((n1, n2), gaussian(rng, (d, rank))[None])[0])
