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


def _check_dims(dims) -> tuple[int, int]:
    n1, n2 = int(dims[0]), int(dims[1])
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
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > TOL_STRUCTURE:
            raise NotNormalized(f"|norm - 1| = {abs(norm - 1.0):.3e} exceeds {TOL_STRUCTURE}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n1(self) -> int:
        return self.dims[0]

    @property
    def n2(self) -> int:
        return self.dims[1]

    def density(self) -> "DensityMatrix":
        """Rank-1 density matrix |psi><psi|."""
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


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
        fault = density_fault(mat[None])
        if fault is not None:
            raise fault[1]
        object.__setattr__(self, "matrix", mat)

    @property
    def n1(self) -> int:
        return self.dims[0]

    @property
    def n2(self) -> int:
        return self.dims[1]


def first_false(ok) -> int:
    """Index of the first False entry of a 1-D mask, else its length."""
    return len(ok) if ok.all() else int(ok.argmin())


def density_fault(mats):
    """(index, ValueError) for the first entry of a (k, d, d) stack that is not
    Hermitian and of unit trace within 1e-12 with eigenvalues >= -1e-10, else None."""
    asym = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = mats.trace(axis1=1, axis2=2).real
    k = first_false((asym <= TOL_STRUCTURE) & (np.abs(trace - 1.0) <= TOL_STRUCTURE))
    low = first_false(np.linalg.eigvalsh(mats[:k])[:, 0] >= EIGENVALUE_FLOOR)
    if low < k:
        return low, ValueError("matrix has an eigenvalue below -1e-10")
    if k == len(mats):
        return None
    if not asym[k] <= TOL_STRUCTURE:
        return k, ValueError("matrix is not Hermitian within 1e-12")
    return k, ValueError(f"trace = {trace[k]!r} is not 1 within 1e-12")


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
    return psi.amplitudes.reshape(psi.n1, psi.n2).copy()


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


def random_pure_state(dims, seed) -> PureState:
    """Haar-distributed pure state: normalized vector of standard complex Gaussians.

    ``seed`` may also be a Generator, which is then drawn from.
    """
    n1, n2 = _check_dims(dims)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n1 * n2) + 1j * rng.standard_normal(n1 * n2)
    return PureState((n1, n2), z / np.linalg.norm(z))


def random_density(dims, rank, seed) -> DensityMatrix:
    """Random density matrix G G^dagger / Tr with an N1*N2 x rank Gaussian factor G.

    ``seed`` may also be a Generator, which is then drawn from.
    """
    n1, n2 = _check_dims(dims)
    d = n1 * n2
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return DensityMatrix((n1, n2), rho / np.trace(rho).real)
