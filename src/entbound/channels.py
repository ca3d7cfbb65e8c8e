"""Kraus-operator quantum channels acting on one side of a bipartite state.

Channels need not be trace preserving: applying one returns the
normalized image together with the probability (trace of the raw image).
Kraus sets whose completeness sum exceeds the identity are rejected at
construction, since a "probability" above 1 has no meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidChannel, OutOfRange, ZeroProbability
from .qlinalg import DensityMatrix, density_fault, first_false, raise_fault

# Completeness defect below this is treated as exactly trace preserving.
TP_TOLERANCE = 1e-10

# Below this, normalizing the channel image amplifies noise beyond any
# stated tolerance.
PROBABILITY_FLOOR = 1e-14


@dataclass(frozen=True)
class KrausChannel:
    """Ordered set of square Kraus operators on a single subsystem.

    Attributes
    ----------
    input_dim : int
        Dimension of the subsystem the operators act on.
    operators : tuple of ndarray
        The Kraus operators, each input_dim x input_dim.
    completeness_defect : float
        Spectral norm of sum(M^dag M) - I.
    trace_preserving : bool
        True when the defect is at most 1e-10.
    superoperator : ndarray
        The n^2 x n^2 matrix S[(a,c),(i,j)] = <a|$(|i><j|)|c> of the channel
        $, read-only; every application goes through it.
    """

    input_dim: int
    operators: tuple
    completeness_defect: float = field(init=False)
    trace_preserving: bool = field(init=False)
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = int(self.input_dim)
        if d < 1:
            raise DimensionMismatch(f"input_dim must be positive, got {self.input_dim}")
        if len(self.operators) == 0:
            raise InvalidChannel("a channel needs at least one Kraus operator")
        ops = [np.array(m, dtype=complex) for m in self.operators]
        for m in ops:
            if m.shape != (d, d):
                raise DimensionMismatch(f"Kraus operator shape {m.shape} != ({d}, {d})")
        ops = np.array(ops)
        defects, superoperators = kraus_superoperators(ops[None])
        ops.setflags(write=False)
        object.__setattr__(self, "input_dim", d)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "completeness_defect", float(defects[0]))
        object.__setattr__(self, "trace_preserving", bool(defects[0] <= TP_TOLERANCE))
        object.__setattr__(self, "superoperator", superoperators[0])


def kraus_superoperators(ops):
    """Validate a (k, K, d, d) stack of Kraus sets and return (defects, superoperators).

    Set j holds the K operators ops[j]; all-zero operators may pad shorter
    sets and change nothing.  ``defects`` are the spectral norms of
    sum M^dag M - I and ``superoperators`` the read-only (k, d^2, d^2)
    stack S[(a,c),(i,j)] = sum_m M_m[a,i] M_m[c,j]^*.

    Raises
    ------
    DimensionMismatch
        If the operators are not square.
    InvalidChannel
        If an entry is not finite, or some sum M^dag M exceeds the identity by
        more than 1e-10, so that probabilities would exceed 1.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 4 or ops.shape[-1] != ops.shape[-2]:
        raise DimensionMismatch(f"need a (k, K, d, d) stack of square operators, got {ops.shape}")
    if not np.all(np.isfinite(ops.view(float))):
        raise InvalidChannel("Kraus operator has non-finite entries")
    k, d = len(ops), ops.shape[-1]
    total = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=1)
    w = np.linalg.eigvalsh(total - np.eye(d))  # Hermitian gap: |w| are its singular values
    if np.any(w[:, -1] > TP_TOLERANCE):
        raise InvalidChannel("sum M^dag M exceeds the identity; probabilities would exceed 1")
    superoperators = np.einsum("mkai,mkcj->macij", ops, ops.conj()).reshape(k, d * d, d * d)
    superoperators.setflags(write=False)
    return np.maximum(-w[:, 0], w[:, -1]), superoperators


@dataclass(frozen=True)
class ChannelApplication:
    """Normalized channel image plus the probability that normalized it."""

    output: DensityMatrix
    probability: float


def apply_stacked(superoperators, mats, dims, side: str = "first"):
    """:func:`apply_one_sided` for every matrix of a (k, d, d) stack.

    ``superoperators`` is one channel's (n^2, n^2) superoperator for the
    whole stack or a (k, n^2, n^2) stack of them, one per entry.  Returns
    (outputs, p, fault): ``p`` holds the traces of the raw images and
    ``fault`` is None or (index, ZeroProbability) for the first entry with
    p <= 1e-14.  ``outputs`` holds the normalized images of the entries
    before that index, not yet validated as density matrices.
    """
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    n1, n2 = dims
    n, m = (n1, n2) if side == "first" else (n2, n1)
    if superoperators.shape[-2:] != (n * n, n * n):
        raise DimensionMismatch(f"superoperator of shape {superoperators.shape[-2:]} does not "
                                f"act on a subsystem of dim {n}")
    # (k, i, j, x, y): the channel side's row and column indices first
    axes = (0, 1, 3, 2, 4) if side == "first" else (0, 2, 4, 1, 3)
    blocks = mats.reshape(-1, n1, n2, n1, n2).transpose(axes).reshape(-1, n * n, m * m)
    images = (superoperators @ blocks).reshape(-1, n, n, m, m).transpose(np.argsort(axes))
    images = images.reshape(mats.shape)
    p = np.trace(images, axis1=1, axis2=2).real
    k = first_false(p > PROBABILITY_FLOOR)
    fault = None if k == len(p) else (k, ZeroProbability(f"channel image has trace {p[k]!r}"))
    return images[:k] / p[:k, None, None], p, fault


def apply_checked(superoperators, mats, side: str = "first"):
    """:func:`apply_stacked` on a (k, ..., d, d) stack of N x N states, returning the images
    and traces shaped like the stack; the first trace <= 1e-14 or image that is not a
    density matrix raises.  ``superoperators`` is one (n^2, n^2) channel for every state,
    or a (k, n^2, n^2) stack whose entry j acts on every state of ``mats[j]``."""
    d = mats.shape[-1]
    n = round(d ** 0.5)
    if superoperators.ndim == 3:
        superoperators = np.repeat(superoperators, int(np.prod(mats.shape[1:-2])), axis=0)
    outputs, p, fault = apply_stacked(superoperators, mats.reshape(-1, d, d), (n, n), side)
    raise_fault(fault)
    raise_fault(density_fault(outputs))
    return outputs.reshape(mats.shape), p.reshape(mats.shape[:-2])


def apply_one_sided(channel: KrausChannel, rho: DensityMatrix, side: str = "first") -> ChannelApplication:
    """Apply a channel to one subsystem of a bipartite state.

    The image is sum_k (M_k o I) rho (M_k^dag o I) for side "first"
    (I o M_k for side "second"), normalized by its trace p.

    Raises
    ------
    DimensionMismatch
        If the channel dimension does not match the selected subsystem.
    ZeroProbability
        If p <= 1e-14, i.e. the channel annihilates the state.
    """
    outputs, p, fault = apply_stacked(channel.superoperator, rho.matrix[None], rho.dims, side)
    raise_fault(fault)
    return ChannelApplication(DensityMatrix(rho.dims, outputs[0]), float(p[0]))


def apply_two_sided(ch1: KrausChannel, ch2: KrausChannel, rho: DensityMatrix) -> ChannelApplication:
    """Apply ch1 to the first subsystem and ch2 to the second.

    One-sided superoperators on different subsystems commute, so the
    composition order is immaterial; the overall probability is the
    product of the stage probabilities.
    """
    first = apply_one_sided(ch1, rho, side="first")
    second = apply_one_sided(ch2, first.output, side="second")
    return ChannelApplication(second.output, first.probability * second.probability)


def kraus_factors(dim: int, count: int, rng) -> np.ndarray:
    """(count, dim, dim) standard complex Gaussian factors, drawn as one (count, 2, dim, dim)
    block: the stream of one factor at a time, real part before imaginary part."""
    block = rng.standard_normal((count, 2, dim, dim))
    return block[:, 0] + 1j * block[:, 1]


def tp_kraus(factors) -> np.ndarray:
    """Trace-preserving Kraus sets G_m (sum G^dag G)^(-1/2) of a (k, K, d, d) stack of
    factor sets; all-zero factors may pad shorter sets and stay zero."""
    w, v = np.linalg.eigh((factors.conj().swapaxes(-1, -2) @ factors).sum(axis=1))
    root_inv = v @ (np.eye(w.shape[-1]) / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return factors @ root_inv[:, None]


def random_tp_channel(dim: int, count: int, seed) -> KrausChannel:
    """Trace-preserving channel G_k (sum G^dag G)^(-1/2) from ``count`` complex
    Gaussian factors G_k; ``seed`` may also be a Generator, which is then drawn from."""
    factors = kraus_factors(dim, count, np.random.default_rng(seed))
    return KrausChannel(dim, tuple(tp_kraus(factors[None])[0]))


def amplitude_damping(gamma: float) -> KrausChannel:
    """Qubit amplitude damping: diag(1, sqrt(1-gamma)) and sqrt(gamma)|0><1|."""
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"gamma must be in [0, 1], got {gamma}")
    m1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    m2 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel(2, (m1, m2))


def depolarizing(p: float) -> KrausChannel:
    """Qubit depolarizing channel: rho -> (1-p) rho + p I/2."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must be in [0, 1], got {p}")
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return KrausChannel(2, (
        np.sqrt(1.0 - 3.0 * p / 4.0) * eye,
        np.sqrt(p / 4.0) * sx,
        np.sqrt(p / 4.0) * sy,
        np.sqrt(p / 4.0) * sz,
    ))


def phase_damping(lam: float) -> KrausChannel:
    """Qubit phase damping: diagonal entries untouched, coherences shrink."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda must be in [0, 1], got {lam}")
    m1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - lam)]])
    m2 = np.array([[0.0, 0.0], [0.0, np.sqrt(lam)]])
    return KrausChannel(2, (m1, m2))
