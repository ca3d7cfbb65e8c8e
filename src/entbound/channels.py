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
from .qlinalg import DensityMatrix, _check_dim, density_fault, first_false, pure_densities, \
    raise_fault, stack_of

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
        d = _check_dim(self.input_dim, "input_dim")
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
    if not np.all(np.isfinite(ops)):
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


def check_side(side) -> None:
    """Raise ValueError unless ``side`` names a subsystem, "first" or "second"."""
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def apply_stacked(superoperators, mats, dims, side: str = "first"):
    """:func:`apply_one_sided` for every matrix of a (k, d, d) stack, through a (g, n^2, n^2)
    stack of superoperators (g = 1: one for all; a lone matrix is that stack of one) that pairs
    with the states when one length divides the other: each entry of the shorter stack serves
    a run of consecutive entries of the longer one (other lengths raise DimensionMismatch; an
    empty stack gives no image).  Returns (outputs, p, fault) over the max(g, k) pairs: the
    traces p of the raw images, None or (index, ZeroProbability) of the first pair with
    p <= 1e-14, and the normalized, not yet validated images before it.  Each entry is m^2
    rows of length n^2 times S^T, one GEMM per superoperator over its run of states; a run
    of one row (m = 1) is padded to two, since a lone row would be a matrix-vector product,
    which can differ in the last bit from the same row inside a GEMM.  An output row is one
    dot product with a row of S, so an entry gets the same bits alone, in any stack and any
    grouping."""
    check_side(side)
    n1, n2 = dims
    n, m = (n1, n2) if side == "first" else (n2, n1)
    superoperators = stack_of(superoperators, n * n, shared=True)
    # (k, x, y, i, j): the channel side's row and column indices last
    axes = (0, 2, 4, 1, 3) if side == "first" else (0, 1, 3, 2, 4)
    rows = mats.reshape(-1, n1, n2, n1, n2).transpose(axes).reshape(-1, m * m, n * n)
    g, k = len(superoperators), len(rows)
    c = max(min(g, k), 1)  # an empty stack pairs with nothing
    if max(g, k) % c:
        raise DimensionMismatch(f"{g} superoperators do not pair with {k} states")
    run = k // c * m * m
    rows = rows.reshape(c, 1, run, n * n)
    if run == 1:  # a lone row would be a matrix-vector product: pad it to two rows
        rows = rows.repeat(2, axis=2)
    superoperators = superoperators.reshape(c, g // c, n * n, n * n)
    images = (rows @ superoperators.swapaxes(-1, -2))[:, :, :run].reshape(-1, m, m, n, n)
    images = images.transpose(np.argsort(axes)).reshape((-1,) + mats.shape[1:])
    p = np.trace(images, axis1=1, axis2=2).real
    k = first_false(p > PROBABILITY_FLOOR)
    fault = None if k == len(p) else (k, ZeroProbability(f"channel image has trace {float(p[k])}"))
    return images[:k] / p[:k, None, None], p, fault


def evolve(mats, dims, stages):
    """(states, p, fault) of a (k, d, d) stack through ``stages``, (superoperators, side) pairs
    of :func:`apply_stacked` with a stack of one or of k superoperators (else
    DimensionMismatch), in order, for the entries before fault: None or (index, error) of the
    first entry to fail, at its first check in the order input, stage-1 trace <= 1e-14,
    stage-1 image, ..., in one density_fault."""
    outs, p, fault = [mats], np.ones(len(mats)), None
    for superoperators, side in stages:
        superoperators = stack_of(superoperators, np.shape(superoperators)[-1], shared=True)
        if len(superoperators) not in (1, len(mats)):
            raise DimensionMismatch(f"{len(superoperators)} superoperators for {len(mats)} states")
        k = len(outs[-1])  # a fault cut the stack to the entries before it
        out, stage_p, stage_fault = apply_stacked(superoperators[:k], outs[-1], dims, side)
        outs, p, fault = outs + [out], p[:len(out)] * stage_p[:len(out)], stage_fault or fault
    k = len(outs[-1])  # entry-major, then the annihilated entry's checks before its stage
    layout = np.stack([out[:k] for out in outs], axis=1).reshape((-1,) + mats.shape[1:])
    found = density_fault(np.concatenate([layout] + [out[k:k + 1] for out in outs]))
    fault = fault if found is None else (found[0] // len(outs), found[1])
    k = len(mats) if fault is None else fault[0]
    return outs[-1][:k], p[:k], fault


def probe_images(stages, probes):
    """|P><P| of a (g, n, n) stack of ``probes`` (a lone matrix is a stack of one) through each
    of ``stages`` alone: (images, p'), an (image stack, side) pair per stage, and the products
    of the stage traces.  The probes
    meet each stage by :func:`apply_stacked`'s rule; each stage gives one image per probe, or
    per channel where one probe serves them, and the stages agree (else DimensionMismatch).
    One :func:`density_fault` call checks |P><P| and its images; the first fault raises in the
    order density, stage-1 trace, ..."""
    n = np.shape(probes)[-1]
    densities = pure_densities(stack_of(probes, n, shared=True).reshape(-1, n * n))
    checked, faults, p_prime = [densities], [None], np.ones(len(densities))
    for superoperators, side in stages:
        image, stage_p, stage_fault = apply_stacked(superoperators, densities, (n, n), side)
        if len(stage_p) != len(p_prime) and 1 not in (len(stage_p), len(p_prime)):
            raise DimensionMismatch(f"{len(stage_p)} probe images do not pair with {len(p_prime)}")
        checked, faults, p_prime = checked + [image], faults + [stage_fault], p_prime * stage_p
    found = density_fault(np.concatenate(checked))
    for stage_fault, end in zip(faults, np.cumsum([len(c) for c in checked])):
        raise_fault(stage_fault)
        raise_fault(found if found is not None and found[0] < end else None)
    return tuple((image, side) for image, (_, side) in zip(checked[1:], stages)), p_prime


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


def _unit_interval(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float array; OutOfRange names the first one outside [0, 1]."""
    values = np.asarray(values, dtype=float).reshape(-1)
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise OutOfRange(f"{name} must be in [0, 1], got {float(values[outside][0])}")
    return values


def amplitude_damping_kraus(gammas) -> np.ndarray:
    """(k, 2, 2, 2) Kraus sets of qubit amplitude damping, one per gamma in [0, 1]:
    diag(1, sqrt(1-gamma)) and sqrt(gamma)|0><1|."""
    gammas = _unit_interval(gammas, "gamma")
    ops = np.zeros((len(gammas), 2, 2, 2), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1] = np.sqrt(1.0 - gammas)
    ops[:, 1, 0, 1] = np.sqrt(gammas)
    return ops


def depolarizing_kraus(ps) -> np.ndarray:
    """(k, 4, 2, 2) Kraus sets of the qubit depolarizing channel rho -> (1-p) rho + p I/2,
    one per p in [0, 1]: sqrt(1 - 3p/4) I and sqrt(p/4) times each Pauli matrix."""
    ps = _unit_interval(ps, "p")
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]], dtype=complex)
    scales = np.sqrt(np.stack([1.0 - 3.0 * ps / 4.0] + [ps / 4.0] * 3, axis=1))
    return scales[:, :, None, None] * paulis


def phase_damping_kraus(lams) -> np.ndarray:
    """(k, 2, 2, 2) Kraus sets of qubit phase damping, one per lambda in [0, 1]:
    diag(1, sqrt(1-lambda)) and diag(0, sqrt(lambda)); coherences shrink."""
    lams = _unit_interval(lams, "lambda")
    ops = np.zeros((len(lams), 2, 2, 2), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1] = np.sqrt(1.0 - lams)
    ops[:, 1, 1, 1] = np.sqrt(lams)
    return ops


def amplitude_damping(gamma: float) -> KrausChannel:
    """Qubit amplitude damping, the one-channel case of :func:`amplitude_damping_kraus`."""
    return KrausChannel(2, tuple(amplitude_damping_kraus(gamma)[0]))


def depolarizing(p: float) -> KrausChannel:
    """Qubit depolarizing channel, the one-channel case of :func:`depolarizing_kraus`."""
    return KrausChannel(2, tuple(depolarizing_kraus(p)[0]))


def phase_damping(lam: float) -> KrausChannel:
    """Qubit phase damping, the one-channel case of :func:`phase_damping_kraus`."""
    return KrausChannel(2, tuple(phase_damping_kraus(lam)[0]))
