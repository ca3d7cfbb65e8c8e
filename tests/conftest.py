"""Shared input generators and reference values for the test suite."""

import numpy as np
import pytest

from entbound import DensityMatrix, KrausChannel, random_density, state_to_matrix
from entbound.channels import apply_stacked, kraus_factors, tp_kraus
from entbound.probe import random_probe

random_mixed = random_density


def probe_density(probe) -> DensityMatrix:
    """A ProbeState as the density matrix |P><P|."""
    vec = probe.matrix.reshape(-1)
    return DensityMatrix((probe.dim, probe.dim), np.outer(vec, vec.conj()))


def random_tp_kraus(dim: int, count: int, seed) -> KrausChannel:
    """Trace-preserving channel G_k (sum G^dag G)^(-1/2) from ``count`` complex
    Gaussian factors G_k; ``seed`` may also be a Generator, which is then drawn from."""
    factors = kraus_factors(dim, count, np.random.default_rng(seed))
    return KrausChannel(dim, tuple(tp_kraus(factors[None])[0]))


def concurrence_two_qubit_pure(psi) -> float:
    """Two-qubit pure-state concurrence 2|det(psi)| of the 2x2 coefficient matrix."""
    return float(2.0 * abs(np.linalg.det(state_to_matrix(psi))))


def rebuilt_traces(states, stages, dims):
    """The product of the traces of the rebuilt (superoperator, side) ``stages`` of
    :func:`probe_channels`, applied in order to a (k, d, d) stack through apply_stacked
    as the probe route applies them: p/p' of each entry."""
    p = np.ones(len(states))
    for stage, side in stages:
        states, stage_p, fault = apply_stacked(stage, states, dims, side)
        assert fault is None
        p = p * stage_p
    return p


def haar_unitary(n, rng):
    """Haar-random n x n unitary: QR of a complex Gaussian matrix (real parts drawn
    first), with the phases of R's diagonal moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
