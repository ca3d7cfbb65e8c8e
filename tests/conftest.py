"""Shared input generators and reference values for the test suite."""

import numpy as np
import pytest

from entbound import DensityMatrix, KrausChannel, channels, qlinalg, random_density, \
    state_to_matrix
from entbound.channels import apply_stacked, kraus_factors, tp_kraus
from entbound.concurrence import Evaluation, spin_flip_concurrence, upper_bound_factor
from entbound.errors import DimensionMismatch
from entbound.probe import random_probe
from entbound.qlinalg import density_fault, pure_densities, raise_fault

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


def reference_evaluate(mats, dims, stages, probe_matrices=None) -> Evaluation:
    """:func:`entbound.concurrence.evaluate` as one density check per stage: the inputs,
    then each stage's images, every check only before the earliest fault so far, so the
    fault is the first entry to fail, whichever check it meets; the probe's density and
    then each stage's probe image, trace check before density check, whose first fault
    raises; the probe image stacks are kept for the entries before the fault."""
    fault = density_fault(mats)
    k = len(mats) if fault is None else fault[0]
    out, p = mats[:k], np.ones(k)
    for superoperators, side in stages:
        superoperators = np.reshape(superoperators, (-1,) + np.shape(superoperators)[-2:])
        out, stage_p, stage_fault = apply_stacked(superoperators[:k], out, dims, side)
        fault = density_fault(out) or stage_fault or fault
        k = len(out) if fault is None else fault[0]
        out, p = out[:k], p[:k] * stage_p[:k]
    exact = upper = p_prime = p_t = None
    images = ()
    if probe_matrices is not None:
        n = np.shape(probe_matrices)[-1]
        probes = np.reshape(probe_matrices, (-1, n, n))
        for _, side in stages:
            if n != dims[side == "second"]:
                raise DimensionMismatch(f"a probe of dim {n} does not fit the {side} subsystem "
                                        f"of a state of dims {tuple(dims)}")
        densities = pure_densities(probes.reshape(-1, n * n))
        raise_fault(density_fault(densities))
        p_prime = np.ones(len(mats))
        for superoperators, side in stages:
            superoperators = np.reshape(superoperators, (-1, n * n, n * n))
            count = max(len(superoperators), len(densities))
            stack = np.broadcast_to(densities, (count, n * n, n * n))
            image, stage_p, stage_fault = apply_stacked(superoperators, stack, (n, n), side)
            raise_fault(stage_fault)
            raise_fault(density_fault(image))
            images, p_prime = images + ((image[:k], side),), p_prime * stage_p
        p_prime = p_prime[:k]
        p_t = p / p_prime
    if tuple(dims) == (2, 2):
        stacks = [out, mats[:k]] + [image for image, _ in images]
        values = np.split(spin_flip_concurrence(np.concatenate(stacks)),
                          np.cumsum([len(stack) for stack in stacks])[:-1])
        exact, c_in = values[:2]
        if images:
            upper = c_in
            for value in values[2:]:
                upper = upper * upper_bound_factor(value, probes[:k])
    return Evaluation(out, exact, upper, p, p_prime, p_t, images, fault)


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


@pytest.fixture
def density_checks(monkeypatch):
    """The stack length of each qlinalg.density_fault call, in call order."""
    calls, original = [], qlinalg.density_fault

    def counted(mats):
        calls.append(len(mats))
        return original(mats)

    for module in (qlinalg, channels):  # the modules that call it
        monkeypatch.setattr(module, "density_fault", counted)
    return calls
