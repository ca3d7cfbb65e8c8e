"""
The probe-state method
======================

The lower bound of an evolved state's concurrence can be read off the
channel image of a single full-rank probe state plus the initial density
matrix -- the state of interest is never evolved.  Any full-rank probe
gives the same answer.
"""

import numpy as np

from entbound import (
    DensityMatrix,
    amplitude_damping,
    apply_one_sided,
    fidelity_lower_bound,
    lower_bound_one_sided,
    mes_basis,
    probe_from_matrix,
    pt_via_mes_sum,
    pt_via_reduced,
    random_density,
)

rng = np.random.default_rng(7)
rho = random_density((2, 2), rank=3, seed=1)
channel = amplitude_damping(0.25)

# Reference value: evolve rho directly and take the fidelity bound.
direct = fidelity_lower_bound(apply_one_sided(channel, rho, "first").output)
print("direct bound on the evolved state:", direct.raw)

# Probe route: evolve probes instead.  The answer is probe independent.
print("\nprobe matrix (real part)        bound via probe")
for _ in range(4):
    p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    probe = probe_from_matrix(p / np.linalg.norm(p))
    probe_in = DensityMatrix((2, 2), np.outer(probe.matrix.reshape(-1),
                                              probe.matrix.reshape(-1).conj()))
    app = apply_one_sided(channel, probe_in, "first")
    bound = lower_bound_one_sided(rho, app.output, probe)
    print(np.round(probe.matrix.real, 3).tolist(), " ", bound.raw)

# The renormalization factor p_t has two equivalent computations: a
# reduced-state trace and a sum over the generalized Bell basis.  For a
# trace-preserving channel both give exactly 1.
probe = probe_from_matrix(np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
probe_in = DensityMatrix((2, 2), np.outer(probe.matrix.reshape(-1),
                                          probe.matrix.reshape(-1).conj()))
app = apply_one_sided(channel, probe_in, "first")
print("\np_t via reduced state :", pt_via_reduced(rho, app.output, probe))
print("p_t via Bell-basis sum:", pt_via_mes_sum(rho, app.output, probe))

# The Bell-basis sum has one term per basis state; mes_basis(N) is the
# (N^2, N, N) array of the basis states' coefficient matrices C_j.  For
# qubits the four transition matrices sqrt(N) C_j are the identity and the
# Pauli matrices.
print("\ntransition matrices for N = 2:")
for c in mes_basis(2):
    print(np.round(np.sqrt(2) * c, 12))
