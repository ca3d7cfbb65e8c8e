"""
States, Schmidt structure and pure-state concurrence
====================================================

Build a few bipartite pure states, inspect their Schmidt spectra and
compare the concurrence formulas.
"""

import numpy as np

from entbound import (
    PureState,
    canonical_mes,
    concurrence_pure,
    random_pure_state,
    schmidt_decompose,
    state_to_matrix,
)


def twice_det(psi):
    """Two-qubit pure-state concurrence 2|det psi| of the coefficient matrix."""
    return float(2.0 * abs(np.linalg.det(state_to_matrix(psi))))


# The Bell state (|00> + |11>)/sqrt(2): both Schmidt coefficients 1/sqrt(2),
# concurrence exactly 1.
bell = canonical_mes((2, 2))
print("Bell coefficient matrix:\n", state_to_matrix(bell).real)
print("Schmidt coefficients:", schmidt_decompose(bell).coefficients)
print("concurrence:", concurrence_pure(bell))
print("2|det psi|  :", twice_det(bell))

# A product state carries no entanglement.
product = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
print("\nproduct state concurrence:", concurrence_pure(product))

# Maximally entangled qutrits reach the dimensional ceiling sqrt(2(R-1)/R).
mes3 = canonical_mes((3, 3))
print("\n3x3 MES concurrence:", concurrence_pure(mes3), "=", np.sqrt(4 / 3))

# For random states the Schmidt-form value always matches the determinant
# form (two qubits) and stays within the allowed range.
print("\nseed  concurrence  2|det|")
for seed in range(5):
    psi = random_pure_state((2, 2), seed)
    print(f"{seed:4d}  {concurrence_pure(psi):.10f}  {twice_det(psi):.10f}")

# Partial entanglement: interpolate between product and Bell.
print("\ntheta  concurrence (= sin theta)")
for theta in np.linspace(0, np.pi / 2, 6):
    amp = np.array([np.cos(theta / 2), 0, 0, np.sin(theta / 2)], dtype=complex)
    psi = PureState((2, 2), amp)
    print(f"{theta:.3f}  {concurrence_pure(psi):.6f}")
