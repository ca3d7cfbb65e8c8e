"""Tests for states, conversions and structural linear algebra."""

import numpy as np
import pytest

from entbound import (
    DensityMatrix,
    InvalidRank,
    NotNormalized,
    PureState,
    canonical_mes,
    partial_trace,
    random_density,
    random_pure_state,
    schmidt_decompose,
    state_to_matrix,
    swap_operator,
)
from entbound.qlinalg import density_fault

BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def minor_sum_concurrence(m):
    """Independent oracle: root of summed squared 2x2 minors over all index pairs."""
    n1, n2 = m.shape
    total = 0.0
    for i in range(n1):
        for j in range(n1):
            for p in range(n2):
                for q in range(n2):
                    if i != j and p != q:
                        total += abs(m[i, p] * m[j, q] - m[i, q] * m[j, p]) ** 2
    return np.sqrt(total)


class TestStateMatrixConversion:
    def test_bell_matrix(self):
        np.testing.assert_allclose(state_to_matrix(BELL), np.eye(2) / np.sqrt(2))

    def test_basis_state(self):
        psi = PureState((2, 2), np.array([0, 1, 0, 0], dtype=complex))
        m = state_to_matrix(psi)
        assert m[0, 1] == 1 and np.count_nonzero(m) == 1

    def test_round_trip_random(self):
        for seed in range(50):
            psi = random_pure_state((3, 4), seed)
            m = state_to_matrix(psi)
            assert m.shape == (3, 4)
            back = PureState((3, 4), m.reshape(-1))
            np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_pure_state_norm_invariant(self):
        with pytest.raises(NotNormalized):
            PureState((2, 2), np.array([1, 0, 0, 1], dtype=complex))


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        rho = BELL.density()
        np.testing.assert_allclose(partial_trace(rho, "first"), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, "second"), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        psi = PureState((2, 2), np.array([0, 1, 0, 0], dtype=complex))
        np.testing.assert_allclose(partial_trace(psi.density(), "first"),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_trace_one_random(self):
        for seed in range(100):
            rho = random_density((3, 3), rank=1 + seed % 9, seed=seed)
            red = partial_trace(rho, "first")
            assert abs(np.trace(red).real - 1.0) < 1e-12
            np.testing.assert_allclose(red, red.conj().T, atol=1e-12)

    def test_matrix_vector_correspondence(self):
        # (psi o I)|mes><mes|(psi^dag o I) * R reduces to psi psi^dag on the first side
        for seed in range(20):
            psi = random_pure_state((3, 3), seed)
            m = state_to_matrix(psi)
            mes = canonical_mes((3, 3))
            lift = np.kron(m, np.eye(3))
            blown = 3 * lift @ mes.density().matrix @ lift.conj().T
            np.testing.assert_allclose(
                np.trace(blown.reshape(3, 3, 3, 3), axis1=1, axis2=3),
                m @ m.conj().T, atol=1e-12)


class TestSchmidt:
    def test_bell_coefficients(self):
        np.testing.assert_allclose(schmidt_decompose(BELL).coefficients,
                                   [1 / np.sqrt(2)] * 2)

    def test_product_state(self):
        psi = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
        np.testing.assert_allclose(schmidt_decompose(psi).coefficients, [1.0, 0.0],
                                   atol=1e-14)

    def test_reconstruction(self):
        for seed in range(20):
            psi = random_pure_state((3, 2), seed)
            form = schmidt_decompose(psi)
            assert np.all(np.diff(form.coefficients) <= 1e-15)
            rebuilt = form.left_basis @ np.diag(form.coefficients) @ form.right_basis.conj().T
            np.testing.assert_allclose(rebuilt, state_to_matrix(psi), atol=1e-10)

    def test_coefficient_normalization(self):
        for seed in range(20):
            c = schmidt_decompose(random_pure_state((2, 3), seed)).coefficients
            assert abs(np.sum(c**2) - 1.0) < 1e-12

    def test_dual_concurrence_forms_3x2(self):
        # Schmidt-form concurrence against the summed-minors oracle
        for seed in range(30):
            psi = random_pure_state((3, 2), seed)
            s = schmidt_decompose(psi).coefficients
            from_schmidt = np.sqrt(4 * sum(s[i] ** 2 * s[j] ** 2
                                           for i in range(len(s)) for j in range(i + 1, len(s))))
            assert abs(from_schmidt - minor_sum_concurrence(state_to_matrix(psi))) < 1e-10


class TestSwapOperator:
    def test_definition(self):
        s = swap_operator(2)
        ket01 = np.array([0, 1, 0, 0])
        ket10 = np.array([0, 0, 1, 0])
        np.testing.assert_array_equal(s @ ket01, ket10)

    def test_involution_and_symmetry(self):
        for n in (2, 3, 4):
            s = swap_operator(n)
            np.testing.assert_array_equal(s @ s, np.eye(n * n))
            np.testing.assert_array_equal(s, s.T)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mes_invariant(self, n):
        mes = canonical_mes((n, n)).amplitudes
        np.testing.assert_allclose(swap_operator(n) @ mes, mes, atol=1e-15)

    def test_conjugation_swaps_factors(self, rng):
        s = swap_operator(3)
        for _ in range(5):
            a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                    for _ in range(2))
            np.testing.assert_allclose(s @ np.kron(a, b) @ s, np.kron(b, a), atol=1e-12)


class TestRandomGenerators:
    def test_pure_state_determinism(self):
        a = random_pure_state((2, 3), seed=42)
        b = random_pure_state((2, 3), seed=42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_density_invariants_bulk(self):
        # constructor re-checks hermiticity/trace/positivity on every draw
        for seed in range(1000):
            random_density((2, 2), rank=1 + seed % 4, seed=seed)

    def test_rank_one_is_pure(self):
        for seed in range(20):
            rho = random_density((2, 3), rank=1, seed=seed)
            assert abs(np.linalg.eigvalsh(rho.matrix)[-1] - 1.0) < 1e-10

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            random_density((2, 2), rank=5, seed=0)
        with pytest.raises(InvalidRank):
            random_density((2, 2), rank=0, seed=0)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m = m.astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1])
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), m)


class TestDensityFault:
    def test_first_failing_entry_and_reason(self):
        valid = np.eye(4) / 4
        negative = np.diag([0.6, 0.5, 0.0, -0.1])
        skew = valid.astype(complex)
        skew[0, 1] = 0.1
        stack = np.array([valid, negative, 2 * valid, skew])
        index, error = density_fault(stack)
        assert index == 1 and "eigenvalue" in str(error)
        index, error = density_fault(stack[2:])
        assert index == 0 and "trace" in str(error)
        # hermiticity is checked before the trace on the same entry
        index, error = density_fault(np.array([valid, 2 * skew]))
        assert index == 1 and "Hermitian" in str(error)

    def test_valid_and_empty_stacks(self):
        stack = np.array([random_density((2, 3), r, seed=r).matrix for r in (1, 3, 6)])
        assert density_fault(stack) is None
        assert density_fault(stack[:0]) is None

    def test_nan_entry_fails(self):
        assert density_fault(np.full((1, 4, 4), np.nan))[0] == 0
