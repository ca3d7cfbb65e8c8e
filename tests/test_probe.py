"""Tests for MES bases, probe states and probe-based lower bounds."""

import numpy as np
import pytest

from entbound import (
    DensityMatrix,
    DimensionMismatch,
    KrausChannel,
    NotNormalized,
    SingularProbe,
    ZeroProbability,
    amplitude_damping,
    apply_one_sided,
    apply_two_sided,
    canonical_mes,
    canonical_probe,
    fidelity_lower_bound,
    lower_bound_one_sided,
    lower_bound_two_sided,
    mes_basis,
    probe_from_matrix,
    pt_via_mes_sum,
    pt_via_reduced,
    random_density,
    random_pure_state,
    state_to_matrix,
)
from entbound.cli import evaluate_bound
from entbound.concurrence import fidelity_lower_bounds
from entbound.probe import probe_channels, probe_route, random_probes
from entbound.suites import two_sided_bound_mes
from conftest import probe_density, random_mixed, random_probe, random_tp_kraus

EXAMPLE_RAW = np.array([
    [0.4322, 0.2113, 0.1073, 0.3369],
    [0.2113, 0.1845, 0.0406, 0.1798],
    [0.1073, 0.0406, 0.0504, 0.1144],
    [0.3369, 0.1798, 0.1144, 0.3330],
])


class TestMesBasis:
    def test_first_state_is_canonical(self):
        basis = mes_basis(2)
        np.testing.assert_allclose(basis.states[0].amplitudes,
                                   canonical_mes((2, 2)).amplitudes)

    def test_bell_basis_transition_matrices(self):
        # scaled coefficient matrices are the identity and the Paulis
        mats = mes_basis(2).transition_matrices()
        np.testing.assert_allclose(mats[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mats[1], [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(mats[2], [[1, 0], [0, -1]], atol=1e-15)
        sy = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(mats[3], 1j * sy, atol=1e-15)
        assert len(mats) == 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_and_complete(self, n):
        vecs = np.column_stack([s.amplitudes for s in mes_basis(n).states])
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n * n), atol=1e-12)
        np.testing.assert_allclose(vecs @ vecs.conj().T, np.eye(n * n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_maximally_entangled(self, n):
        from entbound import schmidt_decompose
        for state in mes_basis(n).states:
            np.testing.assert_allclose(schmidt_decompose(state).coefficients,
                                       np.full(n, 1 / np.sqrt(n)), atol=1e-12)

    def test_transition_matrices_reproduce_states(self, rng):
        # |Phi_m> = (T_m / sqrt(N) P^-1 o 1)|P> with T_m the unitary transition matrix
        probe = random_probe(3, rng)
        basis = mes_basis(3)
        pvec = probe.matrix.reshape(-1)
        for state, t in zip(basis.states, basis.transition_matrices()):
            lifted = np.kron(t / np.sqrt(3) @ probe.inverse, np.eye(3))
            np.testing.assert_allclose(lifted @ pvec, state.amplitudes, atol=1e-10)

    def test_built_once_per_dimension(self):
        basis = mes_basis(3)
        assert mes_basis(3) is basis
        assert not basis.states[0].amplitudes.flags.writeable


class _Stream(np.random.Generator):
    """Generator whose standard normals come from a fixed list, in order."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_normal(self, size=None):
        count = int(np.prod(size))
        out = self.values[self.used:self.used + count].reshape(size)
        self.used += count
        return out


def sequential_probes(n, count, rng):
    """One candidate at a time, each validated on its own: the draw the stack replaces."""
    probes, rejected = [], 0
    while len(probes) < count:
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = p / np.linalg.norm(p)
        if np.linalg.svd(p, compute_uv=False)[-1] > 1e-4:
            probes.append(probe_from_matrix(p))
        else:
            rejected += 1
    return probes, rejected


class TestRandomProbes:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_equals_sequential_draws(self, n):
        for seed in range(5):
            stacked_rng, sequential_rng = (np.random.default_rng([seed, n]) for _ in range(2))
            matrices, inverses, conditions = random_probes(n, 7, stacked_rng)
            probes, _ = sequential_probes(n, 7, sequential_rng)
            for probe, m, inv, cond in zip(probes, matrices, inverses, conditions):
                np.testing.assert_allclose(m, probe.matrix, rtol=0, atol=1e-15)
                np.testing.assert_allclose(inv, probe.inverse, rtol=0, atol=1e-12 * cond)
                assert abs(cond - probe.condition) < 1e-12 * cond
            assert stacked_rng.bit_generator.state == sequential_rng.bit_generator.state
            assert not matrices.flags.writeable and not inverses.flags.writeable

    def test_rejected_candidate_is_redrawn(self):
        # the second of four candidates has rank 1 and must be replaced by the fifth
        values = np.random.default_rng(5).standard_normal(5 * 2 * 4)
        values[8:16] = [1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        stream = _Stream(values)
        matrices, _, _ = random_probes(2, 4, stream)
        probes, rejected = sequential_probes(2, 4, _Stream(values))
        assert rejected == 1 and stream.used == len(values)
        for probe, m in zip(probes, matrices):
            np.testing.assert_allclose(m, probe.matrix, rtol=0, atol=1e-15)
        z = values[16:20] + 1j * values[20:24]
        np.testing.assert_allclose(matrices[1], (z / np.linalg.norm(z)).reshape(2, 2), atol=1e-15)

    def test_no_probes(self):
        matrices, inverses, conditions = random_probes(3, 0, 1)
        assert matrices.shape == inverses.shape == (0, 3, 3) and conditions.shape == (0,)


class TestProbeState:
    def test_canonical(self):
        probe = canonical_probe(2)
        np.testing.assert_allclose(probe.inverse, np.sqrt(2) * np.eye(2), atol=1e-14)
        assert probe.condition == pytest.approx(1.0, abs=1e-12)

    def test_non_maximally_entangled_probe(self):
        probe = probe_from_matrix(np.diag([np.sqrt(0.9), np.sqrt(0.1)]))
        assert probe.condition == pytest.approx(3.0, abs=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularProbe):
            probe_from_matrix(np.diag([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            probe_from_matrix(np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            probe_from_matrix(np.ones((2, 3)) / np.sqrt(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected_first(self, bad):
        p = np.eye(2, dtype=complex) / np.sqrt(2)
        p[1, 0] = bad
        with pytest.raises(ValueError, match="entries must be finite"):  # no RuntimeWarning
            probe_from_matrix(p)

    def test_inverse_cached(self, rng):
        for _ in range(20):
            probe = random_probe(3, rng)
            np.testing.assert_allclose(probe.matrix @ probe.inverse, np.eye(3),
                                       atol=1e-10 * probe.condition)


class TestDecomposeViaProbe:
    """L = psi P^-1 satisfies (L o 1)|P> = |psi> under the package's vectorization."""

    def test_probe_itself_gives_identity(self, rng):
        probe = random_probe(2, rng)
        psi = random_pure_state((2, 2), 0)
        psi = type(psi)((2, 2), probe.matrix.reshape(-1))  # |P> as a PureState
        np.testing.assert_allclose(state_to_matrix(psi) @ probe.inverse, np.eye(2), atol=1e-12)

    def test_mes_probe_scales_coefficients(self):
        psi = random_pure_state((3, 3), 5)
        left = state_to_matrix(psi) @ canonical_probe(3).inverse
        np.testing.assert_allclose(left, np.sqrt(3) * state_to_matrix(psi), atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            psi = random_pure_state((n, n), int(rng.integers(1e6)))
            probe = random_probe(n, rng)
            left = state_to_matrix(psi) @ probe.inverse
            rebuilt = np.kron(left, np.eye(n)) @ probe.matrix.reshape(-1)
            np.testing.assert_allclose(rebuilt, psi.amplitudes, atol=1e-10)
            # mirrored second-sided form
            psi_m = state_to_matrix(psi)
            mirrored = np.kron(np.eye(n), psi_m.T @ probe.inverse.T) @ probe.matrix.reshape(-1)
            np.testing.assert_allclose(mirrored, psi.amplitudes, atol=1e-10)


class TestPtFactor:
    def test_trace_preserving_gives_one(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            app = apply_one_sided(ch, probe_density(probe), "first")
            assert pt_via_reduced(rho, app.output, probe) \
                == pytest.approx(1.0, abs=1e-10)

    def test_mes_probe_maximally_mixed_state(self, rng):
        n = 3
        rho = DensityMatrix((n, n), np.eye(n * n) / (n * n))
        ch = random_tp_kraus(n, 3, rng)
        probe = canonical_probe(n)
        app = apply_one_sided(ch, probe_density(probe), "first")
        assert pt_via_reduced(rho, app.output, probe) \
            == pytest.approx(1.0, abs=1e-10)

    def test_reduced_equals_mes_sum(self, rng):
        for trial in range(200):
            n = 2 if trial % 2 else 3
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 3 == 0:
                ch = KrausChannel(n, ch.operators[:1])
            app = apply_one_sided(ch, probe_density(probe), "first")
            a = pt_via_reduced(rho, app.output, probe)
            b = pt_via_mes_sum(rho, app.output, probe)
            assert abs(a - b) < 1e-10

    def test_product_recovers_direct_probability(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = KrausChannel(n, random_tp_kraus(n, 3, rng).operators[:2])
            app = apply_one_sided(ch, probe_density(probe), "first")
            p_t = pt_via_reduced(rho, app.output, probe)
            p_direct = apply_one_sided(ch, rho, "first").probability
            assert abs(p_t * app.probability - p_direct) < 1e-10

    def test_bell_basis_has_four_terms(self):
        assert len(mes_basis(2).states) == 4


class TestLowerBoundOneSided:
    def test_identity_channel_reduces_to_direct_bound(self, rng):
        identity = KrausChannel(3, (np.eye(3),))
        for _ in range(10):
            rho = random_mixed((3, 3), int(rng.integers(1, 10)), rng)
            probe = random_probe(3, rng)
            app = apply_one_sided(identity, probe_density(probe), "first")
            probe_value = lower_bound_one_sided(rho, app.output, probe).raw
            assert abs(probe_value - fidelity_lower_bound(rho).raw) < 1e-10

    def test_matches_direct_evolution(self, rng):
        for trial in range(100):
            n = 2 if trial % 2 else 3
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 4 == 0:
                ch = KrausChannel(n, ch.operators[:1])
            side = "first" if trial % 5 else "second"
            app = apply_one_sided(ch, probe_density(probe), side)
            evolved = apply_one_sided(ch, rho, side)
            probe_value = lower_bound_one_sided(rho, app.output, probe, side=side).raw
            assert abs(probe_value - fidelity_lower_bound(evolved.output).raw) < 1e-8

    def test_bundled_example_with_damping(self):
        rho = DensityMatrix((2, 2), EXAMPLE_RAW / np.trace(EXAMPLE_RAW))
        ch = amplitude_damping(0.2)
        probe = canonical_probe(2)
        app = apply_one_sided(ch, probe_density(probe), "first")
        evolved = apply_one_sided(ch, rho, "first")
        probe_value = lower_bound_one_sided(rho, app.output, probe).raw
        assert abs(probe_value - fidelity_lower_bound(evolved.output).raw) < 1e-8

    def test_probe_invariance(self, rng):
        rho = random_mixed((2, 2), 3, rng)
        ch = random_tp_kraus(2, 2, rng)
        values = []
        for _ in range(100):
            probe = random_probe(2, rng)
            app = apply_one_sided(ch, probe_density(probe), "first")
            values.append(lower_bound_one_sided(rho, app.output, probe).raw)
        assert max(values) - min(values) < 1e-8

    def test_real_inputs_stay_real_valued(self, rng):
        # real state, real probe, real Kraus operators: probe route must agree
        # with the direct route to the conjugation-free tolerance
        rho = DensityMatrix((2, 2), EXAMPLE_RAW / np.trace(EXAMPLE_RAW))
        probe = probe_from_matrix(np.array([[0.8, 0.4], [-0.2, np.sqrt(1 - 0.84)]]))
        ch = amplitude_damping(0.3)
        app = apply_one_sided(ch, probe_density(probe), "first")
        evolved = apply_one_sided(ch, rho, "first")
        probe_value = lower_bound_one_sided(rho, app.output, probe).raw
        assert abs(probe_value - fidelity_lower_bound(evolved.output).raw) < 1e-10

    def test_zero_probability(self):
        # channel keeps only the ground state; input has no support there
        kill = KrausChannel(2, (np.diag([1.0, 0.0]),))
        rho = DensityMatrix((2, 2), np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
        probe = canonical_probe(2)
        app = apply_one_sided(kill, probe_density(probe), "first")
        with pytest.raises(ZeroProbability):
            lower_bound_one_sided(rho, app.output, probe)

    def test_ill_conditioned_probe_warns(self):
        skewed = np.diag([1.0, 2e-5])
        probe = probe_from_matrix(skewed / np.linalg.norm(skewed))
        rho = random_density((2, 2), 2, seed=0)
        app = apply_one_sided(amplitude_damping(0.1), probe_density(probe), "first")
        with pytest.warns(RuntimeWarning, match="condition"):
            lower_bound_one_sided(rho, app.output, probe)

    def test_dimension_mismatch(self, rng):
        probe = random_probe(2, rng)
        rho = random_density((2, 3), 2, seed=1)
        with pytest.raises(DimensionMismatch):
            lower_bound_one_sided(rho, random_density((2, 2), 2, seed=2), probe)


class TestLowerBoundTwoSided:
    def test_identity_channels_reduce_to_direct_bound(self, rng):
        identity = KrausChannel(2, (np.eye(2),))
        for _ in range(10):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            probe = random_probe(2, rng)
            a1 = apply_one_sided(identity, probe_density(probe), "first")
            a2 = apply_one_sided(identity, probe_density(probe), "second")
            got = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
            assert abs(got - fidelity_lower_bound(rho).raw) < 1e-10

    def test_bundled_example_both_channels(self):
        rho = DensityMatrix((2, 2), EXAMPLE_RAW / np.trace(EXAMPLE_RAW))
        ch1, ch2 = amplitude_damping(0.2), amplitude_damping(0.3)
        probe = canonical_probe(2)
        a1 = apply_one_sided(ch1, probe_density(probe), "first")
        a2 = apply_one_sided(ch2, probe_density(probe), "second")
        evolved = apply_two_sided(ch1, ch2, rho)
        got = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
        assert abs(got - fidelity_lower_bound(evolved.output).raw) < 1e-8

    def test_matches_direct_evolution(self, rng):
        for trial in range(60):
            n = 2 if trial % 2 else 3
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch1 = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            ch2 = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 4 == 0:
                ch1 = KrausChannel(n, ch1.operators[:1])
            if trial % 6 == 0:
                ch2 = KrausChannel(n, ch2.operators[:2])
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            evolved = apply_two_sided(ch1, ch2, rho)
            got = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
            assert abs(got - fidelity_lower_bound(evolved.output).raw) < 1e-8

    def test_agrees_with_suites_oracle(self, rng):
        for trial in range(40):
            n = 2 if trial % 2 else 3
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch1 = random_tp_kraus(n, 2, rng)
            ch2 = random_tp_kraus(n, 3, rng)
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            p_t = apply_two_sided(ch1, ch2, rho).probability / (a1.probability * a2.probability)
            mes_val = two_sided_bound_mes(rho.matrix, a1.output.matrix, a2.output.matrix,
                                          probe.inverse, p_t)
            witness_val = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
            assert abs(mes_val - witness_val) < 1e-8

    def test_probe_invariance(self, rng):
        rho = random_mixed((2, 2), 4, rng)
        ch1 = random_tp_kraus(2, 2, rng)
        ch2 = random_tp_kraus(2, 2, rng)
        values = []
        for _ in range(50):
            probe = random_probe(2, rng)
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            values.append(lower_bound_two_sided(rho, a1.output, a2.output, probe).raw)
        assert max(values) - min(values) < 1e-8


def rebuilt(image_1, image_2, probe):
    """probe_channels of single DensityMatrix images (None for a side without a channel)."""
    return probe_channels(None if image_1 is None else image_1.matrix,
                          None if image_2 is None else image_2.matrix, probe.inverse,
                          probe.condition)


def hermiticity_gap(s, n):
    """max |S[(a,c),(i,j)] - S[(c,a),(j,i)]^*|: zero for a Hermiticity-preserving map."""
    s4 = s.reshape(n, n, n, n)
    return np.abs(s4 - s4.transpose(1, 0, 3, 2).conj()).max()


class TestTwoSidedWitness:
    def test_functionals_match_direct_evolution(self, rng):
        for trial in range(30):
            n = (2, 3, 4)[trial % 3]
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch1 = random_tp_kraus(n, 2, rng)
            if trial % 2 == 0:  # non-trace-preserving truncation
                ch1 = KrausChannel(n, ch1.operators[:1])
            ch2 = random_tp_kraus(n, 3, rng)
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            s1, s2 = rebuilt(a1.output, a2.output, probe)
            np.testing.assert_allclose(s1 * a1.probability, ch1.superoperator, atol=1e-10)
            np.testing.assert_allclose(s2 * a2.probability, ch2.superoperator, atol=1e-10)
            assert max(hermiticity_gap(s1, n), hermiticity_gap(s2, n)) < 1e-10
            values, p_t, fault = probe_route(rho.matrix[None], (n, n), s1, s2)
            evolved = apply_two_sided(ch1, ch2, rho)
            assert fault is None
            assert abs(p_t[0] * a1.probability * a2.probability - evolved.probability) < 1e-10
            assert abs(values[0] - fidelity_lower_bound(evolved.output).raw) < 1e-10

    def test_stack_matches_single_states(self, rng):
        probe = random_probe(2, rng)
        ch1, ch2 = random_tp_kraus(2, 2, rng), random_tp_kraus(2, 3, rng)
        a1 = apply_one_sided(ch1, probe_density(probe), "first")
        a2 = apply_one_sided(ch2, probe_density(probe), "second")
        states = [random_mixed((2, 2), r, rng) for r in (1, 2, 3, 4)]
        values, _, fault = probe_route(np.array([s.matrix for s in states]), (2, 2),
                                       *rebuilt(a1.output, a2.output, probe))
        assert fault is None
        for state, value in zip(states, values):
            assert value == lower_bound_two_sided(state, a1.output, a2.output, probe).raw

    def test_annihilated_state_is_a_fault(self):
        kill = KrausChannel(2, (np.diag([1.0, 0.0]),))
        probe = canonical_probe(2)
        a1 = apply_one_sided(kill, probe_density(probe), "first")
        a2 = apply_one_sided(kill, probe_density(probe), "second")
        states = np.array([np.diag(d).astype(complex) for d in ([1.0, 0, 0, 0], [0, 0, 0, 1.0])])
        values, _, (index, error) = probe_route(states, (2, 2), *rebuilt(a1.output, a2.output,
                                                                         probe))
        assert index == 1 and isinstance(error, ZeroProbability) and len(values) == 1
        with pytest.raises(ZeroProbability):
            lower_bound_two_sided(DensityMatrix((2, 2), states[1]), a1.output, a2.output, probe)

    def test_later_stage_sees_entries_before_earlier_fault(self):
        # |01>, |00>, |10> under keep-ground on both sides: the first stage
        # faults at entry 2 (first qubit |1>) and the second at entry 0, so
        # the fault is entry 0; with the order |00>, |10>, |01> the first
        # stage faults at 1 and the second never sees entry 2
        keep = KrausChannel(2, (np.diag([1.0, 0.0]),)).superoperator
        states = np.array([np.diag(np.eye(4)[i]).astype(complex) for i in (1, 0, 2, 0, 2, 1)])
        values, p_t, (index, _) = probe_route(states[:3], (2, 2), keep, keep)
        assert index == 0 and len(values) == 0 and len(p_t) == 2
        values, p_t, (index, _) = probe_route(states[3:], (2, 2), keep, keep)
        assert index == 1 and len(values) == 1 and len(p_t) == 1


class TestSecondSideOracles:
    def test_pt_formulas_match_direct_probability(self, rng):
        for trial in range(40):
            n = (2, 3, 4)[trial % 3]
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 2 == 0:  # non-trace-preserving truncation
                ch = KrausChannel(n, ch.operators[:1])
            app = apply_one_sided(ch, probe_density(probe), "second")
            p_t = apply_one_sided(ch, rho, "second").probability / app.probability
            assert abs(pt_via_reduced(rho, app.output, probe, side="second") - p_t) < 1e-10
            assert abs(pt_via_mes_sum(rho, app.output, probe, side="second") - p_t) < 1e-10

    def test_unknown_side(self, rng):
        probe = random_probe(2, rng)
        rho = random_mixed((2, 2), 2, rng)
        with pytest.raises(ValueError):
            pt_via_reduced(rho, probe_density(probe), probe, side="both")


class TestWitness:
    def test_probe_stack_matches_single_builds(self, rng):
        for n in (2, 3):
            rho = random_mixed((n, n), n, rng)
            ch1, ch2 = random_tp_kraus(n, 2, rng), random_tp_kraus(n, 3, rng)
            probes = [random_probe(n, rng) for _ in range(6)]
            a1 = [apply_one_sided(ch1, probe_density(p), "first").output for p in probes]
            a2 = [apply_one_sided(ch2, probe_density(p), "second").output for p in probes]
            inverses = np.array([p.inverse for p in probes])
            conditions = np.array([p.condition for p in probes])
            states = np.array([rho.matrix] * 6)
            for images_1, images_2 in ((a1, a2), (a1, None), (None, a2)):
                stack = probe_channels(
                    None if images_1 is None else np.array([a.matrix for a in images_1]),
                    None if images_2 is None else np.array([a.matrix for a in images_2]),
                    inverses, conditions)
                assert [s is None for s in stack] == [images_1 is None, images_2 is None]
                assert all(s.shape == (6, n * n, n * n) for s in stack if s is not None)
                values, p_t, fault = probe_route(states, (n, n), *stack)
                assert fault is None and values.shape == p_t.shape == (6,)
                for k, probe in enumerate(probes):
                    single = rebuilt(None if images_1 is None else images_1[k],
                                     None if images_2 is None else images_2[k], probe)
                    for s_stack, s_single in zip(stack, single):
                        if s_single is not None:
                            np.testing.assert_allclose(s_stack[k], s_single, atol=1e-12)
                    value, pt_single, _ = probe_route(rho.matrix[None], (n, n), *single)
                    assert abs(values[k] - value[0]) < 1e-12
                    assert abs(p_t[k] - pt_single[0]) < 1e-12

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_one_sided_functionals_match_direct_evolution(self, rng, side):
        for trial in range(30):
            n = (2, 3, 4, 5, 6)[trial % 5]
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 2 == 0:  # non-trace-preserving truncation
                ch = KrausChannel(n, ch.operators[:1])
            app = apply_one_sided(ch, probe_density(probe), side)
            stages = rebuilt(*((app.output, None) if side == "first" else (None, app.output)),
                             probe)
            stage = stages[0] if side == "first" else stages[1]
            np.testing.assert_allclose(stage * app.probability, ch.superoperator, atol=1e-10)
            values, p_t, fault = probe_route(rho.matrix[None], (n, n), *stages)
            evolved = apply_one_sided(ch, rho, side)
            assert fault is None
            assert abs(p_t[0] * app.probability - evolved.probability) < 1e-10
            assert abs(values[0] - fidelity_lower_bound(evolved.output).raw) < 1e-10

    def test_no_channel_side_is_exact_identity(self, rng):
        # with no channel on either side nothing is rebuilt or applied
        probe = random_probe(3, rng)
        assert probe_channels(None, None, probe.inverse, probe.condition) == (None, None)
        states = np.array([random_mixed((3, 3), r, rng).matrix for r in (1, 5, 9)])
        values, p_t, fault = probe_route(states, (3, 3), None, None)
        assert fault is None
        np.testing.assert_array_equal(values, fidelity_lower_bounds(states, (3, 3)))
        np.testing.assert_array_equal(p_t, np.ones(3))

    def test_unknown_side(self, rng):
        probe = random_probe(2, rng)
        rho = random_mixed((2, 2), 2, rng)
        with pytest.raises(ValueError):
            lower_bound_one_sided(rho, probe_density(probe), probe, side="both")

    def test_stacked_probes_warn_once_each(self):
        skewed = np.diag([1.0, 2e-5])
        bad = probe_from_matrix(skewed / np.linalg.norm(skewed))
        good = canonical_probe(2)
        images = np.array([probe_density(p).matrix for p in (bad, good, bad)])
        with pytest.warns(RuntimeWarning, match="condition") as caught:
            probe_channels(images, None, np.array([bad.inverse, good.inverse, bad.inverse]),
                           np.array([bad.condition, good.condition, bad.condition]))
        assert len([w for w in caught if "condition" in str(w.message)]) == 2

    def test_two_dimensional_probe_stack(self, rng):
        # a (2, 3) probe axis builds, warns once per ill-conditioned probe, and
        # gives each probe's own rebuilt channel
        skewed = np.diag([1.0, 2e-5])
        bad = probe_from_matrix(skewed / np.linalg.norm(skewed))
        probes = [[bad, random_probe(2, rng), canonical_probe(2)],
                  [random_probe(2, rng), bad, bad]]
        ch = random_tp_kraus(2, 2, rng)
        images = np.array([[apply_one_sided(ch, probe_density(p), "first").output.matrix
                            for p in row] for row in probes])
        with pytest.warns(RuntimeWarning, match="condition") as caught:
            s1, s2 = probe_channels(images, None,
                                    np.array([[p.inverse for p in row] for row in probes]),
                                    np.array([[p.condition for p in row] for row in probes]))
        assert len([w for w in caught if "condition" in str(w.message)]) == 3
        assert s1.shape == (2, 3, 4, 4) and s2 is None
        for i, j in np.ndindex(2, 3):
            single, _ = probe_channels(images[i, j], None, probes[i][j].inverse, 1.0)
            np.testing.assert_allclose(s1[i, j], single, atol=1e-10)

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_evaluate_bound_reports_pt_from_witness(self, rng, side):
        for trial in range(12):
            n = (2, 3)[trial % 2]
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            probe = random_probe(n, rng)
            ch = random_tp_kraus(n, 3, rng)
            if trial % 3 == 0:  # non-trace-preserving truncation
                ch = KrausChannel(n, ch.operators[:2])
            report = evaluate_bound(rho, (ch,), side, probe, "probe")
            evolved = apply_one_sided(ch, rho, side)
            assert abs(report.p_t * report.p_prime - evolved.probability) < 1e-10
            assert abs(report.p - evolved.probability) < 1e-15
            assert abs(report.lower_raw - fidelity_lower_bound(evolved.output).raw) < 1e-8

