"""Tests for MES bases, probe states and probe-based lower bounds."""

import dataclasses
import warnings

import numpy as np
import pytest

import entbound.probe
from entbound import (
    DensityMatrix,
    DimensionMismatch,
    KrausChannel,
    NotNormalized,
    ProbeState,
    PureState,
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
from entbound import channels
from entbound.cli import evaluate_bound
from entbound.concurrence import evaluate, fidelity_lower_bounds
from entbound.probe import probe_channels, probe_route, random_probes
from entbound.suites import two_sided_bound_mes
from conftest import probe_density, random_mixed, random_probe, random_tp_kraus, rebuilt_traces

EXAMPLE_RAW = np.array([
    [0.4322, 0.2113, 0.1073, 0.3369],
    [0.2113, 0.1845, 0.0406, 0.1798],
    [0.1073, 0.0406, 0.0504, 0.1144],
    [0.3369, 0.1798, 0.1144, 0.3330],
])


class TestMesBasis:
    def test_first_state_is_canonical(self):
        np.testing.assert_allclose(mes_basis(2)[0].reshape(-1),
                                   canonical_mes((2, 2)).amplitudes)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_per_entry_formula_bit_for_bit(self, n):
        # C_j[k, (k + j1) mod n] = exp(2 pi i j0 k / n)/sqrt(n), j = n*j0 + j1, one
        # entry at a time in Python scalars
        expected = np.zeros((n * n, n, n), dtype=complex)
        for j0 in range(n):
            for j1 in range(n):
                for k in range(n):
                    expected[n * j0 + j1, k, (k + j1) % n] = \
                        np.exp(2j * np.pi * j0 * k / n) / np.sqrt(n)
        basis = mes_basis(n)
        assert basis.shape == (n * n, n, n)
        assert basis.tobytes() == expected.tobytes()

    def test_bell_basis_transition_matrices(self):
        # scaled coefficient matrices are the identity and the Paulis
        mats = np.sqrt(2) * mes_basis(2)
        np.testing.assert_allclose(mats[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mats[1], [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(mats[2], [[1, 0], [0, -1]], atol=1e-15)
        sy = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(mats[3], 1j * sy, atol=1e-15)
        assert len(mats) == 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_and_complete(self, n):
        vecs = mes_basis(n).reshape(n * n, n * n).T  # column j holds |Phi_j>
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n * n), atol=1e-12)
        np.testing.assert_allclose(vecs @ vecs.conj().T, np.eye(n * n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_maximally_entangled(self, n):
        from entbound import schmidt_decompose
        for c in mes_basis(n):
            state = PureState((n, n), c.reshape(-1))  # unit norm within 1e-12
            np.testing.assert_allclose(schmidt_decompose(state).coefficients,
                                       np.full(n, 1 / np.sqrt(n)), atol=1e-12)

    def test_transition_matrices_reproduce_states(self, rng):
        # |Phi_m> = (T_m / sqrt(N) P^-1 o 1)|P> with T_m = sqrt(N) C_m the unitary
        # transition matrix
        probe = random_probe(3, rng)
        pvec = probe.matrix.reshape(-1)
        for c in mes_basis(3):
            t = np.sqrt(3) * c
            lifted = np.kron(t / np.sqrt(3) @ np.linalg.inv(probe.matrix), np.eye(3))
            np.testing.assert_allclose(lifted @ pvec, c.reshape(-1), atol=1e-10)

    def test_built_once_per_dimension(self):
        basis = mes_basis(3)
        assert mes_basis(3) is basis
        assert mes_basis(np.int64(3)) is basis
        assert not basis.flags.writeable

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_integer_n_raises_before_the_cache(self, n):
        with pytest.raises(TypeError, match=f"N must be an integer, got {n!r}"):
            mes_basis(n)


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
            matrices = random_probes(n, 7, stacked_rng)
            probes, _ = sequential_probes(n, 7, sequential_rng)
            assert matrices.shape == (7, n, n)
            for probe, m in zip(probes, matrices):
                np.testing.assert_allclose(m, probe.matrix, rtol=0, atol=1e-15)
            assert stacked_rng.bit_generator.state == sequential_rng.bit_generator.state
            assert not matrices.flags.writeable

    def test_rejected_candidate_is_redrawn(self):
        # the second of four candidates has rank 1 and must be replaced by the fifth
        values = np.random.default_rng(5).standard_normal(5 * 2 * 4)
        values[8:16] = [1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        stream = _Stream(values)
        matrices = random_probes(2, 4, stream)
        probes, rejected = sequential_probes(2, 4, _Stream(values))
        assert rejected == 1 and stream.used == len(values)
        for probe, m in zip(probes, matrices):
            np.testing.assert_allclose(m, probe.matrix, rtol=0, atol=1e-15)
        z = values[16:20] + 1j * values[20:24]
        np.testing.assert_allclose(matrices[1], (z / np.linalg.norm(z)).reshape(2, 2), atol=1e-15)

    def test_no_probes(self):
        assert random_probes(3, 0, 1).shape == (0, 3, 3)


class TestProbeState:
    def test_canonical(self):
        probe = canonical_probe(2)
        np.testing.assert_allclose(probe.matrix, np.eye(2) / np.sqrt(2), atol=1e-15)
        assert probe.dim == 2

    def test_non_maximally_entangled_probe(self):
        probe = probe_from_matrix(np.diag([np.sqrt(0.9), np.sqrt(0.1)]))
        np.testing.assert_allclose(probe.matrix, np.diag([np.sqrt(0.9), np.sqrt(0.1)]),
                                   atol=1e-15)
        assert condition_messages([probe]) == []  # condition number 3

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

    def test_holds_only_dim_and_read_only_matrix(self, rng):
        assert [f.name for f in dataclasses.fields(ProbeState)] == ["dim", "matrix"]
        for probe in (random_probe(3, rng), canonical_probe(3),
                      probe_from_matrix(np.eye(3) / np.sqrt(3))):
            assert probe.dim == 3 and not probe.matrix.flags.writeable


class TestDecomposeViaProbe:
    """L = psi P^-1 satisfies (L o 1)|P> = |psi> under the package's vectorization."""

    def test_probe_itself_gives_identity(self, rng):
        probe = random_probe(2, rng)
        psi = random_pure_state((2, 2), 0)
        psi = type(psi)((2, 2), probe.matrix.reshape(-1))  # |P> as a PureState
        np.testing.assert_allclose(state_to_matrix(psi) @ np.linalg.inv(probe.matrix), np.eye(2),
                                   atol=1e-12)

    def test_mes_probe_scales_coefficients(self):
        psi = random_pure_state((3, 3), 5)
        left = state_to_matrix(psi) @ np.linalg.inv(canonical_probe(3).matrix)
        np.testing.assert_allclose(left, np.sqrt(3) * state_to_matrix(psi), atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            psi = random_pure_state((n, n), int(rng.integers(1e6)))
            probe = random_probe(n, rng)
            inverse = np.linalg.inv(probe.matrix)
            left = state_to_matrix(psi) @ inverse
            rebuilt = np.kron(left, np.eye(n)) @ probe.matrix.reshape(-1)
            np.testing.assert_allclose(rebuilt, psi.amplitudes, atol=1e-10)
            # mirrored second-sided form
            psi_m = state_to_matrix(psi)
            mirrored = np.kron(np.eye(n), psi_m.T @ inverse.T) @ probe.matrix.reshape(-1)
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
        assert len(mes_basis(2)) == 4


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
                                          probe.matrix, p_t)
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


def matrices_of(stages):
    """(image, side) stages of DensityMatrix images as stages of their matrices."""
    return [(image.matrix, side) for image, side in stages]


def rebuilt(stages, probe):
    """probe_channels of (DensityMatrix image, side) stages."""
    return probe_channels(matrices_of(stages), probe.matrix)


def routed(states, stages, probe):
    """probe_route of a (k, d, d) stack through (DensityMatrix image, side) stages."""
    return probe_route(states, (probe.dim, probe.dim), matrices_of(stages), probe.matrix)


def condition_messages(probes):
    """The condition warnings of ``probes``, in order, from each probe's own SVD."""
    messages = []
    for probe in probes:
        s = np.linalg.svd(probe.matrix, compute_uv=False)
        if s[0] / s[-1] > 1e4:
            messages.append(f"probe condition number {s[0] / s[-1]:.3g} exceeds 1e+04; the "
                            "bound may carry amplified rounding error")
    return messages


def caught_messages(call):
    """``call()`` and the texts of the condition warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught if "condition" in str(w.message)]


def einsum_rebuild(stages, probes):
    """Oracle of :func:`probe_channels`: each rebuilt stage as one three-operand einsum
    of the tomography sums."""
    inverse = np.linalg.inv(probes)
    n = inverse.shape[-1]
    specs = {"first": "...xi,...axcy,...yj->...acij", "second": "...ix,...xayc,...jy->...acij"}

    def rebuild(image, side):
        stage = np.einsum(specs[side], inverse, image.reshape(image.shape[:-2] + (n,) * 4),
                          inverse.conj())
        return stage.reshape(stage.shape[:-4] + (n * n, n * n))

    return [(rebuild(image, side), side) for image, side in stages]


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
            stages = [(a1.output, "first"), (a2.output, "second")]
            channels = rebuilt(stages, probe)
            ((s1,), side_1), ((s2,), side_2) = channels  # stacks of one
            assert (side_1, side_2) == ("first", "second")
            np.testing.assert_allclose(s1 * a1.probability, ch1.superoperator, atol=1e-10)
            np.testing.assert_allclose(s2 * a2.probability, ch2.superoperator, atol=1e-10)
            assert max(hermiticity_gap(s1, n), hermiticity_gap(s2, n)) < 1e-10
            values = routed(rho.matrix[None], stages, probe)
            evolved = apply_two_sided(ch1, ch2, rho)
            p_t = rebuilt_traces(rho.matrix[None], channels, (n, n))
            assert abs(p_t[0] * a1.probability * a2.probability - evolved.probability) < 1e-10
            assert abs(values[0] - fidelity_lower_bound(evolved.output).raw) < 1e-10

    def test_stack_matches_single_states(self, rng):
        probe = random_probe(2, rng)
        ch1, ch2 = random_tp_kraus(2, 2, rng), random_tp_kraus(2, 3, rng)
        a1 = apply_one_sided(ch1, probe_density(probe), "first")
        a2 = apply_one_sided(ch2, probe_density(probe), "second")
        states = [random_mixed((2, 2), r, rng) for r in (1, 2, 3, 4)]
        values = routed(np.array([s.matrix for s in states]),
                        [(a1.output, "first"), (a2.output, "second")], probe)
        for state, value in zip(states, values):
            assert value == lower_bound_two_sided(state, a1.output, a2.output, probe).raw

    def test_annihilated_state_is_a_fault(self):
        kill = KrausChannel(2, (np.diag([1.0, 0.0]),))
        probe = canonical_probe(2)
        a1 = apply_one_sided(kill, probe_density(probe), "first")
        a2 = apply_one_sided(kill, probe_density(probe), "second")
        stages = [(a1.output, "first"), (a2.output, "second")]
        states = np.array([np.diag(d).astype(complex) for d in ([1.0, 0, 0, 0], [0, 0, 0, 1.0])])
        assert routed(states[:1], stages, probe).shape == (1,)
        with pytest.raises(ZeroProbability, match="trace 0.0"):
            routed(states, stages, probe)
        with pytest.raises(ZeroProbability):
            lower_bound_two_sided(DensityMatrix((2, 2), states[1]), a1.output, a2.output, probe)


class TestRouteOnCoreImages:
    """The probe route on the images of the evaluation core rebuilds exactly the stages
    the core applied, in the core's order, for every stage list the core accepts."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("sides", [("first", "second"), ("second", "first"), ("second",),
                                       ("first", "first")])
    @pytest.mark.parametrize("per_entry_probes", [False, True])
    def test_route_equals_direct_bound_of_core_states(self, rng, n, sides, per_entry_probes):
        mats = np.array([random_mixed((n, n), r, rng).matrix for r in (1, n, n * n)])
        channels = [random_tp_kraus(n, 2 + j, rng) for j in range(len(sides))]
        channels[0] = KrausChannel(n, channels[0].operators[:1])  # not trace preserving
        probes = (np.array([random_probe(n, rng).matrix for _ in mats]) if per_entry_probes
                  else random_probe(n, rng).matrix)
        result = evaluate(mats, (n, n), [(c.superoperator, side)
                                         for c, side in zip(channels, sides)], probes)
        assert result.fault is None
        np.testing.assert_allclose(probe_route(mats, (n, n), result.images, probes),
                                   fidelity_lower_bounds(result.states, (n, n)),
                                   rtol=0, atol=1e-8)
        assert [side for _, side in result.images] == list(sides)


class TestRoutePairing:
    """The probe route pairs states with rebuilt channels by apply_stacked's rule: a pair's
    state serves its run of probes, bit for bit as the states repeated per probe."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_state_per_run_of_probes(self, rng, n):
        pairs, trials = 4, 3
        mats = np.array([random_mixed((n, n), 1 + j, rng).matrix for j in range(pairs)])
        stages = [(np.array([random_tp_kraus(n, 2, rng).superoperator for _ in mats]), "first"),
                  (np.array([random_tp_kraus(n, 3, rng).superoperator for _ in mats]), "second")]
        probes = random_probes(n, pairs * trials, rng)
        images, _ = channels.probe_images(stages, probes)
        values = probe_route(mats, (n, n), images, probes)
        repeated = probe_route(np.repeat(mats, trials, axis=0), (n, n), images, probes)
        assert values.shape == (pairs * trials,) and np.array_equal(values, repeated)

    def test_lengths_that_do_not_pair(self, rng):
        probes = random_probes(2, 5, rng)
        images, _ = channels.probe_images([(amplitude_damping(0.3).superoperator, "first")],
                                          probes)
        mats = np.array([random_mixed((2, 2), 2, rng).matrix for _ in range(3)])
        with pytest.raises(DimensionMismatch):  # 3 states, 5 rebuilt channels
            probe_route(mats, (2, 2), images, probes)
        with pytest.raises(DimensionMismatch):  # 5 images, 3 probes
            probe_route(mats, (2, 2), images, probes[:3])


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
    @pytest.mark.parametrize("sides", [("first", "second"), ("second", "first"), ("first",),
                                       ("second",), ("first", "first")])
    def test_probe_stack_matches_single_builds(self, rng, sides):
        for n in (2, 3):
            rho = random_mixed((n, n), n, rng)
            channels = [random_tp_kraus(n, 2 + j, rng) for j in range(len(sides))]
            probes = [random_probe(n, rng) for _ in range(6)]
            matrices = np.array([p.matrix for p in probes])
            stages = [(np.array([apply_one_sided(c, probe_density(p), side).output.matrix
                                 for p in probes]), side) for c, side in zip(channels, sides)]
            states = np.array([rho.matrix] * 6)
            stack = probe_channels(stages, matrices)
            assert [side for _, side in stack] == list(sides)
            assert all(s.shape == (6, n * n, n * n) for s, _ in stack)
            values = probe_route(states, (n, n), stages, matrices)
            assert values.shape == (6,)
            for k, probe in enumerate(probes):
                entry = [(image[k], side) for image, side in stages]
                for (s_stack, _), ((s_single,), _) in zip(stack, probe_channels(entry,
                                                                                probe.matrix)):
                    np.testing.assert_allclose(s_stack[k], s_single, atol=1e-12)
                value = probe_route(rho.matrix[None], (n, n), entry, probe.matrix)
                assert abs(values[k] - value[0]) < 1e-12

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
            channels = rebuilt([(app.output, side)], probe)
            (((stage,), stage_side),) = channels  # a stack of one
            assert stage_side == side
            np.testing.assert_allclose(stage * app.probability, ch.superoperator, atol=1e-10)
            values = routed(rho.matrix[None], [(app.output, side)], probe)
            evolved = apply_one_sided(ch, rho, side)
            p_t = rebuilt_traces(rho.matrix[None], channels, (n, n))
            assert abs(p_t[0] * app.probability - evolved.probability) < 1e-10
            assert abs(values[0] - fidelity_lower_bound(evolved.output).raw) < 1e-10

    def test_one_leading_probe_axis(self, rng):
        # a flat stack of six images and probes gives each entry its own route, bit for
        # bit; a (2, 3) grid of either is not a stack and raises
        n = 2
        probes = [random_probe(n, rng) for _ in range(6)]
        ch1, ch2 = random_tp_kraus(n, 2, rng), random_tp_kraus(n, 3, rng)
        stages = [(np.array([apply_one_sided(c, probe_density(p), side).output.matrix
                             for p in probes]), side) for c, side in ((ch1, "first"),
                                                                      (ch2, "second"))]
        matrices = np.array([p.matrix for p in probes])
        states = np.array([random_mixed((n, n), 1 + t % 4, rng).matrix for t in range(6)])
        flat = probe_route(states, (n, n), stages, matrices)
        assert flat.shape == (6,)
        for t in range(6):
            alone = probe_route(states[t:t + 1], (n, n), [(i[t], side) for i, side in stages],
                                matrices[t])
            assert alone.tobytes() == flat[t:t + 1].tobytes()
        grid = [(i.reshape(2, 3, 4, 4), side) for i, side in stages]
        for images, probe_grid in ((grid, matrices), (stages, matrices.reshape(2, 3, n, n))):
            with pytest.raises(DimensionMismatch, match="needs a"):
                probe_route(states, (n, n), images, probe_grid)

    @pytest.mark.parametrize("sides", [("first",), ("second",), ("first", "second")])
    @pytest.mark.parametrize("per_entry", [False, True])
    def test_rebuilt_stage_at_the_floor_raises(self, rng, sides, per_entry):
        # keep-ground on each channel side, with one probe or one probe per entry: |00>
        # passes every stage, and |01>, |10>, |11> fail the first stage that meets a |1>
        # (two-sided, |01> passes the first stage and fails the second)
        keep = KrausChannel(2, (np.diag([1.0, 0.0]),))
        probes = [random_probe(2, rng) for _ in range(3)]
        stages = [(np.array([apply_one_sided(keep, probe_density(p), side).output.matrix
                             for p in probes]), side) for side in sides]
        matrices = np.array([p.matrix for p in probes])
        if not per_entry:
            stages = [(image[0], side) for image, side in stages]
            matrices = matrices[0]
        basis = np.eye(4)[:, :, None] * np.eye(4)[:, None, :]  # |00>, |01>, |10>, |11>
        for i in range(4):
            states = np.array([basis[0], basis[0], basis[i]])
            # bit 2 of i is the first qubit, bit 1 the second
            if any(i & {"first": 2, "second": 1}[side] for side in sides):
                with pytest.raises(ZeroProbability, match="channel image has trace"):
                    probe_route(states, (2, 2), stages, matrices)
            else:  # kept as it is
                values = probe_route(states, (2, 2), stages, matrices)
                np.testing.assert_allclose(values, fidelity_lower_bounds(states, (2, 2)),
                                           rtol=0, atol=1e-12)

    def test_state_of_other_dims_names_both(self, rng):
        probe = random_probe(2, rng)
        image = probe_density(probe).matrix
        states = np.eye(6)[None] / 6
        with pytest.raises(DimensionMismatch, match=r"probe of dim 2 .* dims \(2, 3\)"):
            probe_route(states, (2, 3), [(image, "first")], probe.matrix)
        rho = DensityMatrix((2, 3), states[0])
        for formula in (lower_bound_one_sided, pt_via_reduced, pt_via_mes_sum):
            with pytest.raises(DimensionMismatch, match=r"probe of dim 2 .* dims \(2, 3\)"):
                formula(rho, probe_density(probe), probe)

    def test_no_channel_side_is_exact_identity(self, rng):
        # with no stage on either side nothing is rebuilt or applied
        probe = random_probe(3, rng)
        assert probe_channels([], probe.matrix) == []
        states = np.array([random_mixed((3, 3), r, rng).matrix for r in (1, 5, 9)])
        values = probe_route(states, (3, 3), [], probe.matrix)
        np.testing.assert_array_equal(values, fidelity_lower_bounds(states, (3, 3)))

    def test_no_stage_neither_factors_nor_warns(self, rng):
        # an ill-conditioned probe warns only once a channel is rebuilt from it
        skewed = np.diag([1.0, 2e-5])
        probe = probe_from_matrix(skewed / np.linalg.norm(skewed))
        states = np.array([random_mixed((2, 2), r, rng).matrix for r in (1, 2, 4)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = probe_route(states, (2, 2), [], probe.matrix)
        assert caught == []
        np.testing.assert_array_equal(values, fidelity_lower_bounds(states, (2, 2)))
        with pytest.raises(DimensionMismatch, match=r"probe of dim 2 .* dims \(3, 3\)"):
            probe_route(np.eye(9)[None] / 9, (3, 3), [], probe.matrix)

    def test_unknown_side(self, rng):
        probe = random_probe(2, rng)
        rho = random_mixed((2, 2), 2, rng)
        with pytest.raises(ValueError):
            lower_bound_one_sided(rho, probe_density(probe), probe, side="both")

    def test_unknown_side_raises_before_any_rebuild(self):
        # an ill-conditioned probe would warn once anything were rebuilt
        skewed = np.diag([1.0, 2e-5])
        probe = probe_from_matrix(skewed / np.linalg.norm(skewed))
        image = probe_density(probe).matrix
        stages = [(image, "first"), (image, "both")]
        for call in (lambda: probe_channels(stages, probe.matrix),
                     lambda: probe_route(image[None], (2, 2), stages, probe.matrix)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="side must be 'first' or 'second', "
                                                     "got 'both'"):
                    call()

    def test_direct_route_warning_names_the_calling_file(self):
        skewed = np.diag([1.0, 2e-5])
        probe = probe_from_matrix(skewed / np.linalg.norm(skewed))
        image = probe_density(probe)
        with pytest.warns(RuntimeWarning, match="condition") as caught:
            probe_route(image.matrix[None], (2, 2), [(image.matrix, "first")], probe.matrix)
        assert [w.filename for w in caught] == [__file__]
        # the one-sided wrapper is the route's caller, so its warning names the probe module
        with pytest.warns(RuntimeWarning, match="condition") as caught:
            lower_bound_one_sided(image, image, probe)
        assert [w.filename for w in caught] == [entbound.probe.__file__]

    def test_stacked_probes_warn_once_each(self):
        bad, worse = (probe_from_matrix(np.diag([1.0, s]) / np.hypot(1.0, s))
                      for s in (2e-5, 1e-6))
        good = canonical_probe(2)
        stack = (worse, good, bad, good, bad)
        images = np.array([probe_density(p).matrix for p in stack])
        _, messages = caught_messages(
            lambda: probe_channels([(images, "first")], np.array([p.matrix for p in stack])))
        # one warning per ill-conditioned probe, in probe order, naming its own SVD's value
        assert len(messages) == 3
        assert messages == condition_messages(stack) == [
            f"probe condition number {kappa:.3g} exceeds 1e+04; the bound may carry amplified "
            "rounding error" for kappa in (1e6, 5e4, 5e4)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (3,), (6,)])
    @pytest.mark.parametrize("sides", [("first", "second"), ("second", "first")])
    def test_matmul_rebuild_matches_einsum_oracle(self, rng, n, lead, sides):
        count = int(np.prod(lead))
        probes = [random_probe(n, rng) for _ in range(count)]
        channels = [random_tp_kraus(n, 2, rng) for _ in range(2)]
        images = [(np.array([apply_one_sided(c, probe_density(p), side).output.matrix
                             for p in probes]).reshape(lead + (n * n, n * n)), side)
                  for c, side in zip(channels, sides)]
        matrices = np.array([p.matrix for p in probes]).reshape(lead + (n, n))
        stages, messages = caught_messages(lambda: probe_channels(images, matrices))
        assert messages == condition_messages(probes)
        for (stage, side), (expected, expected_side) in zip(stages,
                                                            einsum_rebuild(images, matrices)):
            # a lone image and probe rebuild a stack of one
            assert stage.shape == (count, n * n, n * n) and side == expected_side
            np.testing.assert_allclose(stage, expected.reshape(stage.shape), rtol=0, atol=1e-12)
        (one,), messages = caught_messages(lambda: probe_channels(images[:1], matrices))
        assert messages == condition_messages(probes)
        assert one[1] == sides[0] and np.array_equal(one[0], stages[0][0])

    def test_six_probe_stack(self, rng):
        # a stack of six probes, once a (2, 3) grid, builds, warns once per
        # ill-conditioned probe in stack order, and gives each probe's own rebuilt channel
        skewed = np.diag([1.0, 2e-5])
        bad = probe_from_matrix(skewed / np.linalg.norm(skewed))
        probes = [bad, random_probe(2, rng), canonical_probe(2), random_probe(2, rng), bad, bad]
        ch = random_tp_kraus(2, 2, rng)
        images = np.array([apply_one_sided(ch, probe_density(p), "first").output.matrix
                           for p in probes])
        matrices = np.array([p.matrix for p in probes])
        ((s1, side),), messages = caught_messages(
            lambda: probe_channels([(images, "first")], matrices))
        assert len(messages) == 3
        assert messages == condition_messages(probes)
        assert s1.shape == (6, 4, 4) and side == "first"
        for j, probe in enumerate(probes):
            (((single,), _),), messages = caught_messages(
                lambda: probe_channels([(images[j], "first")], probe.matrix))
            assert messages == condition_messages([probe])
            np.testing.assert_allclose(s1[j], single, atol=1e-10)

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

