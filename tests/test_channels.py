"""Tests for Kraus channels and their one-/two-sided application."""

import numpy as np
import pytest

from entbound import (
    DensityMatrix,
    DimensionMismatch,
    InvalidChannel,
    KrausChannel,
    OutOfRange,
    ZeroProbability,
    amplitude_damping,
    apply_one_sided,
    apply_two_sided,
    depolarizing,
    partial_trace,
    phase_damping,
    random_density,
)
from entbound.channels import amplitude_damping_kraus, apply_stacked, depolarizing_kraus, \
    evolve, kraus_superoperators, phase_damping_kraus, probe_images
from entbound.concurrence import evaluate
from conftest import random_tp_kraus

IDENTITY_CHANNEL = KrausChannel(2, (np.eye(2),))


def kraus_oracle(ops1, ops2, rho):
    """Independent two-sided Kraus application via index gymnastics (no kron)."""
    n1 = ops1[0].shape[0]
    n2 = ops2[0].shape[0]
    r4 = rho.reshape(n1, n2, n1, n2)
    out = np.zeros_like(r4)
    for a in ops1:
        for b in ops2:
            out += np.einsum("ik,jl,klmn,om,pn->ijop", a, b, r4, a.conj(), b.conj())
    return out.reshape(n1 * n2, n1 * n2)


def basis_density(index, dims):
    d = dims[0] * dims[1]
    m = np.zeros((d, d), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(dims, m)


class TestKrausChannelValidation:
    def test_amplitude_damping_entries(self):
        ch = amplitude_damping(0.2)
        np.testing.assert_allclose(ch.operators[0], [[1, 0], [0, np.sqrt(0.8)]])
        np.testing.assert_allclose(ch.operators[1], [[0, np.sqrt(0.2)], [0, 0]])
        ch = amplitude_damping(0.3)
        np.testing.assert_allclose(ch.operators[0], [[1, 0], [0, np.sqrt(0.7)]])
        np.testing.assert_allclose(ch.operators[1], [[0, np.sqrt(0.3)], [0, 0]])

    def test_trace_preserving_flag(self):
        assert amplitude_damping(0.4).trace_preserving
        assert amplitude_damping(0.4).completeness_defect < 1e-12
        sub = KrausChannel(2, (amplitude_damping(0.4).operators[0],))
        assert not sub.trace_preserving

    def test_super_trace_preserving_rejected(self):
        with pytest.raises(InvalidChannel):
            KrausChannel(2, (np.sqrt(2.0) * np.eye(2),))

    def test_empty_rejected(self):
        with pytest.raises(InvalidChannel):
            KrausChannel(2, ())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(2, (np.eye(3),))

    @pytest.mark.parametrize("dim", [2.0, 2.5, True, "2"])
    def test_non_integer_input_dim_rejected_not_truncated(self, dim):
        with pytest.raises(TypeError, match="input_dim must be an integer"):
            KrausChannel(dim, (np.eye(2),))

    def test_parameter_ranges(self):
        for maker in (amplitude_damping, depolarizing, phase_damping):
            with pytest.raises(OutOfRange):
                maker(-0.1)
            with pytest.raises(OutOfRange):
                maker(1.1)


class TestCompletenessDefect:
    def test_defect_is_spectral_norm_of_gap(self, rng):
        for count in (1, 2, 3):
            ops = random_tp_kraus(3, 3, rng).operators[:count]
            gap = sum(m.conj().T @ m for m in ops) - np.eye(3)
            channel = KrausChannel(3, ops)
            assert abs(channel.completeness_defect - np.linalg.norm(gap, 2)) < 1e-15
            assert channel.trace_preserving == (count == 3)


class TestCompletenessTolerance:
    """sum M^dag M = (1 + delta) I at either side of the documented 1e-10 tolerance."""

    @staticmethod
    def kraus(delta, d=2):
        return np.sqrt(1.0 + delta) * np.eye(d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_channel(self, d):
        for delta, tp in ((0.9e-10, True), (-0.9e-10, True), (-1.1e-10, False)):
            channel = KrausChannel(d, (self.kraus(delta, d),))
            assert channel.trace_preserving == tp
        with pytest.raises(InvalidChannel):
            KrausChannel(d, (self.kraus(1.1e-10, d),))

    @pytest.mark.parametrize("d", [2, 3])
    def test_stack(self, d):
        deltas = (0.9e-10, -0.9e-10, -1.1e-10, 0.0)
        defects, _ = kraus_superoperators(np.array([[self.kraus(x, d)] for x in deltas]))
        assert list(defects <= 1e-10) == [True, True, False, True]
        with pytest.raises(InvalidChannel):
            kraus_superoperators(np.array([[self.kraus(x, d)] for x in deltas[:3] + (1.1e-10,)]))


class TestApplyOneSided:
    def test_identity_channel(self):
        rho = random_density((2, 2), 3, seed=0)
        app = apply_one_sided(IDENTITY_CHANNEL, rho)
        assert app.probability == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(app.output.matrix, rho.matrix, atol=1e-14)

    def test_amplitude_damping_on_excited_state(self):
        # |10><10| decays to 0.8|10><10| + 0.2|00><00| with certainty
        rho = basis_density(2, (2, 2))
        app = apply_one_sided(amplitude_damping(0.2), rho, side="first")
        expected = np.zeros((4, 4))
        expected[2, 2] = 0.8
        expected[0, 0] = 0.2
        assert app.probability == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(app.output.matrix, expected, atol=1e-14)

    def test_non_tp_single_operator(self):
        # the damping operator alone picks the excited component: p = 0.2 * 1/2
        m2 = amplitude_damping(0.2).operators[1]
        rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))
        app = apply_one_sided(KrausChannel(2, (m2,)), rho, side="first")
        assert app.probability == pytest.approx(0.1, abs=1e-14)
        np.testing.assert_allclose(app.output.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-14)

    def test_zero_probability(self):
        m2 = amplitude_damping(0.5).operators[1]  # annihilates |0>
        rho = basis_density(0, (2, 2))
        with pytest.raises(ZeroProbability):
            apply_one_sided(KrausChannel(2, (m2,)), rho, side="first")

    def test_dimension_mismatch(self):
        rho = random_density((2, 3), 2, seed=1)
        with pytest.raises(DimensionMismatch):
            apply_one_sided(IDENTITY_CHANNEL, rho, side="second")

    def test_tp_probability_one(self, rng):
        for _ in range(50):
            rho = random_density((3, 2), rank=int(rng.integers(1, 7)), seed=int(rng.integers(1e6)))
            ch = random_tp_kraus(3, int(rng.integers(2, 5)), rng)
            assert apply_one_sided(ch, rho, "first").probability == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self, rng):
        ch = random_tp_kraus(2, 3, rng)
        ch_sub = KrausChannel(2, ch.operators[:1])
        rho1 = random_density((2, 2), 2, seed=3)
        rho2 = random_density((2, 2), 4, seed=4)
        x = 0.3
        blend = DensityMatrix((2, 2), x * rho1.matrix + (1 - x) * rho2.matrix)
        a = apply_one_sided(ch_sub, blend, "first")
        a1 = apply_one_sided(ch_sub, rho1, "first")
        a2 = apply_one_sided(ch_sub, rho2, "first")
        np.testing.assert_allclose(
            a.probability * a.output.matrix,
            x * a1.probability * a1.output.matrix + (1 - x) * a2.probability * a2.output.matrix,
            atol=1e-12)


class TestApplyTwoSided:
    def test_identity_pair(self):
        rho = random_density((2, 2), 4, seed=5)
        app = apply_two_sided(IDENTITY_CHANNEL, IDENTITY_CHANNEL, rho)
        assert app.probability == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(app.output.matrix, rho.matrix, atol=1e-14)

    def test_against_kraus_oracle(self):
        # bundled example state at x=1 through both damping channels
        raw = np.array([
            [0.4322, 0.2113, 0.1073, 0.3369],
            [0.2113, 0.1845, 0.0406, 0.1798],
            [0.1073, 0.0406, 0.0504, 0.1144],
            [0.3369, 0.1798, 0.1144, 0.3330],
        ])
        rho = DensityMatrix((2, 2), raw / np.trace(raw))
        ch1, ch2 = amplitude_damping(0.2), amplitude_damping(0.3)
        app = apply_two_sided(ch1, ch2, rho)
        expected = kraus_oracle(ch1.operators, ch2.operators, rho.matrix)
        assert app.probability == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(expected).real - 1.0) < 1e-12
        np.testing.assert_allclose(app.output.matrix, expected, atol=1e-13)

    def test_order_does_not_matter(self, rng):
        for _ in range(20):
            rho = random_density((2, 2), rank=int(rng.integers(1, 5)), seed=int(rng.integers(1e6)))
            ch1 = random_tp_kraus(2, 2, rng)
            ch2 = KrausChannel(2, random_tp_kraus(2, 3, rng).operators[:2])
            ab = apply_one_sided(ch2, apply_one_sided(ch1, rho, "first").output, "second")
            ba = apply_one_sided(ch1, apply_one_sided(ch2, rho, "second").output, "first")
            np.testing.assert_allclose(ab.output.matrix, ba.output.matrix, atol=1e-12)


class TestChannelFamilies:
    def test_depolarizing_zero_is_identity(self):
        rho = random_density((2, 2), 3, seed=7)
        app = apply_one_sided(depolarizing(0.0), rho, "first")
        np.testing.assert_allclose(app.output.matrix, rho.matrix, atol=1e-14)

    def test_depolarizing_one_scrambles(self):
        for seed in range(10):
            rho = random_density((2, 2), 4, seed=seed)
            out = apply_one_sided(depolarizing(1.0), rho, "first").output
            np.testing.assert_allclose(partial_trace(out, "first"), np.eye(2) / 2, atol=1e-12)
            # untouched side keeps its reduced state
            np.testing.assert_allclose(partial_trace(out, "second"),
                                       partial_trace(rho, "second"), atol=1e-12)

    def test_phase_damping_preserves_diagonal(self):
        for lam in (0.1, 0.5, 0.9):
            rho = random_density((2, 2), 4, seed=11)
            out = apply_one_sided(phase_damping(lam), rho, "first").output
            np.testing.assert_allclose(np.diagonal(out.matrix), np.diagonal(rho.matrix),
                                       atol=1e-14)

    @pytest.mark.parametrize("maker", [amplitude_damping, depolarizing, phase_damping])
    def test_families_trace_preserving(self, maker):
        for value in np.linspace(0.0, 1.0, 11):
            assert maker(float(value)).completeness_defect < 1e-12

    def test_stacked_operators_by_formula(self):
        g = np.array([0.0, 0.36])
        np.testing.assert_allclose(amplitude_damping_kraus(g)[1],
                                   [[[1, 0], [0, 0.8]], [[0, 0.6], [0, 0]]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(phase_damping_kraus(g)[1],
                                   [[[1, 0], [0, 0.8]], [[0, 0], [0, 0.6]]], rtol=0, atol=1e-15)
        ops = depolarizing_kraus([0.0, 1.0])
        np.testing.assert_array_equal(ops[0, 1:], 0.0)
        np.testing.assert_allclose(np.einsum("kab,kcb->ac", ops[1], ops[1].conj()),
                                   np.eye(2), atol=1e-15)
        for stacked in (amplitude_damping_kraus, depolarizing_kraus, phase_damping_kraus):
            with pytest.raises(OutOfRange, match="got 1.5$"):  # the first value outside
                stacked([0.5, 1.5, -1.0])


def kron_oracle(channel, rho, dims, side):
    """Raw image sum_k (M_k o I) rho (M_k o I)^dag (I o M_k for side "second"), by np.kron."""
    n1, n2 = dims
    lifts = [np.kron(m, np.eye(n2)) if side == "first" else np.kron(np.eye(n1), m)
             for m in channel.operators]
    return sum(lift @ rho @ lift.conj().T for lift in lifts)


class TestSuperoperator:
    def test_entries_are_images_of_matrix_units(self, rng):
        channel = KrausChannel(3, random_tp_kraus(3, 3, rng).operators[:2])  # non-TP
        s = channel.superoperator.reshape(3, 3, 3, 3)
        for i, j in np.ndindex(3, 3):
            unit = np.zeros((3, 3))
            unit[i, j] = 1.0
            image = sum(m @ unit @ m.conj().T for m in channel.operators)
            np.testing.assert_allclose(s[:, :, i, j], image, rtol=0, atol=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            amplitude_damping(0.2).superoperator[0, 0] = 2.0


class TestApplyStacked:
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_matches_single_states(self, rng, side):
        channel = random_tp_kraus(2, 3, rng)
        states = [random_density((2, 2), r, seed=r) for r in (1, 2, 4)]
        outputs, p, fault = apply_stacked(channel.superoperator,
                                          np.array([s.matrix for s in states]), (2, 2), side)
        assert fault is None
        for state, out, prob in zip(states, outputs, p):
            single = apply_one_sided(channel, state, side)
            np.testing.assert_array_equal(out, single.output.matrix)
            assert prob == single.probability
            raw = kron_oracle(channel, state.matrix, (2, 2), side)
            np.testing.assert_allclose(out * prob, raw, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_unequal_subsystems_match_kron_oracle(self, rng, side, dims):
        n = dims[0] if side == "first" else dims[1]
        channel = KrausChannel(n, random_tp_kraus(n, 3, rng).operators[:2])  # non-TP
        states = np.array([random_density(dims, 1 + j, rng).matrix for j in range(4)])
        outputs, p, fault = apply_stacked(channel.superoperator, states, dims, side)
        assert fault is None
        for state, out, prob in zip(states, outputs, p):
            raw = kron_oracle(channel, state, dims, side)
            assert abs(prob - np.trace(raw).real) < 1e-12
            np.testing.assert_allclose(out * prob, raw, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_shared_channel_is_stack_invariant(self, rng, n, side):
        # one GEMM over the whole stack gives each entry the bits it gets alone and
        # under a per-entry stack that repeats the superoperator
        channel = random_tp_kraus(n, 3, rng)
        for k in (1, 2, 7, 101):
            factors = rng.standard_normal((k, n * n, 2)) + 1j * rng.standard_normal((k, n * n, 2))
            states = factors @ factors.conj().swapaxes(1, 2)
            states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
            outputs, p, fault = apply_stacked(channel.superoperator, states, (n, n), side)
            repeated = apply_stacked(np.repeat(channel.superoperator[None], k, axis=0), states,
                                     (n, n), side)
            assert fault is None and repeated[2] is None
            assert np.array_equal(repeated[0], outputs) and np.array_equal(repeated[1], p)
            for j in range(k):
                alone, p_alone, _ = apply_stacked(channel.superoperator, states[j:j + 1], (n, n),
                                                  side)
                assert np.array_equal(alone[0], outputs[j]) and p_alone[0] == p[j]
                raw = kron_oracle(channel, states[j], (n, n), side)
                np.testing.assert_allclose(outputs[j] * p[j], raw, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dims, side", [((2, 1), "first"), ((3, 1), "first"),
                                            ((1, 3), "second")])
    def test_one_row_entries_are_stack_invariant(self, rng, dims, side):
        # where the other subsystem has dim 1 an entry is one row; a run of one row is
        # padded to two, so alone, under its own superoperator and inside a run of several
        # states that share one, it is a row of a GEMM, bit for bit
        n = max(dims)
        channel = random_tp_kraus(n, 3, rng)
        states = np.array([random_density(dims, 1 + j % n, rng).matrix for j in range(101)])
        shared, p, _ = apply_stacked(channel.superoperator, states, dims, side)
        per_entry = np.repeat(channel.superoperator[None], len(states), axis=0)
        own, p_own, _ = apply_stacked(per_entry, states, dims, side)
        for j in range(len(states)):
            alone, p_alone, _ = apply_stacked(channel.superoperator, states[j:j + 1], dims, side)
            assert np.array_equal(own[j], alone[0]) and p_own[j] == p_alone[0]
            assert np.array_equal(shared[j], alone[0]) and p[j] == p_alone[0]

    def test_first_annihilated_entry(self):
        keep_ground = KrausChannel(2, (np.diag([1.0, 0.0]),))
        stack = np.array([basis_density(i, (2, 2)).matrix for i in (0, 3, 2, 1)])
        outputs, p, fault = apply_stacked(keep_ground.superoperator, stack, (2, 2), "first")
        index, error = fault
        assert index == 1 and isinstance(error, ZeroProbability)
        assert len(outputs) == 1 and len(p) == 4

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_channel_sequence_matches_per_entry(self, rng, side):
        # a stack of superoperators, one per entry: mixed Kraus counts,
        # trace-preserving and truncated (non-TP) channels
        channels = []
        for j in range(6):
            full = random_tp_kraus(3, 1 + j % 3, rng)
            channels.append(KrausChannel(3, full.operators[:2]) if j % 4 == 3 else full)
        states = [random_density((3, 3), 1 + j, rng) for j in range(6)]
        outputs, p, fault = apply_stacked(np.array([c.superoperator for c in channels]),
                                          np.array([s.matrix for s in states]), (3, 3), side)
        assert fault is None
        for channel, state, out, prob in zip(channels, states, outputs, p):
            raw = kron_oracle(channel, state.matrix, (3, 3), side)
            assert abs(prob - np.trace(raw).real) < 1e-12
            np.testing.assert_allclose(out * prob, raw, rtol=0, atol=1e-12)

    def test_channel_sequence_first_zero_probability_is_the_fault(self):
        keep_ground = KrausChannel(2, (np.diag([1.0, 0.0]),))
        channels = [IDENTITY_CHANNEL, amplitude_damping(0.3), keep_ground, keep_ground]
        stack = np.array([basis_density(i, (2, 2)).matrix for i in (3, 2, 2, 3)])
        outputs, p, fault = apply_stacked(np.array([c.superoperator for c in channels]), stack,
                                          (2, 2), "first")
        index, error = fault
        assert index == 2 and isinstance(error, ZeroProbability)
        assert len(outputs) == 2 and len(p) == 4 and p[3] == 0.0

    def test_channel_sequence_dimension_mismatch(self):
        stack = np.array([basis_density(0, (2, 3)).matrix])
        with pytest.raises(DimensionMismatch):
            apply_stacked(np.array([amplitude_damping(0.1).superoperator]), stack, (2, 3),
                          "second")


def _stack(rng, k, n):
    """(k, n^2, n^2) stack of random full-rank density matrices of n x n states."""
    states = [random_density((n, n), n * n, rng).matrix for _ in range(k)]
    return np.array(states).reshape(k, n * n, n * n)


class TestPairingRule:
    """A stack of g superoperators meets a stack of k states when one length divides the
    other, each entry of the shorter stack serving a run of consecutive entries of the
    longer one, bit for bit as the per-entry stacks repeated to the longer length."""

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_runs_equal_repeated_per_entry(self, rng, n, side, g):
        k = 10
        superoperators = np.array([random_tp_kraus(n, 2, rng).superoperator for _ in range(k)])
        superoperators[1::4] = KrausChannel(n, random_tp_kraus(n, 2, rng).operators[:1]) \
            .superoperator  # some not trace preserving
        states = _stack(rng, k, n)
        # g superoperators, each serving a run of k/g states
        runs = apply_stacked(superoperators[:g], states, (n, n), side)
        repeated = apply_stacked(np.repeat(superoperators[:g], k // g, axis=0), states, (n, n),
                                 side)
        # g states, each meeting a run of k/g superoperators
        runs_2 = apply_stacked(superoperators, states[:g], (n, n), side)
        repeated_2 = apply_stacked(superoperators, np.repeat(states[:g], k // g, axis=0),
                                   (n, n), side)
        for got, expected in ((runs, repeated), (runs_2, repeated_2)):
            assert got[2] is None and expected[2] is None
            assert got[0].shape == (k, n * n, n * n)
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("g, k", [(3, 5), (5, 3), (2, 3), (4, 6)])
    def test_lengths_that_do_not_pair(self, rng, g, k):
        superoperators = np.repeat(amplitude_damping(0.3).superoperator[None], g, axis=0)
        with pytest.raises(DimensionMismatch, match=f"{g} superoperators .* {k} states"):
            apply_stacked(superoperators, _stack(rng, k, 2), (2, 2), "first")

    @pytest.mark.parametrize("g, k", [(0, 0), (0, 1), (1, 0), (0, 5), (5, 0)])
    def test_empty_stacks(self, rng, g, k):
        superoperators = np.repeat(amplitude_damping(0.3).superoperator[None], g, axis=0)
        outputs, p, fault = apply_stacked(superoperators, _stack(rng, k, 2), (2, 2), "second")
        assert outputs.shape == (0, 4, 4) and p.shape == (0,) and fault is None

    @pytest.mark.parametrize("k", [1, 2])
    def test_evolve_keeps_one_stage_entry_per_state(self, rng, k):
        # a stage stack of another length than the states is an error, also where
        # apply_stacked alone would pair it (one state, five channels)
        superoperators = kraus_superoperators(amplitude_damping_kraus(np.linspace(0, 1, 5)))[1]
        for stages in ([(superoperators, "first")],
                       [(amplitude_damping(0.2).superoperator, "first"),
                        (superoperators, "second")]):
            with pytest.raises(DimensionMismatch, match=f"5 superoperators for {k} states"):
                evolve(_stack(rng, k, 2), (2, 2), stages)

    @pytest.mark.parametrize("k", [1, 3])
    def test_evolve_and_evaluate_take_a_stage_stack_of_one(self, rng, k):
        # a (1, n^2, n^2) stage is the shared channel, as apply_stacked pairs it
        shared = amplitude_damping(0.2).superoperator
        states = _stack(rng, k, 2)
        stages = [(shared[None], "first"), (np.array([shared] * k), "second")]
        lone = [(shared, "first"), (np.array([shared] * k), "second")]
        out, p, fault = evolve(states, (2, 2), stages)
        expected = evolve(states, (2, 2), lone)
        assert fault is None and expected[2] is None
        assert np.array_equal(out, expected[0]) and np.array_equal(p, expected[1])
        probe = np.eye(2)[None] / np.sqrt(2)
        result, reference = (evaluate(states, (2, 2), s, probe) for s in (stages, lone))
        for field in ("states", "exact", "upper", "p", "p_prime", "p_t"):
            assert np.array_equal(getattr(result, field), getattr(reference, field)), field
        assert [image.shape for image, _ in result.images] == [(1, 4, 4), (k, 4, 4)]

    def test_probe_images_pairing(self, rng):
        probes = np.array([np.eye(2) / np.sqrt(2)] * 5)
        superoperators = kraus_superoperators(amplitude_damping_kraus(np.linspace(0, 1, 3)))[1]
        with pytest.raises(DimensionMismatch):  # 3 channels for 5 probes
            probe_images([(superoperators, "first")], probes)
        # one probe serves three channels, but not a stage of another length
        (image, _), = probe_images([(superoperators, "first")], probes[0])[0]
        assert image.shape == (3, 4, 4)
        with pytest.raises(DimensionMismatch):
            probe_images([(superoperators, "first"), (superoperators[:2], "second")], probes[0])
        # six images of two probes would not each have their own probe
        with pytest.raises(DimensionMismatch):
            probe_images([(np.concatenate([superoperators] * 2), "first")], probes[:2])

