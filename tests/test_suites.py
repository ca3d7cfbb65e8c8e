"""Suite inputs drawn as blocks: stacked builders equal single builds; every failure
record carries the inputs of its check."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entbound import DimensionMismatch, InvalidChannel, KrausChannel, apply_one_sided, \
    apply_two_sided, concurrence_pure, fidelity_lower_bound, lower_bound_one_sided, \
    lower_bound_two_sided, pt_via_mes_sum, pt_via_reduced, random_density, \
    random_pure_state, wootters_concurrence
from entbound import channels as ch
from entbound import probe, suites
from entbound import qlinalg as ql
from entbound.channels import kraus_superoperators
from entbound.serialize import channel_from_json, probe_from_json, state_from_json
from entbound.suites import run_suites
from conftest import probe_density, random_tp_kraus

TRIALS = 12


def bits(a, b):
    """Bit-for-bit equality of two complex arrays."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [2, 3])
class TestStackedBuildersMatchSingleDraws:
    """Each entry of a suite's input block equals the object built alone from that
    entry's draws."""

    def test_channels_tp_and_truncated(self, n):
        truncated = np.arange(TRIALS) % 3 == 0
        superoperators, kraus = suites._random_channels(n, TRIALS, np.random.default_rng(5),
                                                        truncated)
        rng = np.random.default_rng(5)
        counts = rng.integers(2, 4, TRIALS)
        factors = ch.kraus_factors(n, 3 * TRIALS, rng).reshape(TRIALS, 3, n, n)
        for t, count in enumerate(counts):
            channel = KrausChannel(n, tuple(ch.tp_kraus(factors[None, t, :count])[0]))
            if truncated[t]:
                channel = KrausChannel(n, channel.operators[:1])
            assert bits(kraus[t, :len(channel.operators)], channel.operators)
            assert not np.any(kraus[t, len(channel.operators):])
            assert bits(superoperators[t], channel.superoperator)

    def test_densities(self, n):
        d = n * n
        mats = suites._random_densities(n, TRIALS, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        ranks = rng.integers(1, d + 1, TRIALS)
        factors = ql.gaussian(rng, (TRIALS, d, d))
        for t, rank in enumerate(ranks):
            g = factors[t, :, :rank]
            rho = ql.DensityMatrix((n, n), g @ g.conj().T / np.trace(g @ g.conj().T).real)
            # the zeroed columns change the length of the sum, not its terms
            np.testing.assert_allclose(mats[t], rho.matrix, rtol=0, atol=d * 2.0 ** -52)
            assert np.linalg.matrix_rank(mats[t], tol=1e-10) == rank

    def test_pure_states(self, n):
        vecs = ql.gaussian(np.random.default_rng(7), (TRIALS, n * n))
        amps = ql.pure_stack(vecs)
        for t, vec in enumerate(vecs):
            assert bits(amps[t], ql.PureState((n, n), vec / np.linalg.norm(vec)).amplitudes)


def block_probes(n, count, rng):
    """Probes drawn one block of the missing candidates at a time, each block normalized
    and checked alone."""
    matrices = np.empty((0, n, n), dtype=complex)
    while len(matrices) < count:
        block = rng.standard_normal((count - len(matrices), 2, n, n))
        candidates = block[:, 0] + 1j * block[:, 1]
        candidates = candidates / np.linalg.norm(candidates, axis=(1, 2))[:, None, None]
        s = np.linalg.svd(candidates, compute_uv=False)
        matrices = np.concatenate([matrices, candidates[s[:, -1] > probe.PROBE_SIGMA_FLOOR]])
    return matrices


class TestStackedProbeDraws:
    """``random_probes`` equals block-at-a-time draws bit for bit."""

    @pytest.mark.parametrize("n, count, floor", [(2, 5, 1e-4), (3, 1, 1e-4), (3, 4, 0.15),
                                                 (2, 3, 0.3)])
    def test_equals_block_draws(self, monkeypatch, n, count, floor):
        monkeypatch.setattr(probe, "PROBE_SIGMA_FLOOR", floor)  # above 1e-4: forced redraws
        redrawn = 0
        for seed in range(TRIALS):
            rng, alone = np.random.default_rng([8, seed]), np.random.default_rng([8, seed])
            drawn = probe.random_probes(n, count, rng)
            assert bits(drawn, block_probes(n, count, alone))
            assert rng.bit_generator.state == alone.bit_generator.state
            one_block = np.random.default_rng([8, seed])
            one_block.standard_normal(2 * n * n * count)
            redrawn += one_block.bit_generator.state != rng.bit_generator.state
            assert not drawn.flags.writeable
        assert (redrawn > 0) == (floor > 1e-4)


class TestStackedFamilies:
    def test_defects_equal_each_channel(self):
        values = np.linspace(0, 1, 11)
        makers = ((ch.amplitude_damping, ch.amplitude_damping_kraus),
                  (ch.depolarizing, ch.depolarizing_kraus),
                  (ch.phase_damping, ch.phase_damping_kraus))
        channels = [maker(float(value)) for maker, _ in makers for value in values]
        defects, superoperators = (np.concatenate(parts) for parts in zip(
            *(kraus_superoperators(stacked(values)) for _, stacked in makers)))
        assert list(defects) == [c.completeness_defect for c in channels]
        for s, c in zip(superoperators, channels):
            assert bits(s, c.superoperator)
        # zero operators padding each family to four change no bit
        sets = [kraus for _, stacked in makers for kraus in stacked(values)]
        padded = np.zeros((len(sets), 4, 2, 2), dtype=complex)
        for j, operators in enumerate(sets):
            padded[j, :len(operators)] = operators
        padded_defects, padded_superoperators = kraus_superoperators(padded)
        assert bits(padded_defects, defects) and bits(padded_superoperators, superoperators)


class TestProbeInvarianceFamilies:
    def test_each_matrix_checked_once_per_family(self, density_checks):
        # per dimension: the one-sided pairs' states and images, their 50 probes and
        # images, the two-sided pairs' states and both images, and their 50 probes and
        # images on both sides; a drawn state is checked only there
        run_suites("probe-invariance", 0, 5)
        assert density_checks == [20, 100, 30, 150] * 2 and sum(density_checks) == 600


class TestDensityChecks:
    """A drawn pure state's |psi><psi| is checked only where it is used as a state."""

    def test_sandwich_checks_its_pure_inputs_once(self, density_checks):
        # one-sided: the states and images, then the probes and images; two-sided likewise
        run_suites("sandwich", 0)
        assert density_checks == [500, 500, 750, 750]

    def test_theorem1_checks_no_density(self, density_checks):
        # its vectors pass pure_stack's finite and unit-norm check instead
        result, = run_suites("theorem1", 0)
        assert result.passed and density_checks == []


class TestSharedKrausValidation:
    def test_exceeding_identity(self):
        ops = np.array([[np.eye(2)], [1.1 * np.eye(2)]])
        with pytest.raises(InvalidChannel):
            kraus_superoperators(ops)
        with pytest.raises(InvalidChannel):
            KrausChannel(2, (1.1 * np.eye(2),))

    def test_non_finite_entries(self):
        bad = np.eye(2) * np.array([1.0, np.nan])
        with pytest.raises(InvalidChannel):
            kraus_superoperators(np.array([[np.eye(2)], [bad]]))
        with pytest.raises(InvalidChannel):
            KrausChannel(2, (bad,))

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            kraus_superoperators(np.zeros((2, 1, 2, 3)))
        with pytest.raises(DimensionMismatch):
            kraus_superoperators(np.zeros((1, 2, 2)))
        with pytest.raises(DimensionMismatch):
            KrausChannel(2, (np.zeros((2, 3)),))

    def test_any_memory_layout(self, rng):
        # a transposed or broadcast view validates like its contiguous copy
        ops = np.array(random_tp_kraus(2, 2, rng).operators)[None]
        transposed = np.ascontiguousarray(ops.swapaxes(-1, -2)).swapaxes(-1, -2)
        broadcast = np.broadcast_to(np.diag([1.0, 0.0]), (3, 1, 2, 2))
        for view in (transposed, broadcast):
            expected = kraus_superoperators(np.ascontiguousarray(view, dtype=complex))
            got = kraus_superoperators(view)
            assert all(bits(np.ascontiguousarray(a), b) for a, b in zip(got, expected))
        with pytest.raises(InvalidChannel):
            kraus_superoperators(transposed * np.array([1.0, np.nan]))

    def test_zero_padding_changes_nothing(self, rng):
        channel = random_tp_kraus(3, 2, rng)
        padded = np.concatenate([channel.operators, np.zeros((1, 3, 3))])[None]
        defects, superoperators = kraus_superoperators(padded)
        assert bits(superoperators[0], channel.superoperator)
        assert defects[0] == channel.completeness_defect


def _shift_oracle(monkeypatch, module, name, shifts):
    """Add ``shifts[(call, index)]`` to entry ``index`` of the stacked oracle's ``call``-th
    result (calls counted from 0); returns the list of the unshifted results, one per
    call."""
    original = getattr(module, name)
    calls = []

    def shifted(*args):
        values = np.array(original(*args))
        calls.append(values.copy())
        for (call, index), shift in shifts.items():
            if len(calls) - 1 == call:
                values[index] += shift
        return values

    monkeypatch.setattr(module, name, shifted)
    return calls


def _offset_trial(monkeypatch, module, name, trial, group_of, shift=1.0):
    """Shift the stacked oracle's value of one trial by ``shift``, whatever its group; the
    suite calls the oracle once per group, in group order."""
    return _shift_oracle(monkeypatch, module, name, {group_of(trial): shift})


def _record(result, seed, trials):
    """The record of a suite with one forced failure, drawn at ``seed`` and ``trials``."""
    assert not result.passed and result.failures == 1
    assert (result.repro["seed"], result.repro["trials"]) == (seed, trials)
    return result.repro


class TestForcedFailureRepro:
    """The inputs in a forced failure's record, evaluated alone through the scalar API,
    give the suite's unshifted values for that trial within the suite's tolerance."""

    @pytest.mark.parametrize("trial", [4, 7, 9])
    def test_structural(self, monkeypatch, trial):
        minor_sums = _offset_trial(monkeypatch, suites, "_minor_sum_concurrence", trial,
                                   lambda t: (t % 3, t // 3))
        result, = run_suites("structural", seed=3, trials=30)
        monkeypatch.undo()
        record = _record(result, 3, 30)
        assert record["trial"] == trial
        state = state_from_json(record["state"])
        assert state.dims == ((2, 2), (2, 3), (3, 3))[trial % 3]
        assert abs(concurrence_pure(state) - minor_sums[trial % 3][trial // 3]) <= 1e-10

    @pytest.mark.parametrize("trial", [3, 4, 6, 8])  # 3 and 6: truncated channels
    def test_pt_equivalence(self, monkeypatch, trial):
        mes_sums = _offset_trial(monkeypatch, suites.pr, "pt_mes_sum_stack", trial,
                                 lambda t: (t % 2, t // 2))
        result, = run_suites("pt-equivalence", seed=2, trials=10)
        monkeypatch.undo()
        record = _record(result, 2, 10)
        assert record["trial"] == trial
        rho, channel = state_from_json(record["state"]), channel_from_json(record["channel"])
        probe_state, side = probe_from_json(record["probe"]), record["side"]
        n = 2 + trial % 2
        assert rho.dims == (n, n) and probe_state.dim == n
        assert side == ("first", "second")[trial % 2]
        assert channel.trace_preserving == (trial % 3 != 0)
        image = apply_one_sided(channel, probe_density(probe_state), side)
        pt_mes = pt_via_mes_sum(rho, image.output, probe_state, side)
        pt_red = pt_via_reduced(rho, image.output, probe_state, side)
        assert abs(pt_mes - mes_sums[trial % 2][trial // 2]) <= 1e-10
        assert abs(pt_red - pt_mes) <= 1e-10
        direct = apply_one_sided(channel, rho, side).probability
        assert abs(pt_red * image.probability - direct) <= 1e-10

    @pytest.mark.parametrize("family", ["evolve", "probe_images"])
    def test_pt_equivalence_runs_the_core_families(self, monkeypatch, family):
        # square p of channels.evolve or p' of channels.probe_images inside the evaluation
        # core, which gives the suite its p_t: only a truncated channel's traces move, so
        # only its trials fail
        original = getattr(suites.conc, family)

        def squared(*args):
            out = original(*args)
            return out[:1] + (out[1] ** 2,) + out[2:]

        monkeypatch.setattr(suites.conc, family, squared)
        result, = run_suites("pt-equivalence", seed=2, trials=10)
        monkeypatch.undo()
        assert not result.passed and result.failures > 0
        record = result.repro
        assert (record["seed"], record["trials"]) == (2, 10) and record["trial"] % 3 == 0
        assert not channel_from_json(record["channel"]).trace_preserving

    @pytest.mark.parametrize("trial", [2, 3, 5, 6])  # 3 and 6: random probes
    def test_sandwich(self, monkeypatch, trial):
        # spin-flip calls: one per evaluation, one-sided then two-sided; exact values lead
        exact = _offset_trial(monkeypatch, suites.conc, "spin_flip_concurrence", trial,
                              lambda t: (t % 2, t // 2))
        result, = run_suites("sandwich", seed=3, trials=30)
        monkeypatch.undo()
        record = _record(result, 3, 30)
        assert record["trial"] == trial
        rho, channel_1 = state_from_json(record["state"]), channel_from_json(record["channel_1"])
        probe_state = probe_from_json(record["probe"])
        assert (np.linalg.cond(probe_state.matrix) == pytest.approx(1.0)) == (trial % 3 != 0)
        image_1 = apply_one_sided(channel_1, probe_density(probe_state), "first").output
        if trial % 2 == 0:
            assert "channel_2" not in record
            evolved = apply_one_sided(channel_1, rho, "first").output
            lower = lower_bound_one_sided(rho, image_1, probe_state, "first")
        else:
            channel_2 = channel_from_json(record["channel_2"])
            evolved = apply_two_sided(channel_1, channel_2, rho).output
            image_2 = apply_one_sided(channel_2, probe_density(probe_state), "second").output
            lower = lower_bound_two_sided(rho, image_1, image_2, probe_state)
        value = wootters_concurrence(evolved)
        assert abs(value - exact[trial % 2][trial // 2]) <= 1e-9
        assert abs(lower.raw - fidelity_lower_bound(evolved).raw) <= 1e-9
        assert lower.clamped <= value + 1e-9

    # 4, 8: truncated first channels; 3, 7: truncated second channels
    @pytest.mark.parametrize("n, pair", [(2, 4), (2, 7), (3, 3), (3, 8)])
    def test_probe_invariance(self, monkeypatch, n, pair):
        # one call of the directly evolved bounds per dimension and pair kind, one-sided
        # (even pairs) before two-sided (odd pairs), 10 pairs each
        call = 2 * (n - 2) + pair % 2
        direct = _shift_oracle(monkeypatch, suites.conc, "fidelity_lower_bounds",
                               {(call, pair // 2): 1.0})
        result, = run_suites("probe-invariance", seed=1, trials=3)
        monkeypatch.undo()
        record = _record(result, 1, 3)
        assert (record["dim"], record["pair"]) == (n, pair)
        rho, channel = state_from_json(record["state"]), channel_from_json(record["channel"])
        assert channel.trace_preserving == (pair % 4 != 0)
        probes = [probe_from_json(doc) for doc in record["probes"]]
        assert len(probes) == 3 and all(p.dim == n for p in probes)
        if pair % 2 == 0:
            assert "channel_2" not in record
            evolved = apply_one_sided(channel, rho, "first").output
        else:
            channel_2 = channel_from_json(record["channel_2"])
            assert channel_2.trace_preserving == (pair % 4 == 1)
            evolved = apply_two_sided(channel, channel_2, rho).output
        value = fidelity_lower_bound(evolved).raw
        assert abs(value - direct[call][pair // 2]) <= 1e-8
        for probe_state in probes:
            image_1 = apply_one_sided(channel, probe_density(probe_state), "first").output
            if pair % 2 == 0:
                lower = lower_bound_one_sided(rho, image_1, probe_state, "first")
            else:
                image_2 = apply_one_sided(channel_2, probe_density(probe_state), "second").output
                lower = lower_bound_two_sided(rho, image_1, image_2, probe_state)
            assert abs(lower.raw - value) <= 1e-8

    @pytest.mark.parametrize("n, trial", [(3, 0), (3, 1), (4, 1)])
    def test_theorem1_margin(self, monkeypatch, n, trial):
        # pure-concurrence calls: the 2x2 trials, then [MES, samples] at n = 3 and n = 4
        values = _shift_oracle(monkeypatch, suites.conc, "pure_concurrences",
                               {(n - 2, 1 + trial): -10.0})
        result, = run_suites("theorem1", seed=4, trials=100)
        monkeypatch.undo()
        record = _record(result, 4, 100)
        assert (record["dim"], record["trial"]) == (n, trial)
        state = state_from_json(record["state"])
        assert state.dims == (n, n)
        value = concurrence_pure(state)
        margin = value - fidelity_lower_bound(state.density()).raw
        assert abs(value - values[n - 2][1 + trial]) <= 1e-10
        assert abs(margin - (record["margin"] + 10.0)) <= 1e-10 and margin > 1e-10


def _truncated_depolarizing(ps):
    """Stands in for ``channels.depolarizing_kraus``: one Kraus set of completeness
    defect 1 per parameter."""
    return np.broadcast_to(np.diag([1.0, 0.0]), (len(ps), 1, 2, 2))


class TestVerdict:
    """One pass rule for every suite: NaN fails, no checks fail, the first failing group
    gives the repro, and the worst residual is a float that keeps a NaN."""

    def test_no_checks_fail(self):
        assert suites._verdict("x", []) == suites.SuiteResult("x", False, 0, 0, 0.0)
        empty = (np.array([], dtype=bool), [], None)
        assert suites._verdict("x", [empty]) == suites.SuiteResult("x", False, 0, 0, 0.0)

    def test_counts_worst_and_first_repro(self):
        calls = []

        def repro(group):
            return lambda i: calls.append((group, i)) or {"group": group, "entry": i}

        checks = [(np.array([True, True]), np.array([-2.0, 1e-3]), repro(0)),
                  (np.array([True, False, False]), [0.5, 2.0, 3.0], repro(1)),
                  (np.array([False]), [], repro(2))]
        result = suites._verdict("x", checks)
        assert (result.passed, result.trials, result.failures) == (False, 6, 3)
        assert result.worst_residual == 3.0 and type(result.worst_residual) is float
        assert result.repro == {"group": 1, "entry": 1} and calls == [(1, 1)]
        negative = suites._verdict("x", [(np.array([True]), np.array([-2.0]), None)])
        assert negative.passed and negative.worst_residual == 0.0

    def test_nan_fails_and_propagates(self):
        ok = np.array([0.1, np.nan, 0.2]) <= 1.0
        result = suites._verdict("x", [(ok, [0.1, np.nan, 0.2], lambda i: {"entry": i}),
                                       (np.array([True]), [5.0], None)])
        assert not result.passed and result.failures == 1 and result.repro == {"entry": 1}
        assert np.isnan(result.worst_residual)

    @pytest.mark.parametrize("trial", [0, 7])
    def test_nan_structural_oracle_fails(self, monkeypatch, trial):
        _offset_trial(monkeypatch, suites, "_minor_sum_concurrence", trial,
                      lambda t: (t % 3, t // 3), np.nan)
        result, = run_suites("structural", seed=3, trials=30)
        assert not result.passed and result.failures == 1 and result.repro["trial"] == trial
        assert np.isnan(result.worst_residual)

    @pytest.mark.parametrize("trial", [2, 5])  # pure one-sided, mixed two-sided
    def test_nan_sandwich_oracle_fails(self, monkeypatch, trial):
        # spin-flip calls: one per evaluation, one-sided then two-sided; exact values lead
        _offset_trial(monkeypatch, suites.conc, "spin_flip_concurrence", trial,
                      lambda t: (t % 2, t // 2), np.nan)
        result, = run_suites("sandwich", seed=3, trials=30)
        assert not result.passed and result.failures == 1 and result.repro["trial"] == trial
        assert np.isnan(result.worst_residual)

    @pytest.mark.parametrize("shifts, expected", [
        ({(0, 5): 1.0, (1, 0): 1.0, (1, 1): -10.0}, {"trial": 5}),
        ({(1, 0): 1.0, (1, 1): -10.0}, {"mes_dim": 3}),
        ({(1, 1): -10.0, (2, 0): 1.0}, {"dim": 3, "trial": 0}),
    ])
    def test_theorem1_repro_follows_group_order(self, monkeypatch, shifts, expected):
        # pure-concurrence calls: the 2x2 trials, then [MES, samples] at n = 3 and n = 4
        _shift_oracle(monkeypatch, suites.conc, "pure_concurrences", shifts)
        result, = run_suites("theorem1", seed=1, trials=30)
        assert not result.passed and result.failures == len(shifts)
        assert {key: result.repro[key] for key in expected} == expected

    @pytest.mark.parametrize("state_fails", [True, False])
    def test_structural_state_before_family(self, monkeypatch, state_fails):
        monkeypatch.setattr(suites.ch, "depolarizing_kraus", _truncated_depolarizing)
        if state_fails:
            _offset_trial(monkeypatch, suites, "_minor_sum_concurrence", 4,
                          lambda t: (t % 3, t // 3))
        result, = run_suites("structural", seed=3, trials=30)
        assert not result.passed and result.failures == 11 + state_fails
        assert result.worst_residual >= 1.0  # a defect of 1
        if state_fails:
            assert list(result.repro) == ["suite", "seed", "trials", "trial", "state",
                                          "residual"]
            assert result.repro["trial"] == 4
        else:
            assert result.repro == {"suite": "structural", "family": "depolarizing",
                                    "parameter": 0.0, "defect": 1.0}

    def test_every_worst_residual_is_a_float(self):
        for result in run_suites("all", seed=1, trials=5):
            assert result.passed and type(result.worst_residual) is float, result.name


# (name, trials reported at the default trial counts, a twentieth of the default
# trial count (None: mes-basis has none), trials reported at it)
TRIAL_COUNTS = [("theorem1", 1042, 50, 54), ("probe-invariance", 40, 5, 40),
                ("pt-equivalence", 200, 10, 10), ("sandwich", 500, 25, 25),
                ("mes-basis", 3, None, 3), ("structural", 1041, 50, 91)]


class TestTrialCounts:
    def test_default_trials(self):
        counts = {r.name: r.trials for r in run_suites("all", 0)}
        assert counts == {name: default for name, default, _, _ in TRIAL_COUNTS}

    @pytest.mark.parametrize("name, default, trials, expected", TRIAL_COUNTS)
    def test_twentieth_trials(self, name, default, trials, expected):
        result, = run_suites(name, seed=1, trials=trials)
        assert result.passed and result.trials == expected

    @pytest.mark.parametrize("name", [n for n, _, trials, _ in TRIAL_COUNTS if trials])
    def test_zero_trials_fail(self, name):
        # fixed checks (theorem1's MES, structural's channel families and completeness
        # rule) are no drawn trial
        result, = run_suites(name, seed=0, trials=0)
        assert (result.passed, result.trials, result.failures) == (False, 0, 0)


def _pt_product(monkeypatch):
    """p_t = p * p' in place of p / p' in the evaluation core."""
    evaluate = suites.conc.evaluate

    def mutant(*args):
        result = evaluate(*args)
        return replace(result, p_t=result.p * result.p_prime)

    monkeypatch.setattr(suites.conc, "evaluate", mutant)


def _konrad_factor(scale):
    """The Konrad factor C(rho_P)/(2|det P|) times ``scale(|det P|)``."""
    def patch(monkeypatch):
        factor = suites.conc.upper_bound_factor

        def mutant(concurrences, probes):
            det = np.abs(np.linalg.det(ql.stack_of(np.asarray(probes, dtype=complex), 2)))
            return factor(concurrences, probes) * scale(det)

        monkeypatch.setattr(suites.conc, "upper_bound_factor", mutant)
    return patch


# library mutants that are a constant or a wrapper, each as a monkeypatch; check must
# catch every one
MUTANTS = {
    "p_t-product": _pt_product,
    "tp-tolerance-1e-3": lambda monkeypatch: monkeypatch.setattr(ch, "TP_TOLERANCE", 1e-3),
    "factor-over-2-det-squared": _konrad_factor(lambda det: 1.0 / det),
    "factor-over-det": _konrad_factor(lambda det: 2.0),
    "eigenvalue-floor-1e-6": lambda monkeypatch: monkeypatch.setattr(ql, "EIGENVALUE_FLOOR", -1e-6),
    "certificate-shift-1e-6": lambda monkeypatch: monkeypatch.setattr(ql, "_certificate_shift",
                                                                      lambda d: 1e-6),
    "probability-floor-1e-3": lambda monkeypatch: monkeypatch.setattr(ch, "PROBABILITY_FLOOR",
                                                                      1e-3),
}


class TestMutants:
    """``check all`` at seed 0 fails under each mutant and names the inputs of a failure."""

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_check_all_fails(self, monkeypatch, mutant):
        MUTANTS[mutant](monkeypatch)
        failing = [r for r in run_suites("all", seed=0) if not r.passed]
        assert failing and all(r.failures > 0 and r.repro for r in failing)


class TestDeterminism:
    """A suite's result is a function of (suite, seed, trials)."""

    @pytest.mark.parametrize("name, trials", [(name, trials) for name, _, twentieth, _
                                              in TRIAL_COUNTS for trials in (twentieth, 1, 2)])
    def test_two_runs_agree(self, name, trials):
        first, second = (replace(run_suites(name, 5, trials)[0], wall_s=0.0) for _ in range(2))
        assert first == second

    def test_two_failing_runs_agree(self, monkeypatch):
        results = []
        for _ in range(2):
            with monkeypatch.context() as patch:
                _offset_trial(patch, suites.conc, "spin_flip_concurrence", 5,
                              lambda t: (t % 2, t // 2))
                results.append(replace(run_suites("sandwich", 3, 30)[0], wall_s=0.0))
        assert results[0] == results[1] and results[0].repro["trial"] == 5

    def test_import_leaves_numpy_random_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, entbound.cli; assert 'numpy.random' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestStackedCores:
    """Each stacked core on a stack gives what its scalar wrapper gives per entry."""

    def test_concurrence_cores(self, rng):
        from entbound import concurrence_pure, fef_two_qubit
        from entbound.concurrence import fully_entangled_fractions, pure_concurrences
        states = [random_pure_state((2, 3), rng) for _ in range(5)]
        values = pure_concurrences(np.array([s.amplitudes.reshape(2, 3) for s in states]))
        assert list(values) == [concurrence_pure(s) for s in states]
        rhos = [random_density((2, 2), r, rng) for r in (1, 2, 3, 4)]
        fractions = fully_entangled_fractions(np.array([r.matrix for r in rhos]))
        assert list(fractions) == [fef_two_qubit(r) for r in rhos]

    @pytest.mark.parametrize("n", [2, 3])
    def test_pt_formulas(self, rng, n):
        from entbound import apply_one_sided, pt_via_mes_sum, pt_via_reduced
        from entbound.probe import pt_mes_sum_stack, pt_reduced_stack, random_probe
        rhos, images, probes = [], {"first": [], "second": []}, []
        for t in range(6):
            rhos.append(random_density((n, n), 1 + t % (n * n), rng))
            probes.append(random_probe(n, rng))
            channel = random_tp_kraus(n, 2, rng)
            if t % 2:
                channel = KrausChannel(n, channel.operators[:1])
            for side, stack in images.items():
                stack.append(apply_one_sided(channel, probe_density(probes[-1]), side).output)
        for side, side_images in images.items():
            stacks = (np.array([r.matrix for r in rhos]),
                      np.array([i.matrix for i in side_images]),
                      np.array([p.matrix for p in probes]))
            for stacked, single in ((pt_reduced_stack, pt_via_reduced),
                                    (pt_mes_sum_stack, pt_via_mes_sum)):
                expected = [single(*args, side=side) for args in zip(rhos, side_images, probes)]
                assert np.allclose(stacked(*stacks, side), expected, rtol=0, atol=1e-14)

    def test_two_sided_oracle_stack(self, rng):
        from entbound import apply_one_sided
        from entbound.probe import random_probe
        args = []
        for _ in range(4):
            rho = random_density((3, 3), 4, rng)
            probe = random_probe(3, rng)
            image_1 = apply_one_sided(random_tp_kraus(3, 2, rng), probe_density(probe), "first")
            image_2 = apply_one_sided(random_tp_kraus(3, 3, rng), probe_density(probe), "second")
            args.append((rho.matrix, image_1.output.matrix, image_2.output.matrix,
                         probe.matrix, 0.9))
        stacked = suites.two_sided_bound_mes(*(np.array(column) for column in zip(*args)))
        expected = [suites.two_sided_bound_mes(*a) for a in args]
        assert np.allclose(stacked, expected, rtol=0, atol=1e-14)
