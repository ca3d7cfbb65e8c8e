"""Stacked suite inputs: built stacks equal one-at-a-time draws; failures stay reproducible."""

import numpy as np
import pytest

from entbound import DimensionMismatch, InvalidChannel, KrausChannel, random_density, \
    random_pure_state
from entbound import channels as ch
from entbound import probe, suites
from entbound.channels import kraus_superoperators, random_tp_channel
from entbound.qlinalg import density_stack
from entbound.serialize import channel_to_json, state_to_json
from entbound.suites import _channel_factors, _channel_stack, _density_factor, _generators, \
    _pure_states, run_suites

TRIALS = 12


def bits(a, b):
    """Bit-for-bit equality of two complex arrays."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def state_after(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3])
class TestStackedBuildersMatchSingleDraws:
    def test_channels_tp_and_truncated(self, n):
        rngs = [np.random.default_rng([5, t]) for t in range(TRIALS)]
        factor_sets = [_channel_factors(n, rng) for rng in rngs]
        truncated = np.arange(TRIALS) % 3 == 0
        superoperators, kraus = _channel_stack(n, factor_sets, truncated)
        for t, rng in enumerate(rngs):
            alone = np.random.default_rng([5, t])
            channel = random_tp_channel(n, int(alone.integers(2, 4)), alone)
            if truncated[t]:
                channel = KrausChannel(n, channel.operators[:1])
            assert bits(kraus[t], channel.operators)
            assert bits(superoperators[t], channel.superoperator)
            assert state_after(rng) == state_after(alone)

    def test_densities(self, n):
        rngs = [np.random.default_rng([6, t]) for t in range(TRIALS)]
        mats = density_stack((n, n), [_density_factor(n, rng) for rng in rngs])
        for t, rng in enumerate(rngs):
            alone = np.random.default_rng([6, t])
            rho = random_density((n, n), int(alone.integers(1, n * n + 1)), alone)
            assert bits(mats[t], rho.matrix)
            assert state_after(rng) == state_after(alone)

    def test_pure_states(self, n):
        rngs = [np.random.default_rng([7, t]) for t in range(TRIALS)]
        amps = _pure_states((n, n), rngs)
        for t, rng in enumerate(rngs):
            alone = np.random.default_rng([7, t])
            assert bits(amps[t], random_pure_state((n, n), alone).amplitudes)
            assert state_after(rng) == state_after(alone)


def block_probes(n, count, rng):
    """Probes drawn the way ``random_probes`` drew them before stacking: one block of
    the missing candidates at a time, each block normalized and checked alone."""
    matrices, svals = np.empty((0, n, n), dtype=complex), np.empty((0, n))
    while len(matrices) < count:
        block = rng.standard_normal((count - len(matrices), 2, n, n))
        candidates = block[:, 0] + 1j * block[:, 1]
        candidates = candidates / np.linalg.norm(candidates, axis=(1, 2))[:, None, None]
        s = np.linalg.svd(candidates, compute_uv=False)
        keep = s[:, -1] > probe.PROBE_SIGMA_FLOOR
        matrices = np.concatenate([matrices, candidates[keep]])
        svals = np.concatenate([svals, s[keep]])
    return matrices, np.linalg.inv(matrices), svals[:, 0] / svals[:, -1]


class TestStackedProbeDraws:
    """One probe stack over many generators equals each generator's own draws."""

    @pytest.mark.parametrize("n, count, floor", [(2, 5, 1e-4), (3, 1, 1e-4), (3, 4, 0.15),
                                                 (2, 3, 0.3)])
    def test_stack_equals_per_generator_draws(self, monkeypatch, n, count, floor):
        monkeypatch.setattr(probe, "PROBE_SIGMA_FLOOR", floor)  # above 1e-4: forced redraws
        rngs = [_after_draws(t, 3) for t in range(TRIALS)]  # the probe is the last draw
        stacked = probe.random_probe_stack(n, count, rngs)
        redrawn = 0
        for t, rng in enumerate(rngs):
            alone = _after_draws(t, 3)
            reference = block_probes(n, count, alone)
            single = probe.random_probes(n, count, _after_draws(t, 3))
            for got, got_single, expected in zip(stacked, single, reference):
                assert bits(got[t], expected) and bits(got_single, expected)
            assert state_after(rng) == state_after(alone)
            one_block = _after_draws(t, 3 + 2 * n * n * count)
            redrawn += state_after(one_block) != state_after(alone)
        assert (redrawn > 0) == (floor > 1e-4)
        assert not stacked[0].flags.writeable and not stacked[1].flags.writeable

    def test_no_generators_and_no_probes(self):
        matrices, inverses, conditions = probe.random_probe_stack(2, 3, [])
        assert matrices.shape == inverses.shape == (0, 3, 2, 2) and conditions.shape == (0, 3)
        rngs = [np.random.default_rng([1, 0])]
        matrices, _, conditions = probe.random_probe_stack(2, 0, rngs)
        assert matrices.shape == (1, 0, 2, 2) and conditions.shape == (1, 0)


# the suites' trial indices: plain, probe-invariance pairs (1000 n + t) and theorem1's
# higher-dimensional pure states (10_000 n + t)
SUITE_TRIALS = [0, 1, 999, 2000, 2019, 3000, 3019, 30_000, 30_019, 40_000, 40_019]


class TestBatchedGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**32 + 5, 2**64 + 3])
    def test_streams_equal_default_rng(self, seed):
        for trial, rng in zip(SUITE_TRIALS, _generators(seed, SUITE_TRIALS), strict=True):
            alone = np.random.default_rng([seed, trial])
            assert state_after(rng) == state_after(alone)
            assert np.array_equal(rng.standard_normal(7), alone.standard_normal(7))
            assert rng.integers(0, 2**62) == alone.integers(0, 2**62)
            assert state_after(rng) == state_after(alone)

    def test_long_seed_mixes_extra_words(self):
        # seeds of four or more words overflow the pool of four and take the extra rounds
        for seed in (2**96 + 11, 2**200 + 2**33 + 1):
            rng, = _generators(seed, [7])
            assert state_after(rng) == state_after(np.random.default_rng([seed, 7]))

    def test_no_trials(self):
        assert _generators(3, []) == []

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError):
            _generators(-1, [0])
        with pytest.raises(ValueError):
            _generators(0, [-1])
        with pytest.raises(ValueError):
            _generators(0, [2**32])

    def test_only_the_pcg64_seed_was_hashed(self):
        rng, = _generators(0, [0])
        with pytest.raises(ValueError):
            rng.bit_generator.seed_seq.generate_state(4)
        with pytest.raises(ValueError):
            rng.bit_generator.seed_seq.generate_state(2, np.uint64)


def _after_draws(trial, count):
    """The generator of ``trial`` after ``count`` standard normals."""
    rng = np.random.default_rng([8, trial])
    rng.standard_normal(count)
    return rng


class TestStackedFamilies:
    def test_defects_equal_each_channel(self):
        values = np.linspace(0, 1, 11)
        makers = ((ch.amplitude_damping, ch.amplitude_damping_kraus),
                  (ch.depolarizing, ch.depolarizing_kraus),
                  (ch.phase_damping, ch.phase_damping_kraus))
        sets = [kraus for _, stacked in makers for kraus in stacked(values)]
        defects, superoperators = kraus_superoperators(suites._padded(sets, 2))
        channels = [maker(float(value)) for maker, _ in makers for value in values]
        assert list(defects) == [c.completeness_defect for c in channels]
        for s, c in zip(superoperators, channels):
            assert bits(s, c.superoperator)


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

    def test_zero_padding_changes_nothing(self, rng):
        channel = random_tp_channel(3, 2, rng)
        padded = np.concatenate([channel.operators, np.zeros((1, 3, 3))])[None]
        defects, superoperators = kraus_superoperators(padded)
        assert bits(superoperators[0], channel.superoperator)
        assert defects[0] == channel.completeness_defect


def _shift_oracle(monkeypatch, module, name, shifts):
    """Add ``shifts[(call, index)]`` to entry ``index`` of the stacked oracle's ``call``-th
    result (calls counted from 0)."""
    original = getattr(module, name)
    calls = []

    def shifted(*args):
        values = np.array(original(*args))
        for (call, index), shift in shifts.items():
            if len(calls) == call:
                values[index] += shift
        calls.append(None)
        return values

    monkeypatch.setattr(module, name, shifted)


def _offset_trial(monkeypatch, module, name, trial, group_of, shift=1.0):
    """Shift the stacked oracle's value of one trial by ``shift``, whatever its group; the
    suite calls the oracle once per group, in group order."""
    _shift_oracle(monkeypatch, module, name, {group_of(trial): shift})


class TestForcedFailureRepro:
    @pytest.mark.parametrize("trial", [4, 7, 9])
    def test_structural(self, monkeypatch, trial):
        _offset_trial(monkeypatch, suites, "_minor_sum_concurrence", trial,
                      lambda t: (t % 3, t // 3))
        result, = run_suites("structural", seed=3, trials=30)
        assert not result.passed and result.failures == 1
        assert result.repro["trial"] == trial
        dims = ((2, 2), (2, 3), (3, 3))[trial % 3]
        alone = np.random.default_rng([3, trial])
        assert result.repro["state"] == state_to_json(random_pure_state(dims, alone))

    @pytest.mark.parametrize("trial", [3, 4, 6, 8])  # 3 and 6: truncated channels
    def test_pt_equivalence(self, monkeypatch, trial):
        _offset_trial(monkeypatch, suites.pr, "pt_mes_sum_stack", trial,
                      lambda t: (t % 2, t // 2))
        result, = run_suites("pt-equivalence", seed=2, trials=10)
        assert not result.passed and result.failures == 1
        assert result.repro["trial"] == trial
        n = 2 if trial % 2 == 0 else 3
        rng = np.random.default_rng([2, trial])
        rho = random_density((n, n), int(rng.integers(1, n * n + 1)), rng)
        channel = random_tp_channel(n, int(rng.integers(2, 4)), rng)
        if trial % 3 == 0:
            channel = KrausChannel(n, channel.operators[:1])
        assert result.repro["state"] == state_to_json(rho)
        assert result.repro["channel"] == channel_to_json(channel)


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
        # spin-flip calls: one-sided exact values, its factors, two-sided exact values, ...
        _offset_trial(monkeypatch, suites.conc, "spin_flip_concurrence", trial,
                      lambda t: (2 * (t % 2), t // 2), np.nan)
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
            assert list(result.repro) == ["suite", "seed", "trial", "state", "residual"]
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
                ("mes-basis", 3, None, 3), ("structural", 1033, 50, 83)]


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
        # fixed checks (theorem1's MES, structural's channel families) are no drawn trial
        result, = run_suites(name, seed=0, trials=0)
        assert (result.passed, result.trials, result.failures) == (False, 0, 0)



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
        rhos, images, probes = [], [], []
        for t in range(6):
            rhos.append(random_density((n, n), 1 + t % (n * n), rng))
            probes.append(random_probe(n, rng))
            channel = random_tp_channel(n, 2, rng)
            if t % 2:
                channel = KrausChannel(n, channel.operators[:1])
            images.append(apply_one_sided(channel, probes[-1].density()).output)
        stacks = (np.array([r.matrix for r in rhos]), np.array([i.matrix for i in images]),
                  np.array([p.inverse for p in probes]))
        for stacked, single in ((pt_reduced_stack, pt_via_reduced),
                                (pt_mes_sum_stack, pt_via_mes_sum)):
            expected = [single(*args) for args in zip(rhos, images, probes)]
            assert np.allclose(stacked(*stacks), expected, rtol=0, atol=1e-14)

    def test_two_sided_oracle_stack(self, rng):
        from entbound import apply_one_sided
        from entbound.probe import random_probe
        args = []
        for _ in range(4):
            rho = random_density((3, 3), 4, rng)
            probe = random_probe(3, rng)
            image_1 = apply_one_sided(random_tp_channel(3, 2, rng), probe.density(), "first")
            image_2 = apply_one_sided(random_tp_channel(3, 3, rng), probe.density(), "second")
            args.append((rho.matrix, image_1.output.matrix, image_2.output.matrix,
                         probe.inverse, 0.9))
        stacked = suites.two_sided_bound_mes(*(np.array(column) for column in zip(*args)))
        expected = [suites.two_sided_bound_mes(*a) for a in args]
        assert np.allclose(stacked, expected, rtol=0, atol=1e-14)
