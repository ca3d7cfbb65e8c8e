"""Tests for concurrence values and the closed-form bounds."""

import numpy as np
import pytest

from entbound import (
    DensityMatrix,
    DimensionMismatch,
    PureState,
    KrausChannel,
    SingularProbe,
    TrivialDimension,
    ZeroProbability,
    apply_one_sided,
    canonical_mes,
    canonical_probe,
    concurrence_pure,
    concurrence_two_qubit_pure,
    fef_two_qubit,
    fidelity_lower_bound,
    random_density,
    random_pure_state,
    schmidt_decompose,
    theorem1_bound,
    upper_bound_one_sided,
    upper_bound_two_sided,
    wootters_concurrence,
    amplitude_damping,
)
from entbound.concurrence import evaluate, fidelity_lower_bounds, spin_flip_concurrence, \
    upper_bound_factor
from conftest import probe_density, random_mixed, random_probe, random_tp_kraus

SY = np.array([[0, -1j], [1j, 0]])
SYY = np.kron(SY, SY)
BELL = canonical_mes((2, 2))

EXAMPLE_RAW = np.array([
    [0.4322, 0.2113, 0.1073, 0.3369],
    [0.2113, 0.1845, 0.0406, 0.1798],
    [0.1073, 0.0406, 0.0504, 0.1144],
    [0.3369, 0.1798, 0.1144, 0.3330],
])


def wootters_eig_oracle(rho):
    """Independent route: sqrt of eigenvalues of rho rho~, largest minus rest."""
    flipped = SYY @ rho.conj() @ SYY
    ev = np.sort(np.linalg.eigvals(rho @ flipped).real)[::-1]
    lam = np.sqrt(np.clip(ev, 0.0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_pairs(count, rng):
    """``count`` pairs of 2x2 :func:`haar_unitary` draws as one (count, 2, 2, 2)
    stack: the normal block has axes (sample, unitary, re/im, row, col), the
    stream order of 2 * count single draws, and one batched QR takes the
    same phase fix."""
    block = rng.standard_normal((count, 2, 2, 2, 2))
    q, r = np.linalg.qr(block[:, :, 0] + 1j * block[:, :, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class TestPureConcurrence:
    def test_bell(self):
        assert concurrence_pure(BELL) == pytest.approx(1.0, abs=1e-14)

    def test_three_level_mes(self):
        psi = canonical_mes((3, 3))
        assert concurrence_pure(psi) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)

    def test_product_state(self):
        psi = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
        assert concurrence_pure(psi) == pytest.approx(0.0, abs=1e-14)

    def test_range(self):
        for seed in range(50):
            psi = random_pure_state((3, 4), seed)
            c = concurrence_pure(psi)
            assert 0.0 <= c <= np.sqrt(2 * (3 - 1) / 3) + 1e-12


class TestTwoQubitDeterminant:
    def test_bell(self):
        assert concurrence_two_qubit_pure(BELL) == pytest.approx(1.0, abs=1e-14)

    def test_product(self):
        psi = PureState((2, 2), np.array([0, 1, 0, 0], dtype=complex))
        assert concurrence_two_qubit_pure(psi) == pytest.approx(0.0, abs=1e-14)

    def test_matches_schmidt_form(self):
        for seed in range(1000):
            psi = random_pure_state((2, 2), seed)
            assert abs(concurrence_two_qubit_pure(psi) - concurrence_pure(psi)) < 1e-12

    def test_wrong_dims(self):
        with pytest.raises(DimensionMismatch):
            concurrence_two_qubit_pure(random_pure_state((2, 3), 0))


class TestWootters:
    def test_bell_density(self):
        assert wootters_concurrence(BELL.density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-14)

    def test_werner_states(self):
        bell_proj = BELL.density().matrix
        for x in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = DensityMatrix((2, 2), x * bell_proj + (1 - x) * np.eye(4) / 4)
            expected = max(0.0, (3 * x - 1) / 2)
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)
            assert wootters_eig_oracle(rho.matrix) == pytest.approx(expected, abs=1e-7)

    def test_against_eigenvalue_route(self, rng):
        for _ in range(200):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            assert abs(wootters_concurrence(rho) - wootters_eig_oracle(rho.matrix)) < 1e-7

    def test_pure_states_match_determinant(self):
        for seed in range(100):
            psi = random_pure_state((2, 2), seed)
            assert abs(wootters_concurrence(psi.density())
                       - concurrence_two_qubit_pure(psi)) < 1e-10

    def test_wrong_dims(self):
        with pytest.raises(DimensionMismatch):
            wootters_concurrence(random_density((2, 3), 2, seed=0))


class TestFidelityLowerBound:
    def test_mes_saturates(self):
        assert fidelity_lower_bound(BELL.density()).raw == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        bound = fidelity_lower_bound(DensityMatrix((2, 2), np.eye(4) / 4))
        assert bound.raw == pytest.approx(-0.5, abs=1e-14)
        assert bound.clamped == 0.0

    def test_bundled_example_value(self):
        rho = DensityMatrix((2, 2), EXAMPLE_RAW / np.trace(EXAMPLE_RAW))
        bound = fidelity_lower_bound(rho)
        # four-corner arithmetic on the normalized matrix
        expected = 2.0 * ((0.4322 + 2 * 0.3369 + 0.3330) / 2 / np.trace(EXAMPLE_RAW) - 0.5)
        assert bound.raw == pytest.approx(expected, abs=1e-12)
        # the 4-decimal printed entries put the unnormalized value at 0.4390
        assert bound.raw == pytest.approx(0.4390, abs=2e-4)

    def test_lower_bounds_wootters(self, rng):
        for _ in range(200):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            assert fidelity_lower_bound(rho).raw <= wootters_concurrence(rho) + 1e-12

    def test_stack_matches_single_states(self, rng):
        states = [random_mixed((3, 3), r, rng) for r in (1, 4, 9)]
        values = fidelity_lower_bounds(np.array([s.matrix for s in states]), (3, 3))
        for value, state in zip(values, states):
            assert abs(value - fidelity_lower_bound(state).raw) < 1e-15

    def test_trivial_dimension(self):
        with pytest.raises(TrivialDimension):
            fidelity_lower_bound(random_density((1, 3), 2, seed=0))


class TestFullyEntangledFraction:
    def test_bell(self):
        assert fef_two_qubit(BELL.density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert fef_two_qubit(DensityMatrix((2, 2), np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-14)

    def test_pure_state_identity(self):
        for seed in range(300):
            psi = random_pure_state((2, 2), seed)
            expected = (1.0 + concurrence_pure(psi)) / 2.0
            assert abs(fef_two_qubit(psi.density()) - expected) < 1e-9

    def test_brute_force_never_exceeds(self):
        # sampled maximization over random local rotations of the MES must
        # stay below the closed form, and approach it from below
        mes = BELL.amplitudes.reshape(2, 2)
        rng = np.random.default_rng(99)
        for rho in (random_density((2, 2), 2, seed=1), random_density((2, 2), 4, seed=2)):
            value = fef_two_qubit(rho)
            u = haar_pairs(100_000, rng)
            phi = np.einsum("sai,sbj,ij->sab", u[:, 0], u[:, 1], mes).reshape(-1, 4)  # U1 o U2
            best = np.einsum("sa,ab,sb->s", phi.conj(), rho.matrix, phi).real.max()
            assert best <= value + 1e-9
            assert value - best < 0.02  # sampling slack

    def test_haar_pairs_follow_single_draws(self):
        rng, stream = np.random.default_rng(99), np.random.default_rng(99)
        pairs = haar_pairs(5, rng)
        singles = np.array([[haar_unitary(2, stream) for _ in range(2)] for _ in range(5)])
        np.testing.assert_allclose(pairs, singles, rtol=0, atol=1e-15)
        assert rng.standard_normal() == stream.standard_normal()

    def test_dominates_fixed_mes_overlap(self, rng):
        mes = BELL.amplitudes
        for _ in range(100):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            fixed = np.real(np.vdot(mes, rho.matrix @ mes))
            assert fef_two_qubit(rho) >= fixed - 1e-12


class TestTheorem1Bound:
    def test_two_qubit_pure_saturation_example(self):
        # Schmidt pair (sqrt(0.9), sqrt(0.1)) has concurrence 0.6
        amp = np.zeros(4, dtype=complex)
        amp[0] = np.sqrt(0.9)
        amp[3] = np.sqrt(0.1)
        psi = PureState((2, 2), amp)
        assert concurrence_pure(psi) == pytest.approx(0.6, abs=1e-12)
        assert theorem1_bound(psi.density()).raw == pytest.approx(0.6, abs=1e-9)

    def test_three_level_mes_saturates(self):
        rho = canonical_mes((3, 3)).density()
        bound = theorem1_bound(rho, samples=50)
        assert bound.raw == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_dominates_fidelity_bound(self, rng):
        for _ in range(50):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            assert theorem1_bound(rho).raw >= fidelity_lower_bound(rho).raw - 1e-12
        for seed in range(10):
            rho = random_pure_state((3, 3), seed).density()
            bound = theorem1_bound(rho, samples=200, seed=seed)
            assert bound.raw >= fidelity_lower_bound(rho).raw - 1e-12
            assert bound.raw <= concurrence_pure(random_pure_state((3, 3), seed)) + 1e-9

    def test_inequality_chain(self):
        # each link: <mes|rho|mes> <= (sum s)^2 / R <= (1 + sqrt(R(R-1)/2) C)/R
        for dims in ((2, 2), (3, 3), (2, 3)):
            r = min(dims)
            mes = canonical_mes(dims).amplitudes
            for seed in range(100):
                psi = random_pure_state(dims, seed)
                s = schmidt_decompose(psi).coefficients
                fixed = np.real(np.vdot(mes, psi.density().matrix @ mes))
                mid = np.sum(s) ** 2 / r
                top = (1 + np.sqrt(r * (r - 1) / 2.0) * concurrence_pure(psi)) / r
                assert fixed <= mid + 1e-12
                assert mid <= top + 1e-12


class TestUpperBounds:
    def test_mes_probe_reduces_to_plain_product(self):
        # det of the canonical probe matrix is 1/2, so 2|det P| = 1
        probe_matrix = np.eye(2) / np.sqrt(2)
        rho_p = BELL.density()
        bound = upper_bound_one_sided(0.7, rho_p, probe_matrix)
        assert bound.raw == pytest.approx(0.7 * wootters_concurrence(rho_p), abs=1e-14)

    def test_identity_channel_keeps_input_value(self):
        bound = upper_bound_one_sided(0.37, BELL.density(), np.eye(2) / np.sqrt(2))
        assert bound.raw == pytest.approx(0.37, abs=1e-12)

    def test_equality_for_pure_inputs_under_damping(self):
        ch = amplitude_damping(0.2)
        probe = np.eye(2) / np.sqrt(2)
        probe_state = DensityMatrix((2, 2), np.outer(probe.reshape(-1), probe.reshape(-1)))
        rho_p = apply_one_sided(ch, probe_state, "first").output
        for seed in range(50):
            psi = random_pure_state((2, 2), seed)
            evolved = apply_one_sided(ch, psi.density(), "first").output
            bound = upper_bound_one_sided(concurrence_pure(psi), rho_p, probe)
            assert abs(wootters_concurrence(evolved) - bound.raw) < 1e-9

    def test_equality_for_random_full_rank_probes(self, rng):
        for _ in range(100):
            psi = random_pure_state((2, 2), int(rng.integers(1e6)))
            ch = random_tp_kraus(2, int(rng.integers(2, 4)), rng)
            probe = random_probe(2, rng)
            rho_p = apply_one_sided(ch, probe_density(probe), "first").output
            evolved = apply_one_sided(ch, psi.density(), "first").output
            bound = upper_bound_one_sided(concurrence_pure(psi), rho_p, probe.matrix)
            assert abs(wootters_concurrence(evolved) - bound.raw) < 1e-9

    def test_probe_choice_invariance(self, rng):
        # the bound value itself must not depend on which full-rank probe is used
        rho = random_mixed((2, 2), 3, rng)
        ch = random_tp_kraus(2, 2, rng)
        values = []
        for _ in range(50):
            probe = random_probe(2, rng)
            rho_p = apply_one_sided(ch, probe_density(probe), "first").output
            values.append(upper_bound_one_sided(wootters_concurrence(rho), rho_p,
                                                probe.matrix).raw)
        assert max(values) - min(values) < 1e-9

    def test_two_sided_identity_channels(self):
        probe = np.eye(2) / np.sqrt(2)
        bound = upper_bound_two_sided(0.42, BELL.density(), BELL.density(), probe)
        assert bound.raw == pytest.approx(0.42, abs=1e-12)

    def test_zero_input_concurrence(self):
        probe = np.eye(2) / np.sqrt(2)
        bound = upper_bound_two_sided(0.0, BELL.density(), BELL.density(), probe)
        assert bound.raw == 0.0

    def test_singular_probe(self):
        with pytest.raises(SingularProbe):
            upper_bound_one_sided(1.0, BELL.density(), np.diag([1.0, 0.0]))

    def test_stacked_factor_matches_single_calls(self, rng):
        channels = [random_tp_kraus(2, int(rng.integers(2, 4)), rng) for _ in range(8)]
        probes = [random_probe(2, rng) for _ in range(8)]
        images = [apply_one_sided(c, probe_density(p), side).output
                  for c, p, side in zip(channels, probes, ["first", "second"] * 4)]
        factors = upper_bound_factor(np.array([r.matrix for r in images]),
                                     np.array([p.matrix for p in probes]))
        for factor, image, probe in zip(factors, images, probes):
            assert abs(factor - upper_bound_one_sided(1.0, image, probe.matrix).raw) < 1e-15

    def test_stacked_factor_singular_entry(self):
        probes = np.array([np.eye(2) / np.sqrt(2), np.diag([1.0, 0.0]), np.eye(2) / np.sqrt(2)])
        images = np.array([BELL.density().matrix] * 3)
        with pytest.raises(SingularProbe, match="probe 1"):
            upper_bound_factor(images, probes)

    def test_sandwich_holds(self, rng):
        for _ in range(100):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            ch1 = random_tp_kraus(2, 2, rng)
            ch2 = random_tp_kraus(2, 3, rng)
            probe = random_probe(2, rng)
            rho_p1 = apply_one_sided(ch1, probe_density(probe), "first").output
            rho_p2 = apply_one_sided(ch2, probe_density(probe), "second").output
            evolved = apply_one_sided(ch2, apply_one_sided(ch1, rho, "first").output,
                                      "second").output
            exact = wootters_concurrence(evolved)
            lower = fidelity_lower_bound(evolved).clamped
            upper = upper_bound_two_sided(wootters_concurrence(rho), rho_p1, rho_p2,
                                          probe.matrix).raw
            assert lower <= exact + 1e-9
            assert exact <= upper + 1e-9


class TestBoundValue:
    def test_clamping(self):
        bound = fidelity_lower_bound(DensityMatrix((2, 2), np.eye(4) / 4))
        assert bound.raw < 0.0
        assert bound.clamped == 0.0
        assert bound.kind == "lower"


class TestSpinFlipStack:
    def test_stack_matches_single_states_and_oracle(self, rng):
        states = [random_mixed((2, 2), int(rng.integers(1, 5)), rng) for _ in range(40)]
        values = spin_flip_concurrence(np.array([s.matrix for s in states]))
        for state, value in zip(states, values):
            assert value == wootters_concurrence(state)
            assert abs(value - wootters_eig_oracle(state.matrix)) < 1e-7

    def test_rank_one_stack_matches_determinant(self):
        states = [random_pure_state((2, 2), seed) for seed in range(20)]
        values = spin_flip_concurrence(np.array([s.density().matrix for s in states]))
        for psi, value in zip(states, values):
            assert abs(value - concurrence_two_qubit_pure(psi)) < 1e-10


class TestEvaluate:
    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_equals_each_entry(self, rng, n):
        # first stage: one channel per entry; second stage: one channel for the stack
        k = 12
        mats = np.array([random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng).matrix
                         for _ in range(k)])
        channels = [random_tp_kraus(n, int(rng.integers(2, 4)), rng) for _ in range(k)]
        channels[0] = KrausChannel(n, channels[0].operators[:1])  # not trace preserving
        shared = random_tp_kraus(n, 2, rng)
        matrices = np.array([random_probe(n, rng).matrix for _ in range(k)])
        superoperators = np.array([c.superoperator for c in channels])

        def run(sel):
            return evaluate(mats[sel], (n, n), [(superoperators[sel], "first"),
                                                (shared.superoperator, "second")], matrices[sel])

        stack = run(slice(None))
        assert stack.fault is None and len(stack.p) == k
        assert (stack.exact is None) == (stack.upper is None) == (n != 2)
        for j in range(k):
            single = run(slice(j, j + 1))
            for field in ("lower", "exact", "upper", "p", "p_prime", "p_t"):
                value = getattr(single, field)
                if value is not None:
                    assert value[0] == getattr(stack, field)[j], (field, j)

    @pytest.mark.parametrize("annihilated, invalid, expected", [
        (1, 3, ZeroProbability),  # the annihilated entry comes first
        (2, 1, ValueError),       # the invalid input comes first
    ])
    def test_fault_is_first_failing_entry(self, annihilated, invalid, expected):
        mats = np.array([np.eye(4, dtype=complex) / 4] * 5)
        mats[annihilated] = np.diag([0.0, 0.0, 0.0, 1.0])  # |11><11|
        mats[invalid, 0, 1] = 1e-3  # not Hermitian
        keep_0 = KrausChannel(2, (np.diag([1.0, 0.0]),))  # annihilates |11><11|
        result = evaluate(mats, (2, 2), [(keep_0.superoperator, "first")])
        k, error = result.fault
        assert k == min(annihilated, invalid) and type(error) is expected
        assert len(result.lower) == len(result.exact) == len(result.p) == k
        assert result.upper is None and result.p_t is None

    # (first stage per entry, sides, probe per entry); a second stage is one channel
    PROBE_CASES = {
        "first": (False, ("first",), False),
        "second": (False, ("second",), False),
        "two_sided": (False, ("first", "second"), False),
        "shared_probe_per_entry_channels": (True, ("first", "second"), False),
        "per_entry_probes": (False, ("first", "second"), True),
    }

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_probe_images_equal_apply_one_sided(self, rng, n, case):
        per_entry_channels, sides, per_entry_probes = self.PROBE_CASES[case]
        k = 4
        mats = np.array([random_mixed((n, n), n, rng).matrix for _ in range(k)])
        firsts = [random_tp_kraus(n, 2, rng) for _ in range(k)]
        firsts[1] = KrausChannel(n, firsts[1].operators[:1])  # not trace preserving
        second = random_tp_kraus(n, 3, rng)
        probes = [random_probe(n, rng) for _ in range(k)]
        stage_channels = [firsts if per_entry_channels else [firsts[1]] * k, [second] * k]
        stages = [(np.array([c.superoperator for c in firsts]) if per_entry_channels
                   else firsts[1].superoperator, sides[0]), (second.superoperator, "second")]
        result = evaluate(mats, (n, n), stages[:len(sides)],
                          np.array([p.matrix for p in probes]) if per_entry_probes
                          else probes[0].matrix)
        assert len(result.images) == len(sides)
        assert result.images[0].ndim == (3 if per_entry_channels or per_entry_probes else 2)
        for j in range(k):
            probe = probe_density(probes[j] if per_entry_probes else probes[0])
            apps = [apply_one_sided(channels[j], probe, side)
                    for channels, side in zip(stage_channels, sides)]
            for image, app in zip(result.images, apps):
                assert np.array_equal(image if image.ndim == 2 else image[j], app.output.matrix)
            assert result.p_prime[j] == float(np.prod([app.probability for app in apps]))
            assert result.p_t[j] == result.p[j] / result.p_prime[j]

    def test_zero_trace_probe_image_raises(self):
        mats = np.array([np.eye(4, dtype=complex) / 4] * 3)
        zero = KrausChannel(2, (np.zeros((2, 2)),))  # annihilates every state and probe
        stack = np.array([np.eye(4), zero.superoperator, np.eye(4)])
        assert evaluate(mats, (2, 2), [(stack, "first")]).fault[0] == 1  # states: returned
        with pytest.raises(ZeroProbability, match="trace"):  # probe image: raised
            evaluate(mats, (2, 2), [(stack, "first")], canonical_probe(2).matrix)

    def test_probe_of_another_dimension_raises_dimension_mismatch(self):
        mats = np.array([np.eye(4, dtype=complex) / 4])
        with pytest.raises(DimensionMismatch):
            evaluate(mats, (2, 2), [(amplitude_damping(0.2).superoperator, "first")],
                     canonical_probe(3).matrix)

    def test_empty_probe_stack(self):
        result = evaluate(np.empty((0, 4, 4), dtype=complex), (2, 2),
                          [(np.empty((0, 4, 4)), "first"), (np.eye(4), "second")],
                          np.empty((0, 2, 2)))
        assert result.fault is None
        assert all(len(v) == 0 for v in (result.upper, result.p_prime, result.p_t))
