"""Tests for concurrence values and the closed-form bounds."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    fef_two_qubit,
    fidelity_lower_bound,
    max_mes_fidelity,
    random_density,
    random_pure_state,
    schmidt_decompose,
    theorem1_bound,
    upper_bound_one_sided,
    upper_bound_two_sided,
    wootters_concurrence,
    amplitude_damping,
)
from entbound import concurrence
from entbound.probe import probe_route, random_probes
from entbound.concurrence import evaluate, fidelity_lower_bounds, spin_flip_concurrence, \
    spin_flip_spectrum, upper_bound_factor
from conftest import concurrence_two_qubit_pure, haar_unitary, probe_density, random_mixed, \
    random_probe, random_tp_kraus, reference_evaluate

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


def eigh_route_spectrum(mats):
    """spin_flip_spectrum through the eigen-factor for every entry: the reference route."""
    w, v = np.linalg.eigh(mats)
    keep = w > 1e-14 * np.maximum(1.0, w[:, -1:])
    factor = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    return np.linalg.svd(np.swapaxes(factor, 1, 2) @ SYY @ factor, compute_uv=False)


@pytest.fixture
def eigh_entries(monkeypatch):
    """The number of entries of each np.linalg.eigh call, in call order."""
    sizes, original = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (1, 3)])
    def test_closed_form_equals_the_outer_product(self, rng, dims):
        mats = np.array([random_mixed(dims, int(rng.integers(1, np.prod(dims) + 1)), rng).matrix
                         for _ in range(50)])
        mes = canonical_mes(dims).amplitudes
        overlap = (mats * np.outer(mes.conj(), mes)).sum(axis=(-2, -1)).real
        np.testing.assert_allclose(concurrence._mes_overlaps(mats, dims), overlap,
                                   rtol=0, atol=1e-15)

    def test_stack_of_other_dims_raises(self):
        for mats in (np.eye(9)[None] / 9, np.eye(4) / 4):
            with pytest.raises(DimensionMismatch, match=r"needs a \(k, 4, 4\) stack"):
                fidelity_lower_bounds(mats, (2, 2))

    def test_dims_are_checked_as_integers(self):
        mats = np.eye(4)[None] / 4
        expected = fidelity_lower_bounds(mats, (2, 2))
        with pytest.raises(TypeError, match="subsystem dimension must be an integer"):
            fidelity_lower_bounds(mats, (2.0, 2))
        assert np.array_equal(fidelity_lower_bounds(mats, (np.int64(2), 2)), expected)


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
        # exactly: both read the same canonical-MES overlap, and the maximum starts there
        for _ in range(50):
            rho = random_mixed((2, 2), int(rng.integers(1, 5)), rng)
            assert theorem1_bound(rho).raw >= fidelity_lower_bound(rho).raw
        for seed in range(10):
            rho = random_pure_state((3, 3), seed).density()
            bound = theorem1_bound(rho, samples=200, seed=seed)
            assert bound.raw >= fidelity_lower_bound(rho).raw
            assert bound.raw <= concurrence_pure(random_pure_state((3, 3), seed)) + 1e-9
        for dims in ((2, 3), (3, 3), (4, 3)):
            rho = random_mixed(dims, int(rng.integers(1, 7)), rng)
            assert theorem1_bound(rho, samples=50).raw >= fidelity_lower_bound(rho).raw

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 4), (4, 3)])
    def test_rectangular_pure_states_stay_below_the_schmidt_value(self, dims):
        # every MES overlap of a pure state is at most (sum s)^2 / R over its Schmidt
        # coefficients s; a sampled isometry of the wrong shape breaks this
        r = min(dims)
        for seed in range(6):
            psi = random_pure_state(dims, seed)
            rho = psi.density()
            fixed = float(concurrence._mes_overlaps(rho.matrix[None], dims)[0])
            value = max_mes_fidelity(rho, samples=500, seed=seed)
            assert fixed <= value <= np.sum(schmidt_decompose(psi).coefficients) ** 2 / r + 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (4, 3)])
    def test_no_samples_gives_the_canonical_overlap(self, rng, dims):
        rho = random_mixed(dims, 3, rng)
        fixed = float(concurrence._mes_overlaps(rho.matrix[None], dims)[0])
        value = max_mes_fidelity(rho, samples=0)
        assert value == (max(fixed, fef_two_qubit(rho)) if dims == (2, 2) else fixed)

    def test_same_seed_same_value(self, rng):
        rho = random_mixed((3, 4), 5, rng)
        for call in (max_mes_fidelity, theorem1_bound):
            assert call(rho, samples=300, seed=4) == call(rho, samples=300, seed=4)

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (4, 3)])
    def test_blocks_equal_one_block(self, rng, dims):
        # the one-block formula: one QR and one contraction of the whole draw
        rho = random_mixed(dims, 2, rng)
        n1, n2 = dims
        r, block = min(dims), concurrence._MES_BLOCK
        fixed = float(concurrence._mes_overlaps(rho.matrix[None], dims)[0])
        best_at = []
        for seed, samples in enumerate((block - 1, block, block + 1, 2 * block + 3) * 2):
            z = np.random.default_rng(seed).standard_normal((2, samples, max(dims), r))
            q, upper = np.linalg.qr(z[0] + 1j * z[1])
            d = np.diagonal(upper, axis1=-2, axis2=-1)
            w = q * (d / np.abs(d))[:, None, :]
            mes = (w if n1 >= n2 else w.swapaxes(1, 2)).reshape(samples, n1 * n2) / np.sqrt(r)
            sampled = np.einsum("sa,sa->s", mes.conj() @ rho.matrix, mes).real
            assert max_mes_fidelity(rho, samples=samples, seed=seed) == sampled.max(initial=fixed)
            best_at.append(int(sampled.argmax()))
        assert max(best_at) >= block  # a later block holds a maximum

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
    def test_bad_sample_counts_raise(self, rng, dims):
        rho = random_mixed(dims, 2, rng)
        for call in (max_mes_fidelity, theorem1_bound):
            with pytest.raises(ValueError, match="samples must be at least 0, got -3"):
                call(rho, samples=-3)
            for samples in (True, 2.0, "5"):
                with pytest.raises(TypeError, match="samples must be an integer"):
                    call(rho, samples=samples)

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
        factors = upper_bound_factor(spin_flip_concurrence(np.array([r.matrix for r in images])),
                                     np.array([p.matrix for p in probes]))
        for factor, image, probe in zip(factors, images, probes):
            assert abs(factor - upper_bound_one_sided(1.0, image, probe.matrix).raw) < 1e-15

    @pytest.mark.parametrize("probes", [np.eye(2) / np.sqrt(2), np.eye(3)[None] / np.sqrt(3)])
    def test_unstacked_factor_input_raises_dimension_mismatch(self, probes):
        with pytest.raises(DimensionMismatch, match="got shape"):
            upper_bound_factor(np.ones(1), probes)

    def test_stacked_factor_singular_entry(self):
        probes = np.array([np.eye(2) / np.sqrt(2), np.diag([1.0, 0.0]), np.eye(2) / np.sqrt(2)])
        with pytest.raises(SingularProbe, match="probe 1"):
            upper_bound_factor(np.ones(3), probes)

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


class TestOneKonradFactor:
    """evaluate's upper bound and the upper_bound_* wrappers take their factors
    C(rho_P)/(2|det P|) from the one upper_bound_factor, so they agree bit for bit."""

    @staticmethod
    def channel(rng, count, truncate):
        full = random_tp_kraus(2, count, rng)
        return KrausChannel(2, full.operators[:1]) if truncate else full  # truncated: non-TP

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("random", [False, True])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_one_sided_wrapper_equals_evaluate(self, rng, side, random, truncate):
        for _ in range(4):
            rho = random_mixed((2, 2), int(rng.integers(1, 3)), rng)  # mostly entangled
            channel = self.channel(rng, 3, truncate)
            probe = random_probe(2, rng) if random else canonical_probe(2)
            result = evaluate(rho.matrix[None], (2, 2), [(channel.superoperator, side)],
                              probe.matrix)
            ((image, image_side),) = result.images
            assert image_side == side and image.shape == (1, 4, 4)  # a stack of one
            image = DensityMatrix((2, 2), image[0])
            bound = upper_bound_one_sided(wootters_concurrence(rho), image, probe.matrix)
            assert result.upper[0] == bound.raw

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("random", [False, True])
    def test_two_sided_wrapper_equals_evaluate(self, rng, random, truncate):
        for _ in range(4):
            rho = random_mixed((2, 2), int(rng.integers(1, 3)), rng)  # mostly entangled
            channel_1, channel_2 = self.channel(rng, 2, truncate), self.channel(rng, 3, False)
            probe = random_probe(2, rng) if random else canonical_probe(2)
            result = evaluate(rho.matrix[None], (2, 2), [(channel_1.superoperator, "first"),
                                                         (channel_2.superoperator, "second")],
                              probe.matrix)
            assert [side for _, side in result.images] == ["first", "second"]
            images = [DensityMatrix((2, 2), image[0]) for image, _ in result.images]
            bound = upper_bound_two_sided(wootters_concurrence(rho), *images, probe.matrix)
            assert result.upper[0] == bound.raw


class TestBoundValue:
    def test_clamping(self):
        bound = fidelity_lower_bound(DensityMatrix((2, 2), np.eye(4) / 4))
        assert bound.raw < 0.0
        assert bound.clamped == 0.0


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


    def test_cholesky_route_equals_eigh_route(self, rng, eigh_entries):
        mats = np.array([random_mixed((2, 2), 4, rng).matrix for _ in range(200)])
        lam = spin_flip_spectrum(mats)
        assert eigh_entries == [0]  # every entry is certified full rank
        assert np.max(np.abs(lam - eigh_route_spectrum(mats))) <= 1e-14

    def test_pure_and_rank_two_entries_take_eigh(self, eigh_entries):
        pure = [random_pure_state((2, 2), seed) for seed in range(10)]
        mats = np.array([psi.density().matrix for psi in pure]
                        + [random_mixed((2, 2), 2, seed).matrix for seed in range(10)])
        lam = spin_flip_spectrum(mats)
        assert eigh_entries == [20]
        assert np.array_equal(lam, eigh_route_spectrum(mats))
        assert np.all(lam[:10, 1:] == 0.0)
        for psi, value in zip(pure, lam[:10, 0]):
            assert abs(value - concurrence_two_qubit_pure(psi)) <= 1e-14

    def test_mixed_stack_equals_each_entry_alone(self, rng):
        u = haar_unitary(4, rng)
        smallest = (u * np.array([0.4, 0.3, 0.3 - 1e-13, 1e-13])) @ u.conj().T
        mats = np.array([random_mixed((2, 2), rank, rng).matrix for rank in (4, 1, 4, 2, 3, 4)]
                        + [smallest])
        lam = spin_flip_spectrum(mats)
        for j, mat in enumerate(mats):
            assert np.array_equal(lam[j], spin_flip_spectrum(mat[None])[0]), j
        assert np.array_equal(lam[-1], eigh_route_spectrum(smallest[None])[0])
        assert lam[-1, -1] > 0.0  # the eigenvalue 1e-13 is kept, not zeroed

    def test_two_negative_eigenvalues_fall_back_to_eigh(self, rng, eigh_entries):
        u = haar_unitary(4, rng)
        indefinite = (u * np.array([0.7, 0.5, -0.1, -0.1])) @ u.conj().T
        assert np.linalg.det(indefinite).real > 1e-10  # passes the full-rank certificate
        mats = np.array([random_mixed((2, 2), 4, rng).matrix, indefinite])
        lam = spin_flip_spectrum(mats)
        assert eigh_entries == [1]  # only the entry whose own factorization fails
        assert np.array_equal(lam[1], eigh_route_spectrum(mats[1:])[0])
        assert np.array_equal(lam[0], spin_flip_spectrum(mats[:1])[0])  # its Cholesky route

    def test_empty_stack(self):
        assert spin_flip_spectrum(np.empty((0, 4, 4), dtype=complex)).shape == (0, 4)

    @pytest.mark.parametrize("call", [spin_flip_spectrum, spin_flip_concurrence])
    @pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2), (2, 1, 4, 4), (16,)])
    def test_not_a_two_qubit_stack_raises(self, call, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
            call(np.zeros(shape))


def partial_transposes(mats):
    return mats.reshape(-1, 2, 2, 2, 2).swapaxes(2, 4).reshape(-1, 4, 4)


def werner(bell, p):
    """p |bell><bell| + (1 - p) I/4 for a two-qubit amplitude vector ``bell``."""
    return p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4


BELL_STATES = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
TAU = 2e-10  # the certificate's shift at unit trace


def pseudo_pure(low, theta=0.3):
    """(1 - q)|psi><psi| + q I/4, psi = cos t |00> + sin t |11>, with q chosen so that
    lambda_min(rho^{T_B}) = q/4 - (1 - q) cos t sin t equals ``low``."""
    cs = np.cos(theta) * np.sin(theta)
    q = (low + cs) / (0.25 + cs)
    return werner(np.array([np.cos(theta), 0, 0, np.sin(theta)]), 1 - q)


class TestSeparabilityCertificate:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_certified_exactly_where_the_partial_transpose_clears_tau(self, seed, rank):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(size=16)[:, None, None]
        states = np.array([random_mixed((2, 2), rank, rng).matrix for _ in range(16)])
        mats = (1 - weights) * states + weights * np.eye(4) / 4
        certified = concurrence._ppt_certified(mats)
        low = np.linalg.eigvalsh(partial_transposes(mats))[:, 0]
        assert np.all(low[certified] > 0)
        clear = np.abs(low - TAU) > 1e-13
        assert np.array_equal(certified[clear], low[clear] > TAU)

    @pytest.mark.parametrize("p", [1 / 3 + 1e-9, 0.5, 1.0])
    def test_no_entangled_state_is_certified(self, p):
        mats = np.array([werner(bell, p) for bell in BELL_STATES])
        assert not np.any(concurrence._ppt_certified(mats))
        np.testing.assert_allclose(spin_flip_concurrence(mats), (3 * p - 1) / 2, atol=1e-12)

    def test_werner_states_below_one_third_are_certified(self):
        mats = np.array([werner(bell, 1 / 3 - 1e-6) for bell in BELL_STATES])
        assert np.all(concurrence._ppt_certified(mats))
        assert np.array_equal(spin_flip_concurrence(mats), np.zeros(4))

    @pytest.mark.parametrize("low, scale, certified", [
        (0.5 * TAU, 1.0, False),
        (0.9 * TAU, 1.0, False),
        (1.1 * TAU, 1.0, True),
        (2.0 * TAU, 1.0, True),
        (0.5 * TAU, 3.0, False),  # tr = 3: lambda_min = 1.5 TAU, below tau = 3 TAU
        (1.2 * TAU, 3.0, True),
    ])
    def test_pseudo_pure_states_either_side_of_tau(self, low, scale, certified):
        mat = pseudo_pure(low)
        assert abs(np.linalg.eigvalsh(partial_transposes(mat[None]))[0, 0] - low) < 1e-15
        assert concurrence._ppt_certified(scale * mat[None])[0] == certified

    def test_mixed_stack_equals_the_spectrum_bit_for_bit(self, rng):
        product = np.kron(np.diag([1.0, 0.0]), np.diag([0.3, 0.7]))  # rank 2, separable
        mats = np.array([
            werner(BELL_STATES[2], 0.2),                  # certified
            werner(BELL_STATES[0], 0.9),                  # entangled
            BELL.density().matrix,                        # pure, entangled
            np.diag([1.0, 0.0, 0.0, 0.0]),                # pure product: lambda_min = 0
            product,
            pseudo_pure(0.5 * TAU),                       # separable, inside tau
            pseudo_pure(3.0 * TAU),                       # certified
            2.5 * werner(BELL_STATES[1], 0.1),            # tr = 2.5, certified
            2.5 * werner(BELL_STATES[3], 0.6),            # tr = 2.5, entangled
        ] + [random_mixed((2, 2), rank, rng).matrix for rank in (1, 2, 3, 4, 4)])
        certified = concurrence._ppt_certified(mats)
        assert list(certified[:9]) == [True, False, False, False, False, False, True, True,
                                       False]
        lam = spin_flip_spectrum(mats)
        expected = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
        assert np.array_equal(spin_flip_concurrence(mats), expected)
        assert np.all(expected[certified] == 0.0)

    def test_empty_stack(self):
        empty = np.empty((0, 4, 4), dtype=complex)
        assert concurrence._ppt_certified(empty).shape == (0,)
        assert spin_flip_concurrence(empty).shape == (0,)

    def test_no_warning_escapes_a_zero_or_negative_pivot(self):
        mats = np.array([
            np.diag([TAU, 0.25, 0.25, 0.25]),  # tr < 1: the first pivot is exactly 0
            np.diag([1.0, 0.0, 0.0, 0.0]),     # the second pivot is -tau
            np.zeros((4, 4)),                  # every pivot fails
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.any(concurrence._ppt_certified(mats))
            spin_flip_concurrence(mats)


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
            for field in ("states", "exact", "upper", "p", "p_prime", "p_t"):
                value = getattr(single, field)
                if value is not None:
                    assert np.array_equal(value[0], getattr(stack, field)[j]), (field, j)

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
        assert len(result.states) == len(result.exact) == len(result.p) == k
        assert result.upper is None and result.p_t is None

    def test_fault_cuts_per_entry_probe_images(self):
        rng = np.random.default_rng(0)
        mats = np.array([random_mixed((2, 2), 3, rng).matrix for _ in range(5)])
        probes = random_probes(2, 5, rng)
        mats[2] = np.diag([0.0, 0.0, 1.0, 0.0])  # |10><10|
        stage = np.array([np.eye(4, dtype=complex)] * 5)
        stage[2] = KrausChannel(2, (np.diag([1.0, 0.0]),)).superoperator  # annihilates it
        result = evaluate(mats, (2, 2), [(stage, "first")], probes)
        assert result.fault[0] == 2 and type(result.fault[1]) is ZeroProbability
        (image, side), = result.images
        assert side == "first" and image.shape == (2, 4, 4)
        route = probe_route(mats[:2], (2, 2), result.images, probes[:2])
        np.testing.assert_allclose(route, fidelity_lower_bounds(result.states, (2, 2)),
                                   rtol=0, atol=1e-10)

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
        assert [side for _, side in result.images] == list(sides)
        shared = not (per_entry_channels or per_entry_probes)
        assert len(result.images[0][0]) == (1 if shared else k)  # a stack of one where shared
        for j in range(k):
            probe = probe_density(probes[j] if per_entry_probes else probes[0])
            apps = [apply_one_sided(channels[j], probe, side)
                    for channels, side in zip(stage_channels, sides)]
            for (image, _), app in zip(result.images, apps):
                assert np.array_equal(image[j % len(image)], app.output.matrix)
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

    @pytest.mark.parametrize("k, g, per_entry", [(1, 3, False), (4, 2, False), (4, 2, True)])
    def test_probe_stack_of_another_length_raises(self, rng, monkeypatch, k, g, per_entry):
        # one probe or one per state; any other count raises before a probe image is built
        monkeypatch.setattr(concurrence, "probe_images", lambda *args: pytest.fail("built"))
        mats = np.array([random_mixed((2, 2), 3, rng).matrix for _ in range(k)])
        channel = random_tp_kraus(2, 2, rng).superoperator
        stage = np.array([channel] * k) if per_entry else channel
        with pytest.raises(DimensionMismatch, match=f"^{g} probes for {k} states$"):
            evaluate(mats, (2, 2), [(stage, "first")], random_probes(2, g, rng))

    def test_one_spin_flip_call_with_a_probe(self, rng, monkeypatch):
        calls, original = [], concurrence.spin_flip_spectrum
        monkeypatch.setattr(concurrence, "spin_flip_spectrum",
                            lambda mats: calls.append(len(mats)) or original(mats))
        mats = np.array([random_mixed((2, 2), 3, rng).matrix for _ in range(5)])
        stages = [(random_tp_kraus(2, 2, rng).superoperator, "first"),
                  (random_tp_kraus(2, 3, rng).superoperator, "second")]
        result = evaluate(mats, (2, 2), stages, random_probe(2, rng).matrix)
        # the images, the inputs and one shared probe image per side, less the certified
        # separable entries, which skip the spectrum
        images = [image for image, _ in result.images]
        stack = np.concatenate([result.states, mats] + images)
        assert len(stack) == 2 * 5 + 2
        uncertified = int(np.sum(~concurrence._ppt_certified(stack)))
        assert 0 < uncertified < len(stack)
        assert calls == [uncertified]
        assert len(result.exact) == len(result.upper) == 5

    def test_one_density_check_per_stack_family(self, rng, density_checks):
        mats = np.array([random_mixed((2, 2), 3, rng).matrix for _ in range(5)])
        stages = [(random_tp_kraus(2, 2, rng).superoperator, "first"),
                  (np.array([random_tp_kraus(2, 3, rng).superoperator] * 5), "second")]
        probe = random_probe(2, rng).matrix
        density_checks.clear()
        evaluate(mats, (2, 2), stages)
        assert density_checks == [3 * 5]
        density_checks.clear()
        evaluate(mats, (2, 2), stages, probe)
        # |P><P|, its shared first-stage image and its five second-stage images
        assert density_checks == [3 * 5, 1 + 1 + 5]

    def test_empty_probe_stack(self):
        result = evaluate(np.empty((0, 4, 4), dtype=complex), (2, 2),
                          [(np.empty((0, 4, 4)), "first"), (np.eye(4), "second")],
                          np.empty((0, 2, 2)))
        assert result.fault is None
        assert all(len(v) == 0 for v in (result.upper, result.p_prime, result.p_t))


# Maps injected at chosen entries: one that annihilates every state, and the transpose
# S[(a,c),(i,j)] = delta(a,j) delta(c,i), whose image of an entangled state has a negative
# eigenvalue (-1/2 for a Bell state); both keep the image Hermitian.
ZERO_MAP = np.zeros((4, 4))
TRANSPOSE_MAP = np.einsum("aj,ci->acij", np.eye(2), np.eye(2)).reshape(4, 4)


def faulty_inputs(injections, per_entry_probes=True, k=6, seed=0):
    """(mats, stages, probes) of k separable full-rank two-qubit states through amplitude
    damping on the first side, then on the second, with each (kind, entry) injection:
    a non-Hermitian or negative input, a probe of trace 1.21, or the zero map or the
    transpose at one entry of stage 1 or 2 (entry None: the whole stage, one shared map).
    The transpose's entry gets a Bell state, or its probe image, if any, fails."""
    rng = np.random.default_rng(seed)
    mats = np.array([0.8 * np.eye(4) / 4 + 0.2 * random_mixed((2, 2), 4, rng).matrix
                     for _ in range(k)])
    stages = [np.array([amplitude_damping(0.2).superoperator] * k),
              amplitude_damping(0.3).superoperator]
    probes = (np.array([random_probe(2, rng).matrix for _ in range(k)]) if per_entry_probes
              else random_probe(2, rng).matrix.copy())
    for kind, j in injections:
        if kind == "input_not_hermitian":
            mats[j, 0, 1] += 1e-3
        elif kind == "input_negative":
            mats[j] = np.diag([0.5, 0.5, 0.5, -0.5])
        elif kind == "probe_trace":
            probes[j if per_entry_probes else ...] *= 1.1
        else:
            fail, stage = kind.split("_")
            operator = ZERO_MAP if fail == "zero" else TRANSPOSE_MAP
            s = int(stage) - 1
            if j is None:
                stages[s] = operator
                continue
            if stages[s].ndim == 2:
                stages[s] = np.array([stages[s]] * k)
            stages[s][j] = operator
            if fail == "negative":
                mats[j] = BELL.density().matrix
    return mats, [(stages[0], "first"), (stages[1], "second")], probes


def fault_summary(fault):
    return None if fault is None else (fault[0], type(fault[1]), str(fault[1]))


class TestFaultOrder:
    """evaluate's one density check per stack family against the check-per-stage loop of
    conftest.reference_evaluate: the same fault, arrays and raised probe fault."""

    # injections, then the expected fault's entry and type
    CASES = {
        "none": ([], None),
        "input_not_hermitian": ([("input_not_hermitian", 3)], (3, ValueError)),
        "stage_1_zero": ([("zero_1", 2)], (2, ZeroProbability)),
        "stage_2_zero": ([("zero_2", 4)], (4, ZeroProbability)),
        "stage_1_negative": ([("negative_1", 1)], (1, ValueError)),
        "stage_2_negative": ([("negative_2", 5)], (5, ValueError)),
        # ties: an entry's earlier check wins over a later stage's zero probability
        "tie_input_before_stage_1_zero": ([("zero_1", 2), ("input_not_hermitian", 2)],
                                          (2, ValueError)),
        "tie_negative_input_before_stage_1_zero": ([("zero_1", 1), ("input_negative", 1)],
                                                   (1, ValueError)),
        "tie_input_before_stage_2_zero": ([("zero_2", 2), ("input_not_hermitian", 2)],
                                          (2, ValueError)),
        "tie_stage_1_image_before_stage_2_zero": ([("negative_1", 3), ("zero_2", 3)],
                                                  (3, ValueError)),
        # a later stack failing at an earlier entry
        "stage_2_zero_before_input": ([("zero_2", 1), ("input_not_hermitian", 4)],
                                      (1, ZeroProbability)),
        "stage_2_image_before_stage_1_zero": ([("negative_2", 0), ("zero_1", 3)],
                                              (0, ValueError)),
        "stage_2_zero_before_stage_1_zero": ([("zero_1", 4), ("zero_2", 2)],
                                             (2, ZeroProbability)),
    }

    @staticmethod
    def assert_same(result, expected):
        assert fault_summary(result.fault) == fault_summary(expected.fault)
        for field in ("states", "exact", "upper", "p", "p_prime", "p_t"):
            value, reference = getattr(result, field), getattr(expected, field)
            assert (value is None) == (reference is None), field
            assert value is None or np.array_equal(value, reference), field
        assert len(result.images) == len(expected.images)
        for (image, side), (reference, reference_side) in zip(result.images, expected.images):
            assert side == reference_side and np.array_equal(image, reference)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fault_equals_reference(self, case):
        injections, expected = self.CASES[case]
        mats, stages, _ = faulty_inputs(injections)
        result = evaluate(mats, (2, 2), stages)
        self.assert_same(result, reference_evaluate(mats, (2, 2), stages))
        if expected is None:
            assert result.fault is None and len(result.states) == len(mats)
        else:
            assert result.fault[0] == expected[0] and type(result.fault[1]) is expected[1]
            assert len(result.states) == len(result.p) == expected[0]

    @pytest.mark.parametrize("per_entry_probes", [False, True])
    @pytest.mark.parametrize("case", ["none", "input_not_hermitian"])
    def test_input_fault_with_a_probe_equals_reference(self, case, per_entry_probes):
        mats, stages, probes = faulty_inputs(self.CASES[case][0], per_entry_probes)
        self.assert_same(evaluate(mats, (2, 2), stages, probes),
                         reference_evaluate(mats, (2, 2), stages, probes))

    # injections, per-entry probes, then the raised type and a part of its message; a probe
    # fault raises in the order density, stage-1 trace, stage-1 image, stage-2 trace, ...
    PROBE_CASES = {
        "density_before_stage_1_zero": ([("probe_trace", 3), ("zero_1", 0)], True,
                                        ValueError, "trace = "),
        "stage_1_zero_before_stage_1_image": ([("zero_1", 4), ("negative_1", 1)], True,
                                              ZeroProbability, "trace"),
        "stage_1_image_before_stage_2_zero": ([("negative_1", 4), ("zero_2", 0)], True,
                                              ValueError, "eigenvalue"),
        "stage_2_zero_before_stage_2_image": ([("zero_2", 2), ("negative_2", 0)], True,
                                              ZeroProbability, "trace"),
        "stage_2_image": ([("negative_2", 1)], True, ValueError, "eigenvalue"),
        "shared_probe_stage_1_image_before_stage_2_zero": (
            [("negative_1", 2), ("zero_2", 1)], False, ValueError, "eigenvalue"),
        "shared_probe_density_before_stage_1_zero": ([("probe_trace", None), ("zero_1", 0)],
                                                     False, ValueError, "trace = "),
        "shared_probe_and_channels": ([("negative_1", None), ("zero_2", None)], False,
                                      ValueError, "eigenvalue"),
    }

    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_probe_fault_raises_as_reference(self, case):
        injections, per_entry_probes, kind, message = self.PROBE_CASES[case]
        mats, stages, probes = faulty_inputs(injections, per_entry_probes)
        with pytest.raises(kind, match=message) as expected:
            reference_evaluate(mats, (2, 2), stages, probes)
        with pytest.raises(kind) as raised:
            evaluate(mats, (2, 2), stages, probes)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
