"""Quantified property suites behind the ``check`` command.

Each suite draws seeded random inputs, evaluates one of the library's
contracts at its stated tolerance, and reports the failure count plus
the worst residual seen.  Every trial draws its inputs from its own
generator, seeded with (seed, trial index), so any failure is
reproducible from the suite name, seed and trial number alone.  Each
generator equals ``np.random.default_rng([seed, trial])``; a suite builds
all of its generators from one :func:`_generators` call, which runs
numpy's SeedSequence hash over every trial index at once.  The draws are
then built, validated and evaluated as one stack per suite and
dimension: states through :func:`entbound.qlinalg.pure_stack`,
:func:`~entbound.qlinalg.density_stack` and ``density_fault``, channels
through :func:`entbound.channels.tp_kraus` and
:func:`~entbound.channels.kraus_superoperators`, each entry equal to its
object built alone.  Only a failing trial's state and channel are built
as objects, for its reproduction record.  Every suite ends in one
:func:`_verdict`, the one pass rule: a check fails unless it is within its
tolerance, so a NaN fails, and a suite with no checks fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import concurrence as conc
from . import probe as pr
from . import qlinalg as ql
from .serialize import channel_to_json, state_to_json


@dataclass
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: int
    worst_residual: float
    repro: dict = field(default=None)
    wall_s: float = 0.0


def _verdict(name, checks) -> SuiteResult:
    """The one pass rule of every suite.

    ``checks`` lists (ok, residuals, repro) groups in report order.  An entry
    of the boolean array ``ok`` fails unless it is True, so a NaN residual
    fails its tolerance comparison; the suite passes only when it counted at
    least one entry and none failed.  The worst residual is the largest of
    all ``residuals`` (0.0 when there are none, NaN when any is NaN).
    ``repro(i)`` of the first group with a failure, i its first failing
    entry, is the reproduction record.
    """
    count = failures = 0
    repro = None
    for ok, _, make_repro in checks:
        failed = np.flatnonzero(np.logical_not(ok))
        count, failures = count + np.size(ok), failures + len(failed)
        if len(failed) and repro is None:
            repro = make_repro(int(failed[0]))
    worst = float(np.max([np.max(res, initial=0.0) for _, res, _ in checks], initial=0.0))
    return SuiteResult(name, failures == 0 < count, count, failures, worst, repro)


# numpy's SeedSequence constants (pool of four uint32 words, 16-bit xorshift)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, count) -> np.ndarray:
    """(count + 1, 1) uint32 column of the hash constant and its ``count`` successors."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values, constants):
    """numpy's hashmix of the rows of ``values`` with successive hash constants: xor the
    constant, multiply by its successor, xorshift.  Arrays only: a uint32 scalar product
    warns on overflow, an array product wraps silently."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> 16)


def _mix(x, y):
    """numpy's mix of two pool words (rows of arrays)."""
    values = _MIX_L * x - _MIX_R * y
    return values ^ (values >> 16)


def _uint32_words(n) -> list:
    """Little-endian 32-bit words of a non-negative integer, as numpy's SeedSequence
    splits its entropy."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _PoolState:
    """A seed sequence whose one allowed output, 4 uint64 words, was hashed beforehand.

    :func:`_generators` registers it as a numpy ``ISeedSequence`` on first use, so that
    importing the package does not import ``numpy.random``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the 4 uint64 words of a PCG64 seed were hashed")
        return self.words


def _generators(seed, trials) -> list:
    """One generator per trial index, each equal to ``np.random.default_rng([seed,
    trial])``, from one hash of all the indices.

    numpy's SeedSequence hash of [seed, trial] runs on uint32 arrays, one column per
    trial: the entropy words zero-padded to the pool of four, the hashmix/mix rounds,
    then the output stage to the 4 uint64 words that seed PCG64.  The hash has a fixed
    cost of about ten generators, so a suite hashes all its indices at once.  Trial
    indices must lie in [0, 2^32).
    """
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    if np.any((trials < 0) | (trials > _MASK32)):
        raise ValueError("trial indices must lie in [0, 2^32)")
    words = _uint32_words(int(seed))
    entropy = np.zeros((max(len(words) + 1, 4), len(trials)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = trials
    extra = len(entropy) - 4  # words beyond the pool, mixed into every pool word
    constants = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra)
    pool = _hashmix(entropy[:4], constants[:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants[4 + 3 * src:8 + 3 * src]))
    for j in range(extra):
        pool = _mix(pool, _hashmix(entropy[4 + j], constants[16 + 4 * j:21 + 4 * j]))
    state = _hashmix(np.concatenate([pool, pool]), _OUTPUT_CONSTANTS).T
    state = np.ascontiguousarray(state).astype("<u4").view("<u8").astype(np.uint64)
    np.random.bit_generator.ISeedSequence.register(_PoolState)
    return [np.random.Generator(np.random.PCG64(_PoolState(words))) for words in state]


def _pure_states(dims, rngs) -> np.ndarray:
    """(k, N1*N2) amplitudes of one :func:`entbound.qlinalg.random_pure_state` draw per
    generator."""
    d = dims[0] * dims[1]
    return ql.pure_stack(np.reshape([ql.gaussian(rng, d) for rng in rngs], (-1, d)))


def _density_factor(n, rng):
    """The draws of one :func:`entbound.qlinalg.random_density` call with a random rank."""
    return ql.gaussian(rng, (n * n, int(rng.integers(1, n * n + 1))))


def _channel_factors(n, rng):
    """The draws of one :func:`entbound.channels.random_tp_channel` call with 2 or 3
    operators."""
    return ch.kraus_factors(n, int(rng.integers(2, 4)), rng)


def _padded(sets, n):
    """(k, K, n, n) stack of a sequence of k sets of n x n operators, the shorter sets
    padded with zero operators."""
    count = max((len(s) for s in sets), default=1)
    padded = np.zeros((len(sets), count, n, n), dtype=complex)
    for j, operators in enumerate(sets):
        padded[j, :len(operators)] = operators
    return padded


def _channel_stack(n, factor_sets, truncated):
    """Superoperators (k, n^2, n^2) and Kraus sets of the trace-preserving channels built
    from ``factor_sets``; a set flagged in ``truncated`` keeps only its first operator
    (not trace preserving)."""
    ops = ch.tp_kraus(_padded(factor_sets, n))
    count = ops.shape[1]
    counts = np.where(truncated, 1, [len(f) for f in factor_sets])
    ops[np.arange(count) >= np.reshape(counts, (-1, 1))] = 0.0
    _, superoperators = ch.kraus_superoperators(ops)
    return superoperators, [m[:c] for m, c in zip(ops, counts)]


def _minor_sum_concurrence(ms) -> np.ndarray:
    """Coefficient-form concurrence of each matrix m of a (k, N1, N2) stack: root of the
    summed squared 2x2 minors m_ip m_jq - m_iq m_jp (those with i = j or p = q vanish)."""
    minors = np.einsum("kip,kjq->kijpq", ms, ms) - np.einsum("kiq,kjp->kijpq", ms, ms)
    return np.sqrt(np.sum(np.abs(minors) ** 2, axis=(1, 2, 3, 4)))


def two_sided_bound_mes(rho, image_1, image_2, pinv, p_t):
    """The paper's two-sided probe bound, an oracle independent of the probe route.

    Tr[|mes><mes| ($1 o $2) rho] / (p1' p2') comes from the double
    Bell-basis sum over the normalized probe images ``image_1``, ``image_2``
    and the probe inverse ``pinv`` (plain matrices, or stacks of them with
    one leading axis), with no decomposition of rho; p_t = p / (p1' p2') is
    supplied by the caller.  One Kronecker product of the (n^2, n, n) stack
    of basis matrices with an n x n matrix gives all n^2 Kronecker factors
    of a side at once; one einsum gives the n^4 traces.
    """
    n = pinv.shape[-1]
    cs = np.array(pr.mes_basis(n).coefficient_matrices())
    rows = cs.reshape(n * n, n * n)  # row m holds |Phi_m>
    weights = rows.conj() @ image_2 @ rows.T  # <Phi_m| A2 |Phi_n>
    srs = ql.swap_subsystems(rho, n)[..., None, :, :]
    pinv = pinv[..., None, :, :]
    lefts = (image_1.conj()[..., None, :, :]
             @ ql.kron_stack(cs.swapaxes(1, 2) @ pinv.swapaxes(-1, -2), pinv) @ srs)
    rights = ql.kron_stack(pinv.conj() @ cs.conj(), pinv.conj().swapaxes(-1, -2))
    total = np.sum(weights * np.einsum("...mxy,...kyx->...mk", lefts, rights), axis=(-2, -1))
    return conc._prefactor(n) * (np.real(total) / n / p_t - 1.0 / n)


def suite_mes_basis(seed=0, trials=None) -> SuiteResult:
    """Orthonormality and completeness of the generalized Bell basis, N = 2..4."""
    res = []
    for n in (2, 3, 4):
        basis = pr.mes_basis(n)
        vecs = np.column_stack([s.amplitudes for s in basis.states])
        # the Schmidt coefficients of every basis state: the SVD job of schmidt_decompose
        _, schmidt, _ = np.linalg.svd(np.array(basis.coefficient_matrices()),
                                      full_matrices=False)
        res.append(np.max([np.max(np.abs(vecs.conj().T @ vecs - np.eye(n * n))),
                           np.max(np.abs(vecs @ vecs.conj().T - np.eye(n * n))),
                           np.max(np.abs(schmidt - 1 / np.sqrt(n)))]))
    res = np.array(res)
    return _verdict("mes-basis", [(res < 1e-12, res, lambda i: {
        "suite": "mes-basis", "n": i + 2, "residual": float(res[i])})])


def _mes_saturation(seed, n, rngs) -> list:
    """The n x n checks of :func:`suite_theorem1`: the bound equals the concurrence of
    the canonical MES, and lies strictly below it on one pure state per generator of
    ``rngs`` (trials 10_000 n + t)."""
    amps = np.concatenate([ql.canonical_mes((n, n)).amplitudes[None],
                           _pure_states((n, n), rngs)])
    bounds = conc.fidelity_lower_bounds(ql.pure_densities(amps), (n, n))
    values = conc.pure_concurrences(amps.reshape(-1, n, n))
    res = abs(bounds[0] - values[0])
    margins = values[1:] - bounds[1:]  # bound must be strictly below away from MES
    return [(res <= 1e-12, res, lambda _: {"suite": "theorem1", "mes_dim": n,
                                           "residual": float(res)}),
            (margins > 1e-10, (), lambda t: {"suite": "theorem1", "seed": seed, "dim": n,
                                             "trial": t, "margin": float(margins[t])})]


def suite_theorem1(seed=0, trials=1000) -> SuiteResult:
    """Saturation of the fidelity bounds: exact for two-qubit pure states,
    exact for maximally entangled states in higher dimension, strict otherwise."""
    if trials < 1:  # the fixed MES checks alone evaluate no drawn trial
        return _verdict("theorem1", [])
    samples = max(1, trials // 50)  # pure states per higher dimension
    rngs = _generators(seed, np.concatenate(
        [np.arange(trials)] + [10_000 * n + np.arange(samples) for n in (3, 4)]))
    amps = _pure_states((2, 2), rngs[:trials])
    fef = conc.fully_entangled_fractions(ql.pure_densities(amps))
    res = np.abs(conc.fidelity_bound(fef, 2) - conc.pure_concurrences(amps.reshape(-1, 2, 2)))
    return _verdict("theorem1", [(res <= 1e-9, res, lambda t: {
        "suite": "theorem1", "seed": seed, "trial": t,
        "state": state_to_json(ql.PureState((2, 2), amps[t])), "residual": float(res[t])})]
        + _mes_saturation(seed, 3, rngs[trials:trials + samples])
        + _mes_saturation(seed, 4, rngs[trials + samples:]))


def _probe_invariance_pairs(seed, trials, n, rngs) -> tuple:
    """The (ok, residuals, repro) check of :func:`suite_probe_invariance` on one
    (state, channel) pair of dimension n per generator of ``rngs``."""
    n_pairs, rank_factors, factors, factors_2 = len(rngs), [], [], []
    for t, rng in enumerate(rngs):
        rank_factors.append(_density_factor(n, rng))
        factors.append(_channel_factors(n, rng))
        if t % 2 == 1:  # two-sided pair
            factors_2.append(_channel_factors(n, rng))
    matrices, inverses, conditions = pr.random_probe_stack(n, trials, rngs)  # the last draws
    one, two = slice(0, None, 2), slice(1, None, 2)
    mats = ql.density_stack((n, n), rank_factors)[:, None]  # (pairs, 1, d, d)
    # every fourth pair's channel is a non-trace-preserving truncation
    superoperators, kraus = _channel_stack(n, factors, np.arange(n_pairs) % 4 == 0)
    superoperators_2, _ = _channel_stack(n, factors_2, False)
    evolved, p = ch.apply_checked(superoperators, mats, "first")
    evolved[two], p_2 = ch.apply_checked(superoperators_2, evolved[two], "second")
    p[two] *= p_2
    direct = conc.fidelity_lower_bounds(evolved[:, 0], (n, n))
    densities = ql.pure_densities(matrices.reshape(n_pairs, trials, n * n))
    images, p_1 = ch.apply_checked(superoperators, densities, "first")
    images_2, p_2 = ch.apply_checked(superoperators_2, densities[two], "second")
    values = np.empty((n_pairs, trials))
    for sel, image_2 in ((one, None), (two, images_2)):
        stages = pr.probe_channels(images[sel], image_2, inverses[sel], conditions[sel])
        states = np.broadcast_to(mats[sel], images[sel].shape).reshape(-1, n * n, n * n)
        stages = (None if s is None else s.reshape(states.shape) for s in stages)  # n^2 x n^2
        bounds, _, fault = pr.probe_route(states, (n, n), *stages)
        ql.raise_fault(fault)
        values[sel] = bounds.reshape(-1, trials)
    mes_gap = np.zeros(n_pairs)  # the paper's double sum, once per pair on its first probe
    p_t = p[two, 0] / (p_1[two, 0] * p_2[:, 0])
    mes_gap[two] = np.abs(two_sided_bound_mes(mats[two, 0], images[two, 0], images_2[:, 0],
                                              inverses[two, 0], p_t) - values[two, 0])
    spread, oracle_gap = np.ptp(values, axis=1), np.abs(values - direct[:, None]).max(axis=1)
    res = np.maximum(np.maximum(spread, oracle_gap), mes_gap)
    return res <= 1e-8, res, lambda t: {
        "suite": "probe-invariance", "seed": seed, "dim": n, "pair": t,
        "spread": float(spread[t]), "oracle_gap": float(oracle_gap[t]),
        "mes_gap": float(mes_gap[t]),
        "state": state_to_json(ql.DensityMatrix((n, n), mats[t, 0])),
        "channel": channel_to_json(ch.KrausChannel(n, kraus[t]))}


def suite_probe_invariance(seed=0, trials=100) -> SuiteResult:
    """Probe independence of the lower bound, and its agreement with the
    directly evolved state (one- and two-sided, non-TP truncations included).

    Every (state, channel) pair of one dimension is drawn first; both
    routes then run as stacks over all pairs, ``trials`` probes per pair.
    """
    if trials < 1:  # no probe, so no evaluated pair
        return _verdict("probe-invariance", [])
    rngs = _generators(seed, [1000 * n + t for n in (2, 3) for t in range(20)])
    return _verdict("probe-invariance", [_probe_invariance_pairs(seed, trials, n, rngs[i:i + 20])
                                         for n, i in ((2, 0), (3, 20))])


def suite_pt_equivalence(seed=0, trials=200) -> SuiteResult:
    """Agreement of the two p_t formulas, and p = p_t * p' against direct evolution.

    Even trials are 2x2, odd trials 3x3, and every third trial's channel is a
    non-trace-preserving truncation; each dimension is one stack.
    """
    draws = {2: [], 3: []}
    for t, rng in enumerate(_generators(seed, np.arange(trials))):
        n = 2 if t % 2 == 0 else 3
        draws[n].append((rng, _density_factor(n, rng), _channel_factors(n, rng)))
    res, inputs = np.empty(trials), []
    for n, first in ((2, 0), (3, 1)):
        if not draws[n]:
            continue
        rngs, rank_factors, factors = zip(*draws[n])
        trial = np.arange(first, trials, 2)
        truncated = trial % 3 == 0
        rhos = ql.density_stack((n, n), rank_factors)
        superoperators, kraus = _channel_stack(n, factors, truncated)
        # each trial's last draw is its one probe
        matrices, inverses, _ = (a[:, 0] for a in pr.random_probe_stack(n, 1, rngs))
        images, p_prime = ch.apply_checked(
            superoperators, ql.pure_densities(matrices.reshape(-1, n * n)), "first")
        pt_red = pr.pt_reduced_stack(rhos, images, inverses)
        residual = np.abs(pt_red - 1.0)  # trace preserving: p_t = 1
        _, p_direct = ch.apply_checked(superoperators[truncated], rhos[truncated], "first")
        residual[truncated] = np.abs(pt_red[truncated] * p_prime[truncated] - p_direct)
        res[first::2] = np.maximum(np.abs(pt_red - pr.pt_mes_sum_stack(rhos, images, inverses)),
                                   residual)
        inputs.append((rhos, kraus))

    def repro(t):
        n = 2 + t % 2
        rhos, kraus = inputs[t % 2]
        return {"suite": "pt-equivalence", "seed": seed, "trial": t, "residual": float(res[t]),
                "state": state_to_json(ql.DensityMatrix((n, n), rhos[t // 2])),
                "channel": channel_to_json(ch.KrausChannel(n, kraus[t // 2]))}

    return _verdict("pt-equivalence", [(res <= 1e-10, res, repro)])


def suite_sandwich(seed=0, trials=500) -> SuiteResult:
    """lower <= concurrence <= upper for random two-qubit states and TP channels.

    Pure inputs under a one-sided channel additionally saturate the upper
    bound, which is asserted as an equality.  Every trial is drawn first;
    the one-sided and the two-sided trials are then evaluated as one stack
    each.
    """
    if trials < 1:
        return _verdict("sandwich", [])
    rngs = _generators(seed, np.arange(trials))
    probes = np.empty((trials, 2, 2), dtype=complex)
    probes[:] = pr.canonical_probe(2).matrix
    probes[::3] = pr.random_probe_stack(2, 1, rngs[::3])[0][:, 0]  # each one's first draw
    factors, factors_2, pure_draws, rank_factors = [], [], [], []
    for t, rng in enumerate(rngs):
        factors.append(_channel_factors(2, rng))
        if t % 2 == 0:  # pure input, one-sided channel: the upper bound is an equality
            pure_draws.append(ql.gaussian(rng, 4))
        else:
            rank_factors.append(_density_factor(2, rng))
            factors_2.append(_channel_factors(2, rng))
    pure, mixed = slice(0, None, 2), slice(1, None, 2)
    mats = np.empty((trials, 4, 4), dtype=complex)
    mats[pure] = ql.pure_densities(ql.pure_stack(pure_draws))
    mats[mixed] = ql.density_stack((2, 2), rank_factors)
    superoperators, kraus = _channel_stack(2, factors, False)
    superoperators_2, _ = _channel_stack(2, factors_2, False)
    one_sided = conc.evaluate(mats[pure], (2, 2), [(superoperators[pure], "first")],
                              probes[pure])
    two_sided = conc.evaluate(mats[mixed], (2, 2), [(superoperators[mixed], "first"),
                                                    (superoperators_2, "second")], probes[mixed])
    res = np.empty(trials)
    for sel, result in ((pure, one_sided), (mixed, two_sided)):
        ql.raise_fault(result.fault)
        lower = conc.fidelity_lower_bounds(result.states, (2, 2))
        gap = result.exact - result.upper
        res[sel] = np.maximum(np.maximum(0.0, lower) - result.exact,
                              np.abs(gap) if sel is pure else gap)
    return _verdict("sandwich", [(res <= 1e-9, res, lambda t: {
        "suite": "sandwich", "seed": seed, "trial": t, "violation": float(res[t]),
        "state": state_to_json(ql.DensityMatrix((2, 2), mats[t])),
        "channel_1": channel_to_json(ch.KrausChannel(2, kraus[t]))})])


def suite_structural(seed=0, trials=1000) -> SuiteResult:
    """Dual concurrence formulas on random states; built-in channels trace preserving.

    Trial t draws a pure state of dims (2, 2), (2, 3), (3, 3) by t mod 3;
    each of the three is one stack."""
    if trials < 1:  # the built-in channel families alone evaluate no drawn trial
        return _verdict("structural", [])
    shapes = ((2, 2), (2, 3), (3, 3))
    rngs = _generators(seed, np.arange(trials))
    res, amps = np.empty(trials), []
    for first, dims in enumerate(shapes):
        amps.append(_pure_states(dims, rngs[first::3]))
        ms = amps[-1].reshape((-1,) + dims)
        res[first::3] = np.abs(conc.pure_concurrences(ms) - _minor_sum_concurrence(ms))
    values = np.linspace(0, 1, 11)
    families = (("amplitude_damping", ch.amplitude_damping_kraus),
                ("depolarizing", ch.depolarizing_kraus), ("phase_damping", ch.phase_damping_kraus))
    defects, _ = ch.kraus_superoperators(_padded(
        [kraus for _, make in families for kraus in make(values)], 2))
    return _verdict("structural", [
        (res <= 1e-10, res, lambda t: {
            "suite": "structural", "seed": seed, "trial": t,
            "state": state_to_json(ql.PureState(shapes[t % 3], amps[t % 3][t // 3])),
            "residual": float(res[t])}),
        (defects <= 1e-12, defects, lambda i: {
            "suite": "structural", "family": families[i // len(values)][0],
            "parameter": float(values[i % len(values)]), "defect": float(defects[i])})])


_SUITES = {
    "theorem1": suite_theorem1,
    "probe-invariance": suite_probe_invariance,
    "pt-equivalence": suite_pt_equivalence,
    "sandwich": suite_sandwich,
    "mes-basis": suite_mes_basis,
    "structural": suite_structural,
}
SUITE_NAMES = tuple(_SUITES)  # the order of ``check all``


def run_suites(name: str, seed: int = 0, trials: int = None) -> list:
    """Run one named suite, or every suite for name "all"; each result
    carries the suite's wall time in seconds."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    results = []
    for item in names:
        start = time.perf_counter()
        kwargs = {} if trials is None else {"trials": trials}
        result = _SUITES[item](seed=seed, **kwargs)
        result.wall_s = time.perf_counter() - start
        results.append(result)
    return results
