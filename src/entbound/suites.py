"""Quantified property suites behind the ``check`` command.

Each suite draws seeded random inputs, evaluates one of the library's
contracts at its stated tolerance, and reports the failure count plus
the worst residual seen.  Every trial draws its inputs from its own
generator, seeded with (seed, trial index), so any failure is
reproducible from the suite name, seed and trial number alone.  The
draws are then built, validated and evaluated as one stack per suite and
dimension: states through :func:`entbound.qlinalg.pure_stack`,
:func:`~entbound.qlinalg.density_stack` and ``density_fault``, channels
through :func:`entbound.channels.tp_kraus` and
:func:`~entbound.channels.kraus_superoperators`, each entry equal to its
object built alone.  Only a failing trial's state and channel are built
as objects, for its reproduction record.  A suite passes only when it
evaluated at least one trial and none failed.
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

SUITE_NAMES = ("theorem1", "probe-invariance", "pt-equivalence", "sandwich",
               "mes-basis", "structural")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: int
    worst_residual: float
    repro: dict = field(default=None)
    wall_s: float = 0.0


def _rng(seed, trial):
    return np.random.default_rng([int(seed), int(trial)])


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


def _channel_stack(n, factor_sets, truncated):
    """Superoperators (k, n^2, n^2) and Kraus sets of the trace-preserving channels built
    from ``factor_sets``; a set flagged in ``truncated`` keeps only its first operator
    (not trace preserving)."""
    count = max((len(f) for f in factor_sets), default=1)
    padded = np.zeros((len(factor_sets), count, n, n), dtype=complex)
    for j, factors in enumerate(factor_sets):
        padded[j, :len(factors)] = factors
    ops = ch.tp_kraus(padded)
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
    worst = 0.0
    failures = 0
    count = 0
    repro = None
    for n in (2, 3, 4):
        basis = pr.mes_basis(n)
        vecs = np.column_stack([s.amplitudes for s in basis.states])
        gram = vecs.conj().T @ vecs
        complete = vecs @ vecs.conj().T
        res = max(np.max(np.abs(gram - np.eye(n * n))),
                  np.max(np.abs(complete - np.eye(n * n))))
        schmidt_res = max(np.max(np.abs(ql.schmidt_decompose(s).coefficients - 1 / np.sqrt(n)))
                          for s in basis.states)
        res = max(res, schmidt_res)
        worst = max(worst, res)
        count += 1
        if res >= 1e-12:
            failures += 1
            repro = repro or {"suite": "mes-basis", "n": n, "residual": res}
    return SuiteResult("mes-basis", failures == 0 < count, count, failures, worst, repro)


def suite_theorem1(seed=0, trials=1000) -> SuiteResult:
    """Saturation of the fidelity bounds: exact for two-qubit pure states,
    exact for maximally entangled states in higher dimension, strict otherwise."""
    amps = _pure_states((2, 2), (_rng(seed, t) for t in range(trials)))
    fef = conc.fully_entangled_fractions(ql.pure_densities(amps))
    res = np.abs(conc.fidelity_bound(fef, 2) - conc.pure_concurrences(amps.reshape(-1, 2, 2)))
    worst = float(np.max(res, initial=0.0))
    failed = np.flatnonzero(res > 1e-9)
    failures, count = len(failed), trials
    repro = None if not failures else {
        "suite": "theorem1", "seed": seed, "trial": int(failed[0]),
        "state": state_to_json(ql.PureState((2, 2), amps[failed[0]])),
        "residual": float(res[failed[0]])}
    for n in (3, 4):
        samples = max(1, trials // 50)
        amps = np.concatenate([ql.canonical_mes((n, n)).amplitudes[None],
                               _pure_states((n, n), (_rng(seed, 10_000 * n + t)
                                                     for t in range(samples)))])
        bounds = conc.fidelity_lower_bounds(ql.pure_densities(amps), (n, n))
        values = conc.pure_concurrences(amps.reshape(-1, n, n))
        res = abs(bounds[0] - values[0])
        worst = max(worst, float(res))
        count += 1 + samples
        if res > 1e-12:
            failures += 1
            repro = repro or {"suite": "theorem1", "mes_dim": n, "residual": float(res)}
        margins = values[1:] - bounds[1:]
        failed = np.flatnonzero(margins <= 1e-10)  # bound must be strictly below away from MES
        failures += len(failed)
        if len(failed):
            repro = repro or {"suite": "theorem1", "seed": seed, "dim": n,
                              "trial": int(failed[0]), "margin": float(margins[failed[0]])}
    return SuiteResult("theorem1", failures == 0 < count, count, failures, worst, repro)


def _stage(superoperators, mats, side):
    """Validated normalized images of a (k, ..., d, d) stack of N x N states, the
    channel with superoperator ``superoperators[j]`` acting on ``side`` of every state
    in ``mats[j]``, and the stage probabilities, both shaped like the stack; the first
    fault raises."""
    d = mats.shape[-1]
    repeat = int(np.prod(mats.shape[1:-2]))
    n = round(d ** 0.5)
    outputs, p, fault = ch.apply_stacked(np.repeat(superoperators, repeat, axis=0),
                                         mats.reshape(-1, d, d), (n, n), side)
    ql.raise_fault(fault)
    ql.raise_fault(ql.density_fault(outputs))
    return outputs.reshape(mats.shape), p.reshape(mats.shape[:-2])


def _probe_densities(matrices):
    """Validated |P><P| for a (..., n, n) stack of probe matrices."""
    return ql.pure_densities(matrices.reshape(matrices.shape[:-2] + (-1,)))


def suite_probe_invariance(seed=0, trials=100) -> SuiteResult:
    """Probe independence of the lower bound, and its agreement with the
    directly evolved state (one- and two-sided, non-TP truncations included).

    Every (state, channel) pair of one dimension is drawn first; both
    routes then run as stacks over all pairs, ``trials`` probes per pair.
    """
    if trials < 1:  # no probe, so no evaluated pair
        return SuiteResult("probe-invariance", False, 0, 0, 0.0)
    worst, failures, pairs, repro = 0.0, 0, 0, None
    for n, n_pairs in ((2, 20), (3, 20)):
        rank_factors, factors, factors_2, probes = [], [], [], []
        for t in range(n_pairs):
            rng = _rng(seed, t + 1000 * n)
            rank_factors.append(_density_factor(n, rng))
            factors.append(_channel_factors(n, rng))
            if t % 2 == 1:  # two-sided pair
                factors_2.append(_channel_factors(n, rng))
            probes.append(pr.random_probes(n, trials, rng))
        one, two = slice(0, None, 2), slice(1, None, 2)
        mats = ql.density_stack((n, n), rank_factors)[:, None]  # (pairs, 1, d, d)
        # every fourth pair's channel is a non-trace-preserving truncation
        superoperators, kraus = _channel_stack(n, factors, np.arange(n_pairs) % 4 == 0)
        superoperators_2, _ = _channel_stack(n, factors_2, False)
        evolved, p = _stage(superoperators, mats, "first")
        evolved[two], p_2 = _stage(superoperators_2, evolved[two], "second")
        p[two] *= p_2
        direct = conc.fidelity_lower_bounds(evolved[:, 0], (n, n))
        matrices, inverses, conditions = (np.array(stack) for stack in zip(*probes))
        densities = _probe_densities(matrices)
        images, p_1 = _stage(superoperators, densities, "first")
        images_2, p_2 = _stage(superoperators_2, densities[two], "second")
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
        worst = max(worst, float(res.max()))
        pairs += n_pairs
        failed = np.flatnonzero(res > 1e-8)
        failures += len(failed)
        if len(failed) and repro is None:
            t = int(failed[0])
            repro = {"suite": "probe-invariance", "seed": seed, "dim": n, "pair": t,
                     "spread": float(spread[t]), "oracle_gap": float(oracle_gap[t]),
                     "mes_gap": float(mes_gap[t]),
                     "state": state_to_json(ql.DensityMatrix((n, n), mats[t, 0])),
                     "channel": channel_to_json(ch.KrausChannel(n, kraus[t]))}
    return SuiteResult("probe-invariance", failures == 0 < pairs, pairs, failures, worst, repro)


def suite_pt_equivalence(seed=0, trials=200) -> SuiteResult:
    """Agreement of the two p_t formulas, and p = p_t * p' against direct evolution.

    Even trials are 2x2, odd trials 3x3, and every third trial's channel is a
    non-trace-preserving truncation; each dimension is one stack.
    """
    draws = {2: [], 3: []}
    for t in range(trials):
        rng = _rng(seed, t)
        n = 2 if t % 2 == 0 else 3
        draws[n].append((_density_factor(n, rng), _channel_factors(n, rng),
                         pr.random_probes(n, 1, rng)))
    res, inputs = np.empty(trials), []
    for n, first in ((2, 0), (3, 1)):
        if not draws[n]:
            continue
        rank_factors, factors, probes = zip(*draws[n])
        trial = np.arange(first, trials, 2)
        truncated = trial % 3 == 0
        rhos = ql.density_stack((n, n), rank_factors)
        superoperators, kraus = _channel_stack(n, factors, truncated)
        matrices, inverses, _ = (np.concatenate(stack) for stack in zip(*probes))
        images, p_prime = _stage(superoperators, _probe_densities(matrices), "first")
        pt_red = pr.pt_reduced_stack(rhos, images, inverses)
        residual = np.abs(pt_red - 1.0)  # trace preserving: p_t = 1
        _, p_direct = _stage(superoperators[truncated], rhos[truncated], "first")
        residual[truncated] = np.abs(pt_red[truncated] * p_prime[truncated] - p_direct)
        res[first::2] = np.maximum(np.abs(pt_red - pr.pt_mes_sum_stack(rhos, images, inverses)),
                                   residual)
        inputs.append((rhos, kraus))
    worst = float(np.max(res, initial=0.0))
    failed = np.flatnonzero(res > 1e-10)
    repro = None
    if len(failed):
        t = int(failed[0])
        n = 2 + t % 2
        rhos, kraus = inputs[t % 2]
        repro = {"suite": "pt-equivalence", "seed": seed, "trial": t, "residual": float(res[t]),
                 "state": state_to_json(ql.DensityMatrix((n, n), rhos[t // 2])),
                 "channel": channel_to_json(ch.KrausChannel(n, kraus[t // 2]))}
    return SuiteResult("pt-equivalence", len(failed) == 0 < trials, trials, len(failed), worst,
                       repro)


def suite_sandwich(seed=0, trials=500) -> SuiteResult:
    """lower <= concurrence <= upper for random two-qubit states and TP channels.

    Pure inputs under a one-sided channel additionally saturate the upper
    bound, which is asserted as an equality.  Every trial is drawn first;
    the one-sided and the two-sided trials are then evaluated as one stack
    each.
    """
    if trials < 1:
        return SuiteResult("sandwich", False, 0, 0, 0.0)
    canonical = pr.canonical_probe(2)
    probes, factors, factors_2, pure_draws, rank_factors = [], [], [], [], []
    for t in range(trials):
        rng = _rng(seed, t)
        probes.append(canonical.matrix if t % 3 else pr.random_probe(2, rng).matrix)
        factors.append(_channel_factors(2, rng))
        if t % 2 == 0:  # pure input, one-sided channel: the upper bound is an equality
            pure_draws.append(ql.gaussian(rng, 4))
        else:
            rank_factors.append(_density_factor(2, rng))
            factors_2.append(_channel_factors(2, rng))
    pure, mixed = slice(0, None, 2), slice(1, None, 2)
    probes = np.array(probes)
    mats = np.empty((trials, 4, 4), dtype=complex)
    mats[pure] = ql.pure_densities(ql.pure_stack(pure_draws))
    mats[mixed] = ql.density_stack((2, 2), rank_factors)
    superoperators, kraus = _channel_stack(2, factors, False)
    superoperators_2, _ = _channel_stack(2, factors_2, False)
    densities = _probe_densities(probes)
    images, _ = _stage(superoperators, densities, "first")
    images_2, _ = _stage(superoperators_2, densities[mixed], "second")
    one_sided = conc.evaluate(mats[pure], (2, 2), [(superoperators[pure], "first")],
                              probes[pure], [images[pure]])
    two_sided = conc.evaluate(mats[mixed], (2, 2), [(superoperators[mixed], "first"),
                                                    (superoperators_2, "second")],
                              probes[mixed], [images[mixed], images_2])
    res = np.empty(trials)
    for sel, result in ((pure, one_sided), (mixed, two_sided)):
        ql.raise_fault(result.fault)
        gap = result.exact - result.upper
        res[sel] = np.maximum(np.maximum(0.0, result.lower) - result.exact,
                              np.abs(gap) if sel is pure else gap)
    failed = np.flatnonzero(res > 1e-9)
    t = int(failed[0]) if len(failed) else None
    repro = None if t is None else {
        "suite": "sandwich", "seed": seed, "trial": t, "violation": float(res[t]),
        "state": state_to_json(ql.DensityMatrix((2, 2), mats[t])),
        "channel_1": channel_to_json(ch.KrausChannel(2, kraus[t]))}
    worst = max(0.0, float(res.max()))
    return SuiteResult("sandwich", len(failed) == 0, trials, len(failed), worst, repro)


def suite_structural(seed=0, trials=1000) -> SuiteResult:
    """Dual concurrence formulas on random states; built-in channels trace preserving.

    Trial t draws a pure state of dims (2, 2), (2, 3), (3, 3) by t mod 3;
    each of the three is one stack."""
    res, amps = np.empty(trials), []
    for first, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        amps.append(_pure_states(dims, (_rng(seed, t) for t in range(first, trials, 3))))
        ms = amps[-1].reshape((-1,) + dims)
        res[first::3] = np.abs(conc.pure_concurrences(ms) - _minor_sum_concurrence(ms))
    worst = float(np.max(res, initial=0.0))
    failed = np.flatnonzero(res > 1e-10)
    failures, count = len(failed), trials
    repro = None
    if failures:
        t = int(failed[0])
        psi = ql.PureState(((2, 2), (2, 3), (3, 3))[t % 3], amps[t % 3][t // 3])
        repro = {"suite": "structural", "seed": seed, "trial": t,
                 "state": state_to_json(psi), "residual": float(res[t])}
    for maker, params in ((ch.amplitude_damping, np.linspace(0, 1, 11)),
                          (ch.depolarizing, np.linspace(0, 1, 11)),
                          (ch.phase_damping, np.linspace(0, 1, 11))):
        for value in params:
            defect = maker(float(value)).completeness_defect
            worst = max(worst, defect)
            count += 1
            if defect > 1e-12:
                failures += 1
                repro = repro or {"suite": "structural", "family": maker.__name__,
                                  "parameter": float(value), "defect": defect}
    return SuiteResult("structural", failures == 0 < count, count, failures, worst, repro)


_SUITES = {
    "mes-basis": suite_mes_basis,
    "theorem1": suite_theorem1,
    "probe-invariance": suite_probe_invariance,
    "pt-equivalence": suite_pt_equivalence,
    "sandwich": suite_sandwich,
    "structural": suite_structural,
}


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
