"""Quantified property suites behind the ``check`` command.

Each suite draws seeded random inputs, evaluates one of the library's
contracts at its stated tolerance, and reports the failure count plus
the worst residual seen.  Per-trial generators are seeded with
(seed, trial index) so any failure is reproducible from the suite name,
seed and trial number alone.  A suite passes only when it evaluated at
least one trial and none failed.
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


def _minor_sum_concurrence(psi: ql.PureState) -> float:
    """Coefficient-form concurrence: root of the summed squared 2x2 minors
    m_ip m_jq - m_iq m_jp (those with i = j or p = q vanish)."""
    m = ql.state_to_matrix(psi)
    minors = np.einsum("ip,jq->ijpq", m, m) - np.einsum("iq,jp->ijpq", m, m)
    return float(np.sqrt(np.sum(np.abs(minors) ** 2)))


def two_sided_bound_mes(rho, image_1, image_2, pinv, p_t) -> float:
    """The paper's two-sided probe bound, an oracle independent of the probe route.

    Tr[|mes><mes| ($1 o $2) rho] / (p1' p2') comes from the double
    Bell-basis sum over the normalized probe images ``image_1``, ``image_2``
    and the probe inverse ``pinv`` (plain matrices), with no decomposition
    of rho; p_t = p / (p1' p2') is supplied by the caller.  np.kron of the
    (n^2, n, n) stack of basis matrices with an n x n matrix gives all n^2
    Kronecker factors of a side at once; one einsum gives the n^4 traces.
    """
    n = len(pinv)
    cs = np.array(pr.mes_basis(n).coefficient_matrices())
    rows = cs.reshape(n * n, n * n)  # row m holds |Phi_m>
    weights = rows.conj() @ image_2 @ rows.T  # <Phi_m| A2 |Phi_n>
    srs = rho.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    lefts = image_1.conj() @ np.kron(cs.transpose(0, 2, 1) @ pinv.T, pinv) @ srs
    rights = np.kron(pinv.conj() @ cs.conj(), pinv.conj().T)
    total = np.sum(weights * np.einsum("mxy,kyx->mk", lefts, rights))
    return float(conc._prefactor(n) * (np.real(total) / n / p_t - 1.0 / n))


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
    worst = 0.0
    failures = 0
    repro = None
    count = 0
    for t in range(trials):
        psi = ql.random_pure_state((2, 2), _rng(seed, t))
        res = abs(conc.theorem1_bound(psi.density()).raw - conc.concurrence_pure(psi))
        worst = max(worst, res)
        count += 1
        if res > 1e-9:
            failures += 1
            repro = repro or {"suite": "theorem1", "seed": seed, "trial": t,
                              "state": state_to_json(psi), "residual": res}
    for n in (3, 4):
        mes = ql.canonical_mes((n, n))
        res = abs(conc.fidelity_lower_bound(mes.density()).raw - conc.concurrence_pure(mes))
        worst = max(worst, res)
        count += 1
        if res > 1e-12:
            failures += 1
            repro = repro or {"suite": "theorem1", "mes_dim": n, "residual": res}
        for t in range(max(1, trials // 50)):
            psi = ql.random_pure_state((n, n), _rng(seed, 10_000 * n + t))
            margin = conc.concurrence_pure(psi) - conc.fidelity_lower_bound(psi.density()).raw
            count += 1
            if margin <= 1e-10:  # bound must be strictly below away from MES
                failures += 1
                repro = repro or {"suite": "theorem1", "seed": seed, "dim": n,
                                  "trial": t, "margin": margin}
    return SuiteResult("theorem1", failures == 0 < count, count, failures, worst, repro)


def _raise_fault(fault):
    if fault is not None:
        raise fault[1]


def _stage(channels, mats, side):
    """Validated normalized images of a (k, ..., d, d) stack of N x N states,
    ``channels[j]`` acting on ``side`` of every state in ``mats[j]``, and the
    stage probabilities, both shaped like the stack; the first fault raises."""
    d = mats.shape[-1]
    repeat = int(np.prod(mats.shape[1:-2]))
    n = round(d ** 0.5)
    superoperators = np.repeat(np.reshape([c.superoperator for c in channels], (-1, d, d)),
                               repeat, axis=0)  # n^2 x n^2, like the states
    outputs, p, fault = ch.apply_stacked(superoperators, mats.reshape(-1, d, d), (n, n), side)
    _raise_fault(fault)
    _raise_fault(ql.density_fault(outputs))
    return outputs.reshape(mats.shape), p.reshape(mats.shape[:-2])


def _densities(matrices):
    """Stack of |P><P| for a (..., n, n) stack of probe matrices, validated."""
    vecs = matrices.reshape(matrices.shape[:-2] + (-1,))
    densities = vecs[..., :, None] * vecs[..., None, :].conj()
    _raise_fault(ql.density_fault(densities.reshape((-1,) + densities.shape[-2:])))
    return densities


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
        rhos, channels, channels_2, probes = [], [], [], []
        for t in range(n_pairs):
            rng = _rng(seed, t + 1000 * n)
            rhos.append(ql.random_density((n, n), int(rng.integers(1, n * n + 1)), rng))
            channel = ch.random_tp_channel(n, int(rng.integers(2, 4)), rng)
            if t % 4 == 0:  # non-trace-preserving truncation
                channel = ch.KrausChannel(n, channel.operators[:1])
            channels.append(channel)
            if t % 2 == 1:  # two-sided pair
                channels_2.append(ch.random_tp_channel(n, int(rng.integers(2, 4)), rng))
            probes.append(pr.random_probes(n, trials, rng))
        one, two = slice(0, None, 2), slice(1, None, 2)
        mats = np.array([rho.matrix for rho in rhos])[:, None]  # (pairs, 1, d, d)
        evolved, p = _stage(channels, mats, "first")
        evolved[two], p_2 = _stage(channels_2, evolved[two], "second")
        p[two] *= p_2
        direct = conc.fidelity_lower_bounds(evolved[:, 0], (n, n))
        matrices, inverses, conditions = (np.array(stack) for stack in zip(*probes))
        densities = _densities(matrices)
        images, p_1 = _stage(channels, densities, "first")
        images_2, p_2 = _stage(channels_2, densities[two], "second")
        values = np.empty((n_pairs, trials))
        for sel, image_2 in ((one, None), (two, images_2)):
            stages = pr.probe_channels(images[sel], image_2, inverses[sel], conditions[sel])
            states = np.broadcast_to(mats[sel], images[sel].shape).reshape(-1, n * n, n * n)
            stages = (None if s is None else s.reshape(states.shape) for s in stages)  # n^2 x n^2
            bounds, _, fault = pr.probe_route(states, (n, n), *stages)
            _raise_fault(fault)
            values[sel] = bounds.reshape(-1, trials)
        mes_gap = np.zeros(n_pairs)
        for t in range(1, n_pairs, 2):  # the paper's double sum, once per pair on its first probe
            p_t = p[t, 0] / (p_1[t, 0] * p_2[t // 2, 0])
            mes_gap[t] = abs(two_sided_bound_mes(mats[t, 0], images[t, 0], images_2[t // 2, 0],
                                                 inverses[t, 0], p_t) - values[t, 0])
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
                     "mes_gap": float(mes_gap[t]), "state": state_to_json(rhos[t]),
                     "channel": channel_to_json(channels[t])}
    return SuiteResult("probe-invariance", failures == 0 < pairs, pairs, failures, worst, repro)


def suite_pt_equivalence(seed=0, trials=200) -> SuiteResult:
    """Agreement of the two p_t formulas, and p = p_t * p' against direct evolution."""
    worst = 0.0
    failures = 0
    repro = None
    for t in range(trials):
        rng = _rng(seed, t)
        n = 2 if t % 2 == 0 else 3
        rho = ql.random_density((n, n), int(rng.integers(1, n * n + 1)), rng)
        channel = ch.random_tp_channel(n, int(rng.integers(2, 4)), rng)
        trace_preserving = t % 3 != 0
        if not trace_preserving:
            channel = ch.KrausChannel(n, channel.operators[:1])
        probe = pr.random_probe(n, rng)
        app = ch.apply_one_sided(channel, probe.density(), side="first")
        pt_red = pr.pt_via_reduced(rho, app.output, probe)
        pt_sum = pr.pt_via_mes_sum(rho, app.output, probe)
        res = abs(pt_red - pt_sum)
        if trace_preserving:
            res = max(res, abs(pt_red - 1.0))
        else:
            p_direct = ch.apply_one_sided(channel, rho, side="first").probability
            res = max(res, abs(pt_red * app.probability - p_direct))
        worst = max(worst, res)
        if res > 1e-10:
            failures += 1
            repro = repro or {"suite": "pt-equivalence", "seed": seed, "trial": t,
                              "residual": res, "state": state_to_json(rho),
                              "channel": channel_to_json(channel)}
    return SuiteResult("pt-equivalence", failures == 0 < trials, trials, failures, worst, repro)


def suite_sandwich(seed=0, trials=500) -> SuiteResult:
    """lower <= concurrence <= upper for random two-qubit states and TP channels.

    Pure inputs under a one-sided channel additionally saturate the upper
    bound, which is asserted as an equality.  Every trial is drawn first
    and all of them are evaluated as one stack.
    """
    if trials < 1:
        return SuiteResult("sandwich", False, 0, 0, 0.0)
    canonical = pr.canonical_probe(2)
    probes, channels, channels_2, rhos, c_pure = [], [], [], [], []
    for t in range(trials):
        rng = _rng(seed, t)
        probes.append(canonical.matrix if t % 3 else pr.random_probe(2, rng).matrix)
        channels.append(ch.random_tp_channel(2, int(rng.integers(2, 4)), rng))
        if t % 2 == 0:  # pure input, one-sided channel: the upper bound is an equality
            psi = ql.random_pure_state((2, 2), rng)
            rhos.append(psi.density())
            c_pure.append(conc.concurrence_pure(psi))
        else:
            rhos.append(ql.random_density((2, 2), int(rng.integers(1, 5)), rng))
            channels_2.append(ch.random_tp_channel(2, int(rng.integers(2, 4)), rng))
    pure, mixed = slice(0, None, 2), slice(1, None, 2)
    probes = np.array(probes)
    mats = np.array([rho.matrix for rho in rhos])
    densities = _densities(probes)
    images, _ = _stage(channels, densities, "first")
    images_2, _ = _stage(channels_2, densities[mixed], "second")
    evolved, _ = _stage(channels, mats, "first")
    evolved[mixed], _ = _stage(channels_2, evolved[mixed], "second")
    values = conc.spin_flip_concurrence(np.concatenate([evolved, mats[mixed]]))
    exact, c_mixed = values[:trials], values[trials:]
    lower = np.maximum(0.0, conc.fidelity_lower_bounds(evolved, (2, 2)))
    factors = conc.upper_bound_factor(np.concatenate([images, images_2]),
                                      np.concatenate([probes, probes[mixed]]))
    upper = np.empty(trials)
    upper[pure] = np.array(c_pure) * factors[:trials][pure]
    upper[mixed] = c_mixed * factors[:trials][mixed] * factors[trials:]
    res = lower - exact
    res[pure] = np.maximum(res[pure], np.abs(exact - upper)[pure])
    res[mixed] = np.maximum(res[mixed], (exact - upper)[mixed])
    failed = np.flatnonzero(res > 1e-9)
    t = int(failed[0]) if len(failed) else None
    repro = None if t is None else {"suite": "sandwich", "seed": seed, "trial": t,
                                    "violation": float(res[t]), "state": state_to_json(rhos[t]),
                                    "channel_1": channel_to_json(channels[t])}
    worst = max(0.0, float(res.max()))
    return SuiteResult("sandwich", len(failed) == 0, trials, len(failed), worst, repro)


def suite_structural(seed=0, trials=1000) -> SuiteResult:
    """Dual concurrence formulas on random states; built-in channels trace preserving."""
    worst = 0.0
    failures = 0
    repro = None
    count = 0
    dims_cycle = ((2, 2), (2, 3), (3, 3))
    for t in range(trials):
        dims = dims_cycle[t % 3]
        psi = ql.random_pure_state(dims, _rng(seed, t))
        res = abs(conc.concurrence_pure(psi) - _minor_sum_concurrence(psi))
        worst = max(worst, res)
        count += 1
        if res > 1e-10:
            failures += 1
            repro = repro or {"suite": "structural", "seed": seed, "trial": t,
                              "state": state_to_json(psi), "residual": res}
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
