"""Quantified property suites behind the ``check`` command.

Each suite draws seeded random inputs, evaluates one of the library's
contracts at its stated tolerance, and reports the failure count plus
the worst residual seen.  Per-trial generators are seeded with
(seed, trial index) so any failure is reproducible from the suite name,
seed and trial number alone.  A suite passes only when it evaluated at
least one trial and none failed.
"""

from __future__ import annotations

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


def _rng(seed, trial):
    return np.random.default_rng([int(seed), int(trial)])


def _random_tp_channel(dim, count, rng) -> ch.KrausChannel:
    gs = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
          for _ in range(count)]
    total = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(total)
    root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return ch.KrausChannel(dim, tuple(g @ root_inv for g in gs))


def _minor_sum_concurrence(psi: ql.PureState) -> float:
    """Coefficient-form concurrence: root of the summed squared 2x2 minors
    m_ip m_jq - m_iq m_jp (those with i = j or p = q vanish)."""
    m = ql.state_to_matrix(psi)
    minors = np.einsum("ip,jq->ijpq", m, m) - np.einsum("iq,jp->ijpq", m, m)
    return float(np.sqrt(np.sum(np.abs(minors) ** 2)))


def two_sided_bound_mes(rho, evolved_probe_1, evolved_probe_2, probe, p_t) -> float:
    """The paper's two-sided probe bound, an oracle independent of the witness route.

    Tr[|mes><mes| ($1 o $2) rho] / (p1' p2') comes from the double
    Bell-basis sum over the normalized probe images, with no decomposition
    of rho; p_t = p / (p1' p2') is supplied by the caller.  np.kron of the
    (n^2, n, n) stack of basis matrices with an n x n matrix gives all n^2
    Kronecker factors of a side at once; one einsum gives the n^4 traces.
    """
    n = probe.dim
    pinv = probe.inverse
    cs = np.array(pr.mes_basis(n).coefficient_matrices())
    rows = cs.reshape(n * n, n * n)  # row m holds |Phi_m>
    weights = rows.conj() @ evolved_probe_2.matrix @ rows.T  # <Phi_m| A2 |Phi_n>
    srs = rho.matrix.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    lefts = evolved_probe_1.matrix.conj() @ np.kron(cs.transpose(0, 2, 1) @ pinv.T, pinv) @ srs
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


def _probe_stack_bounds(rho, channels, probes):
    """Probe-route lower bounds of ``rho``, one per probe, in one stacked pass.

    ``channels`` holds the first-side and second-side channel, None for
    no channel.  Every probe density and normalized image is validated
    and the first fault raises.  Returns each side's images and traces
    (None without a channel) and the bounds.
    """
    vecs = np.array([probe.matrix.reshape(-1) for probe in probes])
    densities = vecs[:, :, None] * vecs[:, None, :].conj()
    _raise_fault(ql.density_fault(densities))
    images, traces = [None, None], [None, None]
    for i, (channel, side) in enumerate(zip(channels, ("first", "second"))):
        if channel is not None:
            images[i], traces[i], fault = ch.apply_stacked(channel, densities, rho.dims, side)
            _raise_fault(fault)
            _raise_fault(ql.density_fault(images[i]))
    witness = pr.choi_witness(*images, np.array([probe.inverse for probe in probes]),
                              np.array([probe.condition for probe in probes]))
    values, _, fault = witness.lower_bounds(rho.matrix)
    _raise_fault(fault)
    return images, traces, values


def suite_probe_invariance(seed=0, trials=100) -> SuiteResult:
    """Probe independence of the lower bound, and its agreement with the
    directly evolved state (one- and two-sided, non-TP truncations included)."""
    worst = 0.0
    failures = 0
    repro = None
    pairs = 0
    for n, n_pairs in ((2, 20), (3, 20)):
        for t in range(n_pairs):
            rng = _rng(seed, t + 1000 * n)
            rho = ql.random_density((n, n), int(rng.integers(1, n * n + 1)), rng)
            channel = _random_tp_channel(n, int(rng.integers(2, 4)), rng)
            if t % 4 == 0:  # non-trace-preserving truncation
                channel = ch.KrausChannel(n, channel.operators[:1])
            two_sided = t % 2 == 1
            if two_sided:
                channel_2 = _random_tp_channel(n, int(rng.integers(2, 4)), rng)
                evolved = ch.apply_two_sided(channel, channel_2, rho)
            else:
                evolved = ch.apply_one_sided(channel, rho, "first")
            direct = conc.fidelity_lower_bound(evolved.output).raw
            probes = [pr.random_probe(n, rng) for _ in range(trials)]
            if not probes:
                continue
            images, traces, values = _probe_stack_bounds(
                rho, (channel, channel_2 if two_sided else None), probes)
            mes_gap = 0.0
            if two_sided:  # the paper's double sum, once per pair
                out1, out2 = (ql.DensityMatrix((n, n), image[0]) for image in images)
                p_t = evolved.probability / (traces[0][0] * traces[1][0])
                mes_gap = abs(two_sided_bound_mes(rho, out1, out2, probes[0], p_t) - values[0])
            spread = float(np.ptp(values))
            oracle_gap = float(np.abs(values - direct).max())
            res = max(spread, oracle_gap, mes_gap)
            worst = max(worst, res)
            pairs += 1
            if res > 1e-8:
                failures += 1
                repro = repro or {"suite": "probe-invariance", "seed": seed,
                                  "dim": n, "pair": t, "spread": spread,
                                  "oracle_gap": oracle_gap, "mes_gap": mes_gap,
                                  "state": state_to_json(rho),
                                  "channel": channel_to_json(channel)}
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
        channel = _random_tp_channel(n, int(rng.integers(2, 4)), rng)
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
    bound, which is asserted as an equality.
    """
    worst = 0.0
    failures = 0
    repro = None
    for t in range(trials):
        rng = _rng(seed, t)
        probe = pr.canonical_probe(2) if t % 3 else pr.random_probe(2, rng)
        ch1 = _random_tp_channel(2, int(rng.integers(2, 4)), rng)
        app1 = ch.apply_one_sided(ch1, probe.density(), side="first")
        if t % 2 == 0:
            # pure input, one-sided channel: the upper bound is an equality
            psi = ql.random_pure_state((2, 2), rng)
            rho = psi.density()
            evolved = ch.apply_one_sided(ch1, rho, "first").output
            exact = conc.wootters_concurrence(evolved)
            lower = conc.fidelity_lower_bound(evolved).clamped
            upper = conc.upper_bound_one_sided(conc.concurrence_pure(psi),
                                               app1.output, probe.matrix).raw
            res = max(lower - exact, abs(exact - upper))
        else:
            rho = ql.random_density((2, 2), int(rng.integers(1, 5)), rng)
            ch2 = _random_tp_channel(2, int(rng.integers(2, 4)), rng)
            app2 = ch.apply_one_sided(ch2, probe.density(), side="second")
            evolved = ch.apply_two_sided(ch1, ch2, rho).output
            exact = conc.wootters_concurrence(evolved)
            lower = conc.fidelity_lower_bound(evolved).clamped
            upper = conc.upper_bound_two_sided(conc.wootters_concurrence(rho),
                                               app1.output, app2.output, probe.matrix).raw
            res = max(lower - exact, exact - upper)
        worst = max(worst, res)
        if res > 1e-9:
            failures += 1
            repro = repro or {"suite": "sandwich", "seed": seed, "trial": t,
                              "violation": res, "state": state_to_json(rho),
                              "channel_1": channel_to_json(ch1)}
    return SuiteResult("sandwich", failures == 0 < trials, trials, failures, worst, repro)


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
    """Run one named suite, or every suite for name "all"."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    results = []
    for item in names:
        fn = _SUITES[item]
        if trials is None:
            results.append(fn(seed=seed))
        else:
            results.append(fn(seed=seed, trials=trials))
    return results
