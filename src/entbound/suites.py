"""Quantified property suites behind the ``check`` command.

Each suite draws seeded random inputs, evaluates one of the library's
contracts at its stated tolerance, and reports the failure count plus
the worst residual seen.  A suite's inputs are a function of (suite, seed,
trials): the suite seeds one generator, ``np.random.default_rng([seed,
key])`` with a key of its own (theorem1 1, probe-invariance 2,
pt-equivalence 3, sandwich 4, structural 6; mes-basis draws nothing), and
draws each kind of input for all its trials as one block: pure states
through :func:`entbound.qlinalg.gaussian`, Kraus sets of 2 or 3 operators
as three Gaussian factors per channel with the unused ones zeroed, mixed
states as d x d factors with the columns past their random rank zeroed,
and probes through one :func:`entbound.probe.random_probes` call.  A trial
cannot be redrawn alone, so the reproduction record of a failing check
carries every input the check used, with the seed and trial count that
drew them.  The draws are built and evaluated as one stack per suite and
dimension, in probe-invariance per pair kind; a drawn mixed state is validated
once, by the evaluation core that uses it.  Every suite ends
in one :func:`_verdict`, the one pass rule: a check fails unless it is
within its tolerance, so a NaN fails, and a suite with no checks fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import concurrence as conc
from . import probe as pr
from . import qlinalg as ql
from .errors import InvalidChannel
from .serialize import channel_to_json, probe_to_json, state_to_json


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


def _random_densities(n, k, rng) -> np.ndarray:
    """(k, n^2, n^2) stack of random density matrices G G^dagger / Tr of random rank r,
    drawn as one block of n^2 x n^2 Gaussian factors G with the columns past r zeroed."""
    d = n * n
    ranks = rng.integers(1, d + 1, k)
    factors = ql.gaussian(rng, (k, d, d)) * (np.arange(d) < ranks[:, None, None])
    return ql.density_stack((n, n), factors)


def _random_channels(n, k, rng, truncated=slice(0)):
    """Superoperators (k, n^2, n^2) and Kraus sets (k, 3, n, n) of k random trace-preserving
    channels of 2 or 3 operators, drawn as one block of three Gaussian factors per channel
    with the unused ones zeroed; the channels selected by the index ``truncated`` keep only
    their first operator (not trace preserving)."""
    counts = rng.integers(2, 4, k)
    factors = ch.kraus_factors(n, 3 * k, rng).reshape(k, 3, n, n)
    factors[np.arange(3) >= counts[:, None]] = 0.0
    ops = ch.tp_kraus(factors)
    ops[truncated, 1:] = 0.0
    return ch.kraus_superoperators(ops)[1], ops


def _channel_json(n, ops) -> dict:
    """One Kraus set of a zero-padded stack as a channel document, without the padding."""
    return channel_to_json(ch.KrausChannel(n, tuple(m for m in ops if np.any(m))))


def _probe_json(matrix) -> dict:
    """One probe matrix of a stack as a probe document."""
    return probe_to_json(pr.probe_from_matrix(matrix))


def _minor_sum_concurrence(ms) -> np.ndarray:
    """Coefficient-form concurrence of each matrix m of a (k, N1, N2) stack: root of the
    summed squared 2x2 minors m_ip m_jq - m_iq m_jp (those with i = j or p = q vanish)."""
    minors = np.einsum("kip,kjq->kijpq", ms, ms) - np.einsum("kiq,kjp->kijpq", ms, ms)
    return np.sqrt(np.sum(np.abs(minors) ** 2, axis=(1, 2, 3, 4)))


def two_sided_bound_mes(rho, image_1, image_2, probes, p_t):
    """The paper's two-sided probe bound, an oracle independent of the probe route.

    Tr[|mes><mes| ($1 o $2) rho] / (p1' p2') comes from the double
    Bell-basis sum over the normalized probe images ``image_1``, ``image_2``
    and the inverse of the probe matrix ``probes`` (plain matrices, or
    stacks of them with one leading axis), with no decomposition of rho;
    p_t = p / (p1' p2') is supplied by the caller.  One Kronecker product of
    the (n^2, n, n) stack of basis matrices with an n x n matrix gives all
    n^2 Kronecker factors of a side at once; one einsum gives the n^4 traces.
    """
    pinv = np.linalg.inv(probes)
    n = pinv.shape[-1]
    cs = pr.mes_basis(n)
    rows = cs.reshape(n * n, n * n)  # row m holds |Phi_m>
    weights = rows.conj() @ image_2 @ rows.T  # <Phi_m| A2 |Phi_n>
    srs = ql.swap_subsystems(rho, n)[..., None, :, :]
    pinv = pinv[..., None, :, :]
    lefts = (image_1.conj()[..., None, :, :]
             @ ql.kron_stack(cs.swapaxes(1, 2) @ pinv.swapaxes(-1, -2), pinv) @ srs)
    rights = ql.kron_stack(pinv.conj() @ cs.conj(), pinv.conj().swapaxes(-1, -2))
    total = np.sum(weights * np.einsum("...mxy,...kyx->...mk", lefts, rights), axis=(-2, -1))
    return conc.fidelity_bound(np.real(total) / n / p_t, n)


def suite_mes_basis(seed=0, trials=None) -> SuiteResult:
    """Orthonormality and completeness of the generalized Bell basis, N = 2..4."""
    res = []
    for n in (2, 3, 4):
        basis = pr.mes_basis(n)
        vecs = basis.reshape(n * n, n * n).T  # column j holds |Phi_j>
        # the Schmidt coefficients of every basis state: the SVD job of schmidt_decompose
        _, schmidt, _ = np.linalg.svd(basis, full_matrices=False)
        res.append(np.max([np.max(np.abs(vecs.conj().T @ vecs - np.eye(n * n))),
                           np.max(np.abs(vecs @ vecs.conj().T - np.eye(n * n))),
                           np.max(np.abs(schmidt - 1 / np.sqrt(n)))]))
    res = np.array(res)
    return _verdict("mes-basis", [(res < ql.TOL_STRUCTURE, res, lambda i: {
        "suite": "mes-basis", "n": i + 2, "residual": float(res[i])})])


def _mes_saturation(seed, trials, n, amps) -> list:
    """The n x n checks of :func:`suite_theorem1`: the bound equals the concurrence of
    the canonical MES, and lies strictly below it on each pure state of ``amps``."""
    amps = np.concatenate([ql.canonical_mes((n, n)).amplitudes[None], amps])
    bounds = conc.fidelity_lower_bounds(ql.pure_densities(amps), (n, n))
    values = conc.pure_concurrences(amps.reshape(-1, n, n))
    res = abs(bounds[0] - values[0])
    margins = values[1:] - bounds[1:]  # bound must be strictly below away from MES
    return [(res <= ql.TOL_STRUCTURE, res, lambda _: {"suite": "theorem1", "mes_dim": n,
                                                      "residual": float(res)}),
            (margins > 1e-10, (), lambda t: {
                "suite": "theorem1", "seed": seed, "trials": trials, "dim": n, "trial": t,
                "state": state_to_json(ql.PureState((n, n), amps[1 + t])),
                "margin": float(margins[t])})]


def suite_theorem1(seed=0, trials=1000) -> SuiteResult:
    """Saturation of the fidelity bounds: exact for two-qubit pure states,
    exact for maximally entangled states in higher dimension, strict otherwise."""
    if trials < 1:  # the fixed MES checks alone evaluate no drawn trial
        return _verdict("theorem1", [])
    samples = max(1, trials // 50)  # pure states per higher dimension
    rng = np.random.default_rng([seed, 1])
    amps = ql.pure_stack(ql.gaussian(rng, (trials, 4)))
    amps_3 = ql.pure_stack(ql.gaussian(rng, (samples, 9)))
    amps_4 = ql.pure_stack(ql.gaussian(rng, (samples, 16)))
    fef = conc.fully_entangled_fractions(ql.pure_densities(amps))
    res = np.abs(conc.fidelity_bound(fef, 2) - conc.pure_concurrences(amps.reshape(-1, 2, 2)))
    return _verdict("theorem1", [(res <= 1e-9, res, lambda t: {
        "suite": "theorem1", "seed": seed, "trials": trials, "trial": t,
        "state": state_to_json(ql.PureState((2, 2), amps[t])), "residual": float(res[t])})]
        + _mes_saturation(seed, trials, 3, amps_3) + _mes_saturation(seed, trials, 4, amps_4))


def _probe_invariance_pairs(seed, trials, n, rng) -> tuple:
    """The (ok, residuals, repro) check of :func:`suite_probe_invariance` on 20 (state,
    channel) pairs of dimension n drawn from ``rng``, ``trials`` probes per pair."""
    n_pairs = 20
    one, two = slice(0, None, 2), slice(1, None, 2)  # odd pairs are two-sided
    mats = _random_densities(n, n_pairs, rng)
    # non-trace-preserving truncations: every fourth first and every other second channel
    superoperators, kraus = _random_channels(n, n_pairs, rng, slice(0, None, 4))
    superoperators_2, kraus_2 = _random_channels(n, n_pairs // 2, rng, slice(1, None, 2))
    matrices = pr.random_probes(n, n_pairs * trials, rng).reshape(n_pairs, trials, n, n)
    values, direct, mes_gap = np.empty((n_pairs, trials)), np.empty(n_pairs), np.zeros(n_pairs)
    for sel, stages in ((one, [(superoperators[one], "first")]),
                        (two, [(superoperators[two], "first"), (superoperators_2, "second")])):
        evolved, p, fault = ch.evolve(mats[sel], (n, n), stages)
        ql.raise_fault(fault)
        direct[sel] = conc.fidelity_lower_bounds(evolved, (n, n))
        probes = matrices[sel].reshape(-1, n, n)  # each pair's channels serve its probes
        images, p_prime = ch.probe_images(stages, probes)
        values[sel] = pr.probe_route(mats[sel], (n, n), images, probes).reshape(-1, trials)
    # the paper's double sum on the two-sided family (the loop's last), on each pair's first probe
    firsts = [image[::trials] for image, _ in images] + [matrices[two, 0], p / p_prime[::trials]]
    mes_gap[two] = np.abs(two_sided_bound_mes(mats[two], *firsts) - values[two, 0])
    spread, oracle_gap = np.ptp(values, axis=1), np.abs(values - direct[:, None]).max(axis=1)
    res = np.maximum(np.maximum(spread, oracle_gap), mes_gap)

    def repro(t):
        record = {"suite": "probe-invariance", "seed": seed, "trials": trials, "dim": n,
                  "pair": t, "spread": float(spread[t]), "oracle_gap": float(oracle_gap[t]),
                  "mes_gap": float(mes_gap[t]),
                  "state": state_to_json(ql.DensityMatrix((n, n), mats[t])),
                  "channel": _channel_json(n, kraus[t])}
        if t % 2:
            record["channel_2"] = _channel_json(n, kraus_2[t // 2])
        record["probes"] = [_probe_json(m) for m in matrices[t]]
        return record

    return res <= ql.TOL_BOUND, res, repro


def suite_probe_invariance(seed=0, trials=100) -> SuiteResult:
    """Probe independence of the lower bound, and its agreement with the
    directly evolved state (one- and two-sided, non-TP truncations included).

    Every (state, channel) pair of one dimension is drawn first; both routes
    then run as one stack per pair kind, ``trials`` probes per pair.
    """
    if trials < 1:  # no probe, so no evaluated pair
        return _verdict("probe-invariance", [])
    rng = np.random.default_rng([seed, 2])
    return _verdict("probe-invariance", [_probe_invariance_pairs(seed, trials, n, rng)
                                         for n in (2, 3)])


def suite_pt_equivalence(seed=0, trials=200) -> SuiteResult:
    """Agreement of the two p_t formulas with the p_t = p/p' of the evaluation core.

    Even trials are 2x2 with the channel on the first subsystem, odd trials 3x3
    with it on the second, and every third trial's channel is a
    non-trace-preserving truncation; each dimension is one
    :func:`entbound.concurrence.evaluate` call.
    """
    rng = np.random.default_rng([seed, 3])
    res, inputs = np.empty(trials), []
    for n, first, side in ((2, 0, "first"), (3, 1, "second")):
        trial = np.arange(first, trials, 2)
        if not len(trial):
            continue
        rhos = _random_densities(n, len(trial), rng)
        superoperators, kraus = _random_channels(n, len(trial), rng, trial % 3 == 0)
        matrices = pr.random_probes(n, len(trial), rng)
        result = conc.evaluate(rhos, (n, n), [(superoperators, side)], matrices)
        ql.raise_fault(result.fault)
        (images, _), = result.images
        pt_red = pr.pt_reduced_stack(rhos, images, matrices, side)
        pt_mes = pr.pt_mes_sum_stack(rhos, images, matrices, side)
        res[first::2] = np.maximum(np.abs(pt_red - pt_mes), np.abs(pt_red - result.p_t))
        inputs.append((side, rhos, kraus, matrices))

    def repro(t):
        n = 2 + t % 2
        side, rhos, kraus, matrices = inputs[t % 2]
        return {"suite": "pt-equivalence", "seed": seed, "trials": trials, "trial": t,
                "side": side, "residual": float(res[t]),
                "state": state_to_json(ql.DensityMatrix((n, n), rhos[t // 2])),
                "channel": _channel_json(n, kraus[t // 2]), "probe": _probe_json(matrices[t // 2])}

    return _verdict("pt-equivalence", [(res <= ql.TOL_RECONSTRUCT, res, repro)])


def suite_sandwich(seed=0, trials=500) -> SuiteResult:
    """lower <= concurrence <= upper for random two-qubit states and TP channels.

    Even trials are pure inputs under a one-sided channel, which additionally
    saturate the upper bound, asserted as an equality; odd trials are mixed
    inputs under a two-sided channel.  Every third trial uses a random probe,
    the others the canonical one.  Every trial is drawn first; the one-sided
    and the two-sided trials are then evaluated as one stack each.
    """
    if trials < 1:
        return _verdict("sandwich", [])
    rng = np.random.default_rng([seed, 4])
    pure, mixed = slice(0, None, 2), slice(1, None, 2)
    n_pure, n_mixed = (trials + 1) // 2, trials // 2
    probes = np.empty((trials, 2, 2), dtype=complex)
    probes[:] = pr.canonical_probe(2).matrix
    probes[::3] = pr.random_probes(2, len(probes[::3]), rng)
    superoperators, kraus = _random_channels(2, trials, rng)
    superoperators_2, kraus_2 = _random_channels(2, n_mixed, rng)
    mats = np.empty((trials, 4, 4), dtype=complex)
    mats[pure] = ql.pure_densities(ql.pure_stack(ql.gaussian(rng, (n_pure, 4))))
    mats[mixed] = _random_densities(2, n_mixed, rng)
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

    def repro(t):
        record = {"suite": "sandwich", "seed": seed, "trials": trials, "trial": t,
                  "violation": float(res[t]),
                  "state": state_to_json(ql.DensityMatrix((2, 2), mats[t])),
                  "channel_1": _channel_json(2, kraus[t])}
        if t % 2:
            record["channel_2"] = _channel_json(2, kraus_2[t // 2])
        record["probe"] = _probe_json(probes[t])
        return record

    return _verdict("sandwich", [(res <= 1e-9, res, repro)])


def _completeness_outcome(delta) -> str:
    """What building the qubit channel sqrt(1 + delta) I gives."""
    try:
        channel = ch.KrausChannel(2, (np.sqrt(1.0 + delta) * np.eye(2),))
    except InvalidChannel:
        return "InvalidChannel"
    return "trace preserving" if channel.trace_preserving else "not trace preserving"


def _completeness_rule() -> tuple:
    """The (ok, residuals, repro) check of the 1e-10 completeness rule on the qubit
    channels sqrt(1 + delta) I, delta = +-0.9e-10 and +-1.1e-10: the one whose sum M^dag M
    exceeds the identity by more than 1e-10 raises InvalidChannel, and each other one is
    trace preserving exactly when |delta| <= 1e-10."""
    deltas = np.array([-1.1, -0.9, 0.9, 1.1]) * 1e-10
    outcomes = [_completeness_outcome(delta) for delta in deltas]
    expected = ["InvalidChannel" if delta > ql.TOL_RECONSTRUCT
                else "trace preserving" if abs(delta) <= ql.TOL_RECONSTRUCT
                else "not trace preserving" for delta in deltas]
    ok = np.array(outcomes) == np.array(expected)
    return ok, (), lambda i: {"suite": "structural", "delta": float(deltas[i]),
                              "outcome": outcomes[i], "expected": expected[i]}


def _floor_rules() -> tuple:
    """The (ok, residuals, repro) check of the two fault floors on both sides: density_fault
    faults diag(0.5 - lam, 0.3, 0.2, lam) exactly when lam < -1e-10 (lam = -1.1e-10,
    -0.9e-10), and apply_stacked faults the qubit stage t I on I/4 exactly when its trace t
    is at most 1e-14 (t = 0.9e-14, 1.1e-14)."""
    lams, ts = (-1.1e-10, -0.9e-10), (0.9e-14, 1.1e-14)
    rules = [("eigenvalue floor", lam) for lam in lams] + [("probability floor", t) for t in ts]
    faulted = ([ql.density_fault(np.diag([0.5 - lam, 0.3, 0.2, lam])[None]) is not None
                for lam in lams]
               + [ch.apply_stacked(t * np.eye(4), np.eye(4)[None] / 4, (2, 2))[2] is not None
                  for t in ts])
    expected = [lam < -ql.TOL_RECONSTRUCT for lam in lams] + [t <= 1e-14 for t in ts]
    ok = np.array(faulted) == np.array(expected)
    return ok, (), lambda i: {"suite": "structural", "rule": rules[i][0], "value": rules[i][1],
                              "faulted": faulted[i], "expected": expected[i]}


def suite_structural(seed=0, trials=1000) -> SuiteResult:
    """Dual concurrence formulas on random states; built-in channels trace preserving;
    the completeness rule, the eigenvalue floor and the probability floor on both sides.

    Trial t draws a pure state of dims (2, 2), (2, 3), (3, 3) by t mod 3;
    each of the three is one stack."""
    if trials < 1:  # the built-in channel families alone evaluate no drawn trial
        return _verdict("structural", [])
    shapes = ((2, 2), (2, 3), (3, 3))
    rng = np.random.default_rng([seed, 6])
    res, amps = np.empty(trials), []
    for first, dims in enumerate(shapes):
        amps.append(ql.pure_stack(ql.gaussian(rng, (len(res[first::3]), dims[0] * dims[1]))))
        ms = amps[-1].reshape((-1,) + dims)
        res[first::3] = np.abs(conc.pure_concurrences(ms) - _minor_sum_concurrence(ms))
    values = np.linspace(0, 1, 11)
    families = (("amplitude_damping", ch.amplitude_damping_kraus),
                ("depolarizing", ch.depolarizing_kraus), ("phase_damping", ch.phase_damping_kraus))
    defects = np.concatenate([ch.kraus_superoperators(make(values))[0] for _, make in families])
    return _verdict("structural", [
        (res <= ql.TOL_RECONSTRUCT, res, lambda t: {
            "suite": "structural", "seed": seed, "trials": trials, "trial": t,
            "state": state_to_json(ql.PureState(shapes[t % 3], amps[t % 3][t // 3])),
            "residual": float(res[t])}),
        (defects <= ql.TOL_STRUCTURE, defects, lambda i: {
            "suite": "structural", "family": families[i // len(values)][0],
            "parameter": float(values[i % len(values)]), "defect": float(defects[i])}),
        _completeness_rule(), _floor_rules()])


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
