"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from entbound import (
    DensityMatrix,
    KrausChannel,
    amplitude_damping,
    apply_one_sided,
    canonical_mes,
    concurrence_pure,
    depolarizing,
    fidelity_lower_bound,
    lower_bound_one_sided,
    lower_bound_two_sided,
    mes_basis,
    phase_damping,
    pt_via_mes_sum,
    pt_via_reduced,
    random_pure_state,
    state_to_matrix,
    theorem1_bound,
    wootters_concurrence,
)
from entbound.cli import default_base_state, main
from conftest import probe_density, random_mixed, random_probe, random_tp_kraus


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def direct_two_sided(ops1, ops2, rho):
    """Independent evolution oracle: plain nested Kraus sums, no library calls."""
    out = np.zeros_like(rho)
    n = 2
    for a in ops1:
        op = np.kron(a, np.eye(n))
        out = out + op @ rho @ op.conj().T
    final = np.zeros_like(rho)
    for b in ops2:
        op = np.kron(np.eye(n), b)
        final = final + op @ out @ op.conj().T
    return final


def test_criterion_1_sweep_reproduction(tmp_path):
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code = main(["sweep", "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.read_text().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape[0] == 101

    ordered = np.all(rows[:, 1] <= rows[:, 2] + 1e-9) and np.all(rows[:, 2] <= rows[:, 3] + 1e-9)
    at_zero = np.all(np.abs(rows[0, 1:4]) <= 1e-12)
    monotone = all(np.all(np.diff(rows[:, i]) >= -1e-9) for i in (1, 2, 3))

    # single-point oracle at x = 1: exact concurrence of the directly
    # evolved base state, evolution done with an independent Kraus loop
    rho1 = default_base_state().matrix
    evolved = direct_two_sided(amplitude_damping(0.2).operators,
                               amplitude_damping(0.3).operators, rho1)
    oracle = wootters_concurrence(DensityMatrix((2, 2), evolved / np.trace(evolved).real))
    endpoint = abs(rows[-1, 2] - oracle) <= 1e-9

    report(1, "sweep reproduction", elapsed < 5.0 and ordered and at_zero
           and monotone and endpoint,
           f"elapsed={elapsed:.2f}s ordered={ordered} zero_row={at_zero} "
           f"monotone={monotone} endpoint_residual={abs(rows[-1, 2] - oracle):.2e}")


def test_criterion_2_probe_invariance():
    worst = 0.0
    for n in (2, 3):
        for pair in range(20):
            rng = np.random.default_rng([2024, n, pair])
            rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
            channel = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            values = []
            for _ in range(100):
                probe = random_probe(n, rng)
                app = apply_one_sided(channel, probe_density(probe), "first")
                values.append(lower_bound_one_sided(rho, app.output, probe).raw)
            worst = max(worst, max(values) - min(values))
    report(2, "probe invariance", worst <= 1e-8, f"max_spread={worst:.2e}")


def test_criterion_3_probe_vs_direct():
    worst = 0.0
    cases = [(2, t) for t in range(200)] + [(3, t) for t in range(50)]
    for n, trial in cases:
        rng = np.random.default_rng([3, n, trial])
        rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
        probe = random_probe(n, rng)
        ch1 = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
        if trial % 3 == 0:  # non-trace-preserving truncation
            ch1 = KrausChannel(n, ch1.operators[:1])
        if trial % 2 == 0:
            app = apply_one_sided(ch1, probe_density(probe), "first")
            direct = fidelity_lower_bound(
                apply_one_sided(ch1, rho, "first").output).raw
            got = lower_bound_one_sided(rho, app.output, probe).raw
        else:
            ch2 = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
            if trial % 5 == 0:
                ch2 = KrausChannel(n, ch2.operators[:1])
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            evolved = apply_one_sided(
                ch2, apply_one_sided(ch1, rho, "first").output, "second")
            direct = fidelity_lower_bound(evolved.output).raw
            got = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
        worst = max(worst, abs(got - direct))
    report(3, "probe vs direct equivalence", worst <= 1e-8, f"max_residual={worst:.2e}")


def test_criterion_4_theorem1_saturation():
    worst = 0.0
    for seed in range(1000):
        psi = random_pure_state((2, 2), seed)
        worst = max(worst, abs(theorem1_bound(psi.density()).raw - concurrence_pure(psi)))
    report(4, "two-qubit pure-state saturation", worst <= 1e-9, f"max_residual={worst:.2e}")


def test_criterion_5_high_dimension_saturation():
    worst_mes = 0.0
    for n in (3, 4):
        mes = canonical_mes((n, n))
        gap = abs(fidelity_lower_bound(mes.density()).raw - concurrence_pure(mes))
        worst_mes = max(worst_mes, gap)
    min_margin = np.inf
    for i, dims in enumerate(((3, 3), (4, 4))):
        for seed in range(50):
            psi = random_pure_state(dims, 1000 * i + seed)
            margin = concurrence_pure(psi) - fidelity_lower_bound(psi.density()).raw
            min_margin = min(min_margin, margin)
    report(5, "high-dimension MES saturation", worst_mes <= 1e-12 and min_margin > 1e-10,
           f"mes_residual={worst_mes:.2e} strict_margin={min_margin:.3e}")


def test_criterion_6_product_equality_pure_inputs():
    from entbound import upper_bound_one_sided
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng([6, trial])
        psi = random_pure_state((2, 2), int(rng.integers(1e9)))
        channel = random_tp_kraus(2, int(rng.integers(2, 4)), rng)
        probe = random_probe(2, rng)
        rho_p = apply_one_sided(channel, probe_density(probe), "first").output
        evolved = apply_one_sided(channel, psi.density(), "first").output
        bound = upper_bound_one_sided(concurrence_pure(psi), rho_p, probe.matrix)
        worst = max(worst, abs(wootters_concurrence(evolved) - bound.raw))
    report(6, "pure-state product equality", worst <= 1e-9, f"max_residual={worst:.2e}")


def test_criterion_7_pt_consistency():
    worst_pair = worst_tp = worst_product = 0.0
    for trial in range(200):
        rng = np.random.default_rng([7, trial])
        n = 2 if trial % 2 else 3
        rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
        probe = random_probe(n, rng)
        channel = random_tp_kraus(n, int(rng.integers(2, 4)), rng)
        trace_preserving = trial % 3 != 0
        if not trace_preserving:
            channel = KrausChannel(n, channel.operators[:1])
        app = apply_one_sided(channel, probe_density(probe), "first")
        via_reduced = pt_via_reduced(rho, app.output, probe)
        via_sum = pt_via_mes_sum(rho, app.output, probe)
        worst_pair = max(worst_pair, abs(via_reduced - via_sum))
        if trace_preserving:
            worst_tp = max(worst_tp, abs(via_reduced - 1.0))
        else:
            p_direct = apply_one_sided(channel, rho, "first").probability
            worst_product = max(worst_product, abs(via_reduced * app.probability - p_direct))
    ok = worst_pair <= 1e-10 and worst_tp <= 1e-10 and worst_product <= 1e-10
    report(7, "p_t consistency", ok,
           f"formulas={worst_pair:.2e} tp={worst_tp:.2e} product={worst_product:.2e}")


def test_criterion_8_structural_suites():
    worst_basis = 0.0
    for n in (2, 3, 4):
        vecs = mes_basis(n).reshape(n * n, n * n).T  # column j holds |Phi_j>
        worst_basis = max(worst_basis,
                          np.max(np.abs(vecs.conj().T @ vecs - np.eye(n * n))),
                          np.max(np.abs(vecs @ vecs.conj().T - np.eye(n * n))))

    def minor_sum(m):
        n1, n2 = m.shape
        total = 0.0
        for i in range(n1):
            for j in range(n1):
                for p in range(n2):
                    for q in range(n2):
                        if i != j and p != q:
                            total += abs(m[i, p] * m[j, q] - m[i, q] * m[j, p]) ** 2
        return np.sqrt(total)

    worst_dual = 0.0
    dims_cycle = ((2, 2), (2, 3), (3, 3))
    for seed in range(1000):
        psi = random_pure_state(dims_cycle[seed % 3], seed)
        worst_dual = max(worst_dual,
                         abs(concurrence_pure(psi) - minor_sum(state_to_matrix(psi))))

    worst_defect = 0.0
    for maker in (amplitude_damping, depolarizing, phase_damping):
        for value in np.linspace(0.0, 1.0, 21):
            worst_defect = max(worst_defect, maker(float(value)).completeness_defect)

    ok = worst_basis < 1e-12 and worst_dual < 1e-10 and worst_defect < 1e-12
    report(8, "structural suites", ok,
           f"basis={worst_basis:.2e} dual_form={worst_dual:.2e} channel_defect={worst_defect:.2e}")
