"""Property tests over seeded random inputs, at the library's own tolerances.

Hypothesis draws a seed plus the shape of each case (dimension, rank,
Kraus count, sides, truncation); NumPy generates the matrices from the
seed, so every failing example is reproducible from what Hypothesis
prints.  Example counts are bounded to keep the suite fast, and the
search is derandomized so that every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from entbound import (
    KrausChannel,
    apply_one_sided,
    apply_two_sided,
    fidelity_lower_bound,
    lower_bound_one_sided,
    lower_bound_two_sided,
    pt_via_mes_sum,
    pt_via_reduced,
    upper_bound_one_sided,
    upper_bound_two_sided,
    wootters_concurrence,
)
from entbound.probe import probe_channels
from conftest import probe_density, random_mixed, random_probe, random_tp_kraus, rebuilt_traces

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def _channel(n, count, truncate, rng):
    ch = random_tp_kraus(n, count, rng)
    return KrausChannel(n, ch.operators[:1]) if truncate else ch


def _rebuilt(image, probe, side):
    """probe_channels of the one stage ``image`` on ``side``."""
    return probe_channels([(image.matrix, side)], probe.matrix)


@PROPERTY
@given(seed=SEEDS, n=st.sampled_from([2, 3]), count=st.integers(1, 3),
       truncate=st.booleans(), sides=st.sampled_from(["first", "second", "both"]))
def test_probe_route_is_probe_invariant_and_matches_direct(seed, n, count, truncate, sides):
    rng = np.random.default_rng(seed)
    rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
    ch1 = _channel(n, count, truncate, rng)
    if sides == "both":
        ch2 = _channel(n, 2, False, rng)
        direct = fidelity_lower_bound(apply_two_sided(ch1, ch2, rho).output).raw
    else:
        direct = fidelity_lower_bound(apply_one_sided(ch1, rho, sides).output).raw
    for _ in range(3):
        probe = random_probe(n, rng)
        if sides == "both":
            a1 = apply_one_sided(ch1, probe_density(probe), "first")
            a2 = apply_one_sided(ch2, probe_density(probe), "second")
            value = lower_bound_two_sided(rho, a1.output, a2.output, probe).raw
        else:
            app = apply_one_sided(ch1, probe_density(probe), sides)
            value = lower_bound_one_sided(rho, app.output, probe, side=sides).raw
        assert abs(value - direct) < 1e-8


@PROPERTY
@given(seed=SEEDS, n=st.sampled_from([2, 3, 4]), count=st.integers(1, 3),
       truncate=st.booleans(), side=st.sampled_from(["first", "second"]))
def test_probability_factorizes(seed, n, count, truncate, side):
    # p = p_t * p' for the trace of the rebuilt channel applied to rho, the stage the
    # probe route applies, and for both of the paper's formulas
    rng = np.random.default_rng(seed)
    rho = random_mixed((n, n), int(rng.integers(1, n * n + 1)), rng)
    ch = _channel(n, count, truncate, rng)
    probe = random_probe(n, rng)
    app = apply_one_sided(ch, probe_density(probe), side)
    p = apply_one_sided(ch, rho, side).probability
    p_t = rebuilt_traces(rho.matrix[None], _rebuilt(app.output, probe, side), (n, n))[0]
    for value in (p_t, pt_via_reduced(rho, app.output, probe, side=side),
                  pt_via_mes_sum(rho, app.output, probe, side=side)):
        assert abs(value * app.probability - p) < 1e-10


@PROPERTY
@given(seed=SEEDS, n=st.integers(2, 6), count=st.integers(1, 3), truncate=st.booleans(),
       side=st.sampled_from(["first", "second"]))
def test_rebuilt_channel_is_the_superoperator(seed, n, count, truncate, side):
    # the probe image fixes the channel: S/p' rebuilt from it, times p', is S
    rng = np.random.default_rng(seed)
    ch = _channel(n, count, truncate, rng)
    probe = random_probe(n, rng)
    app = apply_one_sided(ch, probe_density(probe), side)
    ((stage, stage_side),) = _rebuilt(app.output, probe, side)
    assert stage_side == side
    assert np.abs(stage * app.probability - ch.superoperator).max() < 1e-10


@PROPERTY
@given(seed=SEEDS, rank=st.integers(1, 4), count=st.integers(2, 3), two_sided=st.booleans())
def test_sandwich_ordering_two_qubits(seed, rank, count, two_sided):
    # probe-route lower bound <= exact concurrence <= upper bound, TP channels
    rng = np.random.default_rng(seed)
    rho = random_mixed((2, 2), rank, rng)
    probe = random_probe(2, rng)
    ch1 = random_tp_kraus(2, count, rng)
    a1 = apply_one_sided(ch1, probe_density(probe), "first")
    c_in = wootters_concurrence(rho)
    if two_sided:
        ch2 = random_tp_kraus(2, count, rng)
        a2 = apply_one_sided(ch2, probe_density(probe), "second")
        exact = wootters_concurrence(apply_two_sided(ch1, ch2, rho).output)
        lower = lower_bound_two_sided(rho, a1.output, a2.output, probe).clamped
        upper = upper_bound_two_sided(c_in, a1.output, a2.output, probe.matrix).raw
    else:
        exact = wootters_concurrence(apply_one_sided(ch1, rho, "first").output)
        lower = lower_bound_one_sided(rho, a1.output, probe).clamped
        upper = upper_bound_one_sided(c_in, a1.output, probe.matrix).raw
    assert lower <= exact + 1e-9
    assert exact <= upper + 1e-9
