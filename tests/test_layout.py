"""One operand layout for the stacked cores.

A stage's superoperators, the probes and the probe images are (g, ...) stacks, and an
operand that every entry shares is a stack of one; a lone matrix reads as that stack of
one.  Each entry of a stack gets the bits it gets computed alone, which is what lets a
grid be evaluated in blocks.
"""

import numpy as np
import pytest

from entbound import KrausChannel, random_density
from entbound.channels import apply_stacked, evolve, probe_images
from entbound.concurrence import evaluate, spin_flip_concurrence
from entbound.probe import probe_route, random_probes
from conftest import random_tp_kraus

K = 6
OTHER = {"first": "second", "second": "first"}
CORES = ("apply_stacked", "evolve", "probe_images", "probe_route", "spin_flip_concurrence",
         "evaluate")
# spin_flip_concurrence takes only a stack of two-qubit states: no side, no shared operand
CASES = [(core, n, side) for core in CORES for n in (2, 3) for side in ("first", "second")
         if core != "spin_flip_concurrence" or (n, side) == (2, "first")]


def inputs(rng, n):
    """K states of ranks 1..n^2, one superoperator per entry (the second not trace
    preserving), one shared superoperator, K probes and one shared probe."""
    mats = np.array([random_density((n, n), 1 + j % (n * n), rng).matrix for j in range(K)])
    channels = [random_tp_kraus(n, 2 + j % 2, rng) for j in range(K)]
    channels[1] = KrausChannel(n, channels[1].operators[:1])
    per_entry = np.array([c.superoperator for c in channels])
    shared = random_tp_kraus(n, 3, rng).superoperator
    probes = random_probes(n, K + 1, rng)
    return mats, per_entry, shared, probes[:K], probes[K]


def assert_same(got, expected):
    """Bit-for-bit equality of nested lists and tuples of arrays."""
    if isinstance(got, (tuple, list)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same(g, e)
    elif isinstance(got, np.ndarray) or isinstance(expected, np.ndarray):
        assert np.shape(got) == np.shape(expected) and np.array_equal(got, expected)
    else:
        assert got == expected


def parts(result, core, j=None):
    """The arrays of a core's result in order, each cut to its entry j where j is given (a
    stack of one shared image serves every entry), and the fault as (index, message)."""
    cut = (lambda v: v) if j is None else (lambda v: v[j % len(v)][None])
    fault = None
    if core == "evaluate":
        arrays = [result.states, result.exact, result.upper, result.p, result.p_prime,
                  result.p_t] + [image for image, _ in result.images]
        fault = result.fault
    elif core == "probe_images":
        arrays = [image for image, _ in result[0]] + [result[1]]
    elif core == "probe_route":
        arrays = [result]
    else:
        arrays, fault = result[:2], result[2]
    return ([None if a is None else cut(a) for a in arrays],
            None if fault is None else (fault[0], str(fault[1])))


def calls(core, n, side, mats, per_entry, shared, probes, probe):
    """(shared, entry j alone, stacked) calls of ``core``; the first takes ``lift``, which
    gives each shared operand as it is or as a stack of one."""
    dims, other = (n, n), OTHER[side]
    images = probe_images([(per_entry, side)], probes)[0]
    (lone_image, _), = probe_images([(shared, side)], probe)[0]
    return {
        "apply_stacked": (
            lambda lift: apply_stacked(lift(shared), mats, dims, side),
            lambda j: apply_stacked(per_entry[j], mats[j:j + 1], dims, side),
            lambda: apply_stacked(per_entry, mats, dims, side)),
        "evolve": (
            lambda lift: evolve(mats, dims, [(per_entry, side), (lift(shared), other)]),
            lambda j: evolve(mats[j:j + 1], dims, [(per_entry[j], side), (shared, other)]),
            lambda: evolve(mats, dims, [(per_entry, side), (shared, other)])),
        "probe_images": (
            lambda lift: probe_images([(lift(shared), side), (lift(shared), other)],
                                      lift(probe)),
            lambda j: probe_images([(per_entry[j], side), (shared, other)], probes[j]),
            lambda: probe_images([(per_entry, side), (shared, other)], probes)),
        "probe_route": (
            lambda lift: probe_route(mats, dims, [(lift(lone_image[0]), side)], lift(probe)),
            lambda j: probe_route(mats[j:j + 1], dims, [(images[0][0][j], side)], probes[j]),
            lambda: probe_route(mats, dims, images, probes)),
        "evaluate": (
            lambda lift: evaluate(mats, dims, [(per_entry, side), (lift(shared), other)],
                                  lift(probe)),
            lambda j: evaluate(mats[j:j + 1], dims, [(per_entry[j], side), (shared, other)],
                               probes[j]),
            lambda: evaluate(mats, dims, [(per_entry, side), (shared, other)], probes)),
    }[core]


@pytest.mark.parametrize("core, n, side", CASES)
def test_shared_operand_is_a_stack_of_one_and_entries_are_stack_invariant(rng, core, n, side):
    mats, per_entry, shared, probes, probe = inputs(rng, n)
    if core == "spin_flip_concurrence":  # valid states and a Hermitian whose Cholesky fails
        stack = np.concatenate([mats[:3], np.diag([0.6, 0.6, -0.1, -0.1])[None], mats[3:]])
        values = spin_flip_concurrence(stack)
        for j in range(len(stack)):
            assert values[j:j + 1].tobytes() == spin_flip_concurrence(stack[j:j + 1]).tobytes()
        return
    shared_call, alone, stacked = calls(core, n, side, mats, per_entry, shared, probes, probe)
    assert_same(parts(shared_call(lambda operand: operand), core),
                parts(shared_call(lambda operand: operand[None]), core))
    result = stacked()
    for j in range(K):
        assert_same(parts(result, core, j), parts(alone(j), core))


@pytest.mark.parametrize("dims, side", [((2, 1), "first"), ((3, 1), "first"),
                                        ((1, 3), "second")])
def test_one_row_entries_are_stack_invariant(rng, dims, side):
    # where the other subsystem has dim 1 an entry is one row of length n^2: alone, under
    # its own superoperator and in a run that shares one, it gets the same bits
    n = max(dims)
    mats = np.array([random_density(dims, 1 + j % n, rng).matrix for j in range(K)])
    per_entry = np.array([random_tp_kraus(n, 2 + j % 2, rng).superoperator for j in range(K)])
    shared = random_tp_kraus(n, 3, rng).superoperator
    cores = {"apply_stacked": lambda stage, states: apply_stacked(stage, states, dims, side),
             "evolve": lambda stage, states: evolve(states, dims, [(stage, side)])}
    for core, run in cores.items():
        for stage, own in ((shared, lambda j: shared), (per_entry, lambda j: per_entry[j])):
            result = run(stage, mats)
            for j in range(K):
                assert_same(parts(result, core, j), parts(run(own(j), mats[j:j + 1]), core))
