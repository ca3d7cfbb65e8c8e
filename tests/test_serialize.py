"""Round-trip and validation tests for the JSON formats."""

import numpy as np
import pytest

from entbound import DensityMatrix, PureState, amplitude_damping, canonical_probe, \
    random_density, random_pure_state
from entbound.serialize import (
    channel_from_json,
    channel_to_json,
    dump_json,
    load_json,
    probe_from_json,
    probe_to_json,
    state_from_json,
    state_to_json,
)
from conftest import random_probe


def test_pure_state_round_trip():
    psi = random_pure_state((2, 3), seed=9)
    back = state_from_json(state_to_json(psi))
    assert isinstance(back, PureState)
    assert back.dims == (2, 3)
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_density_round_trip():
    rho = random_density((2, 2), 3, seed=4)
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_channel_round_trip():
    ch = amplitude_damping(0.2)
    back = channel_from_json(channel_to_json(ch))
    assert back.input_dim == 2
    for a, b in zip(back.operators, ch.operators):
        np.testing.assert_allclose(a, b, atol=1e-15)
    assert back.trace_preserving


def test_probe_round_trip(rng):
    probe = random_probe(3, rng)
    back = probe_from_json(probe_to_json(probe))
    np.testing.assert_allclose(back.matrix, probe.matrix, atol=1e-15)


def test_complex_entries_survive():
    amp = np.array([0.5, 0.5j, -0.5, -0.5j])
    psi = PureState((2, 2), amp)
    back = state_from_json(state_to_json(psi))
    np.testing.assert_allclose(back.amplitudes, amp, atol=1e-15)


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        state_from_json({"dims": [2, 2], "kind": "pure"})
    with pytest.raises(ValueError):
        state_from_json({"dims": [2, 2], "kind": "weird", "data": [[[1, 0]]]})
    with pytest.raises(ValueError):
        channel_from_json({"input_dim": 2})
    with pytest.raises(ValueError):
        probe_from_json({"dim": 2, "matrix": [[[1, 0]]]})


def test_numeric_strings_and_booleans_are_not_numbers():
    with pytest.raises(ValueError, match="state data: entries must be numbers, got '1'"):
        state_from_json({"dims": [1, 2], "kind": "pure", "data": [[["1", 0], [False, 0]]]})


@pytest.mark.parametrize("entry", ["0", "0.0", False, True, None])
@pytest.mark.parametrize("kind", ["state", "channel", "probe"])
def test_complex_entries_must_be_numbers(kind, entry):
    # one part of the first entry replaced, so the list holds it next to a number
    doc, read, what = {
        "state": (state_to_json(DensityMatrix((2, 2), np.eye(4) / 4)), state_from_json,
                  "state data"),
        "channel": (channel_to_json(amplitude_damping(0.2)), channel_from_json,
                    "Kraus operator"),
        "probe": (probe_to_json(canonical_probe(2)), probe_from_json, "probe matrix")}[kind]
    key = {"state": "data", "channel": "kraus", "probe": "matrix"}[kind]
    rows = doc[key][0] if kind == "channel" else doc[key]
    rows[0][0][1] = entry
    with pytest.raises(ValueError, match=f"{what}: entries must be numbers, got {entry!r}"):
        read(doc)


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match=r"state data: entries must be numbers, got \[1, 0\]"):
        state_from_json({"dims": [1, 2], "kind": "pure", "data": [[[1, 0], [0]]]})


def test_dump_is_deterministic(tmp_path):
    doc = state_to_json(random_density((2, 2), 2, seed=1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(doc, a)
    dump_json(doc, b)
    assert a.read_bytes() == b.read_bytes()
    assert load_json(a) == doc
