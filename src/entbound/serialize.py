"""JSON encoding of states, channels and probes.

Complex entries are written as [re, im] pairs so the files stay portable
across languages.  Encoding is deterministic: identical objects produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel
from .probe import ProbeState, probe_from_matrix
from .qlinalg import DensityMatrix, PureState, _check_dim


def _pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(matrix)]


def json_numbers(value, what: str) -> np.ndarray:
    """Nested lists of numbers as a float array; any other entry (a string, a boolean, also
    in a list like [true, 0.5], null, or the row of a ragged list) raises ValueError."""
    entries = np.asarray(value, dtype=object)
    for entry in entries.ravel():
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValueError(f"{what}: entries must be numbers, got {entry!r}")
    return entries.astype(float)


def _matrix(rows, what: str) -> np.ndarray:
    arr = json_numbers(rows, what)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValueError(f"{what}: expected rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(state) -> dict:
    """Encode a PureState or DensityMatrix."""
    if isinstance(state, PureState):
        return {"dims": list(state.dims), "kind": "pure",
                "data": _pairs(state.amplitudes)}
    if isinstance(state, DensityMatrix):
        return {"dims": list(state.dims), "kind": "density",
                "data": _pairs(state.matrix)}
    raise TypeError(f"cannot encode {type(state).__name__}")


def state_from_json(doc: dict):
    """Decode a state document; returns PureState or DensityMatrix.

    Raises ValueError on malformed documents; invariant violations
    (dims that are not two integers, bad norm, non-Hermitian matrix, ...)
    propagate from the constructors.
    """
    try:
        dims = doc["dims"]
        kind = doc["kind"]
        data = _matrix(doc["data"], "state data")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    if kind == "pure":
        return PureState(dims, data.reshape(-1))
    if kind == "density":
        return DensityMatrix(dims, data)
    raise ValueError(f"state kind must be 'pure' or 'density', got {kind!r}")


def channel_to_json(channel: KrausChannel) -> dict:
    return {"input_dim": channel.input_dim,
            "kraus": [_pairs(m) for m in channel.operators]}


def channel_from_json(doc: dict) -> KrausChannel:
    try:
        dim = doc["input_dim"]
        kraus = [_matrix(m, "Kraus operator") for m in doc["kraus"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    return KrausChannel(dim, tuple(kraus))


def probe_to_json(probe: ProbeState) -> dict:
    return {"dim": probe.dim, "matrix": _pairs(probe.matrix)}


def probe_from_json(doc: dict) -> ProbeState:
    try:
        dim = _check_dim(doc["dim"], "probe dim")
        matrix = _matrix(doc["matrix"], "probe matrix")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed probe document: {exc}") from exc
    if matrix.shape != (dim, dim):
        raise ValueError(f"probe matrix shape {matrix.shape} does not match dim {dim}")
    return probe_from_matrix(matrix)


def dump_json(doc: dict, path) -> None:
    """Write a document with fixed formatting (byte-identical for equal input)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
