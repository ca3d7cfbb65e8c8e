"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Every workload draws its inputs from ``--seed`` with plain NumPy,
writes them as JSON documents in the library's file format, and decodes
them back through ``entbound.serialize`` before anything is timed; the
program only ever sees the decoded inputs.  One *pass* is one call per
input; passes repeat for the run's duration.  The first output of each
input is checked against ``reference``; every later output of the same
input must be identical to the first (for the sweep, byte-identical CSV).
"""

from __future__ import annotations

import numpy as np

from entbound import cli, concurrence, serialize, suites

import reference as ref

SWEEP_CONFIGS = 11          # seeded configs per sweep_2q pass, plus the bundled one
BOUND_CASES = 128           # distinct (state, channels, probe) triples per bound_nd pass
BOUND_DIMS = (2, 3, 4, 6)
THEOREM1_SHAPES = ((3, 3), (4, 4), (2, 3), (3, 4))
PROBE_SIGMA_MIN = 1e-4      # random probes are redrawn below this singular value
# check_all: one pass runs every suite under CHECK_SEEDS suite seeds drawn
# from --seed, each with a twentieth of the suite's default trials
# (``None``: mes-basis has no trials).  The suites draw their Kraus counts
# and ranks from the suite seed, so one seed alone would make the work per
# pass depend on it; several seeds average that out while a pass keeps
# the mix of ``entbound check all`` and lasts about a second.
CHECK_SEEDS = 4
CHECK_TRIALS = {"theorem1": 50, "probe-invariance": 5, "pt-equivalence": 10,
                "sandwich": 25, "mes-basis": None, "structural": 50}


# --- plain-NumPy input generation ---------------------------------------

def _rng(seed, *path):
    return np.random.default_rng([int(seed), *path])


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(d, rank, rng):
    g = _gaussian(rng, (d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(d, rng):
    z = _gaussian(rng, d)
    return z / np.linalg.norm(z)


def random_kraus(n, count, rng, trace_preserving=True):
    """Random TP Kraus set G_k S^{-1/2} with S = sum G^dag G; truncated to
    its first operator when the channel must not be trace preserving."""
    gs = [_gaussian(rng, (n, n)) for _ in range(count)]
    w, v = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    ops = [g @ root_inv for g in gs]
    return ops if trace_preserving else ops[:1]


def random_probe(n, rng):
    while True:
        p = _gaussian(rng, (n, n))
        p = p / np.linalg.norm(p)
        if np.linalg.svd(p, compute_uv=False)[-1] > PROBE_SIGMA_MIN:
            return p


def _pairs(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(matrix)]


def state_doc(dims, data, kind="density"):
    return {"dims": list(dims), "kind": kind, "data": _pairs(data)}


def channel_doc(ops):
    return {"input_dim": int(ops[0].shape[0]), "kraus": [_pairs(m) for m in ops]}


def probe_doc(p):
    return {"dim": int(p.shape[0]), "matrix": _pairs(p)}


def round_trip(doc, path):
    """Write a document with the library's writer and read it back."""
    serialize.dump_json(doc, path)
    return serialize.load_json(path)


# --- workloads -----------------------------------------------------------

class Workload:
    """One input set, the call under test and its checks.

    ``items`` is the list of inputs of one pass.  ``call`` is the timed
    entry-point call; ``output`` turns its result into a comparable value
    (outside the timed region); ``check`` returns failure kinds per
    operation of an item.
    """

    unit = "call"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = int(seed)
        self.workdir = workdir
        self.tiny = tiny
        self.docs = self.generate()

    def generate(self):
        return []

    def decode(self):
        """JSON round trip of the generated documents; sets ``items``."""
        self.items = [self.decode_item(i, round_trip(doc, self.workdir / f"input-{i}.json"))
                      for i, doc in enumerate(self.docs)]

    def units(self, item):
        return 1

    def output(self, item, result):
        return result


class Sweep2Q(Workload):
    """In-process ``cli.run_sweep`` on the default 101-point grid."""

    name = "sweep_2q"
    unit = "grid point"

    def generate(self):
        docs = [{}]  # the bundled example
        for j in range(2 if self.tiny else SWEEP_CONFIGS):
            rng = _rng(self.seed, 0, j)
            non_tp = (j % 3 in (1, 2), j % 3 == 2)
            count = 2 + j % 2
            doc = {"base_state": state_doc((2, 2), random_density(4, 1 + j % 4, rng)),
                   "channel_1": channel_doc(random_kraus(2, count, rng, not non_tp[0])),
                   "channel_2": channel_doc(random_kraus(2, count, rng, not non_tp[1]))}
            if j % 2 == 1:
                doc["probe"] = probe_doc(random_probe(2, rng))
            if self.tiny:
                doc["x_grid"] = [0.0, 0.5, 1.0]
            docs.append(doc)
        return docs

    def decode_item(self, i, doc):
        config = cli.sweep_config_from_json(doc)
        return {"config": config, "csv": self.workdir / f"sweep-{i}.csv"}

    def warmup(self):
        config = cli.sweep_config_from_json({"x_grid": [0.0, 0.5, 1.0]})
        cli.run_sweep(config, self.workdir / "warmup.csv")

    def units(self, item):
        return len(item["config"].x_grid)

    def call(self, item):
        cli.run_sweep(item["config"], item["csv"])

    def output(self, item, result):
        return item["csv"].read_bytes()

    def check(self, item, csv_bytes):
        config = item["config"]
        non_tp = not (config.channel_1.trace_preserving and config.channel_2.trace_preserving)
        expected = ref.sweep_reference(config.base_state.matrix, config.channel_1.operators,
                                       config.channel_2.operators, config.probe.matrix,
                                       config.x_grid)
        lines = csv_bytes.decode("utf-8").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        if len(rows) != len(expected):
            return [["row_count"]] * len(expected)
        return [ref.check_sweep_row(e, r, non_tp) for e, r in zip(expected, rows)]

    def probe_route_ok(self, kinds):
        return "lower" not in kinds


class BoundND(Workload):
    """``cli.evaluate_bound(..., method="probe")`` on distinct seeded triples.

    Case i has n = BOUND_DIMS[i % 4], is two-sided when (i // 4) is odd,
    acts on the first or second side (one-sided cases) by (i // 8),
    truncates a channel to a non-trace-preserving one when i % 3 == 0,
    and has 2 or 3 Kraus operators per channel by (i // 24).  The seed
    draws only the numbers, so the work per pass does not depend on it.
    """

    name = "bound_nd"
    unit = "bound evaluation"

    def generate(self):
        return [self._case(i) for i in range(16 if self.tiny else BOUND_CASES)]

    def _case(self, i, stream=1):
        rng = _rng(self.seed, stream, i)
        n = BOUND_DIMS[i % len(BOUND_DIMS)]
        two_sided = (i // 4) % 2 == 1
        truncated = (1 + (i // 12) % 2 if two_sided else 1) if i % 3 == 0 else 0
        count = 2 + (i // 24) % 2
        channels = [channel_doc(random_kraus(n, count, rng, truncated != k))
                    for k in range(1, 3 if two_sided else 2)]
        return {"state": state_doc((n, n), random_density(n * n, int(rng.integers(1, n * n + 1)),
                                                         rng)),
                "channels": channels,
                "side": "second" if (i // 8) % 2 else "first",
                "probe": probe_doc(random_probe(n, rng))}

    def decode_item(self, i, doc):
        return {"state": serialize.state_from_json(doc["state"]),
                "channels": tuple(serialize.channel_from_json(c) for c in doc["channels"]),
                "side": doc["side"],
                "probe": serialize.probe_from_json(doc["probe"])}

    def warmup(self):
        for i in range(8):
            self.call(self.decode_item(i, self._case(i, stream=2)))

    def call(self, item):
        return cli.evaluate_bound(item["state"], item["channels"], item["side"],
                                  item["probe"], "probe")

    def output(self, item, result):
        return result.to_json()

    def check(self, item, report):
        kraus = [c.operators for c in item["channels"]]
        expected = ref.bound_reference(item["state"].matrix, kraus, item["side"],
                                       item["probe"].matrix)
        non_tp = not all(c.trace_preserving for c in item["channels"])
        return [ref.check_bound_report(expected, report, non_tp)]

    def probe_route_ok(self, kinds):
        return "lower_raw" not in kinds


class Theorem1ND(Workload):
    """``concurrence.theorem1_bound`` with library defaults beyond two qubits."""

    name = "theorem1_nd"
    unit = "Theorem-1 bound"

    def generate(self):
        # One state per shape, pure or mixed by the parity of shape index
        # plus seed: each run holds both kinds, and across seeds every
        # shape sees both.
        docs = []
        for i, dims in enumerate(THEOREM1_SHAPES[:2] if self.tiny else THEOREM1_SHAPES):
            d = dims[0] * dims[1]
            rng = _rng(self.seed, 3, i)
            if (i + self.seed) % 2 == 0:
                docs.append(state_doc(dims, random_pure(d, rng), kind="pure"))
            else:
                docs.append(state_doc(dims, random_density(d, int(rng.integers(2, d + 1)), rng)))
        return docs

    def decode_item(self, i, doc):
        state = serialize.state_from_json(doc)
        pure = doc["kind"] == "pure"
        return {"rho": state.density() if pure else state,
                "coefficients": state.amplitudes.reshape(state.dims) if pure else None}

    def warmup(self):
        for item in self.items:
            concurrence.theorem1_bound(item["rho"], samples=20)

    def call(self, item):
        if self.tiny:
            return concurrence.theorem1_bound(item["rho"], samples=200)
        return concurrence.theorem1_bound(item["rho"])

    def output(self, item, result):
        return result.raw

    def check(self, item, value):
        rho = item["rho"]
        expected = ref.theorem1_reference(rho.matrix, rho.dims, item["coefficients"])
        return [ref.check_theorem1(expected, value)]


class CheckAll(Workload):
    """Every suite through ``suites.run_suites(name, seed, trials)``: one
    call is ``entbound check all`` for one suite seed at a twentieth of the
    default trials, one pass a call per suite seed."""

    name = "check_all"
    unit = "suite"

    def decode(self):
        seeds = _rng(self.seed, 4).integers(0, 2**31, 2 if self.tiny else CHECK_SEEDS)
        self.items = [{"seed": int(s)} for s in seeds]

    def warmup(self):
        suites.run_suites("all", self.seed, trials=1)

    def units(self, item):
        return len(suites.SUITE_NAMES)

    def call(self, item):
        results = []
        for name in suites.SUITE_NAMES:
            trials = 2 if self.tiny else CHECK_TRIALS[name]
            results += suites.run_suites(name, item["seed"], trials)
        return results

    def output(self, item, results):
        return tuple((r.name, r.passed, r.trials, r.failures, r.worst_residual)
                     for r in results)

    def check(self, item, results):
        return [ref.check_suite(suites.SuiteResult(*r)) for r in results]


WORKLOADS = {w.name: w for w in (Sweep2Q, BoundND, Theorem1ND, CheckAll)}
