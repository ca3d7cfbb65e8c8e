"""Spans around entbound's public functions, recorded from outside the program.

``Tracer.install`` replaces each listed function in every ``entbound``
module namespace that holds it (``cli.apply_two_sided`` and
``channels.apply_two_sided`` are the same function, so both names get
the same wrapper), including dictionaries of functions such as the
suite table, and wraps the validating ``__post_init__`` of the state and
channel classes.  Each call appends one span (name, start, end, parent
span, operation) to an in-memory list; ``uninstall`` restores the
originals, and ``install`` may be called again.  Self time is a span's
duration minus that of its direct children, which nest strictly
because everything runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

# Public functions per layer (module) on the workloads' paths.  Classes
# stand for their validating constructor.
LAYERS = {
    "qlinalg": ("DensityMatrix", "PureState", "partial_trace", "swap_operator",
                "canonical_mes", "state_to_matrix", "schmidt_decompose"),
    "channels": ("KrausChannel", "apply_one_sided", "apply_two_sided"),
    "concurrence": ("wootters_concurrence", "spin_flip_spectrum", "fidelity_lower_bound",
                    "fef_two_qubit", "max_mes_fidelity", "theorem1_bound", "concurrence_pure",
                    "upper_bound_one_sided", "upper_bound_two_sided"),
    "probe": ("probe_from_matrix", "canonical_probe", "mes_basis", "pt_via_reduced",
              "pt_via_mes_sum", "lower_bound_one_sided", "lower_bound_two_sided"),
    "suites": ("run_suites", "suite_theorem1", "suite_probe_invariance",
               "suite_pt_equivalence", "suite_sandwich", "suite_mes_basis", "suite_structural"),
    "serialize": ("state_from_json", "channel_from_json", "probe_from_json", "load_json",
                  "dump_json"),
    "cli": ("run_sweep", "evaluate_bound", "sweep_config_from_json"),
}

# Suite functions are reported by the suite name ``check`` prints.
SUITE_FUNCTIONS = {"suite_theorem1": "theorem1", "suite_probe_invariance": "probe-invariance",
                   "suite_pt_equivalence": "pt-equivalence", "suite_sandwich": "sandwich",
                   "suite_mes_basis": "mes-basis", "suite_structural": "structural"}

CONDITION_WARNING = "probe condition number"


def _assign(target, key, value):
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def span_name(layer, attr):
    if attr in SUITE_FUNCTIONS:
        return f"suites.{SUITE_FUNCTIONS[attr]}"
    return f"{layer}.{attr}"


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer, attrs in LAYERS.items():
        for attr in attrs:
            name = span_name(layer, attr)
            if attr in SUITE_FUNCTIONS:
                names.append((f"{name}.wall_s", "s"))
            else:
                names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        names.append((f"{layer}.self_s", "s"))
    names += [("cli.import_s", "s"), ("channels.zero_probability", "count"),
              ("probe.condition_warnings", "count"), ("probe.agree_ratio", "1"),
              ("trace.overhead_s", "s"), ("trace.overhead_frac", "1")]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.op = -1
        self.raised = Counter()
        self._patches = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, raised, clock = self.spans, self.stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    raised[type(exc).__name__] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        return traced

    def install(self):
        """Put the wrappers in place (the patch list is worked out once)."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for target, key, _, wrapper in self._patches:
            _assign(target, key, wrapper)

    def uninstall(self):
        for target, key, original, _ in reversed(self._patches):
            _assign(target, key, original)

    def _find_patches(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "entbound" or key.startswith("entbound.")]
        for layer, attrs in LAYERS.items():
            module = importlib.import_module(f"entbound.{layer}")
            for attr in attrs:
                original = getattr(module, attr)
                name = span_name(layer, attr)
                if isinstance(original, type):
                    hook = original.__dict__["__post_init__"]
                    yield original, "__post_init__", hook, self._wrap(name, hook)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            yield mod, key, original, wrapper
                        elif isinstance(value, dict):
                            yield from ((value, k, original, wrapper)
                                        for k, v in value.items() if v is original)

    def summary(self):
        """Per-name call counts, self time and total (wall) time."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, wall_s = Counter(), Counter(), Counter()
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += end - start - child[index]
            wall_s[name] += end - start
        return calls, self_s, wall_s

    def write(self, path):
        """Spans as gzip JSON lines: a header with the name table, then one
        [name, start, end, parent, op] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer):
    """Per-layer metric values from a finished trace (counts and times only)."""
    calls, self_s, wall_s = tracer.summary()
    values = {}
    for layer, attrs in LAYERS.items():
        total = 0.0
        for attr in attrs:
            name = span_name(layer, attr)
            total += self_s[name]
            if attr in SUITE_FUNCTIONS:
                values[f"{name}.wall_s"] = wall_s[name]
            else:
                values[f"{name}.calls"] = calls[name]
                values[f"{name}.self_s"] = self_s[name]
        values[f"{layer}.self_s"] = total
    values["channels.zero_probability"] = tracer.raised["ZeroProbability"]
    return values
