"""Run one workload in this (fresh) interpreter and print its measurements.

Started by ``run.py``; prints a single JSON line.  The interpreter's
set-up ends at ``ready_at``, a ``time.monotonic`` reading that ``run.py``
compares with the moment it started the process.

Untraced run: warm up, then repeat passes over the inputs until
``--seconds`` have elapsed, timing each entry-point call.  Traced run:
alternate untraced passes with passes that record spans around every
public function, for ``--seconds`` in all; the difference between the
two sides' call times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def new_run():
    return {"latencies": [], "pass_walls": [], "pass_units": [], "first": {}, "raised": {},
            "changed": set()}


def one_pass(workload, run, tracer=None):
    """Call every item once, timing each call; record the first output of
    each item, and the items that raised or whose output differed from
    their first."""
    wall = 0.0
    units = 0
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            result = workload.call(item)
        except Exception as exc:  # a raising call is a failed operation
            run["raised"].setdefault(index, f"raised:{type(exc).__name__}")
            continue
        finally:
            run["latencies"].append(time.perf_counter() - t0)
            wall += run["latencies"][-1]
        units += workload.units(item)
        out = workload.output(item, result)
        if index not in run["first"]:
            run["first"][index] = out
        elif out != run["first"][index]:
            run["changed"].add(index)
    run["pass_walls"].append(wall)
    run["pass_units"].append(units)


def run_passes(workload, seconds):
    """Repeat passes until the first pass boundary past ``seconds``."""
    run = new_run()
    start = time.perf_counter()
    while not run["pass_walls"] or time.perf_counter() - start < seconds:
        one_pass(workload, run)
    return run


def run_traced(workload, seconds, tracer):
    """Alternate untraced and traced passes until ``seconds`` have elapsed,
    so that drift over the run affects both sides alike."""
    untraced, traced = new_run(), new_run()
    start = time.perf_counter()
    while not traced["pass_walls"] or time.perf_counter() - start < seconds:
        one_pass(workload, untraced)
        tracer.install()
        try:
            one_pass(workload, traced, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def evaluate(workload, runs):
    """Check the first output of every item against the reference.

    An item may hold several operations (a sweep holds one per grid
    point); each counts once however often it ran.
    """
    import reference

    kinds = Counter()
    attempted = failed = agree = agree_attempted = 0
    raised = {}
    changed = set()
    for run in runs:
        for index, kind in run["raised"].items():
            raised.setdefault(index, kind)
        changed |= run["changed"]
    first = runs[0]["first"]
    # A later run's first output must equal the earlier one's.
    for run in runs[1:]:
        changed |= {i for i, out in run["first"].items() if i in first and out != first[i]}
    route_ok = getattr(workload, "probe_route_ok", None)
    for index, item in enumerate(workload.items):
        if index in raised:
            per_op = [[raised[index]]]
        else:
            per_op = workload.check(item, first[index])
        for op_kinds in per_op:
            if index in changed:
                op_kinds = op_kinds + ["nondeterministic"]
            attempted += 1
            failed += bool(op_kinds)
            kinds.update(set(op_kinds))
            if route_ok is not None and index not in raised:
                agree_attempted += 1
                agree += route_ok(op_kinds)
    unexpected = {k: v for k, v in kinds.items() if k != reference.KNOWN_DEFECT}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "failures_by_kind": dict(sorted(kinds.items())),
            "agree": agree, "agree_attempted": agree_attempted}


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(run):
    """Pass and call timings over the run.

    Pass wall and rate are read at the slow end (90th percentile of the
    wall, 10th of the rate): on a shared host the CPU speeds up in spells
    when other tenants idle and falls back to a loaded speed that holds
    from run to run, so the slow end is the steady reading and the median
    swings with the spells.  The median call latency is reported as well.
    """
    lat = run["latencies"]
    rates = [u / w for u, w in zip(run["pass_units"], run["pass_walls"])]
    return {"ops_per_s": _percentile(rates, 0.1),
            "call_p50_ms": 1e3 * _percentile(lat, 0.5),
            "call_p90_ms": 1e3 * _percentile(lat, 0.9),
            "wall_s": _percentile(run["pass_walls"], 0.9)}


def run_workload(name, seed, seconds, trace, workdir, tiny=False, on_ready=None):
    """Set up, warm up and measure one workload; returns the result record."""
    # Imported here, not at the top, so that main() times the first import
    # of entbound.cli together with NumPy.
    import numpy as np

    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, tiny=tiny)
    workload.decode()
    if on_ready is not None:
        on_ready()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload.warmup()
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                workload.decode()  # serialize spans, under operation -1
            finally:
                tracer.uninstall()
            del caught[:]
            runs = run_traced(workload, seconds, tracer)
        else:
            runs = [run_passes(workload, seconds)]
    untraced = runs[0]
    result = evaluate(workload, runs)
    result["record"] = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                        "unit": workload.unit, "items_per_pass": len(workload.items),
                        "calls": len(untraced["latencies"]),
                        "passes": len(untraced["pass_walls"]), "numpy": np.__version__,
                        "blas": "{name} {version}".format(
                            **np.show_config(mode="dicts")["Build Dependencies"]["blas"])}
    if trace:
        base = sum(untraced["latencies"])
        overhead = sum(runs[1]["latencies"]) - base
        metrics = tracing.layer_metrics(tracer)
        metrics.update({
            "probe.condition_warnings": sum(tracing.CONDITION_WARNING in str(w.message)
                                            for w in caught),
            "probe.agree_ratio": result["agree"] / max(1, result["agree_attempted"]),
            "trace.overhead_s": overhead, "trace.overhead_frac": overhead / base})
        result["record"]["spans"] = len(tracer.spans)
        result["tracer"] = tracer
    else:
        metrics = end_to_end(untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import entbound.cli  # noqa: F401  (timed: the user-visible import)
    import_s = time.perf_counter() - start
    ready = {}

    def on_ready():
        ready["at"] = time.monotonic()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.setup_only:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed, Path(tmp)).decode()
            on_ready()
            print(json.dumps({"ready_at": ready["at"]}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, Path(tmp),
                              on_ready=on_ready)
    if args.trace:
        result["metrics"]["cli.import_s"] = import_s
        tracer = result.pop("tracer")
        out = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(out)
        result["record"]["spans_file"] = str(out.relative_to(ROOT))
    result["record"]["import_s"] = import_s
    result["ready_at"] = ready["at"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
