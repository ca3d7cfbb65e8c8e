"""Benchmark for entbound: four seeded workloads, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_2q --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in fresh interpreters with BLAS capped at
one thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see README.md).  Every output is
checked against a plain-NumPy reference.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_2q", "bound_nd", "theorem1_nd", "check_all")

# Set-up time is the median over this many fresh interpreters; the last
# of them goes on to run the workload.
SETUP_RUNS = 9
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150

# The gated metrics of BENCHMARK.json.  The median call latency goes to the
# table and the run record only: across seeds it swings with the host's
# speed by more than the largest bound allowed (see README.md).
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "call_p90_ms": "ms", "wall_s": "s",
                    "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    pass


def _worker(args, seed, extra=()):
    """Run worker.py to completion; returns its JSON line and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def run_one(args):
    """Measure one workload; returns (result line, run record)."""
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            probe, started = _worker(args, args.seed, ["--setup-only"])
            setup.append(probe["ready_at"] - started)
    result, started = _worker(args, args.seed)
    setup.append(result["ready_at"] - started)
    record = result["record"]
    record.update(python=platform.python_version(),
                  blas_threads=BLAS_ENV["OPENBLAS_NUM_THREADS"], nproc=os.cpu_count(),
                  affinity=len(os.sched_getaffinity(0)), setup_samples=len(setup),
                  failures_by_kind=result["failures_by_kind"],
                  fail_frac=result["failed"] / result["attempted"],
                  probe_agree=f"{result['agree']}/{result['agree_attempted']}")
    metrics = result["metrics"]
    if args.trace:
        units = dict(_per_layer_units())
        shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics["setup_s"] = statistics.median(setup)
        record["call_p50_ms"] = metrics["call_p50_ms"]
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": shown}
    return line, record


def _per_layer_units():
    sys.path.insert(0, str(HERE))
    from tracer import per_layer_names

    return per_layer_names()


def _print_table(workload, line, record):
    for name, metric in line["metrics"].items():
        print(f"{workload:12s} {name:44s} {metric['value']:.6g} {metric['unit']}")
    if "call_p50_ms" in record:
        print(f"{workload:12s} {'call_p50_ms (not gated)':44s} {record['call_p50_ms']:.6g} ms")
    print(f"{workload:12s} {'fail_frac':44s} {record['fail_frac']:.6g} 1 "
          f"({line['failed']}/{line['attempted']}, by kind {record['failures_by_kind']})")
    print(f"{workload:12s} {'samples':44s} {record['calls']} calls, {record['passes']} passes, "
          f"{record['setup_samples']} set-ups")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "entbound" / "__init__.py").is_file():
        print(f"error: no entbound sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # Turn SIGTERM into an exception so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            line, record = run_one(args)
        except (BenchmarkError, KeyError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_table(name, line, record)
        print(json.dumps({"run_record": record}))
        results[name] = line
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
