"""Tests of the benchmark itself:  python3 -m pytest perfbench

A tiny run of each workload must pass its reference checks, and a
deliberately perturbed output must count as a failed operation.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the path)
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from entbound import channels, cli, suites  # noqa: E402

END_TO_END = {"ops_per_s", "call_p50_ms", "call_p90_ms", "wall_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path):
    result = worker.run_workload(name, seed=1, seconds=0.01, trace=0, workdir=tmp_path,
                                 tiny=True)
    assert result["correct"], result["failures_by_kind"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(v > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = worker.run_workload("bound_nd", seed=1, seconds=0.01, trace=1, workdir=tmp_path,
                                 tiny=True)
    names = {name for name, _ in tracing.per_layer_names()} - {"cli.import_s"}
    assert set(result["metrics"]) == names
    assert result["metrics"]["probe.lower_bound_two_sided.calls"] > 0
    assert result["metrics"]["probe.agree_ratio"] == 1.0
    # the originals are back in place
    assert cli.apply_one_sided is channels.apply_one_sided
    assert not hasattr(cli.apply_one_sided, "__wrapped__")


def _perturb_sweep(csv_bytes):
    lines = csv_bytes.decode().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)  # lower_bound column
    lines[1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _perturb_bound(report):
    return {**report, "lower_raw": report["lower_raw"] + 1e-6}


PERTURB = {
    "sweep_2q": _perturb_sweep,
    "bound_nd": _perturb_bound,
    "theorem1_nd": lambda value: value - 1.0,  # below the fixed-MES bound
    "check_all": lambda rows: ((rows[0][0], False) + rows[0][2:],) + rows[1:],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_output_counts_as_failure(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path, tiny=True)
    workload.decode()
    run = worker.new_run()
    worker.one_pass(workload, run)
    clean = worker.evaluate(workload, [run])
    run["first"][0] = PERTURB[name](run["first"][0])
    perturbed = worker.evaluate(workload, [run])
    assert perturbed["failed"] == clean["failed"] + 1
    assert not perturbed["correct"]


def test_changed_output_counts_as_nondeterministic(tmp_path):
    workload = WORKLOADS["bound_nd"](1, tmp_path, tiny=True)
    workload.decode()
    run = worker.new_run()
    worker.one_pass(workload, run)
    run["changed"].add(0)
    result = worker.evaluate(workload, [run])
    assert result["failures_by_kind"]["nondeterministic"] == 1
    assert not result["correct"]


def test_reference_checks_flag_perturbed_bounds():
    import numpy as np

    kraus = [np.diag([1.0, np.sqrt(0.7)]), np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]])]
    probe = np.eye(2) / np.sqrt(2.0)
    base = np.full((4, 4), 0.0)
    base[0, 0] = base[3, 3] = base[0, 3] = base[3, 0] = 0.5
    (row,) = ref.sweep_reference(base, kraus, kraus, probe, [1.0])
    csv_row = {"x": 1.0, "lower_bound": row["lower"], "concurrence": row["exact"],
               "upper_bound": row["upper"], "p_total": row["p"]}
    assert ref.check_sweep_row(row, csv_row, non_tp=False) == []
    assert "lower" in ref.check_sweep_row(row, {**csv_row, "lower_bound": row["lower"] + 2e-8},
                                          non_tp=False)
    low_upper = {**csv_row, "upper_bound": row["exact"] - 1e-6}
    assert ref.KNOWN_DEFECT in ref.check_sweep_row(row, low_upper, non_tp=True)
    assert "upper_violation" in ref.check_sweep_row(row, low_upper, non_tp=False)
    assert "p" in ref.check_sweep_row(row, {**csv_row, "p_total": row["p"] + 1e-9},
                                      non_tp=False)

    expected = ref.theorem1_reference(base, (2, 2), coefficients=np.eye(2) / np.sqrt(2.0))
    assert ref.check_theorem1(expected, 1.0) == []
    assert ref.check_theorem1(expected, 1.0 + 1e-6) != []

    assert ref.check_suite(suites.SuiteResult("x", True, 3, 0, 0.0)) == []
    assert ref.check_suite(suites.SuiteResult("x", True, 0, 0, 0.0)) == ["zero_trials"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_2q",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
