"""Self-tests of the benchmark harness, on the reduced (--quick) sizes.

    python3 -m pytest perfbench -q

They check that each workload runs clean, that a wrong output, an
exception and a hung call each count as a failed operation without
stopping the run, and that the traced run's self times add up.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracer import ROOT_LAYER, self_times  # noqa: E402

SPEC = json.loads(bench.SPEC_PATH.read_text())
EXPECTED = json.loads(bench.EXPECTED_PATH.read_text())
COUNTS = ("trees.iterations_built", "trees.edges_built", "realization.vertices_placed",
          "core.path_pairs", "core.labels_registered", "algnum.ops")


def quick(workload: str, seed: int = 3, trace: bool = False, expected: dict | None = None):
    return bench.run_workload(workload, seed, 0, trace, quick=True, expected=expected)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_quick_run_is_correct_and_reports_every_metric(workload):
    result = quick(workload)
    assert result["errors"] == []
    assert result["attempted"] > 0 and result["figures"]["fail_ratio"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["figures"][metric["name"]] > 0, metric["name"]


def test_corrupted_digest_counts_as_failed():
    expected = copy.deepcopy(EXPECTED["quick"]["artifacts"])
    expected["gen-dot"] = "0" * 64
    result = quick("artifacts", expected=expected)
    assert result["failed"] == 1 and result["attempted"] == 5
    assert result["figures"]["fail_ratio"] > 0
    assert "gen-dot" in result["errors"][0]


def test_check_count_off_by_one_counts_as_failed():
    expected = copy.deepcopy(EXPECTED["quick"]["audit"])
    expected["4"]["count"] += 1
    result = quick("audit", expected=expected)
    assert result["failed"] == 1 and result["attempted"] == 3
    assert result["figures"]["fail_ratio"] > 0


def test_exception_fails_one_call_and_the_run_goes_on(monkeypatch):
    calls = [{"suite": "core", "d": 2, "max_stage": 6}] + bench.SIZES["quick"]["audit"][1:]
    monkeypatch.setitem(bench.SIZES["quick"], "audit", calls)
    result = quick("audit")
    assert result["attempted"] == 3 and result["failed"] == 1
    assert result["errors"][0].startswith("audit d=2: ValueError")


def test_hung_call_is_killed_and_counted(monkeypatch):
    # the full d=3 audit takes seconds; a 0.3 s limit turns every call into a timeout
    monkeypatch.setattr(bench, "CALL_LIMIT_S", 0.3)
    monkeypatch.setitem(bench.SIZES["quick"], "audit", [{"suite": "all", "d": 3}] * 2)
    result = quick("audit")
    assert result["attempted"] == 2 and result["failed"] == 2
    assert all("no reply within" in e for e in result["errors"])



def run_out_on_pass(monkeypatch, cut_pass: int) -> None:
    """Make the run's deadline fall at the start of pass `cut_pass` of `audit`."""
    real, started = bench.PASSES["audit"], []

    def one_pass(run, *args):
        started.append(1)
        if len(started) == cut_pass:
            run.deadline = time.perf_counter()
        return real(run, *args)

    monkeypatch.setitem(bench.PASSES, "audit", one_pass)


def test_pass_cut_by_the_deadline_is_dropped_and_not_counted(monkeypatch):
    run_out_on_pass(monkeypatch, 2)
    result = bench.run_workload("audit", 3, 600, False, quick=True)
    assert result["errors"] == []
    assert result["attempted"] == 3 and result["failed"] == 0
    assert len(result["passes"]) == 1 and result["figures"]["wall_s"] > 0


def test_no_complete_pass_is_one_failed_operation(monkeypatch):
    run_out_on_pass(monkeypatch, 1)
    result = bench.run_workload("audit", 3, 0, False, quick=True)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["errors"] == [f"no complete pass within {bench.RUN_MARGIN_S:.0f} s"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_self_times_are_consistent(workload):
    result = quick(workload, trace=True)
    assert result["errors"] == []
    assert result["spans"]
    for call in result["spans"]:
        rows = call["spans"]
        own = self_times(rows)
        assert all(t >= 0 for t in own)
        root = rows[0]
        assert root[1] == ROOT_LAYER and root[2] is None
        assert sum(t for row, t in zip(rows, own) if row[1] != ROOT_LAYER) <= root[6]
        for name, layer, parent, start, end, calls, total in rows[1:]:
            assert 0 <= start <= end <= root[4] and calls >= 1 and total <= end - start
    for metric in SPEC["per_layer"]:
        assert metric["name"] in result["figures"], metric["name"]


def test_trace_counts_repeat_across_runs_and_seeds():
    first = quick("audit", seed=1, trace=True)["figures"]
    second = quick("audit", seed=2, trace=True)["figures"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["trees.iterations_built"] > 0 and first["algnum.ops"] > 0
    geo = [quick("deep-geometry", seed=5, trace=True)["figures"] for _ in range(2)]
    assert {k: geo[0][k] for k in COUNTS} == {k: geo[1][k] for k in COUNTS}


def test_pairs_depend_only_on_the_seed():
    branch = list(range(100, 400))
    assert bench.draw_pairs(branch, 7, 50) == bench.draw_pairs(branch, 7, 50)
    assert bench.draw_pairs(branch, 7, 50) != bench.draw_pairs(branch, 8, 50)
    assert all(x != y for x, y in bench.draw_pairs(branch, 7, 50))


def test_percentile_leaves_ten_of_two_hundred_above_p95():
    values = [float(i) for i in range(200)]
    p95 = bench.percentile(values, 0.95)
    assert sum(v > p95 for v in values) == 10
    assert bench.percentile(values, 0.5) == 99.0


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_call_seconds_scale_by_the_bracketing_yardsticks(tmp_path):
    run = bench.Run(tmp_path, 10.0)
    run.yardsticks = [0.4, 0.8, 0.2]
    ref = bench.YARDSTICK_REF_S
    assert run.seconds({"seconds": 3.0, "yardstick": 0}) == pytest.approx(3.0 * ref / 0.6)
    assert run.seconds({"seconds": 3.0, "yardstick": 2}) == pytest.approx(3.0 * ref / 0.2)
    assert run.seconds({"seconds": 3.0, "yardstick": -1}) == pytest.approx(3.0 * ref / 0.4)
