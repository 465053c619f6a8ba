"""Tests of the benchmark itself: span arithmetic and a smoke run of every
workload at tiny sizes.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "train_cls": ["train_samples_per_s", "train_step_p50_ms",
                  "train_step_tail_ms"],
    "serve_cls": ["predict1_p50_us", "predict1_tail_us", "predict64_p50_us",
                  "predict_bulk_rows_per_s", "calibrate_ms", "mc_dropout_ms",
                  "cold_start_ms"],
    "compare_reg": ["compare_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "error_rate"]
SPANNED_SHARE = 0.8


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_time_excludes_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    s = [["a", 0.0, 10.0, -1, False], ["b", 1.0, 3.0, 0, False],
         ["c", 4.0, 8.0, 0, False], ["d", 5.0, 6.0, 2, False]]
    assert spans.self_times(s) == [4.0, 2.0, 3.0, 1.0]


def test_span_time_leaves_out_enclosing_spans():
    s = [["a", 0.0, 10.0, -1, False], ["b", 1.0, 3.0, 0, False],
         ["c", 4.0, 8.0, 0, False], ["d", 5.0, 6.0, 2, False]]
    # "a" encloses both windows, so only b, c and d count
    assert spans.span_time_in_windows(s, [(0.0, 10.0)]) == 6.0
    assert spans.span_time_in_windows(s, [(2.0, 4.5), (5.5, 7.0)]) == 2.0
    # "c" encloses [5.5, 7.0] as well, so only "d" counts there
    assert spans.span_time_in_windows(s, [(5.5, 7.0)]) == 0.5
    # a window that no span encloses counts every span's self time in it
    assert spans.span_time_in_windows(s, [(-1.0, 11.0)]) == 10.0


def test_tape_size_counts_leaves_once():
    class Node:
        def __init__(self, *parents):
            self._parents = parents
    leaf = Node()
    mid = Node(leaf, leaf)
    assert spans.tape_size(Node(mid, leaf)) == 3


def test_every_workload_is_in_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(NAMED)
    assert len({m for names in NAMED.values() for m in names + COMMON}) == 14


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())

    report = json.loads(report_line)
    assert {"python", "numpy", "blas", "nproc", "git_commit",
            "src_lines"} <= set(report["env"])
    if trace:
        m = result["metrics"]
        traced = m["trace.op_traced_ms"]["value"]
        covered = m["trace.op_span_sum_ms"]["value"]
        assert 0 < covered <= traced * (1 + 1e-9)
        if workload != "serve_cls":
            # the spans of a training step explain most of it; the rest is
            # train()'s own loop
            assert covered >= SPANNED_SHARE * traced
            assert m["optim.train.calls"]["value"] >= 1
            assert m["autograd.tape_nodes"]["value"] > 0
        else:
            # set-up training is kept apart from the served calls
            assert m["optim.train.calls"]["value"] == 0
            assert m["autograd.tape_nodes"]["value"] == 0
            assert m["persist.save.calls"]["value"] == 2
    else:
        named = report["metrics"]
        for name in COMMON + NAMED[workload]:
            assert named[name]["unit"], name
        assert named["error_rate"]["value"] == 0
        assert all(v["value"] > 0 for k, v in result["metrics"].items())


def test_all_workloads_in_one_process():
    """One command prints all 14 named metrics, by name and unit."""
    proc = run_bench("all", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        f"{w}.{m['name']}" for w in NAMED for m in SPEC["end_to_end"])
    reports = {r["workload"]: r["metrics"] for r in map(json.loads, (
        line for line in lines[:-1] if line.startswith('{"workload"')))}
    assert sorted(reports) == sorted(NAMED)
    for workload, names in NAMED.items():
        for name in COMMON + names:
            assert reports[workload][name]["unit"], (workload, name)
            assert f"{name} " in proc.stdout
        assert reports[workload]["error_rate"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_cls", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
