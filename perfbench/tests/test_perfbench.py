"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def run_bench(workload, *flags, trace=0, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_answer_check(workload, trace):
    code, lines, stderr = run_bench(workload, trace=trace)
    assert code == 0, stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    row = json.loads(lines[-2])["row"]
    assert row["seed"] == 7 and row["cores"] >= 1 and row["python"] and row["numpy"]
    assert row["metrics"]["fail_ratio"][0] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "stream_tail":
        assert "gen_late_p90_ms" in row["metrics"]


def _first(workload, inputs, count=40):
    sequence = {
        "serve_read": workloads.serve_read_blocks,
        "ingest_edit": workloads.ingest_edit_rounds,
        "stream_tail": workloads.stream_chunks,
        "adhoc_query": workloads.adhoc_expressions,
    }[workload](inputs)
    return list(itertools.islice(sequence, count if workload != "ingest_edit" else 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.make_inputs(workload, 3, tiny=True)
    again = workloads.make_inputs(workload, 3, tiny=True)
    other = workloads.make_inputs(workload, 4, tiny=True)
    assert first == again
    assert _first(workload, first) == _first(workload, again)
    assert (first, _first(workload, first)) != (other, _first(workload, other))


def test_adhoc_atoms_are_never_repeated():
    inputs = workloads.make_inputs("adhoc_query", 1, tiny=True)
    expressions = _first("adhoc_query", inputs, 400)
    assert len(set(expressions)) == len(expressions)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_answer_is_caught(workload):
    code, lines, _ = run_bench(workload, "--inject-wrong-answer")
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert json.loads(lines[-2])["row"]["metrics"]["fail_ratio"][0] > 0


def test_yardstick_leaves_out_its_own_cpu_time():
    with workloads.Yardstick() as stick:
        began = time.thread_time_ns()
        while time.thread_time_ns() - began < 200_000_000:
            workloads.reference_work()
        spent = time.thread_time_ns() - began
    assert len(stick.samples_ns) > 1 and stick.reference_ns > 0
    assert abs(stick.program_cpu_ns - spent) < 0.1 * spent


def test_without_program_sources_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = run_bench("serve_read", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
