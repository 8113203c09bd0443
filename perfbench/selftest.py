"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the repository's default test run (the file name does not
match ``test_*.py``): the smoke runs start servers and take about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(common.ROOT, "perfbench", "run.py")


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "count, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (50, 80.0), (40, 75.0), (20, 50.0), (3, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    pct, value = common.tail_percentile(samples)
    assert pct == expected
    if count >= 20:
        assert sum(1 for sample in samples if sample > value) >= common.MIN_BEYOND
    assert value == common.percentile(samples, pct)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(samples, 50) == 3.0
    assert common.percentile(samples, 100) == 5.0
    assert common.percentile(samples, 1) == 1.0


def test_quartiles_match_statistics_quantiles():
    assert common.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


# ------------------------------------------------------------- self times
def test_self_time_subtracts_covered_part_once():
    # Overlapping children count once; a child sticking out is clipped.
    assert common.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert common.self_time((0.0, 10.0), []) == 10.0


def test_self_times_link_request_spans_across_processes():
    client, server, worker = 1, 2, 3
    spans = [
        # id, parent, name, start, end, request id, pid
        (10, None, "op", 0.0, 10.0, 7, client),
        (11, 10, "client.encode_message", 0.5, 1.5, 7, client),
        (20, None, "server.handle", 2.0, 8.0, 7, server),
        (21, 20, "pool.run", 3.0, 7.0, 7, server),
        (30, 21, "worker.job", 3.5, 6.5, 7, worker),
        (22, None, "protocol.encode_message", 8.0, 8.5, 7, server),
        # another request's handler inside the window is not a child
        (40, None, "server.handle", 9.0, 9.5, 8, server),
    ]
    own = tracing.self_times(spans)
    assert own[10] == pytest.approx(10.0 - 1.0 - 6.0 - 0.5)
    assert own[20] == pytest.approx(6.0 - 4.0)
    assert own[21] == pytest.approx(4.0 - 3.0)
    assert own[30] == pytest.approx(3.0)
    # Self times along one request add up to its end-to-end time.
    assert sum(own[key] for key in (10, 11, 20, 21, 30, 22)) == pytest.approx(10.0)


def test_trace_windows_and_worker_names():
    payloads = [
        {
            "pid": 1,
            "spans": [[1, None, "op", 1.0, 2.0, 1, 1], [2, None, "op", 5.0, 6.0, 2, 1]],
            "counts": [["x", 2, 1.5], ["x", 5, 5.5]],
            "gauges": {"g": 1},
        },
        {
            "pid": 9,
            "spans": [[3, None, "exhaustive.verify", 1.2, 1.8, 1, 9]],
            "counts": [["x", 1, 1.5]],
            "gauges": {"g": 0},
        },
    ]
    view = tracing.Trace(payloads, [(0.0, 3.0)], main_pids=(1,))
    assert view.calls == {"op": 1, "worker:exhaustive.verify": 1}
    assert view.count("x") == 2 and view.count("worker:x") == 1
    assert view.gauges == {"g": 1}


# ------------------------------------------------------------------ inputs
def test_seed_gives_identical_inputs():
    def head(seed, count=300):
        stream = workloads.warm_query_ops(seed)
        return [next(stream) for _ in range(count)]

    assert head(3) == head(3)
    assert head(3) != head(4)
    assert workloads.sweep_subsets(3) == workloads.sweep_subsets(3)
    assert workloads.sweep_subsets(3) != workloads.sweep_subsets(4)


def test_inputs_have_the_promised_shape():
    subsets = workloads.sweep_subsets(1)
    assert len(subsets) == len(set(subsets)) == 50
    assert {len(subset) for subset in subsets} == {2, 3, 4}
    assert any(sorted(subset) == sorted(workloads.S1) for subset in subsets)
    stream = workloads.warm_query_ops(1)
    ops = [next(stream) for _ in range(5000)]
    share = {name: sum(1 for op, _ in ops if op == name) / len(ops) for name, _ in workloads.OP_WEIGHTS}
    assert share["admit"] == pytest.approx(0.8, abs=0.03)
    assert all(slot in workloads.INFEASIBLE_SLOTS for op, slot in ops if op == "counterexample")


# ------------------------------------------------------------- smoke runs
def _run(workload, trace, cwd=common.ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _declared(kind):
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", ["warm_query", "cold_sweep", "dimensioning"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert not os.path.exists(common.SCRATCH) or not os.listdir(common.SCRATCH)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(common.SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(common.ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        completed = _run("dimensioning", 0, cwd=bare, runner=os.path.join(bare, "perfbench", "run.py"))
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(common.SCRATCH)
        except OSError:  # not empty: another run is using it
            pass
