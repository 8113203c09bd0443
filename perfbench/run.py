"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 20 --trace 0

prints a human report, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer
metrics of a traced run (which also measures the tracing overhead).

Steadiness mode runs every workload N times in fresh processes, alternating
the order, and prints each metric's median and quartiles:

    python3 perfbench/run.py --steadiness 5 --seconds 20

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

#: ``BENCHMARK.json`` end-to-end metrics and their units.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op2_p50_ms": "ms",
    "op3_p50_ms": "ms",
}
WORKLOAD_NAMES = ("warm_query", "cold_sweep", "dimensioning")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_us", "us"),
        ("_ms", "ms"),
        ("_ratio", "ratio"),
        ("_per_hit", "ratio"),
        ("_bytes", "bytes"),
        ("bytes_per_state", "bytes"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_names():
    """Every per-layer metric name, as ``BENCHMARK.json`` lists them."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return [entry["name"] for entry in json.load(handle)["per_layer"]]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    outcome = workloads.WORKLOADS[workload](seed, seconds, trace)
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {error_rate:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"  {note}")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    if trace:
        metrics = {name: {"value": outcome.layers.get(name, 0.0), "unit": layer_unit(name)} for name in layer_names()}
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def steadiness(rounds: int, seconds: float, selected) -> int:
    """Run each workload ``rounds`` times (order alternating per round) and
    print median and quartiles of every end-to-end metric."""
    values = {workload: {} for workload in selected}
    for round_index in range(rounds):
        order = selected if round_index % 2 == 0 else list(reversed(selected))
        for workload in order:
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(round_index + 1),
                "--seconds", f"{seconds:g}", "--trace", "0",
            ]
            completed = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True, timeout=900)
            if completed.returncode != 0:
                print(completed.stdout + completed.stderr, file=sys.stderr)
                return completed.returncode
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            print(f"round {round_index + 1} {workload}: correct={result['correct']}", flush=True)
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
    for workload, metrics in values.items():
        print(f"{workload} ({rounds} runs)")
        for name, series in metrics.items():
            q1, median, q3 = common.quartiles(series)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:18s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
            print(f"  {'':18s} runs: {', '.join(f'{value:.4g}' for value in series)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", help="run every workload N times")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program to measure: {common.SRC}/repro is missing", file=sys.stderr)
        return 2
    os.chdir(common.ROOT)
    common.install_signal_exits()
    if args.steadiness:
        return steadiness(args.steadiness, args.seconds, [args.workload] if args.workload else list(WORKLOAD_NAMES))
    if args.workload is None:
        parser.error("--workload is required")
    common.scrub_own_env()
    os.makedirs(common.SCRATCH, exist_ok=True)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            os.rmdir(common.SCRATCH)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
