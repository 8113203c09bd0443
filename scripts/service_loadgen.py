#!/usr/bin/env python
"""Load-generate against the verification service.

Simulates heavy multi-user dimensioning traffic: ``--clients`` threads,
each with its own connection, fire queries against a shared config pool
drawn with a **zipf-skewed** popularity distribution — a few hot slot
configurations dominate (the warm hot path) while the tail mixes in
rarely-seen synthetic variants (cold compiles).  The op mix is fixed at
the benchmark's warm mix: 80% ``admit``, 10% ``check`` of the drawn
configuration's ``standard_spec_bundle`` and 10% ``counterexample``, so
concurrent connections exercise the server's warm answer memo.  Reports
sustained queries/s, latency percentiles overall and per op, and the
server's own counters.

Usage (against a running server)::

    PYTHONPATH=src python scripts/repro_serve.py --socket /tmp/repro.sock &
    PYTHONPATH=src python scripts/service_loadgen.py \
        --socket /tmp/repro.sock --clients 4 --duration 10

or self-contained (spawns and stops a private server)::

    PYTHONPATH=src python scripts/service_loadgen.py --spawn --duration 10

``--json-out PATH`` writes the machine-readable record (the CI smoke job
uploads it as the ``service-loadgen`` artifact); a markdown section is
appended to ``$GITHUB_STEP_SUMMARY`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def build_config_pool(pool_size: int, seed: int):
    """Slot-configuration pool: case-study subsets first (the hot head),
    then seeded synthetic variants (the cold tail)."""
    from repro.casestudy import paper_profiles
    from repro.switching.profile import SwitchingProfile

    profiles = paper_profiles()
    pool = [
        [profiles[name] for name in ("C1", "C5", "C4", "C3")],  # paper slot S1
        [profiles[name] for name in ("C6", "C2")],  # paper slot S2
        [profiles[name] for name in ("C1", "C5")],
        [profiles[name] for name in ("C4", "C3")],
        [profiles[name] for name in ("C1",)],
        [profiles[name] for name in ("C6",)],
    ]
    rng = random.Random(seed)
    index = 0
    while len(pool) < pool_size:
        max_wait = rng.randint(0, 2)
        min_dwell = [rng.randint(1, 3) for _ in range(max_wait + 1)]
        max_dwell = [low + rng.randint(0, 2) for low in min_dwell]
        synthetic = SwitchingProfile.from_arrays(
            name=f"Z{index}",
            requirement_samples=rng.randint(2, 5),
            min_inter_arrival=rng.randint(6, 10),
            min_dwell=min_dwell,
            max_dwell=max_dwell,
        )
        base = rng.choice((["C1"], ["C6"], ["C4"]))
        pool.append([profiles[name] for name in base] + [synthetic])
        index += 1
    return pool[:pool_size]


def zipf_weights(count: int, exponent: float):
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    return [weight / total for weight in weights]


#: Fixed op mix of every client: the benchmark's ``warm_query`` mix.
OP_WEIGHTS = (("admit", 0.8), ("check", 0.1), ("counterexample", 0.1))


def run_client(socket_path, pool, weights, deadline, seed, latencies, errors):
    """One simulated user: weighted-random queries in the fixed op mix until
    the deadline; per-request latencies append to ``latencies[op]``."""
    from repro.service import ServiceClient
    from repro.verification import standard_spec_bundle

    rng = random.Random(seed)
    # Source strings, not spec objects, so the server memoizes the answers.
    bundles = [[spec.text for spec in standard_spec_bundle(config)] for config in pool]
    ops = [name for name, _ in OP_WEIGHTS]
    op_weights = [weight for _, weight in OP_WEIGHTS]
    indices = range(len(pool))
    local = {op: [] for op in ops}
    try:
        with ServiceClient(socket_path) as client:
            calls = {
                "admit": lambda index: client.admit(pool[index]),
                "check": lambda index: client.check(pool[index], bundles[index]),
                # Feasible configs answer with an empty witness.
                "counterexample": lambda index: client.counterexample(pool[index]),
            }
            while time.perf_counter() < deadline:
                op = rng.choices(ops, weights=op_weights)[0]
                index = rng.choices(indices, weights=weights)[0]
                start = time.perf_counter()
                calls[op](index)
                local[op].append(time.perf_counter() - start)
    except Exception as error:  # noqa: BLE001 - report, don't kill the run
        errors.append(repr(error))
    for op, samples in local.items():
        latencies[op].extend(samples)


def percentile(values, fraction):
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", default=None, help="server socket path")
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="start a private server (tempdir socket + store) for the run",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=10.0, help="seconds")
    parser.add_argument("--pool-size", type=int, default=12)
    parser.add_argument(
        "--zipf", type=float, default=1.1, help="popularity skew exponent"
    )
    parser.add_argument("--seed", type=int, default=20190702)
    parser.add_argument("--json-out", default=None)
    parser.add_argument(
        "--min-qps",
        type=float,
        default=None,
        help="exit non-zero when sustained qps falls below this",
    )
    args = parser.parse_args()

    from repro.service import ServiceClient

    server_process = None
    temp_dir = None
    socket_path = args.socket
    if args.spawn:
        temp_dir = tempfile.mkdtemp(prefix="repro-loadgen-")
        socket_path = os.path.join(temp_dir, "repro.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        server_process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(os.path.dirname(__file__), "repro_serve.py"),
                "--socket",
                socket_path,
                "--store",
                os.path.join(temp_dir, "store"),
            ],
            env=env,
        )
        for _ in range(200):
            if os.path.exists(socket_path):
                break
            time.sleep(0.05)
    if not socket_path:
        raise SystemExit("give --socket PATH or --spawn")

    pool = build_config_pool(args.pool_size, args.seed)
    weights = zipf_weights(len(pool), args.zipf)

    try:
        with ServiceClient(socket_path) as probe:
            probe.ping()
            # Prime the hot head so the measured window exercises the warm
            # path from the first request (cold compiles still occur when
            # the zipf tail comes up mid-run).
            for config in pool[:2]:
                probe.admit(config)
            before = probe.stats()

        latencies = {op: [] for op, _ in OP_WEIGHTS}
        errors: list = []
        deadline = time.perf_counter() + args.duration
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=run_client,
                args=(
                    socket_path,
                    pool,
                    weights,
                    deadline,
                    args.seed + index,
                    latencies,
                    errors,
                ),
            )
            for index in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        with ServiceClient(socket_path) as probe:
            after = probe.stats()
    finally:
        if server_process is not None:
            try:
                with ServiceClient(socket_path, timeout=10.0) as probe:
                    probe.shutdown()
            except Exception:
                server_process.terminate()
            server_process.wait(timeout=30)

    if errors:
        print(f"client errors: {errors}", file=sys.stderr)
        return 2

    per_op = latencies
    latencies = [sample for samples in per_op.values() for sample in samples]
    count = len(latencies)
    qps = count / elapsed if elapsed else float("nan")
    window = {
        key: after["stats"][key] - before["stats"][key] for key in after["stats"]
    }
    record = {
        "clients": args.clients,
        "duration_seconds": elapsed,
        "pool_size": len(pool),
        "zipf_exponent": args.zipf,
        "requests": count,
        "queries_per_second": qps,
        "latency_seconds": {
            "mean": statistics.fmean(latencies) if latencies else float("nan"),
            "p50": percentile(latencies, 0.50),
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
            "max": max(latencies) if latencies else float("nan"),
        },
        "op_mix": dict(OP_WEIGHTS),
        "op_p50_seconds": {op: percentile(samples, 0.50) for op, samples in per_op.items()},
        "op_requests": {op: len(samples) for op, samples in per_op.items()},
        "server_window": window,
        "store": after["store"],
        "spec_cache": after.get("spec_cache", {}),
    }

    print(f"sustained: {qps:,.0f} queries/s over {elapsed:.1f}s "
          f"({args.clients} clients, pool {len(pool)}, zipf {args.zipf})")
    lat = record["latency_seconds"]
    print(f"latency:   p50 {lat['p50'] * 1e3:.2f} ms   p90 {lat['p90'] * 1e3:.2f} ms"
          f"   p99 {lat['p99'] * 1e3:.2f} ms   max {lat['max'] * 1e3:.1f} ms")
    print(f"server:    memory_hits {window['memory_hits']}, "
          f"store_hits {window['store_hits']}, compiles {window['compiles']}, "
          f"coalesced {window['coalesced']}, errors {window['errors']}")
    print("per op:    " + "   ".join(
        f"{op} p50 {p50 * 1e3:.2f} ms ({record['op_requests'][op]})"
        for op, p50 in record["op_p50_seconds"].items()))
    print(f"handles:   handle_hits {window.get('handle_hits', 0)}, "
          f"handle_misses {window.get('handle_misses', 0)}, "
          f"full_config_requests {window.get('full_config_requests', 0)}")
    spec_cache = record["spec_cache"]
    print(f"answers:   answer_hits {window.get('answer_hits', 0)}, "
          f"answer_misses {window.get('answer_misses', 0)}; spec_cache "
          f"hits {spec_cache.get('hits', 0)}, misses {spec_cache.get('misses', 0)}, "
          f"entries {spec_cache.get('entries', 0)}")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(f"wrote {args.json_out}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(
                "\n### Service load generator\n\n"
                f"| metric | value |\n|---|---|\n"
                f"| sustained queries/s | {qps:,.0f} |\n"
                f"| p50 latency | {lat['p50'] * 1e3:.2f} ms |\n"
                f"| p99 latency | {lat['p99'] * 1e3:.2f} ms |\n"
                f"| compiles (window) | {window['compiles']} |\n"
                f"| coalesced (window) | {window['coalesced']} |\n"
                f"| answer memo hits / misses (window) | "
                f"{window.get('answer_hits', 0)} / {window.get('answer_misses', 0)} |\n"
                + "".join(
                    f"| {op} p50 latency | {p50 * 1e3:.2f} ms |\n"
                    for op, p50 in record["op_p50_seconds"].items()
                )
            )

    if args.min_qps is not None and qps < args.min_qps:
        print(
            f"FAIL: sustained {qps:,.0f} qps below the --min-qps "
            f"{args.min_qps:,.0f} floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
