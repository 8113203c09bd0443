"""The benchmark's three workloads.

Each workload builds its inputs from the seed, measures for the given
number of seconds, checks every answer against a direct library call, and
returns an :class:`Outcome`: the end-to-end metrics under the generic
names of ``BENCHMARK.json`` (README.md maps them to each workload's own
names), the workload's own named metrics for the report and, in a traced
run, the per-layer metrics.

* ``warm_query``: closed loop on one connection against a spawned server
  whose six hot slot graphs are primed.
* ``cold_sweep``: every case-study subset of size 2-4 verified cold through
  a fresh server and store, then re-queried from the store.
* ``dimensioning``: the paper's first-fit run, cold and warm, and the
  unbounded slot-S1 exploration, as in-process library calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

import common
import tracing
from common import ROOT, SpawnedServer, make_run_dir, remove_tree, tail_percentile

#: The six hot slots of ``warm_query``, most popular first.
HOT_SLOTS: Tuple[Tuple[str, ...], ...] = (
    ("C1", "C5", "C4", "C3"),  # paper slot S1
    ("C6", "C2"),  # paper slot S2
    ("C1", "C5", "C4", "C6"),  # infeasible
    ("C1", "C5", "C4", "C2"),  # infeasible
    ("C1", "C5"),
    ("C1", "C5", "C4"),
)
INFEASIBLE_SLOTS = (2, 3)
ZIPF_EXPONENT = 1.1
#: Op mix of ``warm_query``: admit / check / counterexample.
OP_WEIGHTS = (("admit", 0.8), ("check", 0.1), ("counterexample", 0.1))

#: Paper anchors checked by ``cold_sweep`` and ``dimensioning``.
S1 = ("C1", "C5", "C4", "C3")
S1_STATES = 145_373
S1_UNBOUNDED_STATES = 1_413_516
PAPER_PARTITION = (("C1", "C5", "C4", "C3"), ("C6", "C2"))
PAPER_ADMISSION_LOG = (
    (0, ("C1",), True),
    (0, ("C1", "C5"), True),
    (0, ("C1", "C5", "C4"), True),
    (0, ("C1", "C5", "C4", "C6"), False),
    (1, ("C6",), True),
    (0, ("C1", "C5", "C4", "C2"), False),
    (1, ("C6", "C2"), True),
    (0, ("C1", "C5", "C4", "C3"), True),
)
#: The checkpoint cadence PERFORMANCE.md recommends.
CHECKPOINT_ENV = {"REPRO_CHECKPOINT_BYTES": "4000000"}

#: Server lifetimes per ``warm_query`` run (``setup_s`` is their median).
WARM_SEGMENTS = 3
#: Width of the windows whose completion rates ``throughput_per_s`` takes
#: the median of (robust to short bursts of neighbouring load).
RATE_BIN_S = 0.25
#: Fresh interpreters started to time ``dimensioning`` set-up.
DIM_SETUPS = 3
#: Warm first-fit sweeps per ``dimensioning`` cycle, timed in windows of
#: ``FF_WARM_WINDOW`` sweeps.
FF_WARM_REPEATS = 240
FF_WARM_WINDOW = 10
PHASES = ("ff_cold", "ff_warm", "unbounded")


@dataclasses.dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: End-to-end metrics under their generic names.
    e2e: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The workload's own metric names for the report: name -> (value, unit).
    named: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    #: Per-layer metrics of a traced run.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Free-form report lines (sample counts, percentiles, path accounting).
    notes: List[str] = dataclasses.field(default_factory=list)
    #: Probes of the host's speed taken during the run.
    host: common.HostSpeed = dataclasses.field(default_factory=common.HostSpeed)

    def check(self, condition: bool, message: str) -> None:
        """Count one answer; a wrong one is a failure."""
        self.attempted += 1
        if not condition:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ------------------------------------------------------------------ inputs
def zipf_weights(count: int, exponent: float = ZIPF_EXPONENT) -> List[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    return [weight / total for weight in weights]


def warm_query_ops(seed: int):
    """Endless seeded stream of ``(op, slot index)`` for ``warm_query``.

    Slot popularity is a fixed zipf ranking (S1 hottest); the seed only
    drives the draws, so every seed exercises the same mix.
    """
    rng = random.Random(seed)
    slot_weights = zipf_weights(len(HOT_SLOTS))
    cex_weights = [slot_weights[index] for index in INFEASIBLE_SLOTS]
    ops = [name for name, _ in OP_WEIGHTS]
    op_weights = [weight for _, weight in OP_WEIGHTS]
    slots = range(len(HOT_SLOTS))
    while True:
        op = rng.choices(ops, weights=op_weights)[0]
        if op == "counterexample":
            yield op, rng.choices(INFEASIBLE_SLOTS, weights=cex_weights)[0]
        else:
            yield op, rng.choices(slots, weights=slot_weights)[0]


def sweep_subsets(seed: int) -> List[Tuple[str, ...]]:
    """The 50 case-study subsets of size 2-4 in seeded order."""
    names = ("C1", "C2", "C3", "C4", "C5", "C6")
    subsets = [combo for size in (2, 3, 4) for combo in itertools.combinations(names, size)]
    random.Random(seed).shuffle(subsets)
    return subsets


def profiles_of(names: Sequence[str]):
    from repro.casestudy import paper_profiles

    profiles = paper_profiles()
    return [profiles[name] for name in names]


def _strip_time(value):
    """A result or verdict with its wall-clock field zeroed, for equality."""
    return dataclasses.replace(value, elapsed_seconds=0.0)


def _timing_note(name: str, samples: Sequence[float], scale: float, unit: str) -> str:
    pct, tail = tail_percentile(samples)
    return (
        f"{name}: p50 {statistics.median(samples) * scale:.4g} {unit}, "
        f"p{pct:g} {tail * scale:.4g} {unit}, n={len(samples)}"
    )


def _connect(server: SpawnedServer):
    from repro.service import ServiceClient

    return ServiceClient(server.socket_path, timeout=120.0, retries=0).connect()


def _timed(outcome: Outcome, label: str, call, tracer=None, span_name: str = "op"):
    """``(answer, seconds)`` of one operation inside a root span when
    traced; a raised error is a failed attempt and yields ``None``."""
    with tracer.span(span_name) if tracer is not None else contextlib.nullcontext():
        begin = time.perf_counter()
        try:
            answer = call()
        except Exception as error:  # counted in error_rate, never fatal
            answer = None
            outcome.check(False, f"{label}: {error!r}")
        elapsed = time.perf_counter() - begin
    return answer, elapsed


def _overhead(outcome: Outcome, untraced: Dict[str, float]) -> None:
    """Traced minus untraced end-to-end figures of the same run; the
    untraced figures stay the run's end-to-end metrics."""
    traced = outcome.e2e
    outcome.layers["trace.overhead_ms"] = traced["op_p50_ms"] - untraced["op_p50_ms"]
    outcome.layers["trace.overhead_ratio"] = traced["op_p50_ms"] / untraced["op_p50_ms"] - 1.0
    outcome.notes.append(
        "tracing overhead (traced - untraced): "
        + ", ".join(f"{name} {traced[name] - untraced[name]:+.4g}" for name in sorted(traced))
    )
    outcome.e2e = untraced


def _report(outcome: Outcome, setup_s: float, peak_rss_mb: float, throughput_per_s, **timings) -> None:
    """Store the end-to-end metrics, normalized to the host's speed, and
    the workload's own names for them (raw, then normalized).

    ``throughput_per_s`` is ``(rate, own name)``; every other timing is
    ``(seconds, own name)``, the own name's suffix giving its unit.
    """
    factor = outcome.host.factor()
    rate, rate_name = throughput_per_s
    outcome.e2e.update(setup_s=setup_s * factor, peak_rss_mb=peak_rss_mb, throughput_per_s=rate / factor)
    outcome.named.update(setup_s=(setup_s, "s"), peak_rss_mb=(peak_rss_mb, "MB"))
    outcome.named[rate_name] = (rate, "1/s")
    for metric, (seconds, name) in timings.items():
        outcome.e2e[metric] = seconds * factor * 1e3
        scale, unit = (1e6, "us") if name.endswith("_us") else (1e3, "ms")
        outcome.named[name] = (seconds * scale, unit)
    outcome.notes.append(
        f"host speed factor {factor:.4f} (fast-phase probe {outcome.host.fast_probe() * 1e6:.1f} us, "
        f"reference {common.PROBE_REFERENCE_S * 1e6:.0f} us); the JSON metrics are the timings above times it"
    )


def _path_accounting(outcome: Outcome, trace: "tracing.Trace", root_names: Sequence[str], label: str) -> None:
    """Blocking-path accounting: each root span's time is the self times of
    the spans under it (any process) plus its own self time — the residual
    that no layer span covers."""
    roots = [span for span in trace.spans if span[2] in root_names and span[1] is None]
    count = max(1, len(roots))
    e2e = sum(span[4] - span[3] for span in roots)
    residual = sum(trace.self_of[span[0]] for span in roots)
    outcome.layers["path.e2e_ms"] = e2e * 1e3 / count
    outcome.layers["path.residual_ms"] = residual * 1e3 / count
    outcome.layers["path.residual_ratio"] = residual / e2e if e2e else 0.0
    layers = sorted(
        ((name, total) for name, total in trace.self_total.items() if name not in root_names and total > 0),
        key=lambda item: -item[1],
    )
    outcome.notes.append(
        f"blocking path per {label} ({len(roots)} traced): {e2e * 1e3 / count:.4g} ms = "
        + " + ".join(f"{name} {total * 1e3 / count:.3g}" for name, total in layers)
        + f" + residual {residual * 1e3 / count:.3g} ms"
    )


# --------------------------------------------------------------- warm_query
class WarmReference:
    """Direct library answers for the six hot slots."""

    def __init__(self) -> None:
        from repro.verification import ExhaustiveVerifier, instance_budgets, standard_spec_bundle

        self.slots = [profiles_of(names) for names in HOT_SLOTS]
        self.admitted: List[bool] = []
        self.specs: List[List[str]] = []
        self.verdicts: List[List[Any]] = []
        self.counterexamples: Dict[int, Any] = {}
        for index, slot in enumerate(self.slots):
            verifier = ExhaustiveVerifier(slot, instance_budgets(slot))
            result = verifier.verify(with_counterexample=True, minimize=True)
            self.admitted.append(result.feasible)
            specs = [spec.text for spec in standard_spec_bundle(slot)]
            self.specs.append(specs)
            self.verdicts.append([_strip_time(verdict) for verdict in verifier.check_specs(specs)])
            if index in INFEASIBLE_SLOTS:
                self.counterexamples[index] = _strip_time(result)


WARM_OPS = ("admit", "check", "counterexample")


def _warm_samples() -> Dict[str, List]:
    """Latencies of a workload's windows, binned into :data:`RATE_BIN_S`
    slices: ``bins`` is a list of ``{op: [seconds, ...]}``."""
    return {"bins": []}


def _warm_segment(seed, plan, reference, outcome, trace_dir=None, tracer=None):
    """One server lifetime: spawn, prime, then one closed-loop window per
    ``(seconds, samples, traced)`` entry of ``plan``, then shut down.

    A traced window switches the server's span wrappers on (``SIGUSR1``)
    and off again (``SIGUSR2``), so untraced and traced windows of a traced
    run share one server.
    """
    run_dir = make_run_dir("w")
    try:
        started = time.perf_counter()
        with SpawnedServer(run_dir, trace_dir=trace_dir, cpus=os.sched_getaffinity(0)) as server:
            client = _connect(server)
            try:
                for index, slot in enumerate(reference.slots):
                    client.verify(slot)  # cold: compiles in the pool and publishes
                    client.verify(slot)  # loads the published graph into memory
                    client.check(slot, reference.specs[index])
                for index in INFEASIBLE_SLOTS:
                    client.counterexample(reference.slots[index])
                setup = time.perf_counter() - started
                if tracer is not None:
                    os.kill(server.pid, signal.SIGUSR2)  # priming was traced
                ops = warm_query_ops(seed)
                windows = []
                for seconds, samples, traced in plan:
                    if traced:
                        os.kill(server.pid, signal.SIGUSR1)
                        client.ping()
                        tracer.enabled = True
                    window_tracer = tracer if traced else None
                    windows.append(
                        _warm_loop(ops, seconds, reference, outcome, samples, client, server, window_tracer)
                    )
                    if traced:
                        tracer.enabled = False
                        os.kill(server.pid, signal.SIGUSR2)
                rss = server.peak_rss_mb()
            finally:
                server.shutdown(client)
        return {"setup_s": setup, "peak_rss_mb": rss, "server_pid": server.pid, "windows": windows}
    finally:
        remove_tree(os.path.join(ROOT, run_dir))


def _warm_loop(ops, seconds, reference, outcome, samples, client, server, tracer):
    calls = {
        "admit": lambda slot, index: client.admit(slot),
        "check": lambda slot, index: client.check(slot, reference.specs[index]),
        "counterexample": lambda slot, index: client.counterexample(slot),
    }
    stats_before = client.stats()["stats"]
    server_cpu = common.cpu_seconds(server.pid)
    client_cpu = 0.0
    finished: List[Tuple[float, str, float]] = []
    window_start = time.perf_counter()
    deadline = window_start + seconds
    next_probe = window_start
    while time.perf_counter() < deadline:
        if time.perf_counter() >= next_probe:
            outcome.host.sample()
            next_probe += RATE_BIN_S
        op, index = next(ops)
        slot = reference.slots[index]
        label = f"{op} {HOT_SLOTS[index]}"
        cpu = time.process_time()
        answer, elapsed = _timed(outcome, label, lambda: calls[op](slot, index), tracer)
        client_cpu += time.process_time() - cpu
        finished.append((time.perf_counter(), op, elapsed))
        if answer is None:
            continue
        if op == "admit":
            outcome.check(answer == reference.admitted[index], f"{label} -> {answer}")
        elif op == "check":
            got = [_strip_time(verdict) for verdict in answer]
            outcome.check(got == reference.verdicts[index], f"{label}: verdicts differ")
        else:
            outcome.check(_strip_time(answer) == reference.counterexamples[index], f"{label}: witness differs")
    window_end = time.perf_counter()
    server_cpu = common.cpu_seconds(server.pid) - server_cpu
    stats_after = client.stats()["stats"]
    bins = [{op: [] for op in WARM_OPS} for _ in range(max(1, int((window_end - window_start) / RATE_BIN_S)))]
    for moment, op, elapsed in finished:
        position = int((moment - window_start) / RATE_BIN_S)
        if position < len(bins) or len(bins) == 1:  # a window shorter than a bin keeps all
            bins[min(position, len(bins) - 1)][op].append(elapsed)
    samples["bins"].extend(entry for entry in bins if entry["admit"])
    return {
        "qps": len(finished) / (window_end - window_start),
        "window": (window_start, window_end),
        "client_cpu": client_cpu,
        "server_cpu": server_cpu,
        "hits": sum(stats_after[key] - stats_before[key] for key in ("memory_hits", "store_hits")),
    }


#: Untraced/traced window pairs of a traced ``warm_query`` run.
TRACE_ALTERNATIONS = 4


def warm_query(seed: int, seconds: float, trace: bool = False) -> Outcome:
    outcome = Outcome()
    reference = WarmReference()
    common.pin_to_one_cpu()
    plain = _warm_samples()
    if not trace:
        segments = [
            _warm_segment(seed * WARM_SEGMENTS + index, [(seconds / WARM_SEGMENTS, plain, False)], reference, outcome)
            for index in range(WARM_SEGMENTS)
        ]
        _warm_metrics(outcome, segments, plain)
        return outcome
    # Traced run: untraced and traced windows alternate on one server, so
    # their difference is the tracing overhead and not a server-to-server
    # or minute-to-minute difference.
    traced = _warm_samples()
    window = seconds / (2 * TRACE_ALTERNATIONS)
    plan = [(window, plain, False), (window, traced, True)] * TRACE_ALTERNATIONS
    trace_dir = make_run_dir("t")
    try:
        tracer = tracing.Tracer()
        tracer.enabled = False
        tracing.install_client(tracer)
        segment = _warm_segment(seed, plan, reference, outcome, trace_dir, tracer)
        _warm_metrics(outcome, [segment], plain)
        untraced = dict(outcome.e2e)
        _warm_metrics(outcome, [segment], traced)
        _overhead(outcome, untraced)
        traced_windows = [entry for entry, (_, _, on) in zip(segment["windows"], plan) if on]
        payloads = tracing.load_dir(os.path.join(ROOT, trace_dir)) + [tracer.drain()]
        trace_view = tracing.Trace(
            payloads, [entry["window"] for entry in traced_windows], (os.getpid(), segment["server_pid"])
        )
        _warm_layers(outcome, trace_view, traced_windows)
        _path_accounting(outcome, trace_view, ("op",), "request")
    finally:
        remove_tree(os.path.join(ROOT, trace_dir))
    return outcome


def _warm_metrics(outcome: Outcome, segments, samples) -> None:
    fast = common.fastest(samples["bins"], key=lambda entry: statistics.median(entry["admit"]))
    pooled = {op: [value for entry in fast for value in entry[op]] for op in WARM_OPS}
    admit = pooled["admit"]
    pct, admit_tail = tail_percentile(admit)
    qps = sum(len(entry[op]) for entry in fast for op in WARM_OPS) / (len(fast) * RATE_BIN_S)
    setup = statistics.median(segment["setup_s"] for segment in segments)
    rss = max(segment["peak_rss_mb"] for segment in segments)
    check = statistics.median(pooled["check"])
    cex = statistics.median(pooled["counterexample"])
    admit_p50 = statistics.median(admit)
    _report(
        outcome,
        setup_s=setup,
        peak_rss_mb=rss,
        throughput_per_s=(qps, "warm_qps"),
        op_p50_ms=(admit_p50, "admit_p50_us"),
        op_tail_ms=(admit_tail, "admit_p99_us"),
        op2_p50_ms=(check, "check_p50_us"),
        op3_p50_ms=(cex, "cex_p50_us"),
    )
    qps_list = ", ".join(f"{window['qps']:.1f}" for segment in segments for window in segment["windows"])
    outcome.notes.append(f"server lifetimes: {len(segments)}, mean q/s per window: {qps_list}")
    outcome.notes.append(f"fast windows: {len(fast)} of {len(samples['bins'])} x {RATE_BIN_S:g} s")
    for op in WARM_OPS:
        everything = [value for entry in samples["bins"] for value in entry[op]]
        outcome.notes.append(_timing_note(op + ", fast windows", pooled[op], 1e6, "us"))
        outcome.notes.append(_timing_note(op + ", all windows", everything, 1e6, "us"))
    if pct != 99.0:
        outcome.notes.append(f"admit_p99_us is p{pct:g}: too few samples for p99")


def _warm_layers(outcome: Outcome, trace: "tracing.Trace", windows) -> None:
    """Per-request shares of each layer (total self time / requests)."""
    ops = trace.roots("op")
    requests = max(1, len(ops))
    rtt = sum(span[4] - span[3] for span in ops) / requests
    client_cpu = sum(window["client_cpu"] for window in windows) / requests
    server_cpu = sum(window["server_cpu"] for window in windows) / requests
    hits = sum(window["hits"] for window in windows)
    server_spans = trace.inclusive_s("server.handle", "protocol.encode_message") / requests
    spec_hits = trace.gauges.get("spec_cache.hits", 0.0)
    spec_lookups = spec_hits + trace.gauges.get("spec_cache.misses", 0.0)
    us = 1e6 / requests
    outcome.layers.update(
        {
            "client.encode_us": trace.self_s("client.profiles_to_wire", "client.encode_message") * us,
            "client.decode_us": trace.self_s("client.decode_message", "client.result_from_wire") * us,
            "client.cpu_us": client_cpu * 1e6,
            "server.cpu_us": server_cpu * 1e6,
            "server.self_us": (server_cpu - server_spans) * 1e6,
            "transport.wait_us": (rtt - client_cpu - server_cpu) * 1e6,
            "protocol.decode_us": trace.self_s("protocol.decode") * us,
            "protocol.encode_us": trace.self_s("protocol.result_to_wire", "protocol.encode_message") * us,
            "server.parse_miss_ratio": trace.calls.get("server.profiles_from_wire", 0)
            / max(1, trace.calls.get("server.handle", 0)),
            "kernel.fingerprint_us": trace.self_s("kernel.fingerprint") * us,
            "packed.lookup_us": trace.self_s("packed.lookup") * us,
            "exhaustive.verify_us": trace.self_s("exhaustive.verify") * us,
            "kernel.replay_us": trace.self_s("kernel.replay") * us,
            "store.publish_calls_per_hit": trace.calls.get("store.publish", 0) / max(1, hits),
            "spec_eval.eval_us": trace.self_s("spec_eval.eval") * us,
            "spec_eval.cache_hit_ratio": spec_hits / spec_lookups if spec_lookups else 0.0,
            "result.minimize_us": trace.self_s("result.minimize") * us,
        }
    )


# --------------------------------------------------------------- cold_sweep
class SweepReference:
    """Direct ``verify_slot_sharing`` answers for the 50 subsets."""

    def __init__(self) -> None:
        from repro.scheduler.packed import clear_packed_caches
        from repro.verification import instance_budgets, verify_slot_sharing

        self.results: Dict[Tuple[str, ...], Any] = {}
        for subset in sweep_subsets(0):
            slot = profiles_of(subset)
            result = verify_slot_sharing(slot, instance_budget=instance_budgets(slot), with_counterexample=False)
            self.results[subset] = _strip_time(result)
        clear_packed_caches()


def _sweep_samples() -> Dict[str, Dict]:
    """Per subset: cold and re-query latencies of every sweep, states."""
    return {"cold": {}, "rehit": {}, "states": {}}


def _sweep(seed, reference, outcome, samples, trace_dir=None, tracer=None):
    """One fresh server and store: 50 cold verifications, 50 re-queries."""
    run_dir = make_run_dir("c")
    try:
        started = time.perf_counter()
        with SpawnedServer(
            run_dir, env_extra=CHECKPOINT_ENV, trace_dir=trace_dir, cpus=os.sched_getaffinity(0)
        ) as server:
            client = _connect(server)
            try:
                setup = time.perf_counter() - started
                subsets = sweep_subsets(seed)
                slots = {subset: profiles_of(subset) for subset in subsets}
                window_start = time.perf_counter()
                for label in ("cold", "rehit"):
                    for subset in subsets:
                        outcome.host.sample()
                        answer, elapsed = _timed(
                            outcome, f"{label} {subset}", lambda: client.verify(slots[subset]), tracer
                        )
                        samples[label].setdefault(subset, []).append(elapsed)
                        if answer is None:
                            continue
                        outcome.check(_strip_time(answer) == reference.results[subset], f"{label} {subset} differs")
                        samples["states"][subset] = answer.explored_states
                        if label == "cold":
                            if sorted(subset) == sorted(S1):
                                outcome.check(
                                    answer.feasible and answer.explored_states == S1_STATES,
                                    f"S1 explored {answer.explored_states} states",
                                )
                window_end = time.perf_counter()
                stats = client.stats()["stats"]
                outcome.check(stats["compiles"] == len(subsets), f"{stats['compiles']} cold compiles")
                outcome.check(stats["store_hits"] == len(subsets), f"{stats['store_hits']} store re-queries")
                rss = server.peak_rss_mb()
            finally:
                server.shutdown(client)
        return {
            "setup_s": setup,
            "peak_rss_mb": rss,
            "window": (window_start, window_end),
            "server_pid": server.pid,
            "stats": stats,
            "cold": len(subsets),
        }
    finally:
        remove_tree(os.path.join(ROOT, run_dir))


def cold_sweep(seed: int, seconds: float, trace: bool = False) -> Outcome:
    outcome = Outcome()
    reference = SweepReference()
    common.pin_to_one_cpu()
    samples = _sweep_samples()
    if not trace:
        sweeps = []
        started = time.perf_counter()
        last = 0.0
        # Another sweep starts only if most of it fits in the run's seconds.
        while not sweeps or time.perf_counter() - started + last / 2 < seconds:
            begin = time.perf_counter()
            sweeps.append(_sweep(seed * 100 + len(sweeps), reference, outcome, samples))
            last = time.perf_counter() - begin
        _sweep_metrics(outcome, sweeps, samples)
        return outcome
    # Traced run: untraced and traced sweeps alternate, so that their
    # difference is the tracing overhead rather than the host's drift.
    trace_dir = make_run_dir("t")
    try:
        tracer = tracing.Tracer()
        tracing.install_client(tracer)
        tracer.enabled = False
        traced_samples = _sweep_samples()
        plain, traced = [], []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            plain.append(_sweep(seed * 100 + 2 * len(plain), reference, outcome, samples))
            tracer.enabled = True
            traced.append(_sweep(seed * 100 + 2 * len(traced) + 1, reference, outcome, traced_samples, trace_dir, tracer))
            tracer.enabled = False
        payloads = tracing.load_dir(os.path.join(ROOT, trace_dir)) + [tracer.drain()]
        trace_view = tracing.Trace(
            payloads, [sweep["window"] for sweep in traced], [os.getpid()] + [sweep["server_pid"] for sweep in traced]
        )
        _sweep_metrics(outcome, plain, samples)
        untraced = dict(outcome.e2e)
        _sweep_metrics(outcome, traced, traced_samples)
        _overhead(outcome, untraced)
        _sweep_layers(outcome, trace_view, traced)
        _path_accounting(outcome, trace_view, ("op",), "request")
    finally:
        remove_tree(os.path.join(ROOT, trace_dir))
    return outcome


def _sweep_metrics(outcome: Outcome, sweeps, samples) -> None:
    cold_by_subset = {subset: min(times) for subset, times in samples["cold"].items()}
    cold = list(cold_by_subset.values())
    pct, cold_tail = tail_percentile(cold)
    setup = statistics.median(sweep["setup_s"] for sweep in sweeps)
    rss = max(sweep["peak_rss_mb"] for sweep in sweeps)
    throughput = sum(samples["states"][subset] for subset in cold_by_subset) / sum(cold)
    s1 = next(value for subset, value in cold_by_subset.items() if sorted(subset) == sorted(S1))
    rehit = statistics.median(min(times) for times in samples["rehit"].values())
    _report(
        outcome,
        setup_s=setup,
        peak_rss_mb=rss,
        throughput_per_s=(throughput, "cold_states_per_s"),
        op_p50_ms=(statistics.median(cold), "cold_p50_ms"),
        op_tail_ms=(cold_tail, "cold_tail_ms"),
        op2_p50_ms=(s1, "s1_cold_ms"),
        op3_p50_ms=(rehit, "rehit_p50_us"),
    )
    outcome.notes.append(
        f"sweeps: {len(sweeps)}; per subset its fastest sweep; cold tail is p{pct:g} over subsets"
    )
    outcome.notes.append(_timing_note("cold verify, per subset", cold, 1e3, "ms"))
    everything = [value for times in samples["cold"].values() for value in times]
    outcome.notes.append(_timing_note("cold verify, every sample", everything, 1e3, "ms"))
    s1_times = next(times for subset, times in samples["cold"].items() if sorted(subset) == sorted(S1))
    outcome.notes.append("S1 cold per sweep: " + ", ".join(f"{value * 1e3:.1f}" for value in s1_times) + " ms")


def _sweep_layers(outcome: Outcome, trace: "tracing.Trace", sweeps) -> None:
    """Client and protocol shares per request, pool figures per cold
    request, loads per load, everything else as totals per sweep."""
    requests = max(1, len(trace.roots("op")))
    cold = sum(sweep["cold"] for sweep in sweeps)
    store_hits = sum(sweep["stats"]["store_hits"] for sweep in sweeps)
    memory_hits = sum(sweep["stats"]["memory_hits"] for sweep in sweeps)
    ms = 1e3 / len(sweeps)
    loads = trace.count("store.loads")
    compiled = trace.count("worker:kernel.compiled_states")
    interned = trace.count("worker:kernel.intern_rows")
    outcome.layers.update(
        {
            "client.encode_us": trace.self_s("client.profiles_to_wire", "client.encode_message") * 1e6 / requests,
            "client.decode_us": trace.self_s("client.decode_message", "client.result_from_wire") * 1e6 / requests,
            "protocol.decode_us": trace.self_s("protocol.decode") * 1e6 / requests,
            "protocol.encode_us": trace.self_s("protocol.result_to_wire", "protocol.encode_message") * 1e6 / requests,
            "pool.hop_ms": (trace.inclusive_s("pool.run") - trace.inclusive_s("worker:worker.job")) * 1e3 / cold,
            "worker.verify_ms": trace.inclusive_s("worker:exhaustive.verify") * 1e3 / cold,
            "kernel.expand_ms": trace.self_s("worker:kernel.expand") * ms,
            "kernel.expand_rows": trace.count("worker:kernel.expand_rows") / len(sweeps),
            "kernel.intern_ms": trace.self_s("worker:kernel.intern") * ms,
            "kernel.new_state_ratio": trace.count("worker:kernel.new_states") / interned if interned else 0.0,
            "kernel.explore_self_ms": trace.self_s("worker:kernel.explore") * ms,
            "kernel.bytes_per_state": trace.count("worker:kernel.compiled_bytes") / compiled if compiled else 0.0,
            "store.publish_ms": trace.inclusive_s("worker:store.publish") * ms,
            "store.publish_bytes": trace.count("worker:store.publish_bytes") / len(sweeps),
            "store.checkpoint_ms": trace.inclusive_s("worker:store.checkpoint") * ms,
            "store.checkpoints": trace.count("worker:store.checkpoints") / len(sweeps),
            "store.checkpoint_bytes": trace.count("worker:store.checkpoint_bytes") / len(sweeps),
            "store.claim_ms": trace.inclusive_s("worker:store.claim") * ms,
            "store.load_ms": trace.inclusive_s("store.load") * 1e3 / loads if loads else 0.0,
            "store.load_bytes": trace.count("store.load_bytes") / loads if loads else 0.0,
            "server.tier_store_ratio": store_hits / max(1, store_hits + memory_hits),
        }
    )


# ------------------------------------------------------------- dimensioning
def _setup_probe_seconds() -> float:
    """Wall time of a fresh interpreter getting ready for the first timed
    call: imports plus the case-study profiles."""
    code = (
        "from repro.casestudy import paper_profiles\n"
        "from repro.dimensioning.first_fit import FirstFitDimensioner\n"
        "from repro.verification import verify_slot_sharing\n"
        "paper_profiles()\n"
    )
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=common.scrubbed_env(),
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - started


def _dim_samples() -> Dict[str, List]:
    """One ff_cold and one unbounded timing per cycle; ``ff_warm`` holds
    one list of timings per window of ``FF_WARM_WINDOW`` sweeps."""
    return {"ff_cold": [], "ff_warm": [], "unbounded": [], "verifications": []}


def _dimensioning_cycle(outcome: Outcome, samples, tracer=None) -> None:
    """ff_cold, ff_warm x FF_WARM_REPEATS, unbounded — answers checked."""
    from repro.casestudy import paper_profiles
    from repro.dimensioning.first_fit import FirstFitDimensioner
    from repro.scheduler.packed import clear_packed_caches
    from repro.verification import exhaustive, instance_budgets

    profiles = paper_profiles()
    slot = [profiles[name] for name in S1]
    # Looked up at call time so that a traced run sees the wrapped function.
    verify_slot_sharing = exhaustive.verify_slot_sharing

    def first_fit(label, timings):
        result, elapsed = _timed(outcome, label, lambda: FirstFitDimensioner(profiles).dimension(), tracer, label)
        timings.append(elapsed)
        if result is not None:
            outcome.check(result.partition() == PAPER_PARTITION, f"{label} partition {result.partition()}")
            outcome.check(tuple(result.admission_log) == PAPER_ADMISSION_LOG, f"{label} admission log differs")
            samples["verifications"].append(result.verifications)

    # Every phase starts from a collected heap, so that a collection owed
    # by the previous phase does not land in a timed one.
    outcome.host.sample()
    clear_packed_caches()
    gc.collect()
    first_fit("ff_cold", samples["ff_cold"])
    gc.collect()
    for _ in range(FF_WARM_REPEATS // FF_WARM_WINDOW):
        outcome.host.sample()
        window: List[float] = []
        for _ in range(FF_WARM_WINDOW):
            first_fit("ff_warm", window)
        samples["ff_warm"].append(window)
    s1 = verify_slot_sharing(slot, instance_budget=instance_budgets(slot), with_counterexample=False)
    outcome.check(s1.feasible and s1.explored_states == S1_STATES, f"S1 explored {s1.explored_states} states")

    outcome.host.sample()
    clear_packed_caches()
    gc.collect()
    result, elapsed = _timed(
        outcome,
        "unbounded",
        lambda: verify_slot_sharing(slot, instance_budget=None, with_counterexample=False),
        tracer,
        "unbounded",
    )
    samples["unbounded"].append(elapsed)
    if result is not None:
        outcome.check(
            result.feasible and result.explored_states == S1_UNBOUNDED_STATES,
            f"unbounded S1 explored {result.explored_states} states",
        )
    clear_packed_caches()


def dimensioning(seed: int, seconds: float, trace: bool = False) -> Outcome:
    """The inputs are the paper's case study; nothing in them is drawn, so
    the seed only labels the run."""
    del seed
    outcome = Outcome()
    common.pin_to_one_cpu()
    setups = [_setup_probe_seconds() for _ in range(DIM_SETUPS)]
    samples = _dim_samples()
    started = time.perf_counter()
    if not trace:
        cycles = 0
        while not cycles or time.perf_counter() - started < seconds:
            _dimensioning_cycle(outcome, samples)
            cycles += 1
        _dim_metrics(outcome, samples, setups, cycles)
        return outcome
    # Traced run: untraced and traced cycles alternate on one set of
    # wrappers, switched on only for the traced cycles.
    tracer = tracing.Tracer()
    tracing.install_dimensioning(tracer)
    tracer.enabled = False
    traced = _dim_samples()
    windows = []
    while not windows or time.perf_counter() - started < seconds:
        _dimensioning_cycle(outcome, samples)
        tracer.enabled = True
        begin = time.perf_counter()
        _dimensioning_cycle(outcome, traced, tracer)
        windows.append((begin, time.perf_counter()))
        tracer.enabled = False
    trace_view = tracing.Trace([tracer.drain()], windows, (os.getpid(),))
    _dim_metrics(outcome, samples, setups, len(windows))
    untraced = dict(outcome.e2e)
    _dim_metrics(outcome, traced, setups, len(windows))
    _overhead(outcome, untraced)
    _dim_layers(outcome, trace_view, len(windows), traced)
    _path_accounting(outcome, trace_view, PHASES, "phase run")
    return outcome


def _dim_metrics(outcome: Outcome, samples, setups, cycles) -> None:
    fast_warm = [value for window in common.fastest(samples["ff_warm"], key=statistics.median) for value in window]
    pct, warm_tail = tail_percentile(fast_warm)
    setup = statistics.median(setups)
    rss = common.peak_rss_mb(os.getpid())
    ff_cold = min(samples["ff_cold"])
    ff_warm = statistics.median(fast_warm)
    unbounded = min(samples["unbounded"])
    _report(
        outcome,
        setup_s=setup,
        peak_rss_mb=rss,
        throughput_per_s=(S1_UNBOUNDED_STATES / unbounded, "unbounded_states_per_s"),
        op_p50_ms=(ff_warm, "first_fit_warm_us"),
        op_tail_ms=(warm_tail, "first_fit_warm_tail_us"),
        op2_p50_ms=(ff_cold, "first_fit_cold_ms"),
        op3_p50_ms=(unbounded, "unbounded_ms"),
    )
    setup_list = ", ".join(f"{value:.3f}" for value in setups)
    outcome.notes.append(f"cycles: {cycles}, set-ups: {setup_list} s, ff_warm tail reported as p{pct:g}")
    outcome.notes.append(_timing_note("ff_cold, every cycle", samples["ff_cold"], 1e3, "ms"))
    outcome.notes.append(_timing_note("ff_warm, fast windows", fast_warm, 1e6, "us"))
    every_warm = [value for window in samples["ff_warm"] for value in window]
    outcome.notes.append(_timing_note("ff_warm, every window", every_warm, 1e6, "us"))
    outcome.notes.append(_timing_note("unbounded, every cycle", samples["unbounded"], 1e3, "ms"))


def _dim_layers(outcome: Outcome, trace: "tracing.Trace", cycles: int, samples) -> None:
    """Totals per cycle, and the same split per phase run."""
    phase_of = trace.phase_of()
    per_phase: Dict[Tuple[str, str], float] = {}
    for span in trace.spans:
        key = (phase_of[span[0]], span[2])
        per_phase[key] = per_phase.get(key, 0.0) + trace.self_of[span[0]]
    interned = trace.count("kernel.intern_rows")
    compiled = trace.count("kernel.compiled_states")
    reused = trace.count("delta.reused_rows")
    delta_rows = reused + trace.count("delta.expanded_rows")
    outcome.layers.update(
        {
            "exhaustive.verify_us": trace.self_s("exhaustive.verify") * 1e6 / cycles,
            "kernel.replay_us": trace.self_s("kernel.replay") * 1e6 / cycles,
            "kernel.expand_ms": trace.self_s("kernel.expand") * 1e3 / cycles,
            "kernel.expand_rows": trace.count("kernel.expand_rows") / cycles,
            "kernel.intern_ms": trace.self_s("kernel.intern") * 1e3 / cycles,
            "kernel.new_state_ratio": trace.count("kernel.new_states") / interned if interned else 0.0,
            "kernel.explore_self_ms": trace.self_s("kernel.explore") * 1e3 / cycles,
            "kernel.bytes_per_state": trace.count("kernel.compiled_bytes") / compiled if compiled else 0.0,
            "delta.warm_start_ms": trace.inclusive_s("delta.warm_start", "delta.reuse") * 1e3 / cycles,
            "delta.reuse_ratio": reused / delta_rows if delta_rows else 0.0,
            "acceleration.budget_us": trace.self_s("acceleration.budget") * 1e6 / cycles,
            "first_fit.verifications": statistics.median(samples["verifications"]),
        }
    )
    for name in PHASES:
        runs = trace.roots(name)
        count = max(1, len(runs))

        def share(layer, scale):
            return per_phase.get((name, layer), 0.0) * scale / count

        outcome.layers.update(
            {
                f"{name}.wall_ms": sum(span[4] - span[3] for span in runs) * 1e3 / count,
                f"{name}.kernel.expand_ms": share("kernel.expand", 1e3),
                f"{name}.kernel.intern_ms": share("kernel.intern", 1e3),
                f"{name}.kernel.explore_self_ms": share("kernel.explore", 1e3),
                f"{name}.kernel.replay_us": share("kernel.replay", 1e6),
                f"{name}.exhaustive.verify_ms": share("exhaustive.verify", 1e3),
                f"{name}.residual_ms": share(name, 1e3),
            }
        )


WORKLOADS = {
    "warm_query": warm_query,
    "cold_sweep": cold_sweep,
    "dimensioning": dimensioning,
}
