"""Span recording around the program's public functions.

The benchmark observes the program from outside: the ``install_*``
functions replace public functions and methods of ``repro.service``,
``repro.verification`` and ``repro.scheduler`` with thin wrappers that
record one span per call (name, start, end, parent span, request id,
process).  Nothing under
``src/`` changes; tracing inside the program is a separate, later piece.

Spans stay in memory and are written as JSON lines by :meth:`Tracer.flush`
— at exit in the client and the server, after every pool job in a worker
(workers leave through ``os._exit``, which runs no exit hooks).  Counters
and gauges (rows expanded, bytes published, cache statistics) ride along
in the same file.

Timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
so spans of the client, the server and its forked workers share one clock
and one request's spans can be laid out as a single tree.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import self_time

#: Span id of the innermost open span of the current task or thread.
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: Request id the current work belongs to (the wire ``id`` of a request).
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_rid", default=None)

#: Payload key carrying ``(request id, parent span id)`` across the pool hop.
TRACE_KEY = "_perfbench_trace"


class Tracer:
    """In-memory span and counter sink of one process."""

    def __init__(self) -> None:
        #: Wrappers call straight through while False (see ``serve.py``).
        self.enabled = True
        self.pid = os.getpid()
        self.spans: List[Tuple] = []
        #: ``(name, amount, time)`` events, so counts can be windowed too.
        self.counts: List[Tuple[str, float, float]] = []
        self.gauges: Dict[str, Callable[[], Dict[str, float]]] = {}
        self._ids = itertools.count(1)
        self.flush_dir: Optional[str] = None

    def reset_after_fork(self) -> None:
        """A forked child keeps no spans of its parent."""
        self.pid = os.getpid()
        self.spans = []
        self.counts = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def record(self, span_id, parent, name, start, end) -> None:
        self.spans.append((span_id, parent, name, start, end, _request.get(), self.pid))

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts.append((name, amount, time.perf_counter()))

    def set_request(self, request_id) -> None:
        _request.set(request_id)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def drain(self) -> Dict[str, Any]:
        """Take everything recorded so far (spans, counters, gauges)."""
        gauges: Dict[str, float] = {}
        for read in self.gauges.values():
            gauges.update(read())
        payload = {"pid": self.pid, "spans": self.spans, "counts": self.counts, "gauges": gauges}
        self.spans = []
        self.counts = []
        return payload

    def flush(self, directory: str) -> None:
        """Append what was recorded to ``<directory>/spans-<pid>.jsonl``."""
        payload = self.drain()
        if not payload["spans"] and not payload["counts"] and not payload["gauges"]:
            return
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(payload) + "\n")


class _Span:
    """``with tracer.span(name):`` — one span around a block.

    The parent is the innermost open span of the current task or thread,
    unless one is given (a span continuing a request in another process).
    """

    def __init__(self, tracer: Tracer, name: str, parent: Optional[int] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent

    def __enter__(self) -> "_Span":
        if self.parent is None:
            self.parent = _current.get()
        self.span_id = self.tracer.new_id()
        self.token = _current.set(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        _current.reset(self.token)
        self.tracer.record(self.span_id, self.parent, self.name, self.start, end)


def wrap(tracer: Tracer, name: str, function: Callable, after: Optional[Callable] = None) -> Callable:
    """A span-recording stand-in for ``function`` (sync or async).

    ``after(result, args)`` runs once the call returned, outside the span,
    to update counters.
    """
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await function(*args, **kwargs)
            with _Span(tracer, name):
                result = await function(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        async_wrapper.__perfbench_wrapped__ = True
        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        with _Span(tracer, name):
            result = function(*args, **kwargs)
        if after is not None:
            after(result, args)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _optional_module(name: str):
    """The module, or None when the program no longer has it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def patch(tracer: Tracer, owner: Any, attribute: str, name: str, after: Optional[Callable] = None) -> bool:
    """Replace ``owner.attribute`` by its traced wrapper.

    Returns False (and changes nothing) when the owner or attribute does
    not exist, so the benchmark keeps running on a program that renamed or
    removed a layer; that layer's metrics then read 0.
    """
    if owner is None:
        return False
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if original is None or getattr(original, "__perfbench_wrapped__", False):
        return False
    setattr(owner, attribute, wrap(tracer, name, original, after))
    return True


# ------------------------------------------------------------ installation
def _file_size(path) -> int:
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


def install_library(tracer: Tracer) -> None:
    """Wrap the verification and scheduler layers (every process)."""
    from repro.scheduler import packed as packed_module
    from repro.verification import exhaustive, kernel, store

    def after_expand(result, _args):
        # (indptr, successor words, masks, miss, origin)
        tracer.count("kernel.expand_rows", int(result[1].shape[0]))

    def after_intern(result, args):
        tracer.count("kernel.intern_rows", int(args[1].shape[0]))
        tracer.count("kernel.new_states", int(result[2].size))

    patch(tracer, packed_module.PackedSlotSystem, "successor_tables_words_origin", "kernel.expand", after_expand)
    patch(tracer, kernel.PackedStateTable, "intern_dedup", "kernel.intern", after_intern)
    _patch_explore(tracer, kernel.CompiledStateGraph)

    def after_publish(result, _args):
        tracer.count("store.publish_calls")
        if result:
            tracer.count("store.publishes")
            tracer.count("store.publish_bytes", _file_size(result))

    def after_checkpoint(result, _args):
        if result:
            tracer.count("store.checkpoints")
            tracer.count("store.checkpoint_bytes", _file_size(result))

    def after_load(result, args):
        if result:
            graph_store, system = args[0], args[1]
            tracer.count("store.loads")
            entry = graph_store.entry_path(kernel.config_fingerprint(system.config))
            tracer.count("store.load_bytes", _file_size(entry))

    patch(tracer, store.GraphStore, "publish", "store.publish", after_publish)
    patch(tracer, store.GraphStore, "publish_checkpoint", "store.checkpoint", after_checkpoint)
    patch(tracer, store.GraphStore, "load", "store.load", after_load)
    patch(tracer, store.GraphStore, "claim", "store.claim")
    patch(tracer, exhaustive, "maybe_warm_start_graph", "delta.warm_start")
    patch(tracer, exhaustive, "verify_slot_sharing", "exhaustive.verify")

    from repro.verification import result as result_module

    delta = _optional_module("repro.verification.delta")

    def after_masked(result, _args):
        # (successor words, events, origin, positions, full counts)
        tracer.count("kernel.expand_rows", int(result[0].shape[0]))
        tracer.count("delta.expanded_rows", int(result[0].shape[0]))

    def after_reused(result, _args):
        tracer.count("delta.reused_rows", int(result[0].shape[0]))

    patch(tracer, packed_module.PackedSlotSystem, "expand_frontier_masked", "kernel.expand", after_masked)
    hints = getattr(delta, "DeltaHints", None)
    patch(tracer, hints, "lookup", "delta.reuse")
    patch(tracer, hints, "reused_rows", "delta.reuse", after_reused)
    patch(tracer, result_module.VerificationResult, "minimize", "result.minimize")


def _patch_explore(tracer: Tracer, graph_class) -> None:
    """``CompiledStateGraph.explore`` is a replay when the graph is already
    complete on entry, and a compile (expansion levels) otherwise."""
    original = graph_class.__dict__.get("explore")
    if original is None or getattr(original, "__perfbench_wrapped__", False):
        return

    @functools.wraps(original)
    def explore(self, *args, **kwargs):
        if not tracer.enabled:
            return original(self, *args, **kwargs)
        frozen = self.complete or self.error is not None
        with _Span(tracer, "kernel.replay" if frozen else "kernel.explore"):
            result = original(self, *args, **kwargs)
        if not frozen:
            tracer.count("kernel.compiles")
            tracer.count("kernel.compiled_states", self.state_count)
            tracer.count("kernel.compiled_bytes", self.approx_bytes())
        return result

    explore.__perfbench_wrapped__ = True
    graph_class.explore = explore


def install_dimensioning(tracer: Tracer) -> None:
    """Wrap the library layers first-fit dimensioning runs through."""
    from repro.dimensioning import first_fit

    install_library(tracer)
    patch(tracer, first_fit, "verify_slot_sharing", "exhaustive.verify")
    patch(tracer, first_fit, "instance_budgets", "acceleration.budget")


def install_client(tracer: Tracer) -> None:
    """Wrap the client's wire layer (the benchmark process)."""
    from repro.service import client as client_module

    def after_encode(_result, args):
        message = args[0] if args else None
        if isinstance(message, dict) and "id" in message:
            tracer.set_request(message["id"])

    patch(tracer, client_module, "profiles_to_wire", "client.profiles_to_wire")
    patch(tracer, client_module, "encode_message", "client.encode_message", after_encode)
    patch(tracer, client_module, "decode_message", "client.decode_message")
    patch(tracer, client_module, "result_from_wire", "client.result_from_wire")


def install_server(tracer: Tracer) -> None:
    """Wrap the server's layers (the launcher, before it serves)."""
    from repro.service import server as server_module
    from repro.verification import spec_eval

    install_library(tracer)
    os.register_at_fork(after_in_child=tracer.reset_after_fork)

    def after_decode(result, _args):
        if isinstance(result, dict):
            tracer.set_request(result.get("id"))

    service = server_module.VerificationService
    patch(tracer, service, "_handle_line", "server.handle")
    patch(tracer, server_module, "decode_message", "protocol.decode", after_decode)
    patch(tracer, server_module, "encode_message", "protocol.encode_message")
    patch(tracer, server_module, "result_to_wire", "protocol.result_to_wire")
    patch(tracer, server_module, "profiles_from_wire", "server.profiles_from_wire")
    patch(tracer, server_module, "config_fingerprint", "kernel.fingerprint")
    patch(tracer, server_module, "packed_system_for", "packed.lookup")
    patch(tracer, server_module, "verify_slot_sharing", "exhaustive.verify")
    patch(tracer, server_module, "evaluate_specs", "spec_eval.eval")
    _patch_pool_hop(tracer, server_module)

    def spec_cache() -> Dict[str, float]:
        stats = getattr(spec_eval, "spec_cache_stats", lambda: {})()
        return {f"spec_cache.{key}": float(value) for key, value in stats.items()}

    tracer.gauges["spec_cache"] = spec_cache


def _patch_pool_hop(tracer: Tracer, server_module) -> None:
    """Carry the request id and parent span across the worker-pool hop.

    ``_run_pooled`` (server side) tags the payload; the pool job (worker
    side, inherited through fork) adopts the tag, records its own span and
    flushes the worker's spans when it returns.
    """
    service = server_module.VerificationService
    run_pooled = service.__dict__.get("_run_pooled")
    job = server_module.__dict__.get("_verify_job")
    if run_pooled is None or job is None:
        return

    @functools.wraps(run_pooled)
    async def traced_run_pooled(self, job_function, payload):
        if not tracer.enabled:
            return await run_pooled(self, job_function, payload)
        with _Span(tracer, "pool.run") as span:
            tagged = dict(payload)
            tagged[TRACE_KEY] = (_request.get(), span.span_id)
            return await run_pooled(self, job_function, tagged)

    @functools.wraps(job)
    def traced_job(payload):
        payload = dict(payload)
        if TRACE_KEY not in payload:
            return job(payload)
        request_id, remote_parent = payload.pop(TRACE_KEY)
        _request.set(request_id)
        try:
            with _Span(tracer, "worker.job", parent=remote_parent):
                return job(payload)
        finally:
            tracer.flush(tracer.flush_dir)

    traced_run_pooled.__perfbench_wrapped__ = True
    service._run_pooled = traced_run_pooled
    server_module._verify_job = traced_job


# -------------------------------------------------------------- analysis
def load_dir(directory: str) -> List[Dict[str, Any]]:
    """Every flushed payload under a trace directory."""
    payloads = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as handle:
                payloads.extend(json.loads(line) for line in handle if line.strip())
    return payloads


def self_times(spans: List[Tuple]) -> Dict[int, float]:
    """Self time of every span, with one request's spans in one tree.

    Parents are explicit within a process and across the pool hop; a span
    without a parent (a server request handler, the response encoder)
    hangs under the innermost span of the same request that encloses it
    in another process — the benchmark's own operation span.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    roots_by_request: Dict[Any, List[Tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is None and span[5] is not None:
            roots_by_request[span[5]].append(span)
    for span in spans:
        span_id, parent, _name, start, end, request_id, pid = span
        if parent is not None and parent in by_id:
            children[parent].append((start, end))
            continue
        best = None
        for candidate in roots_by_request.get(request_id, ()):
            if candidate[6] == pid:
                continue
            if candidate[3] <= start and end <= candidate[4]:
                if best is None or candidate[4] - candidate[3] < best[4] - best[3]:
                    best = candidate
        if best is not None:
            children[best[0]].append((start, end))
    return {span[0]: self_time((span[3], span[4]), children.get(span[0], ())) for span in spans}


class Trace:
    """Spans and counts of a measured window, aggregated per layer name.

    Spans recorded by processes outside ``main_pids`` (pool workers) are
    aggregated under ``worker:<name>``.
    """

    def __init__(
        self,
        payloads: Iterable[Dict[str, Any]],
        windows: Sequence[Tuple[float, float]],
        main_pids: Iterable[int],
    ) -> None:
        main = set(main_pids)

        def inside(start: float, end: float) -> bool:
            return any(low <= start and end <= high for low, high in windows)

        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.gauges: Dict[str, float] = {}
        for payload in payloads:
            for span in payload["spans"]:
                if inside(span[3], span[4]):
                    name = span[2] if span[6] in main else "worker:" + span[2]
                    self.spans.append((span[0], span[1], name, span[3], span[4], span[5], span[6]))
            for name, amount, moment in payload["counts"]:
                if inside(moment, moment):
                    self.counts[name if payload["pid"] in main else "worker:" + name] += amount
            if payload["pid"] in main:
                self.gauges.update(payload.get("gauges", {}))
        self.self_of = self_times(self.spans)
        self.self_total: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            self.self_total[span[2]] += self.self_of[span[0]]
            self.inclusive[span[2]] += span[4] - span[3]
            self.calls[span[2]] += 1

    def self_s(self, *names: str) -> float:
        return sum(self.self_total.get(name, 0.0) for name in names)

    def inclusive_s(self, *names: str) -> float:
        return sum(self.inclusive.get(name, 0.0) for name in names)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def roots(self, name: str) -> List[Tuple]:
        return [span for span in self.spans if span[2] == name and span[1] is None]

    def phase_of(self) -> Dict[int, str]:
        """Name of the root span above every span (same process only)."""
        by_id = {span[0]: span for span in self.spans}
        phases: Dict[int, str] = {}
        for span in self.spans:
            cursor = span
            while cursor[1] is not None and cursor[1] in by_id:
                cursor = by_id[cursor[1]]
            phases[span[0]] = cursor[2]
        return phases
