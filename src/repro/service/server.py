"""The long-running verification server.

Architecture (the thin-hot-path shape of high-rate acquisition systems):

* **Hot path — in the event loop.**  A verify/admit query whose
  configuration fingerprint has a *complete* compiled graph — on the
  shared in-process packed system (``packed_system_for``) or published in
  the content-addressed graph store — replays the frozen graph inline:
  microseconds of numpy gathers, no process hop, fully async.
* **Cold path — pooled workers.**  A miss enqueues the compile onto a
  ``multiprocessing`` worker pool (fork context).  Concurrent identical
  requests **single-flight**: in-process they coalesce onto one pending
  future (keyed by fingerprint + exploration cap), and cross-process the
  store's lockfile claims serialize compilers (see
  :meth:`repro.verification.exhaustive.ExhaustiveVerifier` and
  :meth:`repro.verification.store.GraphStore.claim`).  The worker runs the
  ordinary :func:`~repro.verification.exhaustive.verify_slot_sharing`
  against the shared store directory — results are byte-identical to a
  direct call, and the published graph turns every subsequent query for
  that fingerprint into a hot-path replay.
* **Delta warm starts.**  Admission queries name the slot's current
  contents (``parent_profiles``); cold compiles then warm-start from the
  parent's published graph through the store's lineage instead of
  compiling from scratch.

Three bounded tables keep a warm query down to a dictionary lookup plus,
at most, the replay:

* **Handle table** — an LRU from config fingerprint to the parsed
  configuration ``(profiles, wire profiles, budget, config)``.  A request
  naming a known handle (``"config": <fingerprint>``, see
  :mod:`repro.service.protocol`) skips profile parsing, budget derivation
  and hashing altogether; an unknown handle fails with ``unknown-config``.
  Full-config requests are parsed once per distinct payload (a second LRU
  maps the payload to its fingerprint) and land in the same table.
* **Warm map** — an LRU from fingerprint to the shared packed system
  whose compiled graph is complete (or error-stopped), no larger than the
  ``packed_system_for`` LRU.  A hit skips ``packed_system_for`` (two hashes
  of the frozen config) and, for ``admit``, the verifier too: the answer
  comes straight from the graph's replay.  Every hit re-checks that the
  entry's frozen graph is still the one installed on the system and the
  system still the shared one, because ``clear_packed_caches``, an LRU
  eviction or a store load can replace either.
* **Answer memo** — inside each warm-map entry, an LRU of the wire answers
  its frozen graph has given: ``verify``/``counterexample`` results keyed
  by ``(max_states, with_counterexample, minimize)`` and ``check`` verdict
  lists keyed by the tuple of spec source strings (dict specs are not
  memoized).  A repeated warm query is then a lookup that only re-stamps
  ``elapsed_seconds`` with its own lookup time.  The answers live and die
  with their entry and graph object, so nothing computed from a replaced
  graph is ever served; ``admit`` (already a bare replay), cold requests
  and ``first_fit`` are not memoized.

Hits never publish: a warm graph is by definition already in the store.

The server holds at most the ``packed_system_for`` LRU's worth of graphs
in memory (16 configurations); everything else lives in the store, bounded
by ``REPRO_GRAPH_STORE_BYTES``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Dict, Optional

from ..exceptions import ServiceError, SpecError
from ..scheduler.packed import is_shared_system, packed_system_for
from ..scheduler.slot_system import SlotSystemConfig
from ..verification.exhaustive import DEFAULT_MAX_STATES, verify_slot_sharing
from ..verification.kernel import config_fingerprint
from ..verification.spec import specs_from_wire
from ..verification.spec_eval import evaluate_specs, spec_cache_stats
from ..verification.store import store_for
from .protocol import (
    CODE_SHUTTING_DOWN,
    CODE_SPEC,
    CODE_TRUNCATED,
    CODE_UNKNOWN_CONFIG,
    CODE_WORKER_POOL,
    MAX_LINE_BYTES,
    budget_from_wire,
    decode_message,
    encode_message,
    error_response,
    profiles_from_wire,
    result_to_wire,
)

logger = logging.getLogger(__name__)

__all__ = ["VerificationService", "DEFAULT_STORE_DIR"]

#: Default graph-store directory of a server started without an explicit
#: one (the CLI's default too).
DEFAULT_STORE_DIR = os.path.join(
    os.path.expanduser("~"), ".cache", "repro", "graph-store"
)


def _frozen(graph) -> bool:
    """Whether a compiled graph replays without expanding anything."""
    return graph is not None and (graph.complete or graph.error is not None)


class _WarmEntry:
    """A warm-map entry: the shared packed system, the frozen graph it held
    when the entry was made, and the wire answers computed from that graph
    (an LRU keyed as described in the module docstring)."""

    __slots__ = ("system", "graph", "answers")

    def __init__(self, system) -> None:
        self.system = system
        self.graph = system.compiled_graph
        self.answers: "OrderedDict[tuple, Any]" = OrderedDict()

    def current(self) -> bool:
        """Whether the entry's graph is still the one its system replays
        and the system still the shared one."""
        return self.system.compiled_graph is self.graph and is_shared_system(
            self.system
        )


def _spec_key(request: Dict[str, Any]) -> Optional[tuple]:
    """The tuple of spec source strings of a check request, or None when
    its specs include dicts."""
    if "specs" not in request:
        raise ServiceError("'specs' is required for check requests")
    raw = request["specs"]
    if isinstance(raw, str):
        return (raw,)
    if isinstance(raw, list) and all(isinstance(entry, str) for entry in raw):
        return tuple(raw)
    return None


def _remember(table: OrderedDict, key, value, limit: int) -> None:
    """Insert into a bounded LRU as most recent, evicting the oldest."""
    table[key] = value
    table.move_to_end(key)
    while len(table) > limit:
        table.popitem(last=False)


# ------------------------------------------------------------- worker jobs
# Module level so the fork-context pool can run them; each executes the
# ordinary one-shot front-ends against the shared store directory, which is
# exactly what makes server results byte-identical to direct calls.
def _verify_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    profiles = profiles_from_wire(payload["profiles"])
    kwargs: Dict[str, Any] = {}
    if payload.get("parent_profiles"):
        kwargs["parent_profiles"] = profiles_from_wire(payload["parent_profiles"])
        kwargs["parent_instance_budget"] = payload.get("parent_instance_budget")
    result = verify_slot_sharing(
        profiles,
        instance_budget=payload.get("budget"),
        max_states=payload["max_states"],
        with_counterexample=True,
        graph_dir=payload["store_dir"],
        **kwargs,
    )
    return result_to_wire(result, with_counterexample=True)


def _first_fit_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..dimensioning.first_fit import dimension_with_verification

    profiles = profiles_from_wire(payload["profiles"])
    outcome = dimension_with_verification(
        {profile.name: profile for profile in profiles},
        order=payload.get("order"),
        graph_dir=payload["store_dir"],
    )
    return {
        "partition": [list(names) for names in outcome.partition()],
        "slot_count": outcome.slot_count,
        "order": list(outcome.order),
        "verifications": outcome.verifications,
        "elapsed_seconds": outcome.elapsed_seconds,
    }


class VerificationService:
    """Batched admission/verification server over a Unix socket.

    Args:
        socket_path: Unix-domain socket to listen on (a stale file is
            unlinked at startup).
        store_dir: graph-store directory shared by the event loop and the
            worker pool; defaults to ``REPRO_GRAPH_DIR``, then
            :data:`DEFAULT_STORE_DIR`.
        workers: cold-compile pool size (default: one per usable core).
        max_states: default exploration cap of queries that name none.
    """

    def __init__(
        self,
        socket_path: str,
        store_dir: Optional[str] = None,
        workers: Optional[int] = None,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        self.socket_path = str(socket_path)
        self.store_dir = str(
            store_dir or os.environ.get("REPRO_GRAPH_DIR") or DEFAULT_STORE_DIR
        )
        self.workers = workers
        self.max_states = int(max_states)
        self.store = store_for(self.store_dir)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        #: In-process single-flight: pending cold compiles keyed by
        #: ``fingerprint:max_states`` (and ``ff:<key>`` for dimensionings).
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Handle table: fingerprint -> (profiles, wire profiles, budget,
        #: config).  Handle requests resolve here without any parsing.
        self._configs: "OrderedDict[str, tuple]" = OrderedDict()
        #: Full-config requests: raw profile/budget payload -> fingerprint,
        #: so a client that does not use handles parses each config once.
        self._parse_cache: "OrderedDict[str, str]" = OrderedDict()
        #: Warm map: fingerprint -> entry of the shared packed system with a
        #: frozen graph, plus that graph's memoized answers.
        self._warm: "OrderedDict[str, _WarmEntry]" = OrderedDict()
        #: Parsed spec lists keyed by the tuple of their source strings.
        self._specs: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._started = time.monotonic()
        self.stats: Dict[str, int] = {
            "requests": 0,
            "memory_hits": 0,
            "store_hits": 0,
            "compiles": 0,
            "coalesced": 0,
            "spec_checks": 0,
            "errors": 0,
            "pool_rebuilds": 0,
            "store_rejects": 0,
            "handle_hits": 0,
            "handle_misses": 0,
            "full_config_requests": 0,
            "answer_hits": 0,
            "answer_misses": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def _make_executor(self) -> ProcessPoolExecutor:
        """A fresh fork-context cold-compile pool."""
        import multiprocessing

        worker_count = self.workers or max(1, (os.cpu_count() or 1) - 1)
        return ProcessPoolExecutor(
            max_workers=worker_count,
            mp_context=multiprocessing.get_context("fork"),
        )

    async def start(self) -> None:
        """Bind the socket and start the worker pool."""
        os.makedirs(self.store_dir, exist_ok=True)
        socket_dir = os.path.dirname(self.socket_path)
        if socket_dir:
            os.makedirs(socket_dir, exist_ok=True)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._executor = self._make_executor()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=self.socket_path, limit=MAX_LINE_BYTES
        )
        worker_count = self.workers or max(1, (os.cpu_count() or 1) - 1)
        logger.info(
            "verification service listening on %s (store %s, %d worker%s)",
            self.socket_path,
            self.store_dir,
            worker_count,
            "s" if worker_count != 1 else "",
        )

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or task cancellation)."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        try:
            await self._stopping.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting connections and tear the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def run(self) -> None:
        """Blocking entry point (the CLI's main loop)."""
        asyncio.run(self.serve_forever())

    # ----------------------------------------------------------- connections
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Structured like every other failure: code + retryable,
                    # so a mechanical client treats the oversized line as the
                    # permanent invalid-request it is.
                    writer.write(
                        encode_message(
                            error_response(ServiceError("request line too long"))
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server teardown while blocked on a read: close quietly (the
            # event loop is shutting this connection down, not an error).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id = None
        try:
            request = decode_message(line)
            request_id = request.get("id")
            response = await self._dispatch(request)
        except ServiceError as error:
            self.stats["errors"] += 1
            response = error_response(error)
        except Exception as error:  # a failed request must not kill the server
            self.stats["errors"] += 1
            logger.exception("request failed")
            response = error_response(error)
        if request_id is not None:
            response.setdefault("id", request_id)
        return response

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.stats["requests"] += 1
        operation = request.get("op")
        if operation == "ping":
            return {"ok": True, "pong": True}
        if operation == "stats":
            return self._stats_response()
        if operation == "shutdown":
            assert self._stopping is not None
            self._stopping.set()
            return {"ok": True, "stopping": True}
        if operation == "verify":
            return await self._verify(request, admit_only=False)
        if operation == "admit":
            return await self._verify(request, admit_only=True)
        if operation == "counterexample":
            request = dict(request)
            request["with_counterexample"] = True
            request.setdefault("minimize", True)
            return await self._verify(request, admit_only=False)
        if operation == "check":
            return await self._check(request)
        if operation == "first_fit":
            return await self._first_fit(request)
        if operation == "batch":
            return await self._batch(request)
        raise ServiceError(f"unknown op {operation!r}")

    # ------------------------------------------------------------- verify op
    async def _verify(
        self, request: Dict[str, Any], admit_only: bool
    ) -> Dict[str, Any]:
        fingerprint, (profiles, wire_profiles, budget, config) = (
            self._resolve_config(request)
        )
        max_states = int(request.get("max_states") or self.max_states)
        with_counterexample = bool(request.get("with_counterexample", False))
        minimize = bool(request.get("minimize", False))

        tier, entry = self._warm_lookup(fingerprint, config)
        if tier is not None:
            self.stats[f"{tier}_hits"] += 1
            if admit_only:
                # Verifier-free: the frozen graph's replay is the verdict
                # (the same call the kernel engine makes for a verify).
                _, _, truncated, error, _ = entry.graph.explore(max_states, False)
                return {
                    "ok": True,
                    "admitted": error is None,
                    "truncated": truncated,
                    "tier": tier,
                    "config": fingerprint,
                }
            # max_states is part of the key: a smaller cap truncates the
            # replay and so changes the answer.
            key = ("verify", max_states, with_counterexample, minimize)
            started = time.perf_counter()
            wire = self._answer(entry, key)
            if wire is not None:
                wire = dict(wire, elapsed_seconds=time.perf_counter() - started)
            else:
                # verify_slot_sharing is the same front-end the one-shot
                # scripts call, so the result is identical by construction.
                # An empty graph_dir (None would fall back to
                # REPRO_GRAPH_DIR) keeps a hit from reloading or
                # republishing what the store holds.
                result = verify_slot_sharing(
                    profiles,
                    instance_budget=budget,
                    max_states=max_states,
                    with_counterexample=with_counterexample,
                    minimize=minimize,
                    graph_dir="",
                )
                wire = result_to_wire(result, with_counterexample)
                self._remember_answer(entry, key, wire)
        else:
            wire = dict(
                await self._cold_verify(
                    request, wire_profiles, budget, fingerprint, max_states
                )
            )
            if not with_counterexample:
                wire["counterexample"] = []
            elif minimize and wire.get("counterexample"):
                from .protocol import result_from_wire

                wire = result_to_wire(result_from_wire(wire).minimize(), True)
            tier = "cold"
        if admit_only:
            return {
                "ok": True,
                "admitted": bool(wire["feasible"]),
                "truncated": bool(wire["truncated"]),
                "tier": tier,
                "config": fingerprint,
            }
        return {"ok": True, "tier": tier, "result": wire, "config": fingerprint}

    # -------------------------------------------------------------- check op
    async def _check(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Evaluate temporal specs on the compiled graph of a configuration.

        Warm graphs answer inline — spec evaluation is label propagation
        over the frozen CSR arrays, the same microsecond-class work as a
        warm replay.  A cold configuration compiles through the verify
        single-flight first (so concurrent verify/check requests for the
        same fingerprint coalesce onto one compile), then evaluates against
        the freshly published graph.
        """
        fingerprint, (_, wire_profiles, budget, config) = self._resolve_config(
            request
        )
        max_states = int(request.get("max_states") or self.max_states)
        spec_key = _spec_key(request)

        tier, entry = self._warm_lookup(fingerprint, config)
        if tier is not None and spec_key is not None:
            # A warm graph is frozen, so max_states cannot change a verdict.
            key = ("check", spec_key)
            started = time.perf_counter()
            answer = self._answer(entry, key)
            if answer is not None:
                elapsed = time.perf_counter() - started
                self.stats["spec_checks"] += 1
                return self._check_response(
                    tier,
                    entry.graph,
                    [dict(verdict, elapsed_seconds=elapsed) for verdict in answer],
                    fingerprint,
                )
        specs = self._parse_specs(request)
        if tier is None:
            await self._cold_verify(
                request, wire_profiles, budget, fingerprint, max_states
            )
            tier = "cold"
            # Pull the published graph; a truncated compile published none.
            entry = self._warm_lookup(fingerprint, config)[1]
        graph = entry.graph if entry is not None else None
        if not _frozen(graph):
            raise ServiceError(
                f"exploration hit max_states={max_states} before the graph was "
                "complete; temporal verdicts need the fully explored graph — "
                "resend with a larger max_states",
                code=CODE_TRUNCATED,
            )
        try:
            verdicts = evaluate_specs(graph, specs)
        except SpecError as error:
            raise ServiceError(str(error), code=CODE_SPEC) from error
        self.stats["spec_checks"] += 1
        answer = [verdict.to_dict() for verdict in verdicts]
        if tier != "cold" and spec_key is not None:
            self._remember_answer(entry, ("check", spec_key), answer)
        return self._check_response(tier, graph, answer, fingerprint)

    @staticmethod
    def _check_response(tier: str, graph, verdicts: list, fingerprint: str):
        return {
            "ok": True,
            "tier": tier,
            "feasible": graph.error is None and graph.complete,
            "verdicts": verdicts,
            "config": fingerprint,
        }

    #: Bound of the handle table, the payload LRU and the spec memo.
    _PARSE_CACHE_SIZE = 256
    #: Bound of the warm map: the ``packed_system_for`` LRU's size.
    _WARM_MAP_SIZE = 16
    #: Bound of the answer memo of one warm-map entry.
    _ANSWER_MEMO_SIZE = 16

    def _answer(self, entry: _WarmEntry, key: tuple):
        """The memoized wire answer of a warm entry under ``key``, or None."""
        answer = entry.answers.get(key)
        if answer is None:
            self.stats["answer_misses"] += 1
            return None
        entry.answers.move_to_end(key)
        self.stats["answer_hits"] += 1
        return answer

    def _remember_answer(self, entry: _WarmEntry, key: tuple, answer) -> None:
        """Memoize a warm answer, unless its entry went stale meanwhile."""
        if entry.current():
            _remember(entry.answers, key, answer, self._ANSWER_MEMO_SIZE)

    def _resolve_config(self, request: Dict[str, Any]):
        """``(fingerprint, (profiles, wire profiles, budget, config))`` of a
        request, from its handle or its memoized full-config payload."""
        handle = request.get("config")
        if handle is not None and "profiles" not in request:
            entry = self._configs.get(handle) if isinstance(handle, str) else None
            if entry is None:
                self.stats["handle_misses"] += 1
                raise ServiceError(
                    f"unknown config handle {handle!r}; resend the request "
                    "with the full configuration",
                    code=CODE_UNKNOWN_CONFIG,
                )
            self.stats["handle_hits"] += 1
            self._configs.move_to_end(handle)
            return handle, entry
        self.stats["full_config_requests"] += 1
        key = json.dumps(
            (
                request.get("profiles"),
                request.get("instance_budget"),
                bool(request.get("use_acceleration", True)),
            ),
            sort_keys=True,
            separators=(",", ":"),
        )
        fingerprint = self._parse_cache.get(key)
        entry = self._configs.get(fingerprint) if fingerprint else None
        if entry is not None:
            self._parse_cache.move_to_end(key)
            self._configs.move_to_end(fingerprint)
            return fingerprint, entry
        profiles = profiles_from_wire(request.get("profiles"))
        budget = budget_from_wire(request, profiles)
        config = SlotSystemConfig.from_profiles(profiles, budget)
        fingerprint = config_fingerprint(config)
        entry = (profiles, request["profiles"], budget, config)
        _remember(self._parse_cache, key, fingerprint, self._PARSE_CACHE_SIZE)
        _remember(self._configs, fingerprint, entry, self._PARSE_CACHE_SIZE)
        return fingerprint, entry

    def _parse_specs(self, request: Dict[str, Any]) -> tuple:
        """The parsed specs of a check request, memoized on their source
        strings (lists holding spec dicts parse every time)."""
        key = _spec_key(request)
        raw = request["specs"]
        specs = self._specs.get(key) if key is not None else None
        if specs is not None:
            self._specs.move_to_end(key)
            return specs
        try:
            specs = specs_from_wire(raw)
        except SpecError as error:
            raise ServiceError(str(error), code=CODE_SPEC) from error
        if key is not None:
            _remember(self._specs, key, specs, self._PARSE_CACHE_SIZE)
        return specs

    def _warm_lookup(self, fingerprint: str, config):
        """``(tier, warm-map entry)`` when the config replays warm, else
        ``(None, None)``; tier is ``"memory"`` or ``"store"``."""
        entry = self._warm.get(fingerprint)
        if entry is not None:
            if entry.current():
                self._warm.move_to_end(fingerprint)
                return "memory", entry
            del self._warm[fingerprint]
        system = packed_system_for(config)
        # Drop entries whose systems the packed LRU has since evicted, so
        # the warm map never keeps a graph (or its answers) alive that
        # nothing else holds.
        for stale in [key for key, held in self._warm.items() if not held.current()]:
            del self._warm[stale]
        graph = system.compiled_graph
        if _frozen(graph):
            tier = "memory"
        elif graph is None and self.store.has(fingerprint):
            if not self.store.load(system):
                # A present entry that would not load (truncated/corrupted
                # on disk — e.g. mid-publish crash or operator damage); the
                # store already dropped it, so this query recompiles cold.
                self.stats["store_rejects"] += 1
                return None, None
            tier = "store"
        else:
            return None, None
        entry = _WarmEntry(system)
        _remember(self._warm, fingerprint, entry, self._WARM_MAP_SIZE)
        return tier, entry

    async def _cold_verify(
        self,
        request: Dict[str, Any],
        wire_profiles: list,
        budget: Optional[Dict[str, int]],
        fingerprint: str,
        max_states: int,
    ) -> Dict[str, Any]:
        """Run one cold compile in the pool, single-flighted in-process.

        The worker always keeps the witness; the caller strips it when the
        request did not ask for one, so concurrent requests differing only
        in ``with_counterexample`` coalesce onto the same compile.
        """
        payload = {
            "profiles": wire_profiles,
            "budget": budget,
            "max_states": max_states,
            "store_dir": self.store_dir,
            "parent_profiles": request.get("parent_profiles"),
            "parent_instance_budget": request.get("parent_instance_budget"),
        }
        return await self._single_flight(
            f"{fingerprint}:{max_states}", _verify_job, payload
        )

    async def _run_pooled(self, job, payload) -> Any:
        """Run one job on the worker pool, surviving a dead pool.

        A ``BrokenProcessPool`` (a worker was OOM-killed, segfaulted or
        killed by an operator) poisons the whole executor: every in-flight
        job fails and every later submit raises.  The in-flight request
        cannot be salvaged — its worker is gone — so it fails with a
        *structured retryable* error, but the pool is torn down and rebuilt
        immediately so the retry (and every subsequent cold request)
        compiles on fresh workers.
        """
        executor = self._executor
        if executor is None:
            raise ServiceError(
                "server is shutting down",
                code=CODE_SHUTTING_DOWN,
                retryable=True,
            )
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(executor, job, payload)
        except BrokenExecutor as error:
            self._rebuild_executor(executor)
            raise ServiceError(
                f"worker pool died mid-request ({error or type(error).__name__}); "
                "the pool has been rebuilt — retry the request",
                code=CODE_WORKER_POOL,
                retryable=True,
            ) from error

    def _rebuild_executor(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken pool with a fresh one (once per failure).

        Several coalesced single-flight jobs can observe the same broken
        pool; only the first caller holding the still-installed executor
        rebuilds, the rest see the replacement already in place.
        """
        if self._executor is not broken:
            return
        self.stats["pool_rebuilds"] += 1
        logger.warning("cold-compile worker pool died; rebuilding")
        self._executor = self._make_executor()
        try:
            broken.shutdown(wait=False, cancel_futures=True)
        except Exception:  # a broken pool may fail its own teardown
            pass

    async def _single_flight(self, key: str, job, payload) -> Any:
        future = self._inflight.get(key)
        if future is None:
            future = asyncio.ensure_future(self._run_pooled(job, payload))
            self._inflight[key] = future
            # Pop on completion — failures included, so a pool death never
            # leaves a poisoned entry coalescing future requests onto it.
            future.add_done_callback(lambda _done: self._inflight.pop(key, None))
            self.stats["compiles"] += 1
        else:
            self.stats["coalesced"] += 1
        # Shield: one requester disconnecting must not cancel the compile
        # its coalesced peers are waiting on.
        return await asyncio.shield(future)

    # ---------------------------------------------------------- first-fit op
    async def _first_fit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        profiles = profiles_from_wire(request.get("profiles"))
        order = request.get("order")
        if order is not None and not isinstance(order, list):
            raise ServiceError("'order' must be a list of application names")
        payload = {
            "profiles": request["profiles"],
            "order": order,
            "store_dir": self.store_dir,
        }
        names = ",".join(sorted(profile.name for profile in profiles))
        key = "ff:" + names + ":" + ",".join(order or ())
        outcome = dict(await self._single_flight(key, _first_fit_job, payload))
        outcome["ok"] = True
        return outcome

    # -------------------------------------------------------------- batch op
    async def _batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        subrequests = request.get("requests")
        if not isinstance(subrequests, list):
            raise ServiceError("'requests' must be a list")
        if any(entry.get("op") == "batch" for entry in subrequests):
            raise ServiceError("batches do not nest")
        responses = await asyncio.gather(
            *(self._handle_line(encode_message(entry)) for entry in subrequests)
        )
        return {"ok": True, "responses": list(responses)}

    # ----------------------------------------------------------------- stats
    def _stats_response(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "stats": dict(self.stats),
            "inflight": len(self._inflight),
            "uptime_seconds": time.monotonic() - self._started,
            "store": self.store.describe(),
            "spec_cache": spec_cache_stats(),
        }
