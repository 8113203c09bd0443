"""Pluggable exploration engines for the feasibility query.

Every verification front-end in this code base — the exhaustive shared-slot
verifier (:mod:`repro.verification.exhaustive`), the timed-automata model
checker (:mod:`repro.ta.model_checker`) and, through them, the
resource-dimensioning flow — answers the same reachability question: *is an
error transition reachable from the initial state?*  This module factors the
search itself out of the callers so that new exploration strategies (more
cores, vectorized frontiers, disk-backed visited sets, distributed sharding)
drop in as new engines instead of rewrites.

The pieces:

* :class:`TransitionSource` — the minimal interface an engine explores: an
  ``initial`` state plus ``transitions(state) -> [(label, successor,
  is_error), ...]``.  Two adapters are provided:
  :class:`PackedStateSource` wraps a
  :class:`~repro.scheduler.packed.PackedSlotSystem` (states are packed ints,
  labels are arrival masks, a deadline miss is an error) and
  :class:`GenericSource` wraps any successor function over hashable states
  (used by the TA model checker, where the "error" is a state predicate).
* :class:`ExplorationOutcome` — visited count, truncation flag, error
  witness (parent state + label + error state) and the predecessor store
  needed to rebuild shortest counterexample traces.
* Four engines:

  - :class:`SequentialPackedEngine` — the original verifier's BFS,
    extracted; its packed path now expands levels through the vectorized
    block-table kernel and dedupes through the fused
    :meth:`~repro.verification.kernel.PackedStateTable.intern_dedup` pass
    while keeping the per-state loop's exact semantics (discovery-order
    stops, mid-level cap).  Deterministic, the reference implementation.
  - :class:`ShardedEngine` — level-synchronous multi-process BFS.  The
    state space is partitioned by state hash across worker processes; each
    worker owns the visited shard for its partition, expands the states it
    owns and exchanges cross-shard successors with the coordinator once per
    BFS level.  For packed sources the exchanged rows — frontier
    candidates, parent records, cross-shard successors — live in
    shared-memory frontier rings (:mod:`repro.verification.shm`); the
    pipes carry only level barriers and buffer descriptors (byte payloads
    over the pipes remain as the fallback transport).
  - :class:`VectorizedEngine` — numpy frontiers over the packed integer
    states.  Each level expands through the vectorized block-table kernel
    (:meth:`~repro.scheduler.packed.PackedSlotSystem.expand_frontier`) and
    the per-level set work is one fused dedupe–intern pass over an
    open-addressing hash table (:mod:`repro.verification.kernel`).
  - :class:`CompiledKernelEngine` — the compiled state-graph kernel
    (:mod:`repro.verification.kernel`): discovered states intern into
    dense ``int32`` ids backing id-indexed CSR transition arrays, compiled
    incrementally during the first run and cached per configuration; warm
    re-verification replays the frozen graph without expanding a single
    state.  Handles packed *and* generic sources.

* :func:`resolve_engine` — turns a spec string (``"auto"``,
  ``"sequential"``, ``"sharded[:N]"``, ``"vectorized"``, ``"kernel"``), the
  ``REPRO_VERIFICATION_ENGINE`` environment variable or an engine instance
  into an engine, picking the kernel replay for already-compiled packed
  systems and sharded for large products when several cores are available.

Semantics shared by all engines
-------------------------------

All engines explore the same breadth-first level structure, so on a
*feasible* (error-free) state space every engine reports the identical
visited count, and on an infeasible one every engine finds an error at the
same minimal BFS depth (witness traces have identical length).  The engines
differ only in *when inside a level* they stop:

* the sequential engine stops at the first error transition in discovery
  order (matching the original verifier state counts exactly);
* the sharded, vectorized and kernel engines finish the level they are
  expanding (that is what makes their counts deterministic regardless of
  worker interleaving) and report a deterministically chosen error of that
  level, so their visited counts on infeasible instances can differ from
  the sequential engine's — the verdict and the witness depth never do.

Truncation: every engine keeps the visited set within ``max_states``.  The
sequential engine stops at exactly the cap mid-level; the level-synchronous
engines trim the candidates of the level that would cross the
cap, so they may stop slightly below it (still deterministically).  Because
the engines cap at different points within a level, a *truncated* run's
verdict only covers the part that engine explored — one engine may reach an
error transition just beyond another's cutoff.  The equivalence guarantees
above apply to complete runs.

For packed sources the error is a property of the *transition* (a deadline
miss) and the error successor is not counted as visited; for generic
sources the error is a property of the *state* (the model checker's
predicate) and the found state is counted, exactly like the original
model-checker loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..exceptions import VerificationError

#: States are hashable opaque values: packed ints for slot systems,
#: ``NetworkState`` instances for timed-automata networks.
State = Hashable

#: Transition labels: arrival bit masks (int) or edge labels (str).
Label = Hashable

#: Environment variable overriding the default engine spec.
ENGINE_ENV_VAR = "REPRO_VERIFICATION_ENGINE"

#: Environment variable overriding :data:`AUTO_SHARD_THRESHOLD` (hosts
#: with many cores and verified parallel speedups can lower the bar
#: without code changes; see PERFORMANCE.md, "Sharded engine on real
#: cores").
AUTO_SHARD_ENV_VAR = "REPRO_AUTO_SHARD_THRESHOLD"

#: ``auto`` picks the sharded engine when the packed system's estimated
#: state space is at least this large (and more than one core is usable).
#: Calibration: ``estimated_state_count`` heavily over-counts, and its
#: inflation grows with the number of applications (measured on the case
#: study: ~3.5e3x on 3-application slots, ~1.2e7x on 4-application slot S1,
#: whose estimate is ~1.7e12 for 145,373 reachable states).  The bar sits
#: one order of magnitude above the S1 estimate: everything up to S1 scale
#: — cold sequential now finishes it in ~0.19 s on the fused dedupe–intern
#: path, so the sharded engine's per-level barrier cannot pay for itself —
#: stays sequential, while clearly larger products (tens of seconds of
#: sequential wall-clock) shard by default now that the shared-memory
#: frontier exchange (:mod:`repro.verification.shm`) has removed the
#: serialization cost that used to eat the parallel win.  (PR 4's bar was
#: another order higher; the 2026-07-28 shard-speedup record in
#: PERFORMANCE.md is what justified lowering it.)  Override per host with
#: ``REPRO_AUTO_SHARD_THRESHOLD`` as CI records real multi-worker
#: speedups (the bench-gate workflow uploads them as the
#: ``shard-speedup`` artifact).


def _auto_shard_threshold() -> int:
    raw = os.environ.get(AUTO_SHARD_ENV_VAR, "")
    if raw:
        try:
            # Accept "2e6"-style values too; never crash import on a typo.
            return int(float(raw))
        except ValueError:
            import warnings

            warnings.warn(
                f"ignoring non-numeric {AUTO_SHARD_ENV_VAR}={raw!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return 10**13


AUTO_SHARD_THRESHOLD = _auto_shard_threshold()


def available_worker_count() -> int:
    """Number of CPU cores usable by this process."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# ---------------------------------------------------------------- supervision
#: Kill switch for sharded worker supervision (any of ``0``/``off``/``no``/
#: ``false`` disables it and restores the pre-supervision abort-on-death
#: behaviour).
SHARD_SUPERVISE_ENV_VAR = "REPRO_SHARD_SUPERVISE"

#: Seconds a supervised worker may stay silent past a level barrier before
#: the coordinator declares it hung.  A SIGKILLed worker is detected within
#: tens of milliseconds through ``Process.is_alive`` — the heartbeat only
#: bounds the hung-but-alive case, so the default is generous.
SHARD_HEARTBEAT_ENV_VAR = "REPRO_SHARD_HEARTBEAT"

DEFAULT_SHARD_HEARTBEAT = 120.0


def shard_supervision_enabled() -> bool:
    """Whether sharded worker supervision is on (default yes)."""
    return os.environ.get(SHARD_SUPERVISE_ENV_VAR, "").strip().lower() not in {
        "0",
        "off",
        "no",
        "false",
    }


def _shard_heartbeat_seconds() -> float:
    raw = os.environ.get(SHARD_HEARTBEAT_ENV_VAR, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            import warnings

            warnings.warn(
                f"ignoring non-numeric {SHARD_HEARTBEAT_ENV_VAR}={raw!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return DEFAULT_SHARD_HEARTBEAT


class _WorkerLost(Exception):
    """A supervised shard worker died or went silent past its heartbeat."""

    def __init__(self, worker: int) -> None:
        super().__init__(f"sharded BFS worker {worker} lost")
        self.worker = worker


class _ShardPipe:
    """Coordinator-side supervised pipe to one shard worker.

    Wraps the raw ``multiprocessing`` connection so the per-level barrier
    doubles as the health check: ``send`` turns a broken pipe into
    :class:`_WorkerLost`, and ``recv`` polls in short slices, checking the
    worker process between slices — a SIGKILLed worker is detected within
    one poll slice instead of blocking the barrier forever, and a
    hung-but-alive worker trips the heartbeat deadline.
    """

    __slots__ = ("conn", "process", "worker", "heartbeat")

    def __init__(self, conn, process, worker: int, heartbeat: float) -> None:
        self.conn = conn
        self.process = process
        self.worker = worker
        self.heartbeat = heartbeat

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            raise _WorkerLost(self.worker) from None

    def recv(self):
        import time

        deadline = time.monotonic() + self.heartbeat
        while True:
            try:
                if self.conn.poll(0.02):
                    return self.conn.recv()
            except (EOFError, OSError):
                raise _WorkerLost(self.worker) from None
            if not self.process.is_alive():
                # Drain a final reply the worker may have sent just before
                # exiting cleanly on "stop" racing a slow join.
                try:
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, OSError):
                    pass
                raise _WorkerLost(self.worker)
            if time.monotonic() >= deadline:
                raise _WorkerLost(self.worker)

    def close(self) -> None:
        self.conn.close()


class _ShardRecovery:
    """Coordinator-side restart log for the supervised sharded BFS.

    Holds exactly what a fresh worker team needs to resume from the last
    completed level barrier: every accepted ``(state | parent | label)``
    row matrix of the completed levels (``log`` — the same list that backs
    the predecessor store when the caller wants traces) plus a snapshot of
    the current level's candidate rows and counters, taken at each level
    start.  On a worker loss the engine truncates ``log`` back to
    ``log_mark`` (discarding the dead level's partial accepts), re-seeds a
    smaller team's visited shards from ``log`` and replays the snapshotted
    level — re-exploring only the level that was in flight.
    """

    __slots__ = (
        "started",
        "log",
        "log_mark",
        "level_rows",
        "visited_count",
        "levels",
    )

    def __init__(self) -> None:
        self.started = False
        self.log: List = []
        self.log_mark = 0
        self.level_rows: List = []
        self.visited_count = 0
        self.levels = 0

    def mark_level(self, visited_count: int, levels: int) -> None:
        self.visited_count = visited_count
        self.levels = levels
        self.log_mark = len(self.log)

    def visited_words(self, system):
        """``(n, words)`` matrix of every state accepted so far.

        Once level 0 completed, the root is prepended explicitly: if the
        loss happened during level 1 the log is empty, yet the root must
        still seed its shard.  Duplicates (the root also appears in level
        1's accepted rows) are harmless — the workers' interners dedupe.
        A loss *during* level 0 seeds nothing: the replay offers the root
        as its only candidate, and a seeded root would be dropped as
        already visited, ending the search at zero states.
        """
        import numpy as np

        words = system.packed_words
        parts = [
            np.ascontiguousarray(matrix[:, :words])
            for matrix in self.log
            if matrix.shape[0]
        ]
        if self.levels > 0:
            parts.insert(0, system.pack_words([system.initial]))
        if not parts:
            return np.zeros((0, words), dtype=np.uint64)
        return np.concatenate(parts)


# --------------------------------------------------------------------- sources
@runtime_checkable
class TransitionSource(Protocol):
    """What an engine explores.

    Two kinds exist, dispatched on the ``kind`` attribute: ``"packed"``
    sources expose the underlying
    :class:`~repro.scheduler.packed.PackedSlotSystem` as ``system`` (engines
    run directly on its memoized successor tuples, where the *transition*
    carries the error), and ``"generic"`` sources expose ``edges(state)``
    plus an ``is_error`` *state* predicate that engines evaluate once per
    newly visited state (never on the initial state — callers check the
    root themselves, as the model checker does).
    """

    kind: str
    initial: State


class PackedStateSource:
    """Adapter: a :class:`~repro.scheduler.packed.PackedSlotSystem` as a
    transition source.  Labels are arrival masks; a transition is an error
    exactly when its event bits contain a deadline miss."""

    kind = "packed"

    __slots__ = ("system", "initial")

    def __init__(self, system) -> None:
        self.system = system
        self.initial = system.initial


class GenericSource:
    """Adapter for arbitrary successor functions over hashable states.

    Args:
        initial: the initial state.
        successors: callable returning ``(successor, label)`` pairs — the
            convention of :meth:`repro.ta.network.Network.successors`.
        is_error: state predicate, evaluated by the engines once per newly
            visited state; a state satisfying it ends the search.
        cache: optional mutable mapping owned by the *caller* (one per
            underlying state space, e.g. per model checker).  The compiled
            kernel engine stores its predicate-independent
            :class:`~repro.verification.kernel.GenericStateGraph` under the
            ``"kernel_graph"`` key, so repeated queries against the same
            state space replay the compiled graph instead of re-expanding
            it.  Leave ``None`` for one-shot queries.
    """

    kind = "generic"

    __slots__ = ("initial", "edges", "is_error", "cache")

    def __init__(
        self,
        initial: State,
        successors: Callable[[State], Iterable[Tuple[State, Label]]],
        is_error: Callable[[State], bool],
        cache: Optional[Dict[str, object]] = None,
    ) -> None:
        self.initial = initial
        self.edges = successors
        self.is_error = is_error
        self.cache = cache


# -------------------------------------------------------------------- outcome
@dataclass
class ExplorationOutcome:
    """Result of one exploration run.

    Attributes:
        engine: name of the engine that produced the outcome.
        visited_count: number of distinct states in the visited set.
        truncated: the search hit ``max_states`` before finishing.
        error_found: an error transition was reached.
        error_parent: source state of the error transition (``None`` when
            feasible).
        error_label: label (arrival mask / edge label) of the error
            transition.
        error_state: target state of the error transition.
        levels: number of completed BFS levels.
        parents: predecessor store ``successor -> (parent, label)`` kept
            when the caller asked for witness traces; spans exactly the
            visited states (plus, for generic sources, the error state).
            A plain dict for the loop engines, an id-based lazy view
            (:class:`~repro.verification.kernel.CsrParentStore` /
            :class:`~repro.verification.kernel.GenericParentStore`) for the
            compiled kernel — consumers should rely on the ``Mapping``
            interface only.
    """

    engine: str
    visited_count: int
    truncated: bool
    error_found: bool
    error_parent: Optional[State] = None
    error_label: Optional[Label] = None
    error_state: Optional[State] = None
    levels: int = 0
    parents: Optional[Mapping[State, Tuple[State, Label]]] = None

    @property
    def feasible(self) -> bool:
        """No error transition was reachable (within the explored part)."""
        return not self.error_found


@runtime_checkable
class ExplorationEngine(Protocol):
    """Protocol every exploration engine implements."""

    name: str

    def explore(
        self,
        source: TransitionSource,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        """Run the reachability search up to ``max_states`` visited states."""
        ...


# ----------------------------------------------------------------- sequential
class SequentialPackedEngine:
    """The original frontier-batched BFS, extracted from the verifier.

    On packed sources whose configuration supports the vectorized
    block-table kernel, each BFS level expands through
    :meth:`~repro.scheduler.packed.PackedSlotSystem.expand_frontier` and
    dedupes through the fused
    :meth:`~repro.verification.kernel.PackedStateTable.intern_dedup` pass —
    but the *semantics* stay those of the original per-state loop: states
    are accepted in discovery (row) order, the search stops at the first
    error transition in that order, and the state cap fires mid-level at
    exactly the state that reaches it.  Configurations the kernel cannot
    expand (see ``can_expand_frontier``) and generic sources run the
    original Python loop.
    """

    name = "sequential"

    def explore(
        self,
        source: TransitionSource,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        if getattr(source, "kind", "generic") == "packed":
            if getattr(source.system, "can_expand_frontier", False):
                return self._explore_packed_batched(
                    source, int(max_states), with_parents
                )
            return self._explore_packed_loop(source, int(max_states), with_parents)
        return self._explore_generic(source, int(max_states), with_parents)

    def _explore_packed_batched(
        self, source: PackedStateSource, max_states: int, with_parents: bool
    ) -> ExplorationOutcome:
        import numpy as np

        from ..scheduler.packed import unpack_words
        from .kernel import PackedStateTable

        system = source.system
        root = source.initial
        words = system.packed_words
        visited = PackedStateTable(words)
        frontier_words = system.pack_words([root])
        visited.intern(frontier_words)
        # Packed ints of the current frontier, materialized only while a
        # predecessor store is being built.
        frontier_ints: Optional[List[int]] = [root] if with_parents else None
        parents: Optional[Dict[int, Tuple[int, int]]] = {} if with_parents else None
        visited_count = 1
        truncated = False
        levels = 0
        error: Optional[Tuple[int, int, int]] = None

        while frontier_words.shape[0]:
            indptr, succ_words, masks, miss, origin = (
                system.successor_tables_words_origin(frontier_words)
            )
            levels += 1
            miss_rows = np.flatnonzero(miss)
            stop_row = int(miss_rows[0]) if miss_rows.size else -1
            _, first_mask, _ = visited.intern_dedup(succ_words)
            new_rows = np.flatnonzero(first_mask)
            # Replay the per-state loop's stop rule in row (discovery)
            # order: the first miss transition and the state that reaches
            # the cap compete; whichever row comes first wins.  Rows below
            # the first miss row are never miss transitions, so the
            # accepted prefix is unaffected by the extra interning.
            remaining = max(max_states - visited_count, 1)
            cap_row = int(new_rows[remaining - 1]) if new_rows.size >= remaining else -1
            # On the same row the miss check precedes the cap bookkeeping
            # in the per-state loop, so ties go to the error.
            if stop_row >= 0 and (cap_row < 0 or stop_row <= cap_row):
                accepted = new_rows[new_rows < stop_row]
                final = True
            elif cap_row >= 0:
                truncated = True
                accepted = new_rows[:remaining]
                final = True
            else:
                accepted = new_rows
                final = False
            visited_count += int(accepted.size)

            accepted_ints: Optional[List[int]] = None
            if parents is not None and accepted.size:
                accepted_ints = unpack_words(succ_words[accepted])
                parent_rows = origin[accepted]
                accepted_masks = masks[accepted].tolist()
                for succ, parent_row, mask in zip(
                    accepted_ints, parent_rows.tolist(), accepted_masks
                ):
                    parents[succ] = (frontier_ints[parent_row], int(mask))

            if final:
                if not truncated:
                    parent_row = int(origin[stop_row])
                    if frontier_ints is not None:
                        parent = frontier_ints[parent_row]
                    else:
                        parent = unpack_words(
                            frontier_words[parent_row : parent_row + 1]
                        )[0]
                    successor = unpack_words(
                        succ_words[stop_row : stop_row + 1]
                    )[0]
                    error = (parent, int(masks[stop_row]), successor)
                break
            frontier_words = succ_words[accepted]
            if parents is not None:
                frontier_ints = accepted_ints if accepted_ints is not None else []

        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )

    def _explore_packed_loop(
        self, source: PackedStateSource, max_states: int, with_parents: bool
    ) -> ExplorationOutcome:
        system = source.system
        successors = system.successors
        miss_field = system.miss_field
        root = source.initial

        visited = {root}
        frontier: List[int] = [root]
        parents: Optional[Dict[int, Tuple[int, int]]] = {} if with_parents else None

        truncated = False
        levels = 0
        error_parent = -1
        error_mask = 0
        error_state = -1

        while frontier:
            next_frontier: List[int] = []
            for state in frontier:
                for arrival_mask, succ, event_bits in successors(state):
                    if event_bits & miss_field:
                        error_parent = state
                        error_mask = arrival_mask
                        error_state = succ
                        break
                    if succ in visited:
                        continue
                    visited.add(succ)
                    if parents is not None:
                        parents[succ] = (state, arrival_mask)
                    next_frontier.append(succ)
                    if len(visited) >= max_states:
                        truncated = True
                        break
                if error_parent >= 0 or truncated:
                    next_frontier.clear()
                    break
            frontier = next_frontier
            levels += 1

        error_found = error_parent >= 0
        return ExplorationOutcome(
            engine=self.name,
            visited_count=len(visited),
            truncated=truncated,
            error_found=error_found,
            error_parent=error_parent if error_found else None,
            error_label=error_mask if error_found else None,
            error_state=error_state if error_found else None,
            levels=levels,
            parents=parents,
        )

    def _explore_generic(
        self, source: TransitionSource, max_states: int, with_parents: bool
    ) -> ExplorationOutcome:
        root = source.initial
        edges = source.edges
        is_error = source.is_error

        visited = {root}
        frontier: List[State] = [root]
        parents: Optional[Dict[State, Tuple[State, Label]]] = {} if with_parents else None

        truncated = False
        levels = 0
        error: Optional[Tuple[State, Label, State]] = None

        while frontier:
            next_frontier: List[State] = []
            for state in frontier:
                for succ, label in edges(state):
                    if succ in visited:
                        continue
                    visited.add(succ)
                    if parents is not None:
                        parents[succ] = (state, label)
                    # The predicate runs once per newly visited state; the
                    # found state is part of the witness and is counted
                    # (mirrors the original model-checker loop).
                    if is_error(succ):
                        error = (state, label, succ)
                        break
                    next_frontier.append(succ)
                    if len(visited) >= max_states:
                        truncated = True
                        break
                if error is not None or truncated:
                    next_frontier.clear()
                    break
            frontier = next_frontier
            levels += 1

        return ExplorationOutcome(
            engine=self.name,
            visited_count=len(visited),
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )


# -------------------------------------------------------------------- sharded
def _shard_worker(
    source, worker_id: int, worker_count: int, conn, use_shm: bool = False
) -> None:
    """Worker loop of the sharded BFS (runs in a forked child process).

    Owns the visited shard ``{s : shard_hash(s) % worker_count ==
    worker_id}``.  Per round it receives the candidate states routed to its
    shard, filters them against the local visited set, expands the
    genuinely new ones and returns the successor candidates bucketed by
    destination shard.  Packed sources exchange rows through
    shared-memory frontier rings when ``use_shm`` (see
    :mod:`repro.verification.shm`); pipe payloads otherwise.

    Error semantics mirror the sequential engine's: packed sources flag the
    error on the *transition* during expansion (the miss successor is never
    visited), generic sources evaluate the ``is_error`` state predicate once
    per newly accepted state (never on the root, whose candidate carries no
    parent).
    """
    try:
        if getattr(source, "kind", "generic") == "packed":
            if use_shm:
                _shard_worker_packed_shm(source.system, worker_count, conn)
            else:
                _shard_worker_packed(source.system, worker_count, conn)
        else:
            _shard_worker_generic(source, worker_count, conn)
    except EOFError:  # pragma: no cover - coordinator died
        pass
    except Exception as error:  # pragma: no cover - surfaced by coordinator
        import traceback

        conn.send(("exception", f"{error}\n{traceback.format_exc()}"))
    finally:
        conn.close()


def _expand_shard_round(system, visited, candidates, with_parents, worker_count):
    """One shard round: fused dedupe–intern, expand, route by state hash.

    Shared by both transports.  ``candidates`` is an ``(m, 2 * words + 1)``
    row matrix of ``(state words | parent words | label)``; the visited
    shard dedupes the round's candidates *and* drops the already-visited
    ones in one :meth:`~repro.verification.kernel.PackedStateTable
    .intern_dedup` pass (the first occurrence carries the parent record).

    Returns ``(new_count, accepted, errors, buckets)`` — the newly
    accepted row matrix (``None`` unless parents are wanted), the error
    witnesses and one successor-record matrix per destination shard.
    """
    import numpy as np

    from .kernel import hash_words, unpack_words

    words = system.packed_words
    columns = 2 * words + 1
    state_words = candidates[:, :words]
    _, _, new_rows = visited.intern_dedup(state_words)
    new_count = int(new_rows.size)

    accepted = None
    if with_parents and new_count:
        accepted = np.ascontiguousarray(candidates[new_rows])

    errors: List[Tuple[int, int, int]] = []
    empty = np.zeros((0, columns), dtype=np.uint64)
    buckets = [empty] * worker_count
    if new_count:
        new_words = np.ascontiguousarray(state_words[new_rows])
        indptr, succ_words, masks, miss, origin = (
            system.successor_tables_words_origin(new_words)
        )
        if miss.any():
            new_ints = unpack_words(new_words)
            rows = np.flatnonzero(miss)
            parent_rows = origin[rows]
            for row, parent_row in zip(rows.tolist(), parent_rows.tolist()):
                successor = unpack_words(succ_words[row : row + 1])[0]
                errors.append((new_ints[parent_row], int(masks[row]), successor))
        keep = ~miss if miss.any() else slice(None)
        succ_keep = succ_words[keep]
        if succ_keep.shape[0]:
            parent_rows = origin[keep]
            records = np.empty((succ_keep.shape[0], columns), dtype=np.uint64)
            records[:, :words] = succ_keep
            records[:, words : 2 * words] = new_words[parent_rows]
            records[:, 2 * words] = masks[keep]
            destinations = hash_words(succ_keep) % np.uint64(worker_count)
            buckets = [
                records[destinations == np.uint64(destination)]
                for destination in range(worker_count)
            ]
    return new_count, accepted, errors, buckets


def _shard_worker_packed(system, worker_count: int, conn) -> None:
    """Packed-source worker, pipe transport (fallback).

    Candidates, parent records and cross-shard successor exchanges travel
    as packed byte buffers of ``(state words | parent words | label)``
    rows (``ndarray.tobytes`` / ``np.frombuffer``) through the coordinator
    pipes — the pre-shared-memory transport, kept for hosts without
    usable POSIX shared memory and for ``REPRO_SHARDED_SHM=0``.
    """
    import numpy as np

    words = system.packed_words
    columns = 2 * words + 1
    visited = _shard_visited_table(words)
    empty_bucket = (0, b"")
    while True:
        message = conn.recv()
        if message[0] == "stop":
            break
        if message[0] == "seed":
            conn.send(("seeded", _seed_shard_visited(visited, message, words)))
            continue
        _, count, payload, with_parents = message
        if count:
            candidates = np.frombuffer(payload, dtype=np.uint64).reshape(count, columns)
        else:
            candidates = np.zeros((0, columns), dtype=np.uint64)
        new_count, accepted, errors, buckets = _expand_shard_round(
            system, visited, candidates, with_parents, worker_count
        )
        accepted_payload = None
        if accepted is not None:
            accepted_payload = (accepted.shape[0], accepted.tobytes())
        bucket_payloads = [
            (bucket.shape[0], np.ascontiguousarray(bucket).tobytes())
            if bucket.shape[0]
            else empty_bucket
            for bucket in buckets
        ]
        conn.send(("done", new_count, accepted_payload, errors, bucket_payloads))


def _shard_worker_packed_shm(system, worker_count: int, conn) -> None:
    """Packed-source worker, shared-memory transport.

    The candidate rows arrive as ``(segment, offset, count)`` descriptors
    into the coordinator-owned inbox ring; the reply rows (accepted parent
    records first, then one bucket per destination shard) are written back
    to back into this worker's outbox ring, and the pipe reply carries
    only the counts and the segment name — no payload bytes ever cross a
    pipe.
    """
    import numpy as np

    from .shm import FrontierReader, FrontierRing

    words = system.packed_words
    columns = 2 * words + 1
    visited = _shard_visited_table(words)
    inbox = FrontierReader()
    outbox = FrontierRing()
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "seed":
                # Recovery seeds travel over the pipe even in shm mode —
                # they are sent once per worker loss, not per level.
                conn.send(("seeded", _seed_shard_visited(visited, message, words)))
                continue
            _, count, name, offset_rows, with_parents = message
            if count:
                candidates = inbox.view(name, count, columns, offset_rows)
            else:
                candidates = np.zeros((0, columns), dtype=np.uint64)
            new_count, accepted, errors, buckets = _expand_shard_round(
                system, visited, candidates, with_parents, worker_count
            )
            del candidates
            accepted_rows = 0 if accepted is None else accepted.shape[0]
            matrices = ([accepted] if accepted_rows else []) + buckets
            out_name, _ = outbox.write(matrices, columns)
            conn.send(
                (
                    "done",
                    new_count,
                    accepted_rows,
                    errors,
                    [bucket.shape[0] for bucket in buckets],
                    out_name,
                )
            )
    finally:
        inbox.close()
        outbox.close()


def _shard_visited_table(words: int):
    from .kernel import PackedStateTable

    return PackedStateTable(words)


def _seed_shard_visited(visited, message, words: int) -> int:
    """Intern a ``("seed", count, payload)`` recovery batch; returns count.

    Sent by the supervised coordinator to a freshly respawned team: the
    states every *previous* team accepted up to the last completed level,
    routed to this worker under the new (smaller) shard partition, so the
    replayed level dedupes against them exactly as the old team would
    have.
    """
    import numpy as np

    _, count, payload = message
    if count:
        visited.intern(np.frombuffer(payload, dtype=np.uint64).reshape(count, words))
    return count


def _shard_worker_generic(source, worker_count: int, conn) -> None:
    """Generic-source worker: opaque hashable states, pickled tuples.

    Arbitrary states cannot be packed into word buffers, so the exchange
    stays tuple-based; parent records are still skipped entirely when the
    caller did not request traces.
    """
    edges = source.edges
    is_error = source.is_error

    visited = set()
    while True:
        message = conn.recv()
        if message[0] == "stop":
            break
        _, candidates, with_parents = message
        accepted: Optional[List[Tuple[State, State, Label]]] = (
            [] if with_parents else None
        )
        new_states: List[State] = []
        errors: List[Tuple[State, Label, State]] = []
        for candidate in candidates:
            state, parent, label = candidate
            if state in visited:
                continue
            visited.add(state)
            if accepted is not None:
                accepted.append(candidate)
            if parent is not None and is_error(state):
                errors.append((parent, label, state))
                continue  # an error state is counted but not expanded
            new_states.append(state)

        buckets: List[List[Tuple]] = [[] for _ in range(worker_count)]
        new_count = len(new_states) + len(errors)
        for state in new_states:
            for succ, label in edges(state):
                buckets[hash(succ) % worker_count].append((succ, state, label))
        conn.send(("done", new_count, accepted, errors, buckets))


class ShardedEngine:
    """Level-synchronous multi-process BFS partitioned by state hash.

    Worker ``i`` owns all states whose ``hash(state) % workers == i``: it
    keeps that shard of the visited set and expands exactly the states it
    owns, so both membership testing and successor expansion parallelise.
    Once per BFS level the workers exchange the successors that crossed a
    shard boundary through the coordinator ("frontier exchange").  For
    packed sources the exchanged rows live in shared-memory frontier
    rings (:mod:`repro.verification.shm`) — the pipes carry only level
    barriers and buffer descriptors, so the exchange pays no
    serialization; set ``REPRO_SHARDED_SHM=0`` (or lack POSIX shared
    memory) to use the byte-payload pipe transport instead.

    Requires the ``fork`` start method (the transition source — including
    closures inside TA networks — is inherited, never pickled); on platforms
    without ``fork`` the engine transparently degrades to the sequential
    engine.

    Supervision: for packed sources the per-level barrier doubles as a
    health check (see :class:`_ShardPipe`).  When a worker dies mid-level
    — SIGKILL, OOM kill, crash — the coordinator tears the team down,
    respawns one fewer worker, re-seeds the new shard partition from the
    accepted-row log of the completed levels and replays only the level
    that was in flight, so one dead worker costs one level instead of the
    whole search.  The log makes every supervised run carry accepted rows
    over the wire even when no predecessor store was requested — that is
    the price of restartability; ``REPRO_SHARD_SUPERVISE=0`` (or
    ``supervise=False``) restores the abort-on-death fast path.  Generic
    sources are never supervised (their tuple exchange keeps no row log).
    Truncated searches may re-truncate at a slightly different state after
    a recovery (sub-round boundaries shift with the team size); complete
    runs are unaffected — verdict, counts, levels and witness depth match
    the fault-free run exactly.  The predecessor store may break ties
    among equal-depth parents differently (the merged shards expand in a
    different within-level order), which no engine guarantee covers.

    Args:
        workers: number of worker processes; defaults to the number of
            usable cores (at least 2).
        supervise: force supervision on/off; ``None`` reads
            ``REPRO_SHARD_SUPERVISE`` (default on).
        heartbeat: seconds of barrier silence after which a live worker is
            declared hung; ``None`` reads ``REPRO_SHARD_HEARTBEAT``
            (default 120).
        fault_hook: test/chaos hook ``hook(level, pids)`` called once per
            BFS level right after the level's first sub-round dispatch,
            with the completed-level count and the worker pids — fault
            injectors SIGKILL a pid from here to hit the mid-level window
            deterministically.  The hook is called every level; injectors
            that should fire once must disarm themselves.
    """

    name = "sharded"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        supervise: Optional[bool] = None,
        heartbeat: Optional[float] = None,
        fault_hook: Optional[Callable[[int, List[int]], None]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise VerificationError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self.supervise = supervise
        self.heartbeat = heartbeat
        self.fault_hook = fault_hook
        #: Workers lost and recovered from during the last explore() call.
        self.recovered_workers = 0
        self._processes: List = []

    def _worker_count(self) -> int:
        if self.workers is not None:
            return self.workers
        return max(available_worker_count(), 2)

    def _supervision_enabled(self) -> bool:
        if self.supervise is not None:
            return self.supervise
        return shard_supervision_enabled()

    def _heartbeat_seconds(self) -> float:
        if self.heartbeat is not None:
            return float(self.heartbeat)
        return _shard_heartbeat_seconds()

    def explore(
        self,
        source: TransitionSource,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        import multiprocessing

        self.recovered_workers = 0
        worker_count = self._worker_count()
        if worker_count < 2 or "fork" not in multiprocessing.get_all_start_methods():
            outcome = SequentialPackedEngine().explore(source, max_states, with_parents)
            outcome.engine = self.name
            return outcome

        from .shm import shared_frontiers_enabled

        packed = getattr(source, "kind", "generic") == "packed"
        use_shm = packed and shared_frontiers_enabled()
        supervise = packed and self._supervision_enabled()
        context = multiprocessing.get_context("fork")

        if not supervise:
            connections, processes = self._spawn_workers(
                context, source, worker_count, use_shm, supervised=False
            )
            try:
                return self._coordinate(
                    source,
                    connections,
                    worker_count,
                    int(max_states),
                    with_parents,
                    use_shm,
                )
            finally:
                self._teardown(connections, processes)

        recovery = _ShardRecovery()
        while True:
            connections, processes = self._spawn_workers(
                context, source, worker_count, use_shm, supervised=True
            )
            try:
                if recovery.started:
                    self._seed_team(connections, recovery, source.system)
                return self._coordinate(
                    source,
                    connections,
                    worker_count,
                    int(max_states),
                    with_parents,
                    use_shm,
                    recovery,
                )
            except _WorkerLost as lost:
                # Drop the dead level's partial accepts; the survivors'
                # visited shards are wrong under any new partition, so the
                # whole team is replaced by a smaller one and the level
                # replays from its snapshotted candidate rows.
                del recovery.log[recovery.log_mark :]
                worker_count -= 1
                self.recovered_workers += 1
                if worker_count < 1:
                    raise VerificationError(
                        "sharded BFS lost every worker; nothing left to "
                        "re-partition the shards onto"
                    ) from lost
                import warnings

                warnings.warn(
                    f"sharded BFS worker {lost.worker} lost at level "
                    f"{recovery.levels}; re-partitioning onto "
                    f"{worker_count} worker(s) and replaying the level",
                    RuntimeWarning,
                    stacklevel=2,
                )
            finally:
                self._teardown(connections, processes)

    def _spawn_workers(self, context, source, worker_count, use_shm, supervised):
        connections: List = []
        processes: List = []
        heartbeat = self._heartbeat_seconds()
        for worker_id in range(worker_count):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(source, worker_id, worker_count, child_conn, use_shm),
                daemon=True,
            )
            process.start()
            child_conn.close()
            if supervised:
                connections.append(
                    _ShardPipe(parent_conn, process, worker_id, heartbeat)
                )
            else:
                connections.append(parent_conn)
            processes.append(process)
        self._processes = processes
        return connections, processes

    @staticmethod
    def _teardown(connections, processes) -> None:
        for conn in connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError, _WorkerLost):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()

    def _seed_team(self, connections, recovery, system) -> None:
        """Re-seed a respawned team's visited shards from the recovery log."""
        import numpy as np

        from .kernel import hash_words

        seeds = recovery.visited_words(system)
        worker_count = len(connections)
        destinations = hash_words(seeds) % np.uint64(worker_count)
        for worker, conn in enumerate(connections):
            shard = np.ascontiguousarray(seeds[destinations == np.uint64(worker)])
            conn.send(("seed", shard.shape[0], shard.tobytes()))
        for conn in connections:
            reply = conn.recv()
            if reply[0] == "exception":
                raise VerificationError(
                    f"sharded BFS worker failed while re-seeding: {reply[1]}"
                )

    def _fire_fault_hook(self, level: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(level, [process.pid for process in self._processes])

    def _coordinate(
        self,
        source,
        connections,
        worker_count,
        max_states,
        with_parents,
        use_shm,
        recovery=None,
    ) -> ExplorationOutcome:
        if getattr(source, "kind", "generic") == "packed":
            if use_shm:
                return self._coordinate_packed_shm(
                    source.system,
                    connections,
                    worker_count,
                    max_states,
                    with_parents,
                    recovery,
                )
            return self._coordinate_packed(
                source.system,
                connections,
                worker_count,
                max_states,
                with_parents,
                recovery,
            )
        return self._coordinate_generic(
            source, connections, worker_count, max_states, with_parents
        )

    @staticmethod
    def _decode_parent_buffers(accepted_buffers, words):
        """Predecessor dict from the accumulated accepted-row matrices."""
        import numpy as np

        from .kernel import NO_PARENT_LABEL, unpack_words

        parents: Dict[int, Tuple[int, int]] = {}
        for matrix in accepted_buffers:
            states = unpack_words(np.ascontiguousarray(matrix[:, :words]))
            parent_ints = unpack_words(
                np.ascontiguousarray(matrix[:, words : 2 * words])
            )
            labels = matrix[:, 2 * words]
            is_root = (labels == NO_PARENT_LABEL).tolist()
            for state, parent, label, root in zip(
                states, parent_ints, labels.tolist(), is_root
            ):
                if not root:
                    parents[state] = (parent, label)
        return parents

    def _coordinate_packed_shm(
        self, system, connections, worker_count, max_states, with_parents, recovery=None
    ) -> ExplorationOutcome:
        """Packed coordinator over shared-memory frontier rings.

        The coordinator owns one inbox ring per worker; a BFS level is
        written into the rings exactly once, and the budget-bounded
        sub-round dispatch (see :meth:`_coordinate_generic` for the cap
        rule) ships plain ``(segment, offset, count)`` descriptors — the
        pipes never carry row payloads.  Worker replies are read as views
        into the workers' outbox rings and concatenated straight into the
        next level's inboxes; only parent records (kept until the end of
        the search) and buckets that must survive an outbox reuse inside
        one level are copied.

        Supervision keeps the per-level snapshot free until a worker
        actually dies: the in-flight level's candidate rows already sit in
        the coordinator-owned inboxes (workers only read them), so they
        are copied out of the rings into ``recovery.level_rows`` only on
        the :class:`_WorkerLost` path, before the rings are torn down.
        """
        import numpy as np

        from .kernel import NO_PARENT_LABEL, hash_words
        from .shm import FrontierReader, FrontierRing, close_all

        words = system.packed_words
        columns = 2 * words + 1
        supervise = recovery is not None
        wire_parents = with_parents or supervise

        inboxes = [FrontierRing() for _ in range(worker_count)]
        readers = [FrontierReader() for _ in range(worker_count)]
        if supervise:
            accepted_buffers: Optional[List[np.ndarray]] = recovery.log
        else:
            accepted_buffers = [] if with_parents else None
        visited_count = 0
        levels = 0
        truncated = False
        error: Optional[Tuple[int, int, int]] = None
        pending_rows = [0] * worker_count

        if supervise and recovery.started:
            # Replay after a worker loss: re-bucket the snapshotted level
            # under the new shard partition and restore the counters.
            visited_count = recovery.visited_count
            levels = recovery.levels
            # A ring is written once per level, so the shards of every
            # snapshot matrix are accumulated per destination first.
            queued: List[List[np.ndarray]] = [[] for _ in range(worker_count)]
            for matrix in recovery.level_rows:
                destinations = hash_words(
                    np.ascontiguousarray(matrix[:, :words])
                ) % np.uint64(worker_count)
                for destination in range(worker_count):
                    shard = matrix[destinations == np.uint64(destination)]
                    if shard.shape[0]:
                        queued[destination].append(shard)
            for destination in range(worker_count):
                pending_rows[destination] = inboxes[destination].write(
                    queued[destination], columns
                )[1]
        else:
            if supervise:
                recovery.started = True
            root_words = system.pack_words([system.initial])
            root_record = np.zeros((1, columns), dtype=np.uint64)
            root_record[0, :words] = root_words[0]
            root_record[0, 2 * words] = NO_PARENT_LABEL
            root_shard = int(hash_words(root_words)[0] % np.uint64(worker_count))
            pending_rows[root_shard] = inboxes[root_shard].write(
                [root_record], columns
            )[1]

        try:
            while any(pending_rows) and error is None and not truncated:
                if supervise:
                    recovery.mark_level(visited_count, levels)
                next_views: List[List[np.ndarray]] = [[] for _ in range(worker_count)]
                cursors = [0] * worker_count
                hook_fired = False
                while True:
                    left = sum(
                        pending_rows[w] - cursors[w] for w in range(worker_count)
                    )
                    if left == 0:
                        break
                    budget = max_states - visited_count
                    if budget <= 0:
                        truncated = True
                        break
                    for w, conn in enumerate(connections):
                        take = min(pending_rows[w] - cursors[w], budget)
                        conn.send(
                            ("expand", take, inboxes[w].name, cursors[w], wire_parents)
                        )
                        cursors[w] += take
                        budget -= take
                    if not hook_fired:
                        hook_fired = True
                        self._fire_fault_hook(levels)
                    last_subround = all(
                        pending_rows[w] == cursors[w] for w in range(worker_count)
                    )
                    round_errors: List[Tuple[int, int, int]] = []
                    for w, conn in enumerate(connections):
                        reply = conn.recv()
                        if reply[0] == "exception":
                            raise VerificationError(
                                f"sharded BFS worker failed: {reply[1]}"
                            )
                        _, new_count, accepted_rows, errors, bucket_rows, name = reply
                        visited_count += new_count
                        total_rows = accepted_rows + sum(bucket_rows)
                        if total_rows:
                            out = readers[w].view(name, total_rows, columns)
                            if accepted_buffers is not None and accepted_rows:
                                accepted_buffers.append(out[:accepted_rows].copy())
                            offset = accepted_rows
                            for destination in range(worker_count):
                                rows = bucket_rows[destination]
                                if rows:
                                    segment = out[offset : offset + rows]
                                    next_views[destination].append(
                                        segment if last_subround else segment.copy()
                                    )
                                offset += rows
                            del out
                        round_errors.extend(errors)
                    if round_errors:
                        # Deterministic witness choice: the minimal
                        # (parent, mask) pair, independent of worker order.
                        error = min(round_errors, key=lambda e: (e[0], e[1]))
                        break
                levels += 1
                if error is None and not truncated:
                    for destination in range(worker_count):
                        pending_rows[destination] = inboxes[destination].write(
                            next_views[destination], columns
                        )[1]
                for views in next_views:
                    views.clear()
        except _WorkerLost as lost:
            if supervise:
                # Snapshot the in-flight level out of the coordinator-owned
                # inbox rings before the finally below unlinks them; the
                # rings still hold the level's candidates verbatim (workers
                # only read inboxes, the coordinator rewrites them at level
                # end only).
                recovery.level_rows = [
                    inboxes[w].rows(pending_rows[w], columns).copy()
                    for w in range(worker_count)
                    if pending_rows[w]
                ]
                # The dead worker cannot unlink its own outbox ring any
                # more; adopt the last segment this side attached.
                if 0 <= lost.worker < worker_count:
                    readers[lost.worker].adopt_unlink()
            raise
        finally:
            close_all(readers)
            close_all(inboxes)

        parents: Optional[Dict[int, Tuple[int, int]]] = None
        if with_parents and accepted_buffers is not None:
            parents = self._decode_parent_buffers(accepted_buffers, words)
        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )

    def _coordinate_packed(
        self, system, connections, worker_count, max_states, with_parents, recovery=None
    ) -> ExplorationOutcome:
        """Packed coordinator: candidate rows are ``uint64`` matrices.

        The per-level frontier exchange forwards the workers' byte buffers
        (``np.frombuffer`` views, concatenated per destination) instead of
        re-pickling per-state tuples, and parent records accumulate as raw
        buffers that are decoded to the predecessor dict once, after the
        search — not per level.

        Supervision costs nothing here until a worker dies: the pending
        matrices are views over coordinator-owned reply bytes, stable for
        the whole level, so the level snapshot is just the list of
        references taken at level start.
        """
        import numpy as np

        from .kernel import NO_PARENT_LABEL, hash_words

        words = system.packed_words
        columns = 2 * words + 1
        supervise = recovery is not None
        wire_parents = with_parents or supervise

        def empty_matrix():
            return np.zeros((0, columns), dtype=np.uint64)

        if supervise:
            accepted_buffers: Optional[List[np.ndarray]] = recovery.log
        else:
            accepted_buffers = [] if with_parents else None
        visited_count = 0
        levels = 0

        if supervise and recovery.started:
            # Replay after a worker loss: re-bucket the snapshotted level
            # under the new shard partition and restore the counters.
            visited_count = recovery.visited_count
            levels = recovery.levels
            queued: List[List[np.ndarray]] = [[] for _ in range(worker_count)]
            for matrix in recovery.level_rows:
                destinations = hash_words(
                    np.ascontiguousarray(matrix[:, :words])
                ) % np.uint64(worker_count)
                for destination in range(worker_count):
                    shard = matrix[destinations == np.uint64(destination)]
                    if shard.shape[0]:
                        queued[destination].append(shard)
            pending: List[np.ndarray] = [
                np.concatenate(batch) if batch else empty_matrix()
                for batch in queued
            ]
        else:
            if supervise:
                recovery.started = True
            root_words = system.pack_words([system.initial])
            root_record = np.zeros((1, columns), dtype=np.uint64)
            root_record[0, :words] = root_words[0]
            root_record[0, 2 * words] = NO_PARENT_LABEL
            pending = [empty_matrix() for _ in range(worker_count)]
            pending[
                int(hash_words(root_words)[0] % np.uint64(worker_count))
            ] = root_record

        truncated = False
        error: Optional[Tuple[int, int, int]] = None

        while any(len(p) for p in pending) and error is None and not truncated:
            # One BFS level, dispatched in budget-bounded sub-rounds exactly
            # like the generic coordinator (see there for the cap rule).
            if supervise:
                recovery.mark_level(visited_count, levels)
                recovery.level_rows = [p for p in pending if len(p)]
            next_pending: List[List[np.ndarray]] = [[] for _ in range(worker_count)]
            cursors = [0] * worker_count
            hook_fired = False
            while True:
                left = sum(
                    len(pending[w]) - cursors[w] for w in range(worker_count)
                )
                if left == 0:
                    break
                budget = max_states - visited_count
                if budget <= 0:
                    truncated = True
                    break
                for w, conn in enumerate(connections):
                    take = min(len(pending[w]) - cursors[w], budget)
                    batch = pending[w][cursors[w] : cursors[w] + take]
                    cursors[w] += take
                    budget -= take
                    payload = (
                        np.ascontiguousarray(batch).tobytes() if take else b""
                    )
                    conn.send(("expand", take, payload, wire_parents))
                if not hook_fired:
                    hook_fired = True
                    self._fire_fault_hook(levels)
                round_errors: List[Tuple[int, int, int]] = []
                for conn in connections:
                    reply = conn.recv()
                    if reply[0] == "exception":
                        raise VerificationError(
                            f"sharded BFS worker failed: {reply[1]}"
                        )
                    _, new_count, accepted_payload, errors, buckets = reply
                    visited_count += new_count
                    if accepted_buffers is not None and accepted_payload is not None:
                        count, payload = accepted_payload
                        accepted_buffers.append(
                            np.frombuffer(payload, dtype=np.uint64).reshape(
                                count, columns
                            )
                        )
                    round_errors.extend(errors)
                    for destination in range(worker_count):
                        count, payload = buckets[destination]
                        if count:
                            next_pending[destination].append(
                                np.frombuffer(payload, dtype=np.uint64).reshape(
                                    count, columns
                                )
                            )
                if round_errors:
                    # Deterministic witness choice: the minimal
                    # (parent, mask) pair, independent of worker order.
                    error = min(round_errors, key=lambda e: (e[0], e[1]))
                    break
            levels += 1
            pending = [
                np.concatenate(queued) if queued else empty_matrix()
                for queued in next_pending
            ]

        parents: Optional[Dict[int, Tuple[int, int]]] = None
        if with_parents and accepted_buffers is not None:
            parents = self._decode_parent_buffers(accepted_buffers, words)
        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )

    def _coordinate_generic(
        self, source, connections, worker_count, max_states, with_parents
    ) -> ExplorationOutcome:
        root = source.initial
        pending: List[List[Tuple]] = [[] for _ in range(worker_count)]
        pending[hash(root) % worker_count].append((root, None, None))

        parents: Optional[Dict[State, Tuple[State, Label]]] = {} if with_parents else None
        visited_count = 0
        levels = 0
        truncated = False
        error: Optional[Tuple[State, Label, State]] = None

        while any(pending) and error is None and not truncated:
            # One BFS level.  The candidate lists may contain duplicates and
            # already-visited states (workers own the dedupe), so the state
            # cap cannot be enforced by trimming candidates — instead the
            # level is dispatched in sub-rounds of at most the remaining
            # budget: workers accept at most what they are sent, keeping the
            # visited set within max_states, and `truncated` is set only
            # when the cap is actually reached with candidates still queued
            # (matching the sequential engine's cap rule).
            next_pending: List[List[Tuple]] = [[] for _ in range(worker_count)]
            cursors = [0] * worker_count
            while True:
                left = sum(
                    len(pending[w]) - cursors[w] for w in range(worker_count)
                )
                if left == 0:
                    break
                budget = max_states - visited_count
                if budget <= 0:
                    truncated = True
                    break
                batches: List[List[Tuple]] = []
                for w in range(worker_count):
                    take = min(len(pending[w]) - cursors[w], budget)
                    batches.append(pending[w][cursors[w] : cursors[w] + take])
                    cursors[w] += take
                    budget -= take
                for w, conn in enumerate(connections):
                    conn.send(("expand", batches[w], with_parents))
                round_errors: List[Tuple[State, Label, State]] = []
                for conn in connections:
                    reply = conn.recv()
                    if reply[0] == "exception":
                        raise VerificationError(
                            f"sharded BFS worker failed: {reply[1]}"
                        )
                    _, new_count, accepted, errors, buckets = reply
                    visited_count += new_count
                    if parents is not None and accepted:
                        for state, parent, label in accepted:
                            if parent is not None:
                                parents[state] = (parent, label)
                    round_errors.extend(errors)
                    for destination in range(worker_count):
                        next_pending[destination].extend(buckets[destination])
                if round_errors:
                    error = round_errors[0]
                    break
            levels += 1
            pending = next_pending

        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )


# ----------------------------------------------------------------- vectorized
class VectorizedEngine:
    """Numpy-frontier BFS over packed integer states.

    Each BFS level expands through the vectorized block-table kernel
    (:meth:`~repro.scheduler.packed.PackedSlotSystem.expand_frontier`, via
    ``successor_tables_words``) on ``uint64`` word rows — states wider than
    64 bits simply use several words, and packed states never round-trip
    through Python ints unless a predecessor store or error witness is
    requested.  The per-level set work runs vectorized too: the successor
    multiset deduplicates through ``np.unique`` and the visited set is an
    open-addressing :class:`~repro.verification.kernel.PackedStateTable`,
    so membership-plus-insert of a level is one batched hash-table pass,
    amortized O(1) per state.  Only packed sources are supported.
    """

    name = "vectorized"

    def explore(
        self,
        source: TransitionSource,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        if getattr(source, "kind", "generic") != "packed":
            raise VerificationError(
                "the vectorized engine requires a packed slot-system source; "
                "use the sequential, sharded or kernel engine for generic "
                "state spaces"
            )
        import numpy as np

        from .kernel import PackedStateTable, unpack_words

        system = source.system
        max_states = int(max_states)
        words = system.packed_words

        root = source.initial
        frontier_words = system.pack_words([root])
        # Packed ints of the current frontier, kept only while a
        # predecessor store is being built (the dict keys are ints).
        frontier_ints: Optional[List[int]] = [root] if with_parents else None
        visited = PackedStateTable(words)
        visited.intern(frontier_words)
        visited_count = 1
        parents: Optional[Dict[int, Tuple[int, int]]] = {} if with_parents else None
        truncated = False
        levels = 0
        error: Optional[Tuple[int, int, int]] = None

        while frontier_words.shape[0]:
            indptr, succ_words, masks, miss, origin = (
                system.successor_tables_words_origin(frontier_words)
            )
            levels += 1
            if miss.any():
                # Deterministic witness: the minimal (parent, mask) pair of
                # this level, matching the sharded engine's choice.
                rows = np.flatnonzero(miss)
                parent_rows = origin[rows]
                candidates = []
                for row, parent_row in zip(rows.tolist(), parent_rows.tolist()):
                    parent = unpack_words(
                        frontier_words[parent_row : parent_row + 1]
                    )[0]
                    succ = unpack_words(succ_words[row : row + 1])[0]
                    candidates.append((parent, int(masks[row]), succ))
                error = min(candidates, key=lambda e: (e[0], e[1]))
                break

            if succ_words.shape[0] == 0:
                break
            # Fused dedupe–intern: one batched hash-table pass replaces the
            # np.unique staging; the returned first-occurrence rows come
            # ordered by the (value-ascending) new ids, reproducing the old
            # sorted-unique frontier (and its deterministic truncation
            # prefix) exactly.
            _, _, new_rows = visited.intern_dedup(succ_words)
            if new_rows.shape[0] == 0:
                break
            remaining = max_states - visited_count
            if new_rows.shape[0] >= remaining:
                truncated = True
                new_rows = new_rows[:remaining]
            new_frontier_words = succ_words[new_rows]
            if parents is not None:
                new_ints = unpack_words(new_frontier_words)
                parent_rows = origin[new_rows]
                new_masks = masks[new_rows].tolist()
                for state, parent_row, mask in zip(
                    new_ints, parent_rows.tolist(), new_masks
                ):
                    parents[state] = (frontier_ints[parent_row], int(mask))
                frontier_ints = new_ints
            visited_count += new_frontier_words.shape[0]
            frontier_words = new_frontier_words
            if truncated:
                break

        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )


# -------------------------------------------------------------------- kernel
class CompiledKernelEngine:
    """Compiled state-graph kernel: intern once, replay forever.

    For packed sources the engine explores through the
    :class:`~repro.verification.kernel.CompiledStateGraph` cached on the
    :class:`~repro.scheduler.packed.PackedSlotSystem`: the first (cold) run
    interns every discovered state into a dense ``int32`` id, keeps the
    visited set in an open-addressing ``uint64`` hash table and records the
    transition structure as id-indexed CSR arrays; every later run of the
    same configuration — first-fit dimensioning retries, benchmark rounds,
    repeated admission tests — replays the frozen level structure without
    expanding, packing or hashing a single state.

    Generic sources (the TA model checker) compile into a
    :class:`~repro.verification.kernel.GenericStateGraph`, which is
    *predicate-independent*: pass a ``cache`` dict to
    :class:`GenericSource` (the model checker does) and error-reachability,
    invariant and state-count queries against the same network all replay
    one compiled graph.

    Semantics are level-synchronous, exactly like the sharded and
    vectorized engines (identical counts on feasible complete runs, same
    witness depth on infeasible ones, deterministic sorted-prefix
    truncation).
    """

    name = "kernel"

    def explore(
        self,
        source: TransitionSource,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        from . import kernel as _kernel

        if getattr(source, "kind", "generic") == "packed":
            graph = _kernel.compiled_graph_for(source.system)
            visited_count, levels, truncated, error, parents = graph.explore(
                int(max_states), with_parents
            )
        else:
            cache = getattr(source, "cache", None)
            graph = cache.get("kernel_graph") if cache is not None else None
            if graph is None or graph.states[0] != source.initial:
                graph = _kernel.GenericStateGraph(source.initial, source.edges)
                if cache is not None:
                    cache["kernel_graph"] = graph
            visited_count, levels, truncated, error, parents = graph.explore(
                int(max_states), source.is_error, with_parents
            )
        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )


# ------------------------------------------------------------------ selection
def resolve_engine(
    spec: object = None,
    source: Optional[TransitionSource] = None,
    max_states: Optional[int] = None,
) -> ExplorationEngine:
    """Turn an engine spec into an engine instance.

    Args:
        spec: ``None`` (read ``REPRO_VERIFICATION_ENGINE``, default
            ``"auto"``), an :class:`ExplorationEngine` instance (returned as
            is), or one of the spec strings ``"auto"``, ``"sequential"``,
            ``"sharded"``, ``"sharded:N"``, ``"vectorized"``, ``"kernel"``.
        source: the transition source about to be explored; ``"auto"`` uses
            it to size the decision: a packed system whose compiled state
            graph is already frozen replays on the kernel engine for free,
            large packed products shard when several cores are usable,
            every other packed source the vectorized kernel can expand
            *compiles* on the kernel engine (so later ``auto`` runs replay
            and delta warm starts find parent graphs), and everything else
            runs sequential.  Counts of ``auto`` runs are therefore
            level-synchronous for packed sources (see the semantics notes
            above and ``VerificationResult.count_semantics``); only generic
            sources and kernel-incompatible configurations report the
            sequential engine's discovery-order counts.
        max_states: the exploration cap of the query about to run.  The
            ``"auto"`` kernel-*replay* upgrade only engages when the frozen
            graph fits strictly under this cap — i.e. when the replay is
            guaranteed to report the identical outcome (count, levels,
            truncation, verdict) a fresh compilation would.  Pass ``None``
            to disable the replay upgrade (the compile-by-default choice
            for expandable packed sources still applies).
    """
    if spec is not None and not isinstance(spec, str):
        if isinstance(spec, ExplorationEngine):
            return spec
        raise VerificationError(f"not an exploration engine or spec: {spec!r}")
    from_env = spec is None
    if spec is None:
        spec = os.environ.get(ENGINE_ENV_VAR) or "auto"
    normalized = spec.strip().lower()

    if (
        from_env
        and normalized == "vectorized"
        and source is not None
        and getattr(source, "kind", "generic") != "packed"
    ):
        # The global env knob targets the packed verifiers; generic state
        # spaces (TA networks) cannot run vectorized, so degrade gracefully
        # instead of crashing every model-checker query.  An explicit
        # engine="vectorized" argument still raises in explore().
        return SequentialPackedEngine()

    if normalized == "auto":
        if source is not None and getattr(source, "kind", "generic") == "packed":
            graph = getattr(source.system, "compiled_graph", None)
            if (
                graph is not None
                and graph.complete
                and max_states is not None
                and graph.state_count < max_states
            ):
                # A frozen, cap-fitting compiled graph replays the whole
                # search without expanding a state — the free upgrade.
                return CompiledKernelEngine()
            cores = available_worker_count()
            if (
                cores > 1
                and source.system.estimated_state_count() >= AUTO_SHARD_THRESHOLD
            ):
                return ShardedEngine(min(cores, 8))
            if source.system.can_expand_frontier:
                # Default for packed sources: compile the state graph during
                # the first exploration, so every later ``auto`` run of the
                # same configuration replays it in microseconds — and delta
                # warm starts (:mod:`repro.verification.delta`) always find
                # a parent graph to lift.  Counts are level-synchronous
                # (see :class:`CompiledKernelEngine`).
                return CompiledKernelEngine()
        return SequentialPackedEngine()
    if normalized == "sequential":
        return SequentialPackedEngine()
    if normalized == "vectorized":
        return VectorizedEngine()
    if normalized == "kernel":
        return CompiledKernelEngine()
    if normalized == "sharded" or normalized.startswith("sharded:"):
        workers: Optional[int] = None
        if ":" in normalized:
            suffix = normalized.split(":", 1)[1]
            try:
                workers = int(suffix)
            except ValueError:
                raise VerificationError(
                    f"invalid sharded worker count {suffix!r} in engine spec {spec!r}"
                ) from None
        return ShardedEngine(workers)
    raise VerificationError(
        f"unknown exploration engine {spec!r}; expected one of "
        "'auto', 'sequential', 'sharded[:N]', 'vectorized', 'kernel'"
    )
