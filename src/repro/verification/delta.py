"""Incremental delta verification: warm-start a child configuration's
compiled state graph from a neighboring parent configuration's graph.

The paper's design flow (Sec. 5) verifies long chains of slot
configurations that differ by exactly one application: first-fit
dimensioning probes ``slot + [candidate]`` against a slot whose current
contents were verified one trial earlier.  Today each probe is a cold
compile of the child graph even though the parent graph — the *same*
states minus the added application — is sitting warm on the parent's
:class:`~repro.scheduler.packed.PackedSlotSystem`.

This module turns those probes into delta revalidations:

* :func:`config_delta` diffs two :class:`~repro.scheduler.slot_system
  .SlotSystemConfig` objects application-by-application (matching by name,
  comparing the full profile *and* the instance budget — budgets are
  set-dependent, see :mod:`repro.verification.acceleration`, so a shared
  application whose budget moved is a *changed* application, not a shared
  one).
* :func:`translate_states` lifts the parent graph's packed state rows into
  the child encoding: every shared application's block field moves to its
  child bit position, the occupant value and the buffer-member bits are
  index-remapped, and the added applications' blocks stay zero (their
  initial block).  The lift is exact: because added applications'
  disturbance-instance counters are monotone, the lifted rows are exactly
  the child states reachable without ever disturbing an added application,
  discovered at the same BFS depth as in the parent.
* :class:`DeltaHints` hands the child's
  :class:`~repro.verification.kernel.CompiledStateGraph` everything its
  level expansion needs to *reuse* the parent's CSR rows: when a frontier
  state is a lifted parent state, the successor rows of arrival subsets
  avoiding the added applications are gathered straight from the parent
  CSR (translated ids and bit-remapped labels) and only the subsets that
  disturb an added application are expanded (the masked expansion kernel,
  :meth:`~repro.scheduler.packed.PackedSlotSystem
  .expand_frontier_masked`).  Both row groups interleave by enumeration
  rank, reproducing the cold expansion order — the delta-built graph is
  byte-identical to a cold compile (same ids, CSR arrays, levels, verdict
  and witness), which the fuzz harness asserts id-for-id.
* :func:`warm_start_graph` wires the pieces together with a cold-compile
  fallback whenever the preconditions fail (removed or changed
  applications, too broad a diff, an incomplete or infeasible parent
  graph, a configuration the vectorized kernel cannot expand).
* :func:`maybe_warm_start_graph` is the cross-process variant: when the
  parent graph is not in memory it is loaded from the ``graph_dir`` cache
  by its configuration fingerprint — the parent-fingerprint *lineage key*
  — and a ``graph-<child-fingerprint>.parent`` sidecar records the lineage
  next to the child's cache entry.

Set ``REPRO_DELTA_WARMSTART=0`` to disable warm starts globally (every
verification then cold-compiles as before).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..scheduler.packed import PackedSlotSystem, packed_system_for
from .kernel import (
    CompiledStateGraph,
    PackedStateTable,
    compiled_graph_for,
    maybe_load_graph,
)

__all__ = [
    "ConfigDelta",
    "DeltaHints",
    "config_delta",
    "maybe_warm_start_graph",
    "translate_states",
    "warm_start_graph",
]

#: Environment variable disabling delta warm starts when set to ``0``.
DELTA_ENV_VAR = "REPRO_DELTA_WARMSTART"

#: Diffs that add more than this many applications fall back to a cold
#: compile: each added application doubles the arrival subsets the masked
#: expansion must produce per lifted state, eroding the reuse fraction.
MAX_ADDED_APPS = 2

#: Parent configurations wider than this cannot build the dense
#: label-remap LUT (2^n entries); they cold-compile instead.
_MAX_PARENT_APPS = 16


def delta_enabled() -> bool:
    """Whether delta warm starts are enabled (``REPRO_DELTA_WARMSTART``)."""
    return os.environ.get(DELTA_ENV_VAR, "").strip() != "0"


# ----------------------------------------------------------------- config diff
@dataclass(frozen=True)
class ConfigDelta:
    """Application-level diff between two slot configurations.

    Attributes:
        shared: ``(parent_index, child_index)`` pairs of applications whose
            profile *and* instance budget are identical in both configs, in
            ascending index order (name-sorted configs make the pairing
            monotone in both components).
        added: child indices of applications absent from the parent.
        removed: parent indices of applications absent from the child.
        changed: child indices of name-matched applications whose profile
            or budget differs (these block warm starts — the parent's
            block table rows are stale for them).
    """

    shared: Tuple[Tuple[int, int], ...]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    changed: Tuple[int, ...]

    @property
    def warm_startable(self) -> bool:
        """Whether a parent graph can seed the child compilation.

        Requires a pure extension: every parent application carried over
        unchanged (profile and budget) and at least one application added.
        """
        return (
            not self.removed
            and not self.changed
            and bool(self.added)
            and len(self.added) <= MAX_ADDED_APPS
        )


def config_delta(parent_config, child_config) -> ConfigDelta:
    """Diff two :class:`~repro.scheduler.slot_system.SlotSystemConfig`\\ s.

    Applications are matched by name; a matched application counts as
    *shared* only when its full profile and its instance budget are equal —
    budgets derive from the whole application set (the interference
    horizon), so an extension can silently change a carried-over
    application's packed block layout, which :attr:`ConfigDelta.shared`
    must exclude.
    """
    parent_by_name = {
        profile.name: (index, profile, budget)
        for index, (profile, budget) in enumerate(
            zip(parent_config.profiles, parent_config.instance_budget)
        )
    }
    shared = []
    added = []
    changed = []
    matched_parents = set()
    for child_index, (profile, budget) in enumerate(
        zip(child_config.profiles, child_config.instance_budget)
    ):
        entry = parent_by_name.get(profile.name)
        if entry is None:
            added.append(child_index)
            continue
        parent_index, parent_profile, parent_budget = entry
        matched_parents.add(parent_index)
        if parent_profile == profile and parent_budget == budget:
            shared.append((parent_index, child_index))
        else:
            changed.append(child_index)
    removed = tuple(
        index
        for index in range(len(parent_config.profiles))
        if index not in matched_parents
    )
    return ConfigDelta(
        shared=tuple(shared),
        added=tuple(added),
        removed=removed,
        changed=tuple(changed),
    )


# ------------------------------------------------------------ state translation
def _extract_field(matrix: np.ndarray, shift: int, width: int) -> np.ndarray:
    """Gather a bit field from packed word rows (MSW-first, word straddle)."""
    words = matrix.shape[1]
    col = words - 1 - shift // 64
    off = shift % 64
    values = matrix[:, col] >> np.uint64(off) if off else matrix[:, col].copy()
    if off and col > 0 and off + width > 64:
        values = values | (matrix[:, col - 1] << np.uint64(64 - off))
    return values & np.uint64((1 << width) - 1)


def _deposit_field(
    out: np.ndarray, shift: int, width: int, values: np.ndarray
) -> None:
    """Scatter a bit field into packed word rows (MSW-first, word straddle)."""
    words = out.shape[1]
    col = words - 1 - shift // 64
    off = shift % 64
    out[:, col] |= values << np.uint64(off) if off else values
    if off and col > 0 and off + width > 64:
        out[:, col - 1] |= values >> np.uint64(64 - off)


def translate_states(
    parent_system: PackedSlotSystem,
    child_system: PackedSlotSystem,
    index_map: Tuple[Tuple[int, int], ...],
    word_matrix: np.ndarray,
) -> np.ndarray:
    """Lift parent packed state rows into the child encoding.

    Args:
        parent_system: packed system the rows belong to.
        child_system: packed system of the extended configuration.
        index_map: ``(parent_index, child_index)`` pairs covering *every*
            parent application (:attr:`ConfigDelta.shared` of a
            warm-startable delta).
        word_matrix: ``(count, parent_words)`` ``uint64`` state rows.

    Returns:
        ``(count, child_words)`` ``uint64`` rows: shared block fields moved
        to their child positions, occupant and buffer bits index-remapped,
        added applications left in their initial (all-zero) block.
    """
    count = word_matrix.shape[0]
    out = np.zeros((count, child_system.packed_words), dtype=np.uint64)
    for parent_index, child_index in index_map:
        width = parent_system._block_mask[parent_index].bit_length()
        blocks = _extract_field(
            word_matrix, parent_system._app_shift[parent_index], width
        )
        _deposit_field(out, child_system._app_shift[child_index], width, blocks)

    # Occupant: 0 stays free, i+1 maps through the index pairs.
    occ_bits = parent_system._occ_field.bit_length()
    occupant = _extract_field(word_matrix, parent_system._occ_shift, occ_bits)
    occ_lut = np.zeros(parent_system._n + 1, dtype=np.uint64)
    for parent_index, child_index in index_map:
        occ_lut[parent_index + 1] = child_index + 1
    child_occ_bits = child_system._occ_field.bit_length()
    _deposit_field(out, child_system._occ_shift, child_occ_bits, occ_lut[occupant])

    # Buffer membership: per-application bit remap.
    buffer_bits = _extract_field(
        word_matrix, parent_system._buf_shift, parent_system._n
    )
    child_buffer = np.zeros(count, dtype=np.uint64)
    for parent_index, child_index in index_map:
        child_buffer |= (
            (buffer_bits >> np.uint64(parent_index)) & np.uint64(1)
        ) << np.uint64(child_index)
    _deposit_field(out, child_system._buf_shift, child_system._n, child_buffer)
    return out


def _label_lut(index_map: Tuple[Tuple[int, int], ...], parent_n: int) -> np.ndarray:
    """Dense arrival-mask remap table: parent mask value -> child mask."""
    values = np.arange(1 << parent_n, dtype=np.uint64)
    lut = np.zeros(1 << parent_n, dtype=np.uint64)
    for parent_index, child_index in index_map:
        lut |= ((values >> np.uint64(parent_index)) & np.uint64(1)) << np.uint64(
            child_index
        )
    return lut


# ----------------------------------------------------------- parent-side export
#: Warm-started children memoized per parent export; a first-fit sweep
#: re-probes at most a handful of (slot, candidate) pairs, so a small LRU
#: keeps every live child of one parent without pinning stale encodings.
_HINTS_CACHE_SIZE = 8


class _ParentExport:
    """Candidate-independent half of a parent graph's warm-start setup.

    A first-fit sweep warm-starts *many* children (one per candidate
    probed against the slot) from the same parent graph, and the O(parent)
    part of that setup is identical for every child: extracting the block
    fields, occupant values and buffer-membership bits from the parent's
    interned state rows (the gather half of :func:`translate_states`) and
    lifting the parent CSR/label arrays to ``int64``.  This export is
    built once per parent graph, cached on its ``delta_export`` slot (so
    it follows the graph's ``packed_system_for`` lifetime), and every
    child deposit (:func:`_deposit_translation`) runs on the pre-extracted
    fields — the per-child cost drops to the child-layout scatter and the
    seed interning.

    ``hints_cache`` additionally memoizes the finished
    :class:`DeltaHints` per child fingerprint: a re-probe of the same
    (parent, candidate) pair — repeated dimension calls, service traffic —
    skips even the deposit and interning.
    """

    __slots__ = (
        "parent_n",
        "fingerprint",
        "block_fields",
        "occupant",
        "buffer_bits",
        "indptr",
        "succ_ids",
        "labels",
        "hints_cache",
    )

    def __init__(self, parent_graph: CompiledStateGraph) -> None:
        parent_system = parent_graph.system
        words = parent_system_state_words(parent_graph)
        self.parent_n = int(parent_system._n)
        self.fingerprint = parent_system.fingerprint
        #: ``parent_index -> (width, values)`` of every application's block
        #: field (a warm-startable delta shares *all* parent applications).
        self.block_fields = {}
        for parent_index in range(self.parent_n):
            width = parent_system._block_mask[parent_index].bit_length()
            self.block_fields[parent_index] = (
                width,
                _extract_field(
                    words, parent_system._app_shift[parent_index], width
                ),
            )
        occ_bits = parent_system._occ_field.bit_length()
        self.occupant = _extract_field(words, parent_system._occ_shift, occ_bits)
        self.buffer_bits = _extract_field(
            words, parent_system._buf_shift, self.parent_n
        )
        #: Shared read-only ``int64`` lifts of the parent CSR; every child's
        #: :class:`DeltaHints` references these same arrays (the compile
        #: only gathers from them).
        self.indptr = np.asarray(parent_graph.indptr, dtype=np.int64).copy()
        self.succ_ids = np.asarray(parent_graph.successor_ids, dtype=np.int64).copy()
        self.labels = np.asarray(parent_graph.labels, dtype=np.int64).copy()
        #: ``child_fingerprint -> DeltaHints`` LRU.
        self.hints_cache: "OrderedDict[str, DeltaHints]" = OrderedDict()

    @property
    def state_count(self) -> int:
        return int(self.occupant.shape[0])


def parent_export(parent_graph: CompiledStateGraph) -> "_ParentExport":
    """The parent graph's cached warm-start export (built on first use)."""
    export = parent_graph.delta_export
    if export is None:
        export = _ParentExport(parent_graph)
        parent_graph.delta_export = export
    return export


def _deposit_translation(
    child_system: PackedSlotSystem,
    index_map: Tuple[Tuple[int, int], ...],
    export: "_ParentExport",
) -> np.ndarray:
    """Scatter a parent export's pre-extracted fields into child rows.

    The deposit half of :func:`translate_states`, fed from the
    candidate-independent :class:`_ParentExport` instead of re-gathering
    the parent word matrix per child.
    """
    count = export.state_count
    out = np.zeros((count, child_system.packed_words), dtype=np.uint64)
    for parent_index, child_index in index_map:
        width, blocks = export.block_fields[parent_index]
        _deposit_field(out, child_system._app_shift[child_index], width, blocks)

    occ_lut = np.zeros(export.parent_n + 1, dtype=np.uint64)
    for parent_index, child_index in index_map:
        occ_lut[parent_index + 1] = child_index + 1
    child_occ_bits = child_system._occ_field.bit_length()
    _deposit_field(
        out, child_system._occ_shift, child_occ_bits, occ_lut[export.occupant]
    )

    child_buffer = np.zeros(count, dtype=np.uint64)
    for parent_index, child_index in index_map:
        child_buffer |= (
            (export.buffer_bits >> np.uint64(parent_index)) & np.uint64(1)
        ) << np.uint64(child_index)
    _deposit_field(out, child_system._buf_shift, child_system._n, child_buffer)
    return out


# ------------------------------------------------------------------ delta hints
class DeltaHints:
    """Parent-graph reuse data consumed by the child graph's compilation.

    Built by :func:`warm_start_graph`; the child
    :class:`~repro.verification.kernel.CompiledStateGraph` holds it in its
    ``delta_hints`` slot while compiling and drops it when the graph
    freezes.  All arrays are plain in-RAM copies, decoupled from the parent
    graph's (possibly spilled) stores.
    """

    __slots__ = (
        "seed_table",
        "seed_words",
        "parent_indptr",
        "parent_succ_ids",
        "parent_labels",
        "added_mask",
        "parent_fingerprint",
        "stats",
    )

    def __init__(
        self,
        seed_words: np.ndarray,
        parent_indptr: np.ndarray,
        parent_succ_ids: np.ndarray,
        parent_labels: np.ndarray,
        added_mask: int,
        parent_fingerprint: str,
    ) -> None:
        #: Lifted parent states, row index == parent id.
        self.seed_words = seed_words
        #: Hash table over the lifted rows; ``lookup`` maps child frontier
        #: rows to parent ids (-1 when a state is not a lifted one).
        self.seed_table = PackedStateTable(
            seed_words.shape[1], initial_capacity=max(2 * seed_words.shape[0], 1 << 12)
        )
        ids, new_mask = self.seed_table.intern(seed_words)
        if not bool(new_mask.all()) or not bool((ids == np.arange(ids.size)).all()):
            raise ValueError("lifted parent states are not distinct")
        self.parent_indptr = parent_indptr
        self.parent_succ_ids = parent_succ_ids
        #: Parent labels pre-remapped to child arrival-mask bit positions.
        self.parent_labels = parent_labels
        #: Child bit mask of the added applications (the masked-expansion
        #: ``required_mask``).
        self.added_mask = added_mask
        self.parent_fingerprint = parent_fingerprint
        #: Row counters: transitions gathered from the parent CSR vs rows
        #: the masked/cold expansions actually produced.
        self.stats = {"reused_rows": 0, "expanded_rows": 0, "seed_states": 0}

    def lookup(self, frontier_words: np.ndarray) -> np.ndarray:
        """Parent ids of frontier rows (-1 where not a lifted parent state)."""
        return self.seed_table.lookup(frontier_words)

    def reused_rows(
        self, parent_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translated parent CSR rows of a batch of lifted frontier states.

        Returns ``(succ_words, labels, counts)``: the child-encoded
        successor rows and child arrival masks of every parent transition
        of the given states (concatenated in parent CSR order, which equals
        the child enumeration order of the added-app-free subsets), plus
        the per-state row counts.
        """
        starts = self.parent_indptr[parent_ids]
        counts = self.parent_indptr[parent_ids + 1] - starts
        total = int(counts.sum())
        offsets = np.zeros(parent_ids.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        rows = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts)
        )
        succ_ids = self.parent_succ_ids[rows]
        return self.seed_words[succ_ids], self.parent_labels[rows], counts


# ------------------------------------------------------------------ warm start
def warm_start_graph(
    parent_graph: Optional[CompiledStateGraph],
    child_system: PackedSlotSystem,
) -> Optional[CompiledStateGraph]:
    """Build a delta-warm-started compiled graph for the child system.

    Preconditions (any failure returns ``None`` — the caller cold-compiles
    as before): warm starts enabled, the parent graph complete and
    error-free, the delta a pure extension of at most
    :data:`MAX_ADDED_APPS` applications, the child expandable by the
    vectorized kernel, and the parent narrow enough for the label LUT.

    On success the fresh child graph (with its ``delta_hints`` installed)
    is cached on ``child_system.compiled_graph`` and returned; its
    compilation output is byte-identical to a cold compile.
    """
    if not delta_enabled():
        return None
    if child_system.compiled_graph is not None:
        return None
    if (
        parent_graph is None
        or not parent_graph.complete
        or parent_graph.error is not None
    ):
        return None
    parent_system = parent_graph.system
    delta = config_delta(parent_system.config, child_system.config)
    if not delta.warm_startable:
        return None
    if not child_system.can_expand_frontier:
        return None
    if parent_system._n > _MAX_PARENT_APPS:
        return None
    for parent_index, child_index in delta.shared:
        # Equal (profile, budget) implies an identical block layout; keep
        # the cheap structural cross-check anyway.
        if (
            parent_system._block_mask[parent_index]
            != child_system._block_mask[child_index]
        ):  # pragma: no cover - unreachable given config_delta's equality
            return None

    export = parent_export(parent_graph)
    child_fingerprint = child_system.fingerprint
    hints = export.hints_cache.get(child_fingerprint)
    if hints is not None:
        # Re-probe of the same (parent, candidate) pair: the lifted rows,
        # seed table and CSR references are all read-only during a compile,
        # so the memoized hints replay as-is — only the counters restart.
        export.hints_cache.move_to_end(child_fingerprint)
        hints.stats = {
            "reused_rows": 0,
            "expanded_rows": 0,
            "seed_states": int(hints.seed_words.shape[0]),
        }
    else:
        seed_words = _deposit_translation(child_system, delta.shared, export)
        label_lut = _label_lut(delta.shared, export.parent_n)
        try:
            hints = DeltaHints(
                seed_words=seed_words,
                parent_indptr=export.indptr,
                parent_succ_ids=export.succ_ids,
                parent_labels=label_lut[export.labels],
                added_mask=sum(1 << index for index in delta.added),
                parent_fingerprint=export.fingerprint,
            )
        except ValueError:  # pragma: no cover - translation is injective
            return None
        hints.stats["seed_states"] = int(seed_words.shape[0])
        export.hints_cache[child_fingerprint] = hints
        while len(export.hints_cache) > _HINTS_CACHE_SIZE:
            export.hints_cache.popitem(last=False)
    graph = compiled_graph_for(child_system)
    graph.delta_hints = hints
    return graph


def parent_system_state_words(parent_graph: CompiledStateGraph) -> np.ndarray:
    """The parent graph's interned state rows as one in-RAM array."""
    return np.ascontiguousarray(parent_graph.table.state_words, dtype=np.uint64)


def maybe_warm_start_graph(
    child_system: PackedSlotSystem,
    parent_config,
    graph_dir: Optional[str] = None,
) -> bool:
    """Warm-start a child system from a parent *configuration* handle.

    The in-memory parent graph (shared per-configuration via
    ``packed_system_for``) is preferred; when absent and ``graph_dir`` is
    set, the parent graph is loaded from the cache by its
    configuration-fingerprint lineage key.  On success a
    ``graph-<child-fingerprint>.parent`` sidecar recording the parent
    fingerprint is written next to the child's future cache entry, so the
    lineage of delta-built graphs stays inspectable across processes.

    Returns True when the child system now holds a warm-started graph.
    """
    if not delta_enabled() or child_system.compiled_graph is not None:
        return False
    if parent_config is None:
        return False
    parent_system = packed_system_for(parent_config)
    if parent_system.compiled_graph is None and graph_dir:
        maybe_load_graph(parent_system, graph_dir)
    graph = warm_start_graph(parent_system.compiled_graph, child_system)
    if graph is None:
        return False
    if graph_dir:
        _record_lineage(child_system, graph.delta_hints.parent_fingerprint, graph_dir)
    return True


def _record_lineage(
    child_system: PackedSlotSystem, parent_fingerprint: str, directory: str
) -> None:
    """Write the parent-fingerprint lineage sidecar through the graph store."""
    from .store import store_for

    store_for(directory).record_lineage(
        child_system.fingerprint, parent_fingerprint
    )
