"""Compiled state-graph kernel for the exploration engines.

The engines of :mod:`repro.verification.engine` repeatedly pay two costs
that this module eliminates:

* **Per-state Python objects in the set work.**  The vectorized engine's
  visited set was a sorted ``uint64`` array re-built with ``np.insert``
  every BFS level — O(n) per level, quadratic over a run.
  :class:`PackedStateTable` replaces it with an open-addressing hash table
  (numpy, power-of-two capacity, linear probing): membership and insert are
  amortized O(1) per key, batched over whole frontiers, and states wider
  than 64 bits are stored as multi-word rows and hashed down to one word.
* **Re-expanding states on warm re-verification.**  The paper's Sec. 5
  workload — first-fit dimensioning retries, benchmark rounds, the
  verification-time experiments — verifies the same configuration many
  times.  :class:`CompiledStateGraph` interns every discovered packed state
  into a dense ``int32`` id *during* the first exploration and records the
  transition structure as CSR arrays (``indptr`` / ``successor_ids`` /
  ``labels`` keyed by id, the dense transition-table representation
  tulip-control uses for its transition systems).  A second exploration of
  the same configuration replays the frozen level structure without
  expanding a single state — the per-level loop touches only id ranges and
  cached level sizes.  The graph is cached on the owning
  :class:`~repro.scheduler.packed.PackedSlotSystem`
  (``packed_system_for``-style), so it shares the lifetime and the
  ``clear_packed_caches`` policy of the successor memo.
* **Generic state spaces** (the TA model checker's
  :class:`~repro.ta.network.NetworkState` graphs) get the same warm-replay
  treatment from :class:`GenericStateGraph`: states intern into dense ids
  through a dict, the CSR lives in plain lists, and the error *predicate*
  stays a per-query parameter — the expensive successor expansion is
  compiled once per network, then reachability / invariant queries with any
  predicate replay it.

Predecessor stores are id-based: :class:`CsrParentStore` and
:class:`GenericParentStore` expose the compiled parent arrays through the
read-only ``Mapping`` interface the callers already consume (``successor
state -> (parent state, label)``), so trace reconstruction works unchanged,
plus an ``arrival_chain`` fast path that walks ids instead of hashing
packed ints.

Exploration semantics mirror the level-synchronous engines (sharded,
vectorized): identical visited counts on feasible complete runs, identical
error depth on infeasible ones, deterministic truncation by sorted order
within the level that would cross ``max_states`` (see the semantics notes
in :mod:`repro.verification.engine`).
"""

from __future__ import annotations

import itertools
import logging
import os
from collections.abc import Mapping
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..exceptions import VerificationError
from ..scheduler.packed import unpack_words
from . import spill as _spill

logger = logging.getLogger(__name__)

__all__ = [
    "PackedStateTable",
    "CheckpointPolicy",
    "CompiledStateGraph",
    "GenericStateGraph",
    "CsrParentStore",
    "GenericParentStore",
    "checkpoint_policy_from_env",
    "compiled_graph_for",
    "config_fingerprint",
    "load_graph",
    "maybe_load_graph",
    "maybe_save_graph",
    "save_graph",
    "hash_words",
    "unpack_words",
]

#: On-disk ``.npz`` format version of :meth:`CompiledStateGraph.save`.
GRAPH_FORMAT_VERSION = 1

#: Sentinel ``label`` marking a record without a parent (the root) in the
#: sharded engine's packed candidate buffers.  Real labels are arrival
#: masks, bounded by the application count, so the all-ones word is free.
NO_PARENT_LABEL = np.uint64(0xFFFFFFFFFFFFFFFF)

_SPLIT_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_C2 = np.uint64(0x94D049BB133111EB)
_FNV_PRIME = np.uint64(0x100000001B3)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_ONE = np.uint64(1)


def hash_words(word_matrix: np.ndarray) -> np.ndarray:
    """One mixed ``uint64`` hash per multi-word state row.

    A splitmix64 finalizer per word folded FNV-style across the columns:
    cheap, vectorized and well-distributed — the probe hash of
    :class:`PackedStateTable` and the shard router of the sharded engine
    (coordinator and workers must agree, so both call this).
    """
    rows = word_matrix.shape[0]
    h = np.full(rows, _GOLDEN, dtype=np.uint64)
    for j in range(word_matrix.shape[1]):
        column = word_matrix[:, j]
        x = column >> np.uint64(30)
        x ^= column
        x *= _SPLIT_C1
        x ^= x >> np.uint64(27)
        x *= _SPLIT_C2
        x ^= x >> np.uint64(31)
        h = (h ^ x) * _FNV_PRIME
    return h


def _void_dtype(words: int) -> np.dtype:
    """Structured dtype whose lexicographic order equals numeric order of
    the packed value (most significant word first)."""
    return np.dtype([(f"w{j}", np.uint64) for j in range(words)])


def as_void(word_matrix: np.ndarray) -> np.ndarray:
    """View word rows as one sortable scalar per state (for ``np.unique``).

    Single-word states stay plain ``uint64`` (structured-void comparisons
    are several times slower than native integer sorts); wider states view
    as one structured scalar per row, whose lexicographic order equals the
    numeric order of the packed value.  Either way the result sorts by
    packed value and round-trips through :func:`void_to_words`.
    """
    if word_matrix.shape[1] == 1:
        return np.ascontiguousarray(word_matrix).ravel()
    return (
        np.ascontiguousarray(word_matrix)
        .view(_void_dtype(word_matrix.shape[1]))
        .ravel()
    )


def void_to_words(void_values: np.ndarray, words: int) -> np.ndarray:
    """Inverse of :func:`as_void`: sortable scalars back to word rows."""
    return np.ascontiguousarray(void_values).view(np.uint64).reshape(-1, words)


class PackedStateTable:
    """Open-addressing hash interner for packed multi-word states.

    The table maps ``uint64`` word rows to dense consecutive ids.  Layout:

    * ``_slots`` — the open-addressing array (power-of-two capacity) holding
      state ids, ``-1`` when empty; collisions resolve by linear probing.
    * ``_states`` — the id-indexed key store: row ``i`` is the word row of
      state id ``i``.  Slot entries carry only the 8-byte id, key compares
      gather from this single canonical array, and ``state_words`` exposes
      it as the dense id → state table of the compiled graph.

    All operations are batched: ``intern`` / ``lookup`` / ``contains`` take
    an ``(m, words)`` matrix and run the probe loop over the whole batch at
    once (each iteration advances every still-unresolved key by one probe
    step), so the per-key Python overhead is O(max probe length) for the
    batch, not O(m).  The load factor is kept below ~0.6, which bounds the
    expected probe length to a small constant — amortized O(1) membership
    and insert per key, independent of table size.

    ``intern`` requires the batch itself to be duplicate-free;
    :meth:`intern_dedup` accepts arbitrary duplicate-laden batches and
    dedupes them *inside* the probe loop — the engines' per-level set
    operation.  ``lookup`` and ``contains`` accept anything.

    Args:
        words: ``uint64`` words per state row.
        initial_capacity: initial slot-array capacity (rounded up to a
            power of two).
        store: optional :class:`~repro.verification.spill.SpillStore`
            backing the slot array and the key pages — beyond the
            configured byte budget they live in memmaps instead of RAM.
    """

    __slots__ = (
        "_words", "_capacity", "_mask", "_slots", "_states", "_size", "_store"
    )

    def __init__(
        self,
        words: int = 1,
        initial_capacity: int = 1 << 12,
        store: Optional[_spill.SpillStore] = None,
    ) -> None:
        if words < 1:
            raise ValueError(f"state word count must be positive, got {words}")
        capacity = 8
        while capacity < initial_capacity:
            capacity <<= 1
        self._words = int(words)
        self._capacity = capacity
        self._mask = np.uint64(capacity - 1)
        self._store = store
        # Slot entries are int32: a dense id (or an in-batch provisional
        # marker) always fits, and halving the probe array's bytes halves
        # the cache and RSS cost of the random probe traffic.
        self._slots = self._alloc((capacity,), np.int32, fill=-1)
        self._states = self._alloc((max(capacity >> 1, 8), self._words), np.uint64)
        self._size = 0

    def _alloc(self, shape, dtype, fill=None) -> np.ndarray:
        if self._store is not None:
            return self._store.alloc(shape, dtype, fill=fill)
        if fill is None:
            return np.zeros(shape, dtype=dtype)
        return np.full(shape, fill, dtype=dtype)

    # ------------------------------------------------------------ properties
    @property
    def size(self) -> int:
        """Number of interned states (== the next id to be assigned)."""
        return self._size

    @property
    def capacity(self) -> int:
        """Current slot-array capacity (always a power of two)."""
        return self._capacity

    @property
    def words(self) -> int:
        return self._words

    @property
    def state_words(self) -> np.ndarray:
        """Dense id → word-row table (``(size, words)`` view, id order)."""
        return self._states[: self._size]

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------ internals
    def _hash_words(self, keys: np.ndarray) -> np.ndarray:
        """Probe hash of a key batch (overridable for collision tests)."""
        return hash_words(keys)

    def _probe_lookup(self, keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Ids of the keys (``-1`` where absent); vectorized linear probing."""
        m = keys.shape[0]
        result = np.full(m, -1, dtype=np.int64)
        if self._size == 0 or m == 0:
            return result
        slots = self._slots
        states = self._states
        # Single-word states compare on flat vectors (saves the 2-d gather
        # plus the all(axis=1) reduction on the hot path).
        flat_states = states[:, 0] if self._words == 1 else None
        flat_keys = keys[:, 0] if self._words == 1 else None
        pos = hashes & self._mask
        pending = np.arange(m)
        while pending.size:
            probe = pos[pending]
            found_ids = slots[probe]
            occupied = found_ids >= 0
            if occupied.any():
                rows = pending[occupied]
                candidates = found_ids[occupied]
                if flat_states is not None:
                    equal = flat_states[candidates] == flat_keys[rows]
                else:
                    equal = (states[candidates] == keys[rows]).all(axis=1)
                result[rows[equal]] = candidates[equal]
                pending = rows[~equal]
            else:
                break  # every remaining key hit an empty slot: absent
            if pending.size:
                pos[pending] = (pos[pending] + _ONE) & self._mask
        return result

    def _claim_slots(self, ids: np.ndarray, hashes: np.ndarray) -> None:
        """Insert id entries for keys known to be absent and distinct.

        Scatter-claim loop: every pending key writes its id into its probe
        slot if empty, re-reads to see whether it won (several keys may race
        for one slot inside a batch), and losers advance one probe step.
        """
        slots = self._slots
        pos = hashes & self._mask
        pending = np.arange(ids.shape[0])
        while pending.size:
            probe = pos[pending]
            free = slots[probe] < 0
            if free.any():
                slots[probe[free]] = ids[pending[free]]
                won = slots[pos[pending]] == ids[pending]
                pending = pending[~won]
                if not pending.size:
                    break
            pos[pending] = (pos[pending] + _ONE) & self._mask

    def _reserve(self, incoming: int) -> None:
        """Grow key store / rehash slots so ``incoming`` inserts stay < 0.6 load."""
        needed = self._size + incoming
        if needed >= 2**31 - 2:
            raise VerificationError(
                "packed state table exceeds the int32 id space "
                f"({needed:,} states)"
            )
        if needed > self._states.shape[0]:
            state_capacity = self._states.shape[0]
            while state_capacity < needed:
                state_capacity <<= 1
            grown = self._alloc((state_capacity, self._words), np.uint64)
            if self._store is not None:
                self._store.copy_rows(grown, self._states, self._size)
                self._store.release(self._states)
            else:
                grown[: self._size] = self._states[: self._size]
            self._states = grown
        if needed * 5 >= self._capacity * 3:
            capacity = self._capacity
            while needed * 5 >= capacity * 3:
                capacity <<= 1
            if self._size >= (1 << 17):
                # Large tables grow 4x extra per rehash: re-claiming
                # millions of existing keys dominates the claim cost, and
                # the wider headroom cuts the number of big rehashes
                # (usually absorbing the final one entirely) for two
                # extra doublings of the 8-byte slot array.
                capacity <<= 2
            self._capacity = capacity
            self._mask = np.uint64(capacity - 1)
            if self._store is not None:
                self._store.release(self._slots)
            self._slots = self._alloc((capacity,), np.int32, fill=-1)
            if self._size:
                existing = self._states[: self._size]
                self._claim_slots(
                    np.arange(self._size, dtype=np.int64),
                    self._hash_words(existing),
                )
        if self._store is not None:
            # Growth dirties whole replacement arrays at once; drop the
            # spilled pages immediately instead of waiting for the next
            # level boundary.
            self._store.relax()

    # ------------------------------------------------------------ operations
    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Ids of a key batch, ``-1`` where a key is not interned."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1, self._words)
        return self._probe_lookup(keys, self._hash_words(keys))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask of a key batch."""
        return self.lookup(keys) >= 0

    def intern(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ids of a duplicate-free key batch, inserting the unseen ones.

        New keys receive consecutive ids (``size``, ``size + 1``, ...) in
        batch-row order — engines pass batches sorted by packed value, so
        ids within one BFS level ascend with the packed value, which is
        what makes truncation-by-id-prefix deterministic.

        Returns:
            ``(ids, new_mask)`` — ``int64`` ids per row and a boolean mask
            flagging the rows that were newly inserted.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1, self._words)
        m = keys.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        self._reserve(m)
        hashes = self._hash_words(keys)
        ids = self._probe_lookup(keys, hashes)
        new_mask = ids < 0
        new_rows = np.flatnonzero(new_mask)
        if new_rows.size:
            new_ids = self._size + np.arange(new_rows.size, dtype=np.int64)
            ids[new_rows] = new_ids
            self._states[new_ids] = keys[new_rows]
            self._size += int(new_rows.size)
            self._claim_slots(new_ids, hashes[new_rows])
        return ids, new_mask

    def intern_dedup(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids of an arbitrary, duplicate-laden key batch in one fused pass.

        The engines' per-level set operation: successor multisets go in,
        dense ids come out, and the dedupe happens *inside* the
        open-addressing probe loop instead of a separate
        ``np.unique``-of-void-views sort.  Every row probes from its hash;
        a row that reaches an empty slot scatter-claims it with a
        provisional marker (``-(row + 2)``; the re-read decides races), so
        later duplicates of the same key resolve against the winner's
        marker exactly like they resolve against an interned id — one probe
        chain per row, no pre-sort, no second insert pass.

        New keys still receive consecutive ids ascending by packed value
        within the batch (the claim winners — one per distinct new key —
        are sorted before ids are assigned), so the result is id-for-id
        identical to the historical ``np.unique`` + :meth:`intern`
        pipeline: deterministic truncation-by-id-prefix is preserved.

        Returns:
            ``(ids, first_mask, new_rows)`` — the ``int64`` dense id of
            every input row (duplicate rows map to the same id), a boolean
            mask flagging, for each *newly inserted* key, its first
            occurrence row (the lowest row index, matching ``np.unique``'s
            stable ``return_index``), and those same first-occurrence rows
            ordered by ascending new id (equivalently: by packed value) —
            the order the callers append parent records and frontiers in.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1, self._words)
        m = keys.shape[0]
        first_mask = np.zeros(m, dtype=bool)
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, first_mask, empty
        if self._words == 1:
            # Single-word fast path: numpy's stable grouping on the raw
            # 64-bit word beats a Python-driven probe loop here (the probes
            # then touch only the distinct keys).  The void-view sort this
            # method replaces never existed for one-word states.
            unique_values, first_rows, inverse = np.unique(
                keys[:, 0], return_index=True, return_inverse=True
            )
            unique_ids, new_mask = self.intern(unique_values.reshape(-1, 1))
            ids = unique_ids[inverse]
            new_rows = first_rows[new_mask].astype(np.int64)
            first_mask[new_rows] = True
            return ids, first_mask, new_rows
        # Worst case every row is a distinct new key: reserving up front
        # keeps the load factor bounded while this batch claims slots.
        self._reserve(m)
        ids = np.full(m, -1, dtype=np.int64)
        slots = self._slots
        states = self._states
        if self._words == 2:
            # Column-view compares skip the 2-d gather + all(axis=1)
            # reduction on the (dominant) two-word hot path.
            s0, s1 = states[:, 0], states[:, 1]
            k0, k1 = keys[:, 0], keys[:, 1]

            def matches_state(candidates, rows):
                return (s0[candidates] == k0[rows]) & (s1[candidates] == k1[rows])

            def matches_key(owners, rows):
                return (k0[owners] == k0[rows]) & (k1[owners] == k1[rows])

        else:

            def matches_state(candidates, rows):
                return (states[candidates] == keys[rows]).all(axis=1)

            def matches_key(owners, rows):
                return (keys[owners] == keys[rows]).all(axis=1)

        hashes = self._hash_words(keys)
        base = self._size
        pos = hashes & self._mask
        pending = np.arange(m)
        empty_rows = np.empty(0, dtype=np.int64)
        claim_pos = np.empty(m, dtype=np.int64)
        while pending.size:
            probe = pos[pending]
            found = slots[probe]
            empty = found == -1
            if empty.any():
                # Scatter-claim: several rows may race for one slot; the
                # re-read decides.  Losers stay put — next iteration they
                # compare against the winner's marker like any duplicate.
                # Duplicate scatter indices resolve last-write-wins, so
                # writing in reverse order makes the earliest pending entry
                # the winner; duplicate rows of one key always travel
                # together in ascending row order, so the winner is the
                # lowest row — first_mask matches np.unique's stable
                # return_index exactly.
                erows = pending[empty]
                eprobe = probe[empty]
                slots[eprobe[::-1]] = -(erows[::-1] + 2)
                won = slots[eprobe] == -(erows + 2)
                wrows = erows[won]
                first_mask[wrows] = True
                claim_pos[wrows] = eprobe[won]
                stay = erows[~won]
                keep = ~empty
                rest = pending[keep]
                rest_found = found[keep]
            else:
                stay = empty_rows
                rest = pending
                rest_found = found
            if rest.size:
                provisional = rest_found < -1
                if provisional.any():
                    real = ~provisional
                    rrows = rest[real]
                    candidates = rest_found[real]
                    equal = matches_state(candidates, rrows)
                    ids[rrows[equal]] = candidates[equal]
                    advanced_real = rrows[~equal]
                    prows = rest[provisional]
                    markers = rest_found[provisional]
                    equal = matches_key(-markers - 2, prows)
                    # Duplicates of a still-provisional key record the
                    # marker; it becomes the final id after the loop.
                    ids[prows[equal]] = markers[equal]
                    advanced_prov = prows[~equal]
                    if advanced_prov.size:
                        advanced = np.concatenate((advanced_real, advanced_prov))
                    else:
                        advanced = advanced_real
                else:
                    equal = matches_state(rest_found, rest)
                    ids[rest[equal]] = rest_found[equal]
                    advanced = rest[~equal]
                if advanced.size:
                    pos[advanced] = (pos[advanced] + _ONE) & self._mask
                pending = (
                    np.concatenate((stay, advanced)) if stay.size else advanced
                )
            else:
                pending = stay
        new_rows = np.flatnonzero(first_mask)
        if new_rows.size:
            new_keys = keys[new_rows]
            # Final ids ascend by packed value within the batch — the
            # determinism contract of the unique+intern pipeline — so only
            # the distinct *new* keys are sorted, never the whole batch.
            order = np.lexsort(
                tuple(new_keys[:, j] for j in range(self._words - 1, -1, -1))
            )
            sorted_rows = new_rows[order]
            new_ids = base + np.arange(sorted_rows.size, dtype=np.int64)
            states[new_ids] = keys[sorted_rows]
            slots[claim_pos[sorted_rows]] = new_ids
            self._size = base + int(sorted_rows.size)
            final_of_row = np.empty(m, dtype=np.int64)
            final_of_row[sorted_rows] = new_ids
            ids[new_rows] = final_of_row[new_rows]
            markers = ids < -1
            if markers.any():
                ids[markers] = final_of_row[-(ids[markers]) - 2]
            new_rows = sorted_rows
        return ids, first_mask, new_rows


#: Candidate on-disk dtypes of the integer graph arrays, narrowest first.
_NARROW_DTYPES = tuple(
    np.dtype(name)
    for name in ("uint8", "int8", "uint16", "int16", "uint32", "int32", "uint64", "int64")
)


def _narrowest_int(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest integer dtype that holds its value range.

    Used for the on-disk form only: :meth:`CompiledStateGraph.load` casts
    every array back to its in-memory dtype.  An empty array has no range
    and becomes ``uint8``.
    """
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    dtype = next(
        dtype
        for dtype in _NARROW_DTYPES
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max
    )
    return values.astype(dtype, copy=False)


class _GrowableRows:
    """Append-only numpy array with amortized-O(1) geometric growth.

    With a :class:`~repro.verification.spill.SpillStore` attached, growth
    beyond the byte budget lands in memmapped chunks — the CSR transition
    arrays are the kernel's largest append-only consumers.
    """

    __slots__ = ("_data", "_len", "_store")

    def __init__(
        self,
        dtype,
        cols: int = 0,
        capacity: int = 16,
        store: Optional[_spill.SpillStore] = None,
    ) -> None:
        shape = (capacity,) if cols == 0 else (capacity, cols)
        self._store = store
        self._data = store.alloc(shape, dtype) if store is not None else np.zeros(
            shape, dtype=dtype
        )
        self._len = 0

    def extend(self, rows: np.ndarray) -> None:
        needed = self._len + len(rows)
        if needed > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < needed:
                capacity <<= 1
            shape = (capacity,) + self._data.shape[1:]
            if self._store is not None:
                grown = self._store.alloc(shape, self._data.dtype)
                self._store.copy_rows(grown, self._data, self._len)
                self._store.release(self._data)
            else:
                grown = np.zeros(shape, self._data.dtype)
                grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len : needed] = rows
        self._len = needed

    def __len__(self) -> int:
        return self._len

    @property
    def view(self) -> np.ndarray:
        return self._data[: self._len]


class CsrParentStore(Mapping):
    """Id-based predecessor store of a compiled packed graph.

    Read-only ``Mapping`` view ``successor packed int -> (parent packed
    int, arrival mask)`` over the kernel's dense parent arrays, spanning
    exactly the states visible to one exploration (ids ``1 ..
    visible_count - 1``; the root has no parent).  ``arrival_chain`` walks
    the id arrays directly — the trace-reconstruction fast path that never
    hashes a packed int.
    """

    __slots__ = ("_graph", "_count")

    def __init__(self, graph: "CompiledStateGraph", visible_count: int) -> None:
        self._graph = graph
        self._count = int(visible_count)

    def _id_of(self, state: int) -> int:
        graph = self._graph
        ids = graph.table.lookup(graph.system.pack_words([int(state)]))
        state_id = int(ids[0])
        if state_id < 1 or state_id >= self._count:
            raise KeyError(state)
        return state_id

    def __getitem__(self, state: int) -> Tuple[int, int]:
        state_id = self._id_of(state)
        graph = self._graph
        parent_id = int(graph.parent_ids[state_id - 1])
        parent = graph.states_as_ints(parent_id, parent_id + 1)[0]
        return parent, int(graph.parent_labels[state_id - 1])

    def __contains__(self, state: object) -> bool:
        try:
            self._id_of(state)  # type: ignore[arg-type]
        except (KeyError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return max(self._count - 1, 0)

    def __iter__(self):
        return iter(self._graph.states_as_ints(1, self._count))

    def arrival_chain(self, state: int) -> List[int]:
        """Arrival masks along the BFS tree path root → ``state``."""
        graph = self._graph
        root = graph.system.initial
        if int(state) == root:
            return []
        state_id = self._id_of(state)
        parent_ids = graph.parent_ids
        parent_labels = graph.parent_labels
        masks: List[int] = []
        while state_id != 0:
            masks.append(int(parent_labels[state_id - 1]))
            state_id = int(parent_ids[state_id - 1])
        masks.reverse()
        return masks


#: Environment variable: checkpoint a cold compile's partial graph every N
#: expanded BFS levels (unset/0 disables the level trigger).
CHECKPOINT_LEVELS_ENV_VAR = "REPRO_CHECKPOINT_LEVELS"

#: Environment variable: additionally checkpoint whenever the graph grew by
#: this many (approximate) bytes since the last checkpoint — deep levels of
#: a wide graph can dwarf the level cadence (unset/0 disables).
CHECKPOINT_BYTES_ENV_VAR = "REPRO_CHECKPOINT_BYTES"


class CheckpointPolicy:
    """When and where a compiling graph stages exploration checkpoints.

    Attached to a :class:`CompiledStateGraph` by the compile-claim holder
    (see :mod:`repro.verification.exhaustive`): after each level expanded
    during :meth:`CompiledStateGraph.explore`, the graph checks the policy
    and, when a trigger fires, hands its owning system to ``sink`` —
    normally :meth:`~repro.verification.store.GraphStore
    .publish_checkpoint`, which stages the partial graph atomically under
    the configuration fingerprint.  Triggers are *growth since the last
    checkpoint* (levels and/or approximate bytes), so a graph resumed from
    a checkpoint does not immediately re-checkpoint the same prefix.
    """

    __slots__ = (
        "sink",
        "every_levels",
        "every_bytes",
        "written",
        "_last_level",
        "_last_bytes",
    )

    def __init__(
        self,
        sink,
        every_levels: Optional[int] = None,
        every_bytes: Optional[int] = None,
    ) -> None:
        self.sink = sink
        self.every_levels = every_levels
        self.every_bytes = every_bytes
        #: Checkpoints staged through this policy (observability/tests).
        self.written = 0
        self._last_level = 0
        self._last_bytes = 0

    def rebase(self, graph: "CompiledStateGraph") -> None:
        """Take the graph's current size as the no-growth baseline."""
        self._last_level = graph.expanded_levels
        self._last_bytes = graph.approx_bytes()

    def due(self, graph: "CompiledStateGraph") -> bool:
        """Whether the graph grew enough for another checkpoint."""
        if (
            self.every_levels
            and graph.expanded_levels - self._last_level >= self.every_levels
        ):
            return True
        if (
            self.every_bytes
            and graph.approx_bytes() - self._last_bytes >= self.every_bytes
        ):
            return True
        return False

    def note_written(self, graph: "CompiledStateGraph") -> None:
        """Record a staged checkpoint and rebase the growth counters."""
        self.written += 1
        self.rebase(graph)


def checkpoint_policy_from_env(sink) -> Optional["CheckpointPolicy"]:
    """A :class:`CheckpointPolicy` per the checkpoint env knobs, or ``None``.

    Checkpointing is opt-in: with neither ``REPRO_CHECKPOINT_LEVELS`` nor
    ``REPRO_CHECKPOINT_BYTES`` set (the default), cold compiles stay
    all-or-nothing as before and pay zero checkpoint overhead.
    """

    def _read(name: str) -> Optional[int]:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return None
        try:
            value = int(float(raw))
        except ValueError:
            logger.warning("ignoring non-numeric %s=%r", name, raw)
            return None
        return value if value > 0 else None

    every_levels = _read(CHECKPOINT_LEVELS_ENV_VAR)
    every_bytes = _read(CHECKPOINT_BYTES_ENV_VAR)
    if every_levels is None and every_bytes is None:
        return None
    return CheckpointPolicy(sink, every_levels=every_levels, every_bytes=every_bytes)


class CompiledStateGraph:
    """Incrementally compiled CSR state graph of one packed slot system.

    Compilation happens lazily *during* the first exploration: every
    discovered packed state is interned into a dense ``int32`` id
    (:class:`PackedStateTable`), and each BFS level appends its transition
    rows to CSR arrays — ``indptr[id] : indptr[id + 1]`` delimits the
    successor rows of state ``id``, ``successor_ids`` / ``labels`` hold the
    target ids and arrival masks.  The BFS tree (``parent_ids`` /
    ``parent_labels``, row ``id - 1``) and the level boundaries
    (``level_ptr``) are compiled alongside.

    Ids are assigned in BFS discovery order, ascending by packed value
    within a level, so a level is an id *range* and a deterministic
    truncation is an id *prefix*.  A warm :meth:`explore` of a finished (or
    error-stopped) graph replays the frozen level structure without
    expanding, packing or hashing a single state; a cap-extended run
    resumes compilation exactly where the previous one stopped.
    """

    __slots__ = (
        "system",
        "words",
        "table",
        "store",
        "level_ptr",
        "expanded_levels",
        "complete",
        "error",
        "error_level",
        "_indptr",
        "_succ_ids",
        "_labels",
        "_parent_ids",
        "_parent_labels",
        "delta_hints",
        "delta_stats",
        "delta_export",
        "checkpoint",
        "expansion_count",
        "resumed_levels",
    )

    def __init__(self, system) -> None:
        self.system = system
        self.words = int(system.packed_words)
        #: Byte-budgeted allocator of the long-lived arrays; ``None`` when
        #: no ``REPRO_STATE_BUDGET_BYTES`` budget is configured, in which
        #: case everything lives in plain RAM arrays as before.
        self.store = (
            _spill.SpillStore() if _spill.state_budget_bytes() is not None else None
        )
        self.table = PackedStateTable(self.words, store=self.store)
        self.table.intern(system.pack_words([system.initial]))
        #: ``level_ptr[d] : level_ptr[d + 1]`` is the id range of BFS depth d.
        self.level_ptr: List[int] = [0, 1]
        #: Number of BFS levels whose expansion is compiled.
        self.expanded_levels = 0
        #: The deepest level expanded to no new states (graph is frozen).
        self.complete = False
        #: Deterministic error witness ``(parent, mask, successor)`` packed
        #: ints, or ``None``; set at most once (compilation stops there).
        self.error: Optional[Tuple[int, int, int]] = None
        #: Level whose expansion found the error (``-1`` while error-free).
        self.error_level = -1
        self._indptr = _GrowableRows(np.int64, store=self.store)
        self._indptr.extend(np.zeros(1, dtype=np.int64))
        self._succ_ids = _GrowableRows(np.int32, store=self.store)
        self._labels = _GrowableRows(np.uint64, store=self.store)
        self._parent_ids = _GrowableRows(np.int32, store=self.store)
        self._parent_labels = _GrowableRows(np.uint64, store=self.store)
        #: Parent-graph reuse data of a delta warm start
        #: (:class:`~repro.verification.delta.DeltaHints`), held only while
        #: compiling and dropped when the graph freezes.
        self.delta_hints = None
        #: Row counters of a consumed warm start (``None`` for cold-built
        #: graphs): how many CSR rows came from the parent graph vs fresh
        #: expansion, and the parent fingerprint — kept after the hints are
        #: dropped so callers can report the delta reuse.
        self.delta_stats: Optional[dict] = None
        #: Candidate-independent warm-start export of *this* graph acting
        #: as a delta parent (:func:`repro.verification.delta.parent_export`)
        #: — extracted state fields and int64 CSR copies shared by every
        #: child warm-started from it in a first-fit sweep.  Built lazily,
        #: dropped with the graph.
        self.delta_export = None
        #: Active :class:`CheckpointPolicy`, or ``None`` (the default: no
        #: checkpoint overhead).  Installed via :meth:`set_checkpoint_policy`
        #: by the compile-claim holder.
        self.checkpoint: Optional[CheckpointPolicy] = None
        #: Levels *this graph object* expanded itself (a loaded graph starts
        #: at 0) — lets resume tests counter-assert that a checkpointed
        #: compile re-explored only post-checkpoint levels.
        self.expansion_count = 0
        #: Levels that were already compiled when this graph was loaded
        #: (0 for cold-built graphs).
        self.resumed_levels = 0

    def close(self) -> None:
        """Release the spill store (memmap handles + files), if any.

        Called when the graph is dropped from its system
        (:meth:`~repro.scheduler.packed.PackedSlotSystem.clear_memo` /
        ``clear_packed_caches``) so spilled graphs cannot leak file
        descriptors or tempdir contents across configurations.
        """
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------ accessors
    @property
    def state_count(self) -> int:
        """Number of interned (discovered) states."""
        return self.table.size

    @property
    def transition_count(self) -> int:
        """Number of compiled CSR transition rows."""
        return len(self._succ_ids)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, indexed by state id (expanded prefix only)."""
        return self._indptr.view

    @property
    def successor_ids(self) -> np.ndarray:
        """CSR column array: dense successor id per transition row."""
        return self._succ_ids.view

    @property
    def labels(self) -> np.ndarray:
        """Arrival mask per CSR transition row."""
        return self._labels.view

    @property
    def parent_ids(self) -> np.ndarray:
        """BFS-tree parent id of state ``id`` at row ``id - 1``."""
        return self._parent_ids.view

    @property
    def parent_labels(self) -> np.ndarray:
        """BFS-tree arrival mask of state ``id`` at row ``id - 1``."""
        return self._parent_labels.view

    def approx_bytes(self) -> int:
        """Approximate serialized size of the compiled arrays.

        Cheap (pure arithmetic on the counters), used by the byte-growth
        checkpoint trigger: interned state rows + CSR columns + row pointer
        + parent store, at their in-memory widths.
        """
        states = self.state_count
        transitions = self.transition_count
        return (
            states * self.words * 8  # interned state rows
            + transitions * (4 + 8)  # succ_ids + labels
            + states * 8  # indptr
            + states * (4 + 8)  # parent_ids + parent_labels
        )

    def states_as_ints(self, start: int, stop: int) -> List[int]:
        """Packed Python ints of the id range (one bulk conversion)."""
        return unpack_words(self.table.state_words[start:stop])

    def id_of_packed(self, state: int) -> int:
        """Dense id of a packed state (``-1`` when not discovered)."""
        return int(self.table.lookup(self.system.pack_words([int(state)]))[0])

    # ---------------------------------------------------------- compilation
    def _expand_next_level(self) -> None:
        """Compile the expansion of the next unexpanded BFS level.

        The frontier never leaves word form: the id range's rows of the
        interner's key store feed the vectorized expansion kernel
        (:meth:`~repro.scheduler.packed.PackedSlotSystem.expand_frontier`)
        directly; packed Python ints are materialized only for an error
        witness.
        """
        k = self.expanded_levels
        self.expansion_count += 1
        first, last = self.level_ptr[k], self.level_ptr[k + 1]
        frontier_words = self.table.state_words[first:last]
        expanded = None
        if self.delta_hints is not None:
            expanded = self._expand_level_delta(frontier_words)
            if expanded is None and self.delta_hints is None:
                logger.warning(
                    "delta warm start abandoned at level %d (parent rows "
                    "inconsistent with the masked expansion); cold-compiling",
                    k,
                )
        if expanded is None:
            expanded = self.system.successor_tables_words_origin(frontier_words)
        indptr, succ_words, masks, miss, origin = expanded
        self.expanded_levels = k + 1
        if miss.any():
            frontier = self.states_as_ints(first, last)
            rows = np.flatnonzero(miss)
            parent_rows = origin[rows]
            candidates = []
            for row, parent_row in zip(rows.tolist(), parent_rows.tolist()):
                successor = unpack_words(succ_words[row : row + 1])[0]
                candidates.append((frontier[parent_row], int(masks[row]), successor))
            # Same deterministic witness rule as the level-synchronous
            # engines: the minimal (parent, mask) pair of the level.
            self.error = min(candidates, key=lambda entry: (entry[0], entry[1]))
            self.error_level = k
            return
        if succ_words.shape[0] == 0:  # pragma: no cover - states always expand
            self.complete = True
            return
        # Fused dedupe–intern: the duplicate-laden successor multiset goes
        # straight into the hash table; ids come back per transition row
        # (no np.unique staging, no void-view sort).
        ids, _, firsts = self.table.intern_dedup(succ_words)
        base = len(self._succ_ids)
        self._indptr.extend(indptr[1:] + base)
        self._succ_ids.extend(ids)
        self._labels.extend(masks)
        if firsts.size == 0:
            self.complete = True
            return
        # Parent records live at row id-1; firsts already come ordered by
        # the (value-ascending) new ids.
        parent_rows = origin[firsts]
        self._parent_ids.extend(first + parent_rows)
        self._parent_labels.extend(masks[firsts])
        self.level_ptr.append(self.table.size)
        if self.store is not None and self.store.spilled:
            # Keep the RSS near the configured budget: drop the spilled
            # mappings' resident pages once per compiled level.
            self.store.relax()

    # --------------------------------------------------------- checkpointing
    def set_checkpoint_policy(self, policy: Optional[CheckpointPolicy]) -> None:
        """Install (or clear) the checkpoint policy of this compile.

        The policy is rebased onto the graph's current size, so a graph
        resumed from a checkpoint waits for fresh growth before staging the
        next one.
        """
        self.checkpoint = policy
        if policy is not None:
            policy.rebase(self)

    def _maybe_checkpoint(self) -> None:
        """Stage a checkpoint when the policy's growth trigger fired.

        Called once per freshly expanded level from :meth:`explore`.  A
        finished graph never checkpoints — it publishes as a real store
        entry instead — and the sink is only consulted while a policy is
        installed, so the default compile path pays one attribute check.
        """
        policy = self.checkpoint
        if policy is None or self.complete or self.error is not None:
            return
        if not policy.due(self):
            return
        policy.sink(self.system)
        policy.note_written(self)

    def _expand_level_delta(self, frontier_words: np.ndarray):
        """Delta-reuse expansion of one frontier (warm-started graphs).

        Frontier states that are lifted parent states (see
        :mod:`repro.verification.delta`) get the successor rows of arrival
        subsets avoiding the added applications gathered from the parent
        CSR — already-translated words, bit-remapped labels, never a miss
        (the parent graph is complete and error-free) — and only the
        subsets disturbing an added application run through the masked
        expansion kernel.  The two row groups interleave by enumeration
        rank, so the produced tables are *identical* to a full expansion
        and the compiled graph stays byte-for-byte equal to a cold one.

        Returns the ``(indptr, succ_words, masks, miss, origin)`` tuple of
        :meth:`~repro.scheduler.packed.PackedSlotSystem
        .successor_tables_words_origin`, or ``None`` when the level has no
        lifted states (caller expands normally, hints stay) or the parent
        rows failed the consistency check (hints are dropped, caller
        cold-compiles).
        """
        hints = self.delta_hints
        system = self.system
        count = frontier_words.shape[0]
        parent_ids = hints.lookup(frontier_words)
        seed = parent_ids >= 0
        seed_rows = np.flatnonzero(seed)
        if seed_rows.size == 0:
            return None

        # One fused kernel pass over the whole frontier: lifted states
        # expand only their added-app subsets, ordinary states in full.
        p_succ, p_events, p_origin, p_pos, full_counts = (
            system.expand_frontier_masked(frontier_words, hints.added_mask, seed)
        )
        r_succ, r_labels, r_counts = hints.reused_rows(parent_ids[seed_rows])
        produced = np.bincount(p_origin, minlength=count)
        if not np.array_equal(
            full_counts[seed_rows] - produced[seed_rows], r_counts
        ):
            # The parent rows do not tile the child enumeration — the
            # parent graph does not describe this child after all.  Drop
            # the hints; the caller redoes this level cold.
            self.delta_hints = None
            return None

        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(full_counts, out=indptr[1:])
        total = int(indptr[-1])
        starts = indptr[:-1]

        succ_words = np.empty((total, self.words), dtype=np.uint64)
        masks = np.empty(total, dtype=np.uint64)
        miss = np.zeros(total, dtype=bool)
        origin = np.repeat(np.arange(count, dtype=np.int64), full_counts)
        taken = np.zeros(total, dtype=bool)

        dest = starts[p_origin] + p_pos
        succ_words[dest] = p_succ
        masks[dest] = (
            p_events >> np.uint64(system._ev_admitted_shift)
        ) & np.uint64(system.miss_field)
        miss[dest] = (p_events & np.uint64(system.miss_field)) != 0
        taken[dest] = True

        # Reused parent rows fill the remaining enumeration slots in
        # ascending order: the index map is monotone, so the parent CSR
        # order equals the child enumeration order of its subsets.
        reused_dest = np.flatnonzero(~taken)
        succ_words[reused_dest] = r_succ
        masks[reused_dest] = r_labels

        hints.stats["reused_rows"] += int(r_succ.shape[0])
        hints.stats["expanded_rows"] += int(total - r_succ.shape[0])
        return indptr, succ_words, masks, miss, origin

    def _freeze_delta_hints(self) -> None:
        """Drop the warm-start hints once compilation stops, keeping stats."""
        hints = self.delta_hints
        if hints is None:
            return
        stats = dict(hints.stats)
        stats["parent_fingerprint"] = hints.parent_fingerprint
        self.delta_stats = stats
        self.delta_hints = None

    # -------------------------------------------------------- serialization
    def save(self, path) -> None:
        """Persist the compiled graph as plain arrays (``.npz``).

        Everything the replay needs ships as flat numpy arrays — the
        interned state rows, the level boundaries, the CSR transition
        arrays and the BFS parent store — plus the configuration
        fingerprint (:func:`config_fingerprint`) that :meth:`load` checks,
        so warm graphs can cross process (and CI job) boundaries.
        Partially compiled graphs save too; a load resumes compilation
        where the save stopped.

        The archive is uncompressed: zlib would dominate every cold
        compile's publish and checkpoint.  Instead the CSR and parent
        arrays are stored in the narrowest integer dtype that holds their
        values (:func:`_narrowest_int`); :meth:`load` casts them back.
        Archives written compressed or full-width load just the same.

        Args:
            path: filename or open binary file object
                (``numpy.savez`` semantics: a ``.npz`` suffix is
                appended to plain filenames that lack it).
        """
        has_error = self.error is not None
        if has_error:
            error_words = self.system.pack_words([self.error[0], self.error[2]])
            error_mask = np.uint64(self.error[1])
        else:
            error_words = np.zeros((0, self.words), dtype=np.uint64)
            error_mask = np.uint64(0)
        meta = np.array(
            [
                GRAPH_FORMAT_VERSION,
                self.system.state_bits,
                self.words,
                self.state_count,
                self.expanded_levels,
                int(self.complete),
                self.error_level,
                int(has_error),
            ],
            dtype=np.int64,
        )
        np.savez(
            path,
            meta=meta,
            fingerprint=np.array(self.system.fingerprint),
            state_words=self.table.state_words,
            level_ptr=np.array(self.level_ptr, dtype=np.int64),
            indptr=_narrowest_int(self.indptr),
            succ_ids=_narrowest_int(self.successor_ids),
            labels=_narrowest_int(self.labels),
            parent_ids=_narrowest_int(self.parent_ids),
            parent_labels=_narrowest_int(self.parent_labels),
            error_words=error_words,
            error_mask=error_mask,
        )

    @classmethod
    def load(cls, path, system) -> "CompiledStateGraph":
        """Rebuild a compiled graph saved by :meth:`save`.

        The interner is repopulated by one batched ``intern`` of the saved
        state rows (ids are assigned in row order, so the dense id space is
        reproduced exactly) and the CSR/parent arrays are adopted verbatim;
        a loaded graph replays — or, when saved mid-compilation, resumes —
        byte-identically to the graph that was saved.

        Args:
            path: filename or open binary file object.
            system: the :class:`~repro.scheduler.packed.PackedSlotSystem`
                the graph belongs to; its configuration fingerprint, word
                count and initial state must match the saved ones.

        Raises:
            VerificationError: wrong format version, fingerprint/layout
                mismatch, or structurally corrupt arrays.
        """
        with np.load(path, allow_pickle=False) as data:
            meta = data["meta"]
            if meta.shape[0] != 8 or int(meta[0]) != GRAPH_FORMAT_VERSION:
                raise VerificationError(
                    f"unsupported compiled-graph format (expected version "
                    f"{GRAPH_FORMAT_VERSION})"
                )
            fingerprint = str(data["fingerprint"])
            if fingerprint != system.fingerprint:
                raise VerificationError(
                    "compiled graph belongs to a different slot configuration "
                    "(fingerprint mismatch)"
                )
            if (
                int(meta[1]) != system.state_bits
                or int(meta[2]) != system.packed_words
            ):
                raise VerificationError(
                    "compiled graph packed-state layout does not match the system"
                )
            state_words = np.ascontiguousarray(data["state_words"], dtype=np.uint64)
            arrays = {
                key: data[key]
                for key in (
                    "level_ptr",
                    "indptr",
                    "succ_ids",
                    "labels",
                    "parent_ids",
                    "parent_labels",
                    "error_words",
                )
            }
            error_mask = int(data["error_mask"])

        count = state_words.shape[0]
        root_words = system.pack_words([system.initial])
        if count == 0 or (state_words[0] != root_words[0]).any():
            raise VerificationError(
                "compiled graph root state does not match the system's initial state"
            )
        graph = cls(system)
        table = PackedStateTable(
            system.packed_words,
            initial_capacity=max(2 * count, 1 << 12),
            store=graph.store,
        )
        _, new_mask = table.intern(state_words)
        level_ptr = arrays["level_ptr"].astype(np.int64).tolist()
        if (
            not bool(new_mask.all())
            or table.size != count
            or not level_ptr
            or level_ptr[-1] != count
            or len(arrays["parent_ids"]) != count - 1
            or len(arrays["succ_ids"]) != len(arrays["labels"])
            or int(arrays["indptr"][-1]) != len(arrays["succ_ids"])
            or (count > 1 and int(arrays["succ_ids"].max()) >= count)
        ):
            raise VerificationError("compiled graph arrays are corrupt")
        graph.table = table
        graph.level_ptr = level_ptr
        graph.expanded_levels = int(meta[4])
        graph.resumed_levels = graph.expanded_levels
        graph.complete = bool(meta[5])
        graph.error_level = int(meta[6])
        if int(meta[7]):
            error_words = np.ascontiguousarray(
                arrays["error_words"], dtype=np.uint64
            )
            parent, successor = unpack_words(error_words)
            graph.error = (parent, error_mask, successor)
        for attr_name, key, dtype in (
            ("_indptr", "indptr", np.int64),
            ("_succ_ids", "succ_ids", np.int32),
            ("_labels", "labels", np.uint64),
            ("_parent_ids", "parent_ids", np.int32),
            ("_parent_labels", "parent_labels", np.uint64),
        ):
            rows = _GrowableRows(dtype, store=graph.store)
            rows.extend(arrays[key].astype(dtype))
            setattr(graph, attr_name, rows)
        return graph

    # ---------------------------------------------------------- exploration
    def explore(self, max_states: int, with_parents: bool) -> Tuple[
        int, int, bool, Optional[Tuple[int, int, int]], Optional[CsrParentStore]
    ]:
        """Run (or replay) the reachability search up to ``max_states``.

        Compiled levels replay from the frozen arrays; missing levels are
        compiled on demand, so cold and warm runs share one code path.

        Returns:
            ``(visited_count, levels, truncated, error, parents)``.
        """
        max_states = int(max_states)
        visited_count = 1
        levels = 0
        truncated = False
        error: Optional[Tuple[int, int, int]] = None
        k = 0
        while True:
            if self.expanded_levels <= k and self.error is None and not self.complete:
                self._expand_next_level()
                if self.delta_hints is not None and (
                    self.complete or self.error is not None
                ):
                    # Compilation stopped: the parent-reuse data has served
                    # its purpose, keep only the counters.
                    self._freeze_delta_hints()
                if self.checkpoint is not None:
                    self._maybe_checkpoint()
            levels += 1
            if self.error is not None and self.error_level == k:
                error = self.error
                break
            if len(self.level_ptr) <= k + 2:
                break  # the expansion of level k discovered nothing new
            level_size = self.level_ptr[k + 2] - self.level_ptr[k + 1]
            remaining = max_states - visited_count
            if level_size >= remaining:
                truncated = True
                visited_count += min(level_size, max(remaining, 0))
                break
            visited_count += level_size
            k += 1
        parents = CsrParentStore(self, visited_count) if with_parents else None
        return visited_count, levels, truncated, error, parents


class GenericParentStore(Mapping):
    """Id-based predecessor store of a compiled generic graph (see
    :class:`CsrParentStore`; labels here are edge labels, not masks)."""

    __slots__ = ("_graph", "_count")

    def __init__(self, graph: "GenericStateGraph", visible_count: int) -> None:
        self._graph = graph
        self._count = int(visible_count)

    def _id_of(self, state: Hashable) -> int:
        state_id = self._graph.id_of.get(state, -1)
        if state_id < 1 or state_id >= self._count:
            raise KeyError(state)
        return state_id

    def __getitem__(self, state: Hashable) -> Tuple[Hashable, Hashable]:
        graph = self._graph
        state_id = self._id_of(state)
        return (
            graph.states[graph.parent_ids[state_id - 1]],
            graph.parent_labels[state_id - 1],
        )

    def __contains__(self, state: object) -> bool:
        try:
            self._id_of(state)
        except (KeyError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return max(self._count - 1, 0)

    def __iter__(self):
        return iter(self._graph.states[1 : self._count])


class GenericStateGraph:
    """Compiled id graph over an arbitrary successor function.

    The generic counterpart of :class:`CompiledStateGraph` for hashable
    opaque states (TA network states): states intern into dense ids through
    a dict, the CSR lives in plain Python lists, and — crucially — the
    graph is *predicate-independent*: the error predicate is evaluated per
    query against the replayed levels, so one compiled network answers
    error-reachability, invariant and state-count queries without
    re-running a single ``successors`` call.  Cache one instance per
    network via the ``cache`` slot of
    :class:`~repro.verification.engine.GenericSource`.
    """

    __slots__ = (
        "states",
        "id_of",
        "level_ptr",
        "expanded_levels",
        "complete",
        "succ_indptr",
        "succ_ids",
        "succ_labels",
        "parent_ids",
        "parent_labels",
        "_successors",
    )

    def __init__(self, initial: Hashable, successors) -> None:
        self._successors = successors
        self.states: List[Hashable] = [initial]
        self.id_of: Dict[Hashable, int] = {initial: 0}
        self.level_ptr: List[int] = [0, 1]
        self.expanded_levels = 0
        self.complete = False
        self.succ_indptr: List[int] = [0]
        self.succ_ids: List[int] = []
        self.succ_labels: List[Hashable] = []
        self.parent_ids: List[int] = []
        self.parent_labels: List[Hashable] = []

    def _expand_next_level(self) -> None:
        k = self.expanded_levels
        first, last = self.level_ptr[k], self.level_ptr[k + 1]
        states = self.states
        id_of = self.id_of
        successors = self._successors
        succ_ids = self.succ_ids
        succ_labels = self.succ_labels
        for state_id in range(first, last):
            for successor, label in successors(states[state_id]):
                succ_id = id_of.get(successor)
                if succ_id is None:
                    succ_id = len(states)
                    id_of[successor] = succ_id
                    states.append(successor)
                    self.parent_ids.append(state_id)
                    self.parent_labels.append(label)
                succ_ids.append(succ_id)
                succ_labels.append(label)
            self.succ_indptr.append(len(succ_ids))
        self.expanded_levels = k + 1
        if len(states) == last:
            self.complete = True
        else:
            self.level_ptr.append(len(states))

    def explore(self, max_states: int, is_error, with_parents: bool) -> Tuple[
        int,
        int,
        bool,
        Optional[Tuple[Hashable, Hashable, Hashable]],
        Optional[GenericParentStore],
    ]:
        """Replay (and extend on demand) the compiled graph for one query.

        ``is_error`` runs once per newly accepted state per query, in id
        (discovery) order — the error state is counted but never expanded
        further by this query, matching the generic-source semantics of the
        other engines.  Returns ``(visited_count, levels, truncated, error,
        parents)`` with ``error = (parent state, label, error state)``.
        """
        max_states = int(max_states)
        visited_count = 1
        levels = 0
        truncated = False
        error: Optional[Tuple[Hashable, Hashable, Hashable]] = None
        k = 0
        while True:
            if self.expanded_levels <= k and not self.complete:
                self._expand_next_level()
            levels += 1
            if len(self.level_ptr) <= k + 2:
                break
            low, high = self.level_ptr[k + 1], self.level_ptr[k + 2]
            remaining = max_states - visited_count
            if high - low >= remaining:
                truncated = True
                high = low + max(remaining, 0)
                visited_count += high - low
            else:
                visited_count += high - low
            for state_id in range(low, high):
                if is_error(self.states[state_id]):
                    parent_id = self.parent_ids[state_id - 1]
                    error = (
                        self.states[parent_id],
                        self.parent_labels[state_id - 1],
                        self.states[state_id],
                    )
                    break
            if error is not None or truncated:
                break
            k += 1
        parents = GenericParentStore(self, visited_count) if with_parents else None
        return visited_count, levels, truncated, error, parents


def compiled_graph_for(system) -> CompiledStateGraph:
    """Shared compiled graph of a packed system (built on first use).

    Cached on the :class:`~repro.scheduler.packed.PackedSlotSystem` itself,
    so it follows the ``packed_system_for`` per-configuration lifetime and
    is released by ``clear_memo`` / ``clear_packed_caches`` together with
    the successor memo.
    """
    graph = system.compiled_graph
    if graph is None:
        graph = CompiledStateGraph(system)
        system.compiled_graph = graph
    return graph


# --------------------------------------------------------- graph shipping
#: Environment variable naming a directory of cached compiled graphs: the
#: exhaustive verifier loads a configuration's graph from there before
#: exploring and saves freshly completed graphs back, so warm graphs ship
#: across processes (dimensioning worker fleets, CI jobs restoring the
#: directory from a cache).
GRAPH_DIR_ENV_VAR = "REPRO_GRAPH_DIR"

#: Process-wide counter making concurrent cache writes collision-free: the
#: pid alone is not unique across threads of one process (two admission
#: tests saving the same configuration from a thread pool would clobber
#: each other's temp file mid-write).
_TEMP_COUNTER = itertools.count()


def _temp_cache_path(path: str) -> str:
    """A collision-free temp name next to a cache ``path`` (same filesystem,
    so the final ``os.replace`` is atomic)."""
    return f"{path}.tmp-{os.getpid()}-{next(_TEMP_COUNTER)}"


def config_fingerprint(config) -> str:
    """Stable hex digest of everything the packed transition system derives
    from a :class:`~repro.scheduler.slot_system.SlotSystemConfig`.

    Covers, per application in index order: name, maximum wait, minimum
    inter-arrival time, the dwell-bound arrays and the instance budget.
    Two configs with equal fingerprints generate the identical state graph,
    which is what :meth:`CompiledStateGraph.load` verifies (string hashes
    are randomized per process, so this uses sha256, not ``hash()``).
    """
    import hashlib

    parts = []
    for profile, budget in zip(config.profiles, config.instance_budget):
        parts.append(
            (
                profile.name,
                int(profile.max_wait),
                int(profile.min_inter_arrival),
                tuple(int(v) for v in profile.min_dwell_array),
                tuple(int(v) for v in profile.max_dwell_array),
                None if budget is None else int(budget),
            )
        )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def save_graph(system, path) -> str:
    """Persist a system's compiled graph (raises when none was compiled)."""
    graph = system.compiled_graph
    if graph is None:
        raise VerificationError(
            "no compiled state graph to save; explore with engine='kernel' first"
        )
    graph.save(path)
    return str(path)


def load_graph(system, path) -> CompiledStateGraph:
    """Load a saved graph and install it as the system's compiled graph."""
    graph = CompiledStateGraph.load(path, system)
    previous = system.compiled_graph
    system.compiled_graph = graph
    if previous is not None and previous is not graph:
        previous.close()
    return graph


def graph_cache_path(directory: str, config) -> str:
    """Cache filename of a configuration's graph inside a cache directory."""
    return os.path.join(directory, f"graph-{config_fingerprint(config)}.npz")


def maybe_load_graph(system, directory: Optional[str]) -> bool:
    """Install a cached compiled graph when one matches the configuration.

    Best-effort by design (the directory is a cache, possibly restored
    stale by CI): a missing, mismatched or corrupt entry simply leaves the
    system without a graph.  Routed through the content-addressed
    :class:`~repro.verification.store.GraphStore` of the directory, which
    refreshes the entry's LRU recency on a hit and drops corrupt entries
    for recompilation.  Returns True when a graph was loaded.
    """
    if not directory or system.compiled_graph is not None:
        return False
    from .store import store_for

    return store_for(directory).load(system)


def maybe_save_graph(system, directory: Optional[str]) -> Optional[str]:
    """Persist a finished compiled graph into a cache directory.

    Only complete (or error-stopped) graphs are worth shipping; partial
    graphs are skipped, as are configurations already present in the
    cache.  Routed through the content-addressed
    :class:`~repro.verification.store.GraphStore` of the directory:
    concurrent dimensioning workers share one directory safely (atomic
    temp-stage + ``os.replace`` publish, already-present fingerprints
    skipped untouched) and each publish runs one LRU eviction pass when
    ``REPRO_GRAPH_STORE_BYTES`` bounds the store.  Returns the entry path
    written, or ``None`` when nothing was saved.
    """
    graph = system.compiled_graph
    if (
        not directory
        or graph is None
        or not (graph.complete or graph.error is not None)
    ):
        return None
    from .store import store_for

    return store_for(directory).publish(system)
