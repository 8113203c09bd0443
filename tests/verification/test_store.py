"""Graph-store tests: content addressing, LRU eviction, pins, lineage,
single-flight claims.

The store must honor four invariants under any interleaving: (1) the byte
budget of ``REPRO_GRAPH_STORE_BYTES`` is enforced by least-recently-used
eviction — with loads refreshing recency; (2) entries pinned by in-flight
queries (and entries under an active compile claim) are never evicted;
(3) orphaned ``.parent`` lineage sidecars are swept; (4) corrupt entries
log, drop and report a miss — never an exception.
"""

from __future__ import annotations

import logging
import os
import threading
import time

import pytest

from repro.exceptions import VerificationError
from repro.scheduler.packed import PackedSlotSystem, clear_packed_caches
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    GraphStore,
    STORE_BYTES_ENV_VAR,
    config_fingerprint,
    store_for,
    verify_slot_sharing,
)
from repro.verification.kernel import CompiledStateGraph
from repro.verification.store import DEFAULT_CLAIM_TIMEOUT


def _compiled_system(*profiles) -> PackedSlotSystem:
    config = SlotSystemConfig.from_profiles(profiles)
    system = PackedSlotSystem(config)
    system.compiled_graph = CompiledStateGraph(system)
    system.compiled_graph.explore(5_000_000, False)
    return system


@pytest.fixture()
def store(tmp_path) -> GraphStore:
    return GraphStore(str(tmp_path))


def _flip_middle_byte(path) -> None:
    """Invert one byte halfway through a file (a silent media bit flip)."""
    middle = os.path.getsize(path) // 2
    with open(path, "r+b") as handle:
        handle.seek(middle)
        byte = handle.read(1)[0]
        handle.seek(middle)
        handle.write(bytes([byte ^ 0xFF]))


def _verify_through(store, profiles):
    return verify_slot_sharing(
        profiles,
        with_counterexample=False,
        engine="kernel",
        graph_dir=store.directory,
    )


# ----------------------------------------------------------- publish / load
class TestPublishLoad:
    def test_round_trip(self, store, small_profile):
        system = _compiled_system(small_profile)
        fingerprint = config_fingerprint(system.config)
        assert not store.has(fingerprint)
        path = store.publish(system)
        assert path == store.entry_path(fingerprint)
        assert store.has(fingerprint)
        assert store.fingerprints() == [fingerprint]

        fresh = PackedSlotSystem(system.config)
        assert store.load(fresh)
        assert fresh.compiled_graph.complete
        assert fresh.compiled_graph.state_count == system.compiled_graph.state_count

    def test_publish_is_idempotent(self, store, small_profile):
        system = _compiled_system(small_profile)
        assert store.publish(system) is not None
        assert store.publish(system) is None  # already present: untouched

    def test_partial_graph_is_not_published(self, store, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = PackedSlotSystem(config)
        system.compiled_graph = CompiledStateGraph(system)  # never explored
        assert store.publish(system) is None
        assert store.fingerprints() == []

    def test_load_refreshes_recency(self, store, small_profile):
        system = _compiled_system(small_profile)
        path = store.publish(system)
        stale = time.time() - 3_600
        os.utime(path, (stale, stale))
        fresh = PackedSlotSystem(system.config)
        assert store.load(fresh)
        assert os.stat(path).st_mtime > stale + 1_800

    def test_corrupt_entry_logs_drops_and_misses(self, store, small_profile, caplog):
        system = _compiled_system(small_profile)
        fingerprint = config_fingerprint(system.config)
        store.publish(system)
        store.record_lineage(fingerprint, "f" * 64)
        with open(store.entry_path(fingerprint), "wb") as handle:
            handle.write(b"not an npz")
        fresh = PackedSlotSystem(system.config)
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            assert not store.load(fresh)
        assert fresh.compiled_graph is None
        assert any("recompiling" in record.message for record in caplog.records)
        # The entry and its lineage sidecar are gone: the next compile
        # republishes a good one.
        assert not store.has(fingerprint)
        assert store.parent_of(fingerprint) is None

    def test_bit_flipped_entry_logs_drops_and_recompiles(
        self, store, small_profile, second_small_profile, caplog
    ):
        # Entries are stored uncompressed: the zip CRC-32 is what catches
        # a flipped byte inside an array payload.
        profiles = [small_profile, second_small_profile]
        reference = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel"
        )
        clear_packed_caches()
        _verify_through(store, profiles)
        fingerprint = config_fingerprint(SlotSystemConfig.from_profiles(profiles))
        _flip_middle_byte(store.entry_path(fingerprint))

        clear_packed_caches()
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            again = _verify_through(store, profiles)
        assert any(
            "unusable graph-store entry" in record.message and "CRC" in record.message
            for record in caplog.records
        )
        assert (again.feasible, again.explored_states) == (
            reference.feasible,
            reference.explored_states,
        )
        # The recompile republished a good entry in place of the dropped one.
        fresh = PackedSlotSystem(SlotSystemConfig.from_profiles(profiles))
        assert store.load(fresh)
        assert fresh.compiled_graph.state_count == reference.explored_states


# ------------------------------------------------------------------ eviction
class TestEviction:
    def _three_entries(self, store, profiles):
        """Publish three single-app entries with strictly ordered mtimes."""
        fingerprints = []
        for age, profile in zip((300, 200, 100), profiles):
            system = _compiled_system(profile)
            path = store.publish(system)
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
            fingerprints.append(config_fingerprint(system.config))
        return fingerprints  # oldest first

    def test_unbounded_store_never_evicts(self, store, small_profile,
                                          second_small_profile, tight_profile):
        self._three_entries(store, (small_profile, second_small_profile, tight_profile))
        assert store.evict() == []
        assert len(store.fingerprints()) == 3

    def test_lru_eviction_respects_budget(
        self, store, small_profile, second_small_profile, tight_profile, monkeypatch
    ):
        oldest, middle, newest = self._three_entries(
            store, (small_profile, second_small_profile, tight_profile)
        )
        sizes = {
            fingerprint: os.stat(store.entry_path(fingerprint)).st_size
            for fingerprint in (oldest, middle, newest)
        }
        # Budget fits the two newest entries: exactly the oldest goes.
        monkeypatch.setenv(
            STORE_BYTES_ENV_VAR, str(sizes[middle] + sizes[newest])
        )
        assert store.evict() == [oldest]
        assert sorted(store.fingerprints()) == sorted([middle, newest])
        assert store.total_bytes() <= store.budget_bytes()

    def test_explicit_max_bytes_wins_over_env(
        self, tmp_path, small_profile, second_small_profile, monkeypatch
    ):
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, "1")
        store = GraphStore(str(tmp_path), max_bytes=10**9)
        for profile in (small_profile, second_small_profile):
            store.publish(_compiled_system(profile))
        assert store.evict() == []
        assert len(store.fingerprints()) == 2

    def test_pinned_entries_survive_eviction(
        self, store, small_profile, second_small_profile, tight_profile, monkeypatch
    ):
        oldest, middle, newest = self._three_entries(
            store, (small_profile, second_small_profile, tight_profile)
        )
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, "1")  # evict everything possible
        store.pin(oldest)
        try:
            evicted = store.evict()
        finally:
            store.unpin(oldest)
        assert oldest not in evicted
        assert store.has(oldest)
        assert sorted(evicted) == sorted([middle, newest])

    def test_pin_is_refcounted(self, store):
        store.pin("abc")
        store.pin("abc")
        store.unpin("abc")
        assert store.pinned("abc")
        store.unpin("abc")
        assert not store.pinned("abc")

    def test_claimed_entries_survive_eviction(
        self, store, small_profile, second_small_profile, monkeypatch
    ):
        older, newer = (
            self._three_entries(store, (small_profile, second_small_profile))[:2]
        )
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, "1")
        with store.claim(older):
            evicted = store.evict()
        assert older not in evicted
        assert store.has(older)

    def test_orphan_lineage_sidecars_are_swept(self, store, small_profile):
        system = _compiled_system(small_profile)
        fingerprint = config_fingerprint(system.config)
        store.publish(system)
        store.record_lineage(fingerprint, "a" * 64)
        orphan = "b" * 64
        store.record_lineage(orphan, "c" * 64)
        store.evict()  # unbounded: only the orphan sweep runs
        assert store.parent_of(fingerprint) == "a" * 64  # live sidecar kept
        assert store.parent_of(orphan) is None
        assert not os.path.exists(store.lineage_path(orphan))

    def test_eviction_drops_the_entry_sidecar_too(
        self, store, small_profile, second_small_profile, monkeypatch
    ):
        oldest, newest = self._three_entries(
            store, (small_profile, second_small_profile)
        )[:2]
        store.record_lineage(oldest, "d" * 64)
        size = os.stat(store.entry_path(newest)).st_size
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, str(size))
        assert store.evict() == [oldest]
        assert not os.path.exists(store.lineage_path(oldest))

    def test_non_numeric_budget_means_unbounded(self, store, monkeypatch, caplog):
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, "lots")
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            assert store.budget_bytes() is None
        assert any("non-numeric" in record.message for record in caplog.records)


# ------------------------------------------------------------------- lineage
class TestLineage:
    def test_record_and_read_back(self, store):
        store.record_lineage("child" + "0" * 59, "parent" + "0" * 58)
        assert store.parent_of("child" + "0" * 59) == "parent" + "0" * 58

    def test_missing_lineage_is_none(self, store):
        assert store.parent_of("nope") is None

    def test_existing_sidecar_is_left_untouched(self, store):
        store.record_lineage("x", "first")
        store.record_lineage("x", "second")
        assert store.parent_of("x") == "first"


# -------------------------------------------------------------------- claims
class TestClaims:
    def test_claim_excludes_and_release_reopens(self, store):
        first = store.claim("f" * 64)
        assert first is not None and first.locked
        assert store.claim("f" * 64) is None
        first.release()
        second = store.claim("f" * 64)
        assert second is not None
        second.release()

    def test_release_is_idempotent(self, store):
        claim = store.claim("a" * 64)
        claim.release()
        claim.release()

    def test_stale_claim_is_broken(self, store, caplog):
        held = store.claim("e" * 64)
        stale = time.time() - 2 * DEFAULT_CLAIM_TIMEOUT
        os.utime(held.path, (stale, stale))
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            taken = store.claim("e" * 64)
        assert taken is not None and taken.locked
        assert any("stale" in record.message for record in caplog.records)
        taken.release()

    def test_unwritable_directory_yields_unlocked_claim(self, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_bytes(b"")
        store = GraphStore(str(bogus))
        claim = store.claim("c" * 64)
        assert claim is not None and not claim.locked
        claim.release()  # no lockfile: must not raise

    def test_wait_for_published_entry_returns_immediately(self, store, small_profile):
        system = _compiled_system(small_profile)
        store.publish(system)
        fingerprint = config_fingerprint(system.config)
        assert store.wait_for(fingerprint, timeout=0.1)

    def test_wait_for_vanished_claim_without_publish(self, store):
        assert not store.wait_for("d" * 64, timeout=0.1)

    def test_wait_for_sees_a_concurrent_publish(self, store, small_profile):
        system = _compiled_system(small_profile)
        fingerprint = config_fingerprint(system.config)
        claim = store.claim(fingerprint)

        def publish_later():
            time.sleep(0.1)
            store.publish(system)
            claim.release()

        thread = threading.Thread(target=publish_later)
        thread.start()
        try:
            assert store.wait_for(fingerprint, timeout=10.0)
        finally:
            thread.join()


# ------------------------------------------------------------------ plumbing
class TestStoreFor:
    def test_shared_instance_per_directory(self, tmp_path):
        first = store_for(str(tmp_path))
        second = store_for(str(tmp_path) + os.sep)
        assert first is second
        assert store_for(str(tmp_path / "other")) is not first

    def test_requires_a_directory(self):
        with pytest.raises(VerificationError):
            store_for("")

    def test_describe_reports_inventory(self, store, small_profile):
        store.publish(_compiled_system(small_profile))
        store.pin("held")
        summary = store.describe()
        assert summary["entries"] == 1
        assert summary["bytes"] > 0
        assert summary["pinned"] == 1
        assert summary["budget_bytes"] is None


# ------------------------------------------------------------- checkpoints
def _partial_system(*profiles, cap: int = 40) -> PackedSlotSystem:
    """A system whose compile was 'interrupted' (capped partial graph)."""
    config = SlotSystemConfig.from_profiles(profiles)
    system = PackedSlotSystem(config)
    system.compiled_graph = CompiledStateGraph(system)
    system.compiled_graph.explore(cap, False)
    assert not system.compiled_graph.complete
    return system


class TestCheckpointCrashWindows:
    """Crash-window edge cases of the exploration-checkpoint layer."""

    def test_orphaned_checkpoint_is_adopted_by_the_next_claimant(
        self, store, small_profile, second_small_profile
    ):
        partial = _partial_system(small_profile, second_small_profile)
        fingerprint = config_fingerprint(partial.config)
        path = store.publish_checkpoint(partial)
        assert path == store.checkpoint_path(fingerprint)
        # The compiler died here: no entry, no claim, one orphaned .ckpt.
        assert not store.has(fingerprint)
        assert store.describe()["checkpoints"] == 1

        claimant = PackedSlotSystem(partial.config)
        with store.claim(fingerprint):
            assert store.load_checkpoint(claimant)
            graph = claimant.compiled_graph
            assert graph.resumed_levels == graph.expanded_levels > 0
            graph.explore(5_000_000, False)
            assert graph.complete
            store.publish(claimant)
        assert store.has(fingerprint)
        # The completed publish swept the adopted checkpoint.
        assert store.describe()["checkpoints"] == 0

    def test_corrupt_checkpoint_logs_and_recompiles(
        self, store, small_profile, caplog
    ):
        partial = _partial_system(small_profile, cap=20)
        fingerprint = config_fingerprint(partial.config)
        store.publish_checkpoint(partial)
        with open(store.checkpoint_path(fingerprint), "wb") as handle:
            handle.write(b"not an npz archive")
        fresh = PackedSlotSystem(partial.config)
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            assert not store.load_checkpoint(fresh)
        assert fresh.compiled_graph is None  # caller recompiles from scratch
        assert any(
            "unusable exploration checkpoint" in record.message
            for record in caplog.records
        )
        assert not os.path.exists(store.checkpoint_path(fingerprint))

    def test_truncated_checkpoint_logs_and_recompiles(
        self, store, small_profile, caplog
    ):
        partial = _partial_system(small_profile, cap=20)
        fingerprint = config_fingerprint(partial.config)
        path = store.publish_checkpoint(partial)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        fresh = PackedSlotSystem(partial.config)
        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            assert not store.load_checkpoint(fresh)
        assert fresh.compiled_graph is None
        assert not os.path.exists(path)

    def test_bit_flipped_checkpoint_logs_drops_and_recompiles(
        self, store, small_profile, second_small_profile, caplog
    ):
        profiles = [small_profile, second_small_profile]
        reference = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel"
        )
        clear_packed_caches()
        partial = _partial_system(*profiles)
        path = store.publish_checkpoint(partial)
        _flip_middle_byte(path)

        with caplog.at_level(logging.WARNING, logger="repro.verification.store"):
            again = _verify_through(store, profiles)
        assert any(
            "unusable exploration checkpoint" in record.message
            and "CRC" in record.message
            for record in caplog.records
        )
        assert not os.path.exists(path)
        assert (again.feasible, again.explored_states) == (
            reference.feasible,
            reference.explored_states,
        )
        assert store.has(partial.fingerprint)

    def test_missing_checkpoint_is_a_plain_miss(self, store, small_profile):
        fresh = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        assert not store.load_checkpoint(fresh)
        assert fresh.compiled_graph is None

    def test_complete_or_published_graphs_never_checkpoint(
        self, store, small_profile
    ):
        complete = _compiled_system(small_profile)
        assert store.publish_checkpoint(complete) is None
        partial = _partial_system(small_profile, cap=20)
        store.publish(complete)
        # An already-published entry makes a checkpoint pointless.
        assert store.publish_checkpoint(partial) is None

    def test_eviction_never_removes_the_checkpoint_of_a_live_claim(
        self, store, small_profile, second_small_profile, monkeypatch
    ):
        partial = _partial_system(small_profile, second_small_profile)
        fingerprint = config_fingerprint(partial.config)
        store.publish_checkpoint(partial)
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, "1")  # evict all it can
        with store.claim(fingerprint):
            assert fingerprint not in store.evict()
            assert os.path.exists(store.checkpoint_path(fingerprint))
        # Claim released (holder gave up without publishing): now it goes.
        assert fingerprint in store.evict()
        assert not os.path.exists(store.checkpoint_path(fingerprint))

    def test_checkpoints_are_evicted_after_full_entries(
        self, store, small_profile, second_small_profile, monkeypatch
    ):
        entry_system = _compiled_system(small_profile)
        entry_fingerprint = config_fingerprint(entry_system.config)
        path = store.publish(entry_system)
        stamp = time.time() - 300
        os.utime(path, (stamp, stamp))
        partial = _partial_system(small_profile, second_small_profile)
        checkpoint_fingerprint = config_fingerprint(partial.config)
        checkpoint_size = os.path.getsize(store.publish_checkpoint(partial))
        # Budget fits exactly the checkpoint: the (older!) full entry must
        # still be the one evicted — checkpoints go last.
        monkeypatch.setenv(STORE_BYTES_ENV_VAR, str(checkpoint_size))
        evicted = store.evict()
        assert evicted == [entry_fingerprint]
        assert os.path.exists(store.checkpoint_path(checkpoint_fingerprint))

    def test_superseded_checkpoint_is_swept_by_evict(self, store, small_profile):
        complete = _compiled_system(small_profile)
        fingerprint = config_fingerprint(complete.config)
        partial = _partial_system(small_profile, cap=20)
        store.publish_checkpoint(partial)
        assert store.describe()["checkpoints"] == 1
        store.publish(complete)  # publish sweeps its own checkpoint...
        # ...and evict sweeps one that lands after the entry already
        # exists (e.g. written by a racing compiler that lost the claim).
        checkpoint = store.checkpoint_path(fingerprint)
        with open(checkpoint, "wb") as handle:
            handle.write(b"stale")
        store.evict()
        assert not os.path.exists(checkpoint)
        assert store.has(fingerprint)
