"""Serialization tests for the compiled state graph.

A saved/loaded :class:`CompiledStateGraph` must replay verification with
results identical to a fresh compile — visited counts, levels, truncation,
error witnesses and counterexample traces — and a partially compiled graph
must resume compilation exactly where the save stopped.  The cache-directory
flow (``graph_dir`` / ``REPRO_GRAPH_DIR``) is exercised end to end through
the verifier and the first-fit dimensioner.
"""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np
import pytest

from repro.exceptions import VerificationError
from repro.scheduler.packed import PackedSlotSystem, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    CompiledStateGraph,
    config_fingerprint,
    graph_cache_path,
    load_graph,
    maybe_load_graph,
    maybe_save_graph,
    save_graph,
    verify_slot_sharing,
)
from repro.verification.kernel import GRAPH_FORMAT_VERSION, _narrowest_int

#: In-memory dtype of every array that ``save`` narrows on disk.
IN_MEMORY_DTYPES = {
    "indptr": np.int64,
    "succ_ids": np.int32,
    "labels": np.uint64,
    "parent_ids": np.int32,
    "parent_labels": np.uint64,
}


def _pair_config(small_profile, second_small_profile):
    return SlotSystemConfig.from_profiles((small_profile, second_small_profile))


def _save_old_format(graph, path) -> None:
    """Write ``graph`` the way format version 1 was first written:
    zlib-compressed, every array at its full in-memory width."""
    buffer = io.BytesIO()
    graph.save(buffer)
    buffer.seek(0)
    with np.load(buffer) as data:
        arrays = {key: data[key] for key in data.files}
    for key, dtype in IN_MEMORY_DTYPES.items():
        arrays[key] = arrays[key].astype(dtype)
    np.savez_compressed(path, **arrays)


def _graph_arrays(graph):
    return {
        "state_words": graph.table.state_words,
        "level_ptr": np.array(graph.level_ptr),
        "indptr": graph.indptr,
        "succ_ids": graph.successor_ids,
        "labels": graph.labels,
        "parent_ids": graph.parent_ids,
        "parent_labels": graph.parent_labels,
    }


def _assert_graphs_identical(actual, expected):
    actual_arrays, expected_arrays = _graph_arrays(actual), _graph_arrays(expected)
    for key, value in expected_arrays.items():
        assert actual_arrays[key].dtype == value.dtype, key
        assert np.array_equal(actual_arrays[key], value), key


class TestSaveLoadRoundTrip:
    def test_complete_graph_replays_identically(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        system = PackedSlotSystem(config)
        graph = CompiledStateGraph(system)
        reference = graph.explore(5_000_000, True)
        path = tmp_path / "graph.npz"
        graph.save(path)

        fresh = PackedSlotSystem(config)
        loaded = CompiledStateGraph.load(path, fresh)
        assert loaded.complete
        assert loaded.state_count == graph.state_count
        assert loaded.transition_count == graph.transition_count
        assert loaded.level_ptr == graph.level_ptr
        replay = loaded.explore(5_000_000, True)
        assert replay[:4] == reference[:4]
        # The predecessor stores span the identical states with identical
        # links, and no expansion happened during the replay.
        assert set(replay[4]) == set(reference[4])
        sample = next(iter(reference[4]))
        assert replay[4][sample] == reference[4][sample]
        assert not fresh._successor_memo

    def test_csr_arrays_survive_verbatim(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,), {"A": 2})
        system = PackedSlotSystem(config)
        graph = CompiledStateGraph(system)
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        loaded = CompiledStateGraph.load(path, PackedSlotSystem(config))
        assert (loaded.indptr == graph.indptr).all()
        assert (loaded.successor_ids == graph.successor_ids).all()
        assert (loaded.labels == graph.labels).all()
        assert (loaded.parent_ids == graph.parent_ids).all()
        assert (loaded.parent_labels == graph.parent_labels).all()
        assert (loaded.table.state_words == graph.table.state_words).all()
        # Narrowed on disk, restored to the in-memory dtypes on load.
        assert loaded.indptr.dtype == np.int64
        assert loaded.successor_ids.dtype == np.int32
        assert loaded.labels.dtype == np.uint64
        assert loaded.parent_ids.dtype == np.int32
        assert loaded.parent_labels.dtype == np.uint64
        assert loaded.table.state_words.dtype == np.uint64

    def test_saved_arrays_are_uncompressed_and_narrowed(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        graph = CompiledStateGraph(PackedSlotSystem(config))
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        in_memory = _graph_arrays(graph)
        with np.load(path) as data:
            assert data["state_words"].dtype == np.uint64
            for key, dtype in IN_MEMORY_DTYPES.items():
                on_disk = data[key]
                assert on_disk.dtype == _narrowest_int(in_memory[key]).dtype
                assert on_disk.dtype.itemsize < np.dtype(dtype).itemsize, key
                assert np.array_equal(on_disk, in_memory[key]), key

    def test_old_compressed_full_width_entry_replays(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        graph = CompiledStateGraph(PackedSlotSystem(config))
        reference = graph.explore(5_000_000, True)
        path = tmp_path / "old.npz"
        _save_old_format(graph, path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }

        fresh = PackedSlotSystem(config)
        loaded = CompiledStateGraph.load(path, fresh)
        _assert_graphs_identical(loaded, graph)
        replay = loaded.explore(5_000_000, True)
        assert replay[:4] == reference[:4]
        assert dict(replay[4]) == dict(reference[4])
        assert not fresh._successor_memo

    def test_old_compressed_full_width_partial_graph_resumes(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        full_graph = CompiledStateGraph(PackedSlotSystem(config))
        full = full_graph.explore(5_000_000, False)
        partial = CompiledStateGraph(PackedSlotSystem(config))
        partial.explore(40, False)
        assert not partial.complete
        path = tmp_path / "old-partial.npz"
        _save_old_format(partial, path)

        resumed = CompiledStateGraph.load(path, PackedSlotSystem(config))
        assert resumed.explore(5_000_000, False)[:4] == full[:4]
        assert resumed.complete
        _assert_graphs_identical(resumed, full_graph)

    def test_one_state_graph_round_trips_empty_arrays(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        graph = CompiledStateGraph(PackedSlotSystem(config))  # root only
        assert graph.state_count == 1 and len(graph.parent_ids) == 0
        path = tmp_path / "root.npz"
        graph.save(path)
        loaded = CompiledStateGraph.load(path, PackedSlotSystem(config))
        _assert_graphs_identical(loaded, graph)
        reference = CompiledStateGraph(PackedSlotSystem(config))
        assert loaded.explore(5_000_000, False)[:4] == reference.explore(
            5_000_000, False
        )[:4]

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.zeros(0, dtype=np.int32), np.uint8),
            (np.zeros(0, dtype=np.uint64), np.uint8),
            (np.array([0, 255], dtype=np.int64), np.uint8),
            (np.array([0, 256], dtype=np.int64), np.uint16),
            (np.array([-1, 5], dtype=np.int32), np.int8),
            (np.array([-129, 5], dtype=np.int32), np.int16),
            (np.array([0, 2**32 - 1], dtype=np.int64), np.uint32),
            (np.array([-1, 2**31], dtype=np.int64), np.int64),
            (np.array([2**64 - 1], dtype=np.uint64), np.uint64),
        ],
    )
    def test_narrowest_int_fits_the_value_range(self, values, dtype):
        narrowed = _narrowest_int(values)
        assert narrowed.dtype == dtype
        assert np.array_equal(narrowed, values)

    def test_partial_graph_resumes_compilation(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        system = PackedSlotSystem(config)
        full_graph = CompiledStateGraph(system)
        full = full_graph.explore(5_000_000, False)

        partial = CompiledStateGraph(PackedSlotSystem(config))
        capped = partial.explore(40, False)
        assert capped[2] and not partial.complete
        path = tmp_path / "partial.npz"
        partial.save(path)

        resumed = CompiledStateGraph.load(path, PackedSlotSystem(config))
        assert not resumed.complete
        assert resumed.explore(40, False)[:4] == capped[:4]
        extended = resumed.explore(5_000_000, False)
        assert extended[:4] == full[:4]
        assert resumed.complete

    def test_error_graph_round_trips_witness(
        self, tmp_path, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        cold = verify_slot_sharing(profiles, engine="kernel")
        assert not cold.feasible
        config = SlotSystemConfig.from_profiles(profiles)
        system = packed_system_for(config)
        path = tmp_path / "error.npz"
        save_graph(system, path)

        fresh = PackedSlotSystem(config)
        loaded = load_graph(fresh, path)
        assert loaded.error == system.compiled_graph.error
        assert loaded.error_level == system.compiled_graph.error_level
        # Replaying through the public verifier reproduces the trace.
        packed_system_for(config).compiled_graph = loaded
        warm = verify_slot_sharing(profiles, engine="kernel")
        assert not warm.feasible
        assert warm.explored_states == cold.explored_states
        assert warm.counterexample == cold.counterexample

    def test_save_requires_a_compiled_graph(self, tmp_path, small_profile):
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        with pytest.raises(VerificationError):
            save_graph(system, tmp_path / "none.npz")


class TestLoadGuards:
    def test_fingerprint_mismatch_rejected(
        self, tmp_path, small_profile, second_small_profile
    ):
        config_a = SlotSystemConfig.from_profiles((small_profile,))
        config_b = SlotSystemConfig.from_profiles((second_small_profile,))
        assert config_fingerprint(config_a) != config_fingerprint(config_b)
        graph = CompiledStateGraph(PackedSlotSystem(config_a))
        graph.explore(5_000_000, False)
        path = tmp_path / "a.npz"
        graph.save(path)
        with pytest.raises(VerificationError, match="fingerprint"):
            CompiledStateGraph.load(path, PackedSlotSystem(config_b))

    def test_budget_changes_the_fingerprint(self, small_profile):
        plain = SlotSystemConfig.from_profiles((small_profile,))
        budgeted = SlotSystemConfig.from_profiles((small_profile,), {"A": 2})
        assert config_fingerprint(plain) != config_fingerprint(budgeted)

    def test_wrong_format_version_rejected(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        graph = CompiledStateGraph(PackedSlotSystem(config))
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = GRAPH_FORMAT_VERSION + 1
        np.savez(path, **arrays)
        with pytest.raises(VerificationError, match="version"):
            CompiledStateGraph.load(path, PackedSlotSystem(config))

    def test_corrupt_arrays_rejected(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        graph = CompiledStateGraph(PackedSlotSystem(config))
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["parent_ids"] = arrays["parent_ids"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(VerificationError, match="corrupt"):
            CompiledStateGraph.load(path, PackedSlotSystem(config))


class TestGraphDirectoryFlow:
    def test_verifier_saves_and_reloads(
        self, tmp_path, small_profile, second_small_profile, monkeypatch
    ):
        from repro.scheduler.packed import clear_packed_caches

        profiles = [small_profile, second_small_profile]
        directory = str(tmp_path)
        cold = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        config = SlotSystemConfig.from_profiles(profiles)
        assert os.path.exists(graph_cache_path(directory, config))

        # "New process": caches dropped, the cached graph must replay with
        # zero frontier expansions.  (The kernel expands through
        # successor_tables_words_origin — patch that, or a silent
        # recompile would go unnoticed.)
        clear_packed_caches()
        calls = []
        original = PackedSlotSystem.successor_tables_words_origin
        monkeypatch.setattr(
            PackedSlotSystem,
            "successor_tables_words_origin",
            lambda self, words: calls.append(1) or original(self, words),
        )
        warm = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        assert warm.explored_states == cold.explored_states
        assert warm.feasible == cold.feasible
        assert not calls

    def test_env_var_names_the_cache_directory(
        self, tmp_path, small_profile, monkeypatch
    ):
        from repro.verification import GRAPH_DIR_ENV_VAR

        monkeypatch.setenv(GRAPH_DIR_ENV_VAR, str(tmp_path))
        verify_slot_sharing(
            [small_profile], with_counterexample=False, engine="kernel"
        )
        config = SlotSystemConfig.from_profiles([small_profile])
        assert os.path.exists(graph_cache_path(str(tmp_path), config))

    def test_maybe_helpers_are_best_effort(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = PackedSlotSystem(config)
        directory = str(tmp_path)
        # Nothing compiled yet: nothing saved, nothing loaded.
        assert maybe_save_graph(system, directory) is None
        assert not maybe_load_graph(system, directory)
        graph = CompiledStateGraph(system)
        system.compiled_graph = graph
        # Incomplete graphs are not worth shipping.
        assert maybe_save_graph(system, directory) is None
        graph.explore(5_000_000, False)
        path = maybe_save_graph(system, directory)
        assert path and os.path.exists(path)
        # Second save is a no-op (cache hit), corrupt files never raise.
        assert maybe_save_graph(system, directory) is None
        with open(path, "wb") as handle:
            handle.write(b"not an npz")
        fresh = PackedSlotSystem(config)
        assert not maybe_load_graph(fresh, directory)
        assert fresh.compiled_graph is None

    def test_corrupt_cache_logs_and_recompiles(
        self, tmp_path, small_profile, caplog
    ):
        """A corrupt or truncated cache entry must never raise out of
        ``verify_slot_sharing`` (the dimensioner probes dozens of
        configurations through it) — it logs a warning and recompiles."""
        import logging

        profiles = [small_profile]
        directory = str(tmp_path)
        cold = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        config = SlotSystemConfig.from_profiles(profiles)
        path = graph_cache_path(directory, config)
        with open(path, "wb") as handle:
            handle.write(b"PK\x03\x04 truncated garbage")

        from repro.scheduler.packed import clear_packed_caches

        clear_packed_caches()
        with caplog.at_level(logging.WARNING, logger="repro.verification.kernel"):
            again = verify_slot_sharing(
                profiles,
                with_counterexample=False,
                engine="kernel",
                graph_dir=directory,
            )
        assert again.feasible == cold.feasible
        assert again.explored_states == cold.explored_states
        assert any("recompiling" in record.message for record in caplog.records)

    def test_corrupt_cache_never_breaks_the_dimensioner(
        self, tmp_path, small_profile, second_small_profile
    ):
        from repro.dimensioning.first_fit import dimension_with_verification

        profiles = {
            small_profile.name: small_profile,
            second_small_profile.name: second_small_profile,
        }
        reference = dimension_with_verification(profiles, engine="kernel")
        # Corrupt every cached graph the first run shipped.
        clean = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        for name in os.listdir(tmp_path):
            with open(tmp_path / name, "wb") as handle:
                handle.write(b"not an npz at all")
        from repro.scheduler.packed import clear_packed_caches

        clear_packed_caches()
        outcome = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        assert outcome.partition() == clean.partition() == reference.partition()

    def test_unwritable_cache_directory_logs_and_continues(
        self, tmp_path, small_profile, caplog
    ):
        """An unusable cache directory must not fail the verification that
        produced the graph (maybe_save_graph is best-effort).  The
        "directory" here is a plain file, so creating it raises — the
        same OSError family a full disk or read-only mount produces."""
        import logging

        bogus = tmp_path / "cache"
        bogus.write_bytes(b"")
        with caplog.at_level(logging.WARNING, logger="repro.verification.kernel"):
            result = verify_slot_sharing(
                [small_profile],
                with_counterexample=False,
                engine="kernel",
                graph_dir=str(bogus),
            )
        assert result.feasible
        assert any(
            "could not persist" in record.message for record in caplog.records
        )

    def test_dimensioner_accepts_graph_dir(
        self, tmp_path, small_profile, second_small_profile
    ):
        from repro.dimensioning.first_fit import dimension_with_verification

        profiles = {
            small_profile.name: small_profile,
            second_small_profile.name: second_small_profile,
        }
        outcome = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        assert outcome.slot_count >= 1
        # Every completed admission verification shipped its graph.
        assert any(name.endswith(".npz") for name in os.listdir(tmp_path))


class TestConcurrentCacheWrites:
    def test_temp_names_are_collision_free_across_threads(self, tmp_path):
        """The staging name must differ per call even within one process:
        a pid-only suffix would let two threads saving the same
        configuration clobber each other's half-written temp file."""
        from repro.verification.kernel import _temp_cache_path

        path = str(tmp_path / "graph-abc.npz")
        names = {_temp_cache_path(path) for _ in range(64)}
        assert len(names) == 64

    def test_racing_savers_leave_a_loadable_cache(
        self, tmp_path, small_profile, second_small_profile
    ):
        """Many threads saving the same configuration concurrently: the
        published cache entry must always be a complete, loadable graph
        (each save stages privately, then atomically replaces)."""
        from concurrent.futures import ThreadPoolExecutor

        config = _pair_config(small_profile, second_small_profile)

        def compile_one(_index):
            system = PackedSlotSystem(config)
            system.compiled_graph = CompiledStateGraph(system)
            system.compiled_graph.explore(5_000_000, False)
            return system

        systems = [compile_one(index) for index in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            paths = list(
                pool.map(lambda system: maybe_save_graph(system, str(tmp_path)), systems)
            )
        # skip-if-exists means not every saver wrote, but at least one did,
        # no temp litter survives, and the entry round-trips.
        assert any(path is not None for path in paths)
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(graph_cache_path(str(tmp_path), config))
        ]
        fresh = PackedSlotSystem(config)
        assert maybe_load_graph(fresh, str(tmp_path))
        assert fresh.compiled_graph.complete
        assert fresh.compiled_graph.state_count == systems[0].compiled_graph.state_count

    def test_racing_processes_compile_exactly_once(
        self, tmp_path, small_profile, second_small_profile
    ):
        """Cross-process single-flight: N processes cold-verifying the same
        fingerprint concurrently produce exactly one compile — the losers
        find the winner's lockfile claim, wait out its publish and replay
        the shipped graph without expanding a single state — and the store
        ends up with exactly the one entry, no claim litter."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(3)
        queue = context.Queue()
        profiles = [small_profile, second_small_profile]
        directory = str(tmp_path)

        def worker():
            from repro.scheduler.packed import clear_packed_caches

            clear_packed_caches()
            expansions = []
            original = PackedSlotSystem.expand_frontier

            def counting(self, word_matrix):
                expansions.append(int(word_matrix.shape[0]))
                return original(self, word_matrix)

            PackedSlotSystem.expand_frontier = counting
            barrier.wait()
            result = verify_slot_sharing(
                profiles,
                with_counterexample=False,
                engine="kernel",
                graph_dir=directory,
            )
            queue.put((bool(expansions), result.feasible, result.explored_states))

        processes = [context.Process(target=worker) for _ in range(3)]
        for process in processes:
            process.start()
        results = [queue.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=120)
        compiled = [flag for flag, _, _ in results]
        assert sum(compiled) == 1, f"expected exactly one compiler, got {results}"
        # All three agree on the verdict and the visited count...
        assert len({(feasible, states) for _, feasible, states in results}) == 1
        # ...and the store holds exactly the published entry (claims are
        # released after the publish, temp files never survive).
        config = _pair_config(small_profile, second_small_profile)
        assert sorted(os.listdir(directory)) == [
            os.path.basename(graph_cache_path(directory, config))
        ]
