"""Fault-tolerance tests for the supervised sharded engine.

A supervised :class:`~repro.verification.engine.ShardedEngine` must survive
a worker SIGKILLed mid-level: the loss is detected at the level barrier,
the team is respawned one worker smaller, the new shard partition is
re-seeded from the accepted-row log and the in-flight level replays — the
completed search must match a fault-free run in verdict, visited count,
levels and witness depth.  The ``fault_hook`` used here is the same hook
the chaos harness drives; it fires once per level with the worker pids.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.exceptions import VerificationError
from repro.scheduler.packed import PackedSlotSystem
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification.engine import (
    SHARD_SUPERVISE_ENV_VAR,
    PackedStateSource,
    ShardedEngine,
    shard_supervision_enabled,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine requires the fork start method",
)

TRANSPORTS = ["shm", "pipe"]


@pytest.fixture(params=TRANSPORTS)
def transport(request, monkeypatch):
    if request.param == "pipe":
        monkeypatch.setenv("REPRO_SHARDED_SHM", "0")
    return request.param


def _source(*profiles):
    config = SlotSystemConfig.from_profiles(tuple(profiles))
    return PackedStateSource(PackedSlotSystem(config))


def _kill_once_at(level, which=0):
    """Fault hook killing worker ``which`` the first time ``level`` starts."""
    fired = []

    def hook(current_level, pids):
        if current_level == level and not fired:
            fired.append(pids[which])
            os.kill(pids[which], signal.SIGKILL)

    hook.fired = fired
    return hook


class TestSupervisedRecovery:
    def test_clean_supervised_run_matches_unsupervised(
        self, transport, small_profile, second_small_profile
    ):
        source = _source(small_profile, second_small_profile)
        reference = ShardedEngine(2, supervise=False).explore(source, 200_000)
        engine = ShardedEngine(2, supervise=True)
        outcome = engine.explore(source, 200_000)
        assert engine.recovered_workers == 0
        assert outcome.visited_count == reference.visited_count
        assert outcome.levels == reference.levels
        assert outcome.feasible == reference.feasible
        assert set(dict(outcome.parents)) == set(dict(reference.parents))

    def test_worker_killed_mid_level_recovers(
        self, transport, small_profile, second_small_profile
    ):
        source = _source(small_profile, second_small_profile)
        reference = ShardedEngine(2, supervise=False).explore(source, 200_000)
        hook = _kill_once_at(2)
        engine = ShardedEngine(2, supervise=True, fault_hook=hook)
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            outcome = engine.explore(source, 200_000)
        assert hook.fired, "the fault hook never killed a worker"
        assert engine.recovered_workers == 1
        assert outcome.feasible == reference.feasible
        assert outcome.visited_count == reference.visited_count
        assert outcome.levels == reference.levels
        # Same visited states; equal-depth parent ties may break
        # differently after the re-partition (documented).
        assert set(dict(outcome.parents)) == set(dict(reference.parents))

    def test_team_lost_during_the_root_level_recovers(
        self, transport, small_profile, second_small_profile
    ):
        # A loss before the root was accepted must replay the root level
        # from scratch: seeding the root as already visited would drop it
        # and end the search at zero states.
        source = _source(small_profile, second_small_profile)
        reference = ShardedEngine(2, supervise=False).explore(
            source, 200_000, with_parents=False
        )
        fired = []

        def kill_team_once(level, pids):
            if not fired:
                fired.append(level)
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)

        engine = ShardedEngine(2, supervise=True, fault_hook=kill_team_once)
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            outcome = engine.explore(source, 200_000, with_parents=False)
        assert fired == [0]
        assert engine.recovered_workers == 1
        assert outcome.feasible == reference.feasible
        assert outcome.visited_count == reference.visited_count
        assert outcome.levels == reference.levels

    def test_recovery_without_parent_store(
        self, transport, small_profile, second_small_profile
    ):
        source = _source(small_profile, second_small_profile)
        reference = ShardedEngine(2, supervise=False).explore(
            source, 200_000, with_parents=False
        )
        engine = ShardedEngine(2, supervise=True, fault_hook=_kill_once_at(3, which=1))
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            outcome = engine.explore(source, 200_000, with_parents=False)
        assert engine.recovered_workers == 1
        assert outcome.visited_count == reference.visited_count
        assert outcome.parents is None

    def test_infeasible_verdict_survives_worker_loss(
        self, transport, small_profile, second_small_profile, tight_profile
    ):
        source = _source(small_profile, second_small_profile, tight_profile)
        reference = ShardedEngine(2, supervise=False).explore(source, 200_000)
        assert not reference.feasible
        engine = ShardedEngine(2, supervise=True, fault_hook=_kill_once_at(1))
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            outcome = engine.explore(source, 200_000)
        assert engine.recovered_workers == 1
        assert not outcome.feasible
        assert outcome.levels == reference.levels
        assert (outcome.error_parent, outcome.error_label, outcome.error_state) == (
            reference.error_parent,
            reference.error_label,
            reference.error_state,
        )

    def test_losing_every_worker_raises(
        self, transport, small_profile, second_small_profile
    ):
        def kill_all(level, pids):
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        engine = ShardedEngine(2, supervise=True, fault_hook=kill_all)
        source = _source(small_profile, second_small_profile)
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            with pytest.raises(VerificationError, match="lost every worker"):
                engine.explore(source, 200_000, with_parents=False)

    def test_counter_resets_between_runs(
        self, small_profile, second_small_profile
    ):
        source = _source(small_profile, second_small_profile)
        engine = ShardedEngine(2, supervise=True, fault_hook=_kill_once_at(2))
        with pytest.warns(RuntimeWarning, match="re-partitioning"):
            engine.explore(source, 200_000, with_parents=False)
        assert engine.recovered_workers == 1
        engine.fault_hook = None
        engine.explore(source, 200_000, with_parents=False)
        assert engine.recovered_workers == 0


class TestKillSwitch:
    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.delenv(SHARD_SUPERVISE_ENV_VAR, raising=False)
        assert shard_supervision_enabled()
        for value in ("0", "off", "no", "false", "OFF"):
            monkeypatch.setenv(SHARD_SUPERVISE_ENV_VAR, value)
            assert not shard_supervision_enabled()
        monkeypatch.setenv(SHARD_SUPERVISE_ENV_VAR, "1")
        assert shard_supervision_enabled()

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv(SHARD_SUPERVISE_ENV_VAR, "0")
        assert ShardedEngine(2, supervise=True)._supervision_enabled()
        monkeypatch.delenv(SHARD_SUPERVISE_ENV_VAR, raising=False)
        assert not ShardedEngine(2, supervise=False)._supervision_enabled()

    def test_unsupervised_run_unchanged(
        self, monkeypatch, small_profile, second_small_profile
    ):
        monkeypatch.setenv(SHARD_SUPERVISE_ENV_VAR, "0")
        source = _source(small_profile, second_small_profile)
        engine = ShardedEngine(2)
        outcome = engine.explore(source, 200_000)
        assert outcome.feasible
        assert engine.recovered_workers == 0
