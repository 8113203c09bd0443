"""The warm answer memo: repeated warm queries are lookups.

A warm-map entry memoizes the wire answers its frozen graph gave to
``verify``/``counterexample`` (keyed by ``max_states``,
``with_counterexample`` and ``minimize``) and ``check`` (keyed by the spec
source strings).  These tests pin that a memoized answer equals a fresh
direct computation, that no answer outlives its entry or graph, that a
truncating cap never shares an answer with the full one, that a hit stamps
its own lookup time, and that a hit does no verification work at all.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import types

import pytest

from repro.casestudy import paper_profiles
from repro.scheduler.packed import clear_packed_caches, is_shared_system, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.service import ServiceClient, VerificationService
from repro.service import server as server_module
from repro.service.protocol import profiles_to_wire, result_to_wire
from repro.switching.profile import SwitchingProfile
from repro.verification import exhaustive, result, spec_eval, standard_spec_bundle
from repro.verification import verify_slot_sharing
from repro.verification.acceleration import instance_budgets
from repro.verification.exhaustive import ExhaustiveVerifier

SPECS = [
    "always not missed",
    "reachable occupant(B)",
    "always (waiting(A) implies eventually <= 5 holding(A))",
]


@pytest.fixture()
def client(server):
    with ServiceClient(server.socket_path, retries=0) as connected:
        yield connected


@pytest.fixture(params=["feasible", "infeasible"])
def slot(request, small_profile, second_small_profile, tight_profile):
    profiles = [small_profile, second_small_profile]
    if request.param == "infeasible":
        profiles.append(tight_profile)
    return profiles


def _full(profiles):
    return {"profiles": profiles_to_wire(profiles), "use_acceleration": True}


def _untimed_result(response):
    return dict(response["result"], elapsed_seconds=0.0)


def _untimed_verdicts(response):
    return [dict(verdict, elapsed_seconds=0.0) for verdict in response["verdicts"]]


def _direct(profiles, **kwargs):
    """Wire form of the direct library call from a cold cache (wall clock
    zeroed), so it shares no graph with the in-process server."""
    clear_packed_caches()
    answer = verify_slot_sharing(
        profiles, instance_budget=instance_budgets(profiles), **kwargs
    )
    return dict(result_to_wire(answer, True), elapsed_seconds=0.0)


def _direct_verdicts(profiles, specs):
    clear_packed_caches()
    verifier = ExhaustiveVerifier(profiles, instance_budgets(profiles))
    return [
        dict(verdict.to_dict(), elapsed_seconds=0.0)
        for verdict in verifier.check_specs(specs)
    ]


def _memo_delta(server, before):
    return (
        server.stats["answer_hits"] - before["answer_hits"],
        server.stats["answer_misses"] - before["answer_misses"],
    )


def _primed(client, profiles):
    """Handle of a configuration whose graph the server has published."""
    return client.request("verify", **_full(profiles))["config"]


class TestMemoAnswersEqualDirect:
    @pytest.mark.parametrize(
        "operation, fields, direct",
        [
            ("verify", {}, {"with_counterexample": False}),
            ("verify", {"with_counterexample": True}, {"with_counterexample": True}),
            (
                "counterexample",
                {"minimize": True},
                {"with_counterexample": True, "minimize": True},
            ),
            (
                "counterexample",
                {"minimize": False},
                {"with_counterexample": True, "minimize": False},
            ),
        ],
        ids=["verify", "verify-witness", "cex-minimized", "cex-raw"],
    )
    def test_verify_miss_then_hit(self, client, server, slot, operation, fields, direct):
        handle = _primed(client, slot)
        before = dict(server.stats)
        miss = client.request(operation, config=handle, **fields)
        assert _memo_delta(server, before) == (0, 1)
        hit = client.request(operation, config=handle, **fields)
        assert _memo_delta(server, before) == (1, 1)
        assert hit["tier"] == "memory"
        expected = _direct(slot, **direct)
        assert _untimed_result(miss) == expected
        assert _untimed_result(hit) == expected

    def test_check_miss_then_hit(self, client, server, slot):
        handle = _primed(client, slot)
        before = dict(server.stats)
        miss = client.request("check", config=handle, specs=SPECS)
        hit = client.request("check", config=handle, specs=SPECS)
        assert _memo_delta(server, before) == (1, 1)
        assert server.stats["spec_checks"] - before["spec_checks"] == 2
        expected = _direct_verdicts(slot, SPECS)
        assert _untimed_verdicts(miss) == expected
        assert _untimed_verdicts(hit) == expected
        assert hit["feasible"] == miss["feasible"]

    def test_check_order_is_part_of_the_key(self, client, server, slot):
        handle = _primed(client, slot)
        client.request("check", config=handle, specs=SPECS)
        reordered = list(reversed(SPECS))
        before = dict(server.stats)
        response = client.request("check", config=handle, specs=reordered)
        assert _memo_delta(server, before) == (0, 1)
        assert [verdict["name"] for verdict in response["verdicts"]] == reordered

    def test_dict_specs_are_not_memoized(self, client, server, slot):
        handle = _primed(client, slot)
        specs = [{"name": "no-miss", "source": "always not missed"}]
        before = dict(server.stats)
        first = client.request("check", config=handle, specs=specs)
        second = client.request("check", config=handle, specs=specs)
        assert _memo_delta(server, before) == (0, 0)
        assert _untimed_verdicts(first) == _untimed_verdicts(second)


class TestTruncatingCaps:
    """A smaller cap truncates a warm replay, so every cap is its own key."""

    @pytest.mark.parametrize("cap", [1, 2, 5, 9])
    def test_full_answer_first_then_cap(self, client, slot, cap):
        handle = _primed(client, slot)
        full = [
            client.request("verify", config=handle, with_counterexample=True)
            for _ in range(2)
        ]
        capped = [
            client.request(
                "verify", config=handle, with_counterexample=True, max_states=cap
            )
            for _ in range(2)
        ]
        expected = _direct(slot, max_states=cap, with_counterexample=True)
        assert expected["truncated"]
        assert [_untimed_result(response) for response in capped] == [expected] * 2
        assert all(not response["result"]["truncated"] for response in full)

    @pytest.mark.parametrize("cap", [1, 2, 5, 9])
    def test_cap_first_then_full_answer(self, client, slot, cap):
        handle = _primed(client, slot)
        for _ in range(2):
            client.request(
                "counterexample", config=handle, max_states=cap, minimize=False
            )
        full = [
            client.request("counterexample", config=handle, minimize=False)
            for _ in range(2)
        ]
        expected = _direct(slot, with_counterexample=True)
        assert not expected["truncated"]
        assert [_untimed_result(response) for response in full] == [expected] * 2


class TestMemoDiesWithItsGraph:
    def test_clear_packed_caches_and_store_reload_miss(self, client, server, slot):
        handle = _primed(client, slot)
        for _ in range(2):
            client.request("counterexample", config=handle)
            client.request("check", config=handle, specs=SPECS)
        clear_packed_caches()
        before = dict(server.stats)
        cex = client.request("counterexample", config=handle)
        assert cex["tier"] == "store"
        check = client.request("check", config=handle, specs=SPECS)
        assert _memo_delta(server, before) == (0, 2)
        assert _untimed_result(cex) == _direct(
            slot, with_counterexample=True, minimize=True
        )
        assert _untimed_verdicts(check) == _direct_verdicts(slot, SPECS)

    def test_replaced_graph_on_the_same_system_misses(self, client, server, slot):
        handle = _primed(client, slot)
        for _ in range(2):
            client.request("counterexample", config=handle)
        config = SlotSystemConfig.from_profiles(slot, instance_budgets(slot))
        system = packed_system_for(config)
        old_graph = system.compiled_graph
        # A store reload installs a new, equal graph on the same system.
        system.clear_memo()
        assert server.store.load(system)
        assert system.compiled_graph is not old_graph
        before = dict(server.stats)
        response = client.request("counterexample", config=handle)
        assert response["tier"] == "memory"
        assert server._warm[handle].graph is system.compiled_graph
        assert _memo_delta(server, before) == (0, 1)
        assert _untimed_result(response) == _direct(
            slot, with_counterexample=True, minimize=True
        )

    def test_memo_never_keeps_an_evicted_system(self, tmp_path):
        service = VerificationService(
            str(tmp_path / "unused.sock"), store_dir=str(tmp_path / "store")
        )

        def synthetic(index):
            return SwitchingProfile.from_arrays(
                name=f"S{index}",
                requirement_samples=3,
                min_inter_arrival=4 + index % 5,
                min_dwell=[1],
                max_dwell=[1 + index % 3],
            )

        async def drive():
            for index in range(40):
                profiles = [synthetic(index), synthetic(index + 100)]
                budget = instance_budgets(profiles)
                verify_slot_sharing(profiles, instance_budget=budget, engine="kernel")
                request = {"op": "counterexample", **_full(profiles)}
                for _ in range(2):
                    response = await service._dispatch(request)
                    assert response["tier"] == "memory"
                assert all(
                    is_shared_system(entry.system) for entry in service._warm.values()
                )
                assert all(entry.current() for entry in service._warm.values())

        asyncio.run(drive())
        assert len(service._warm) <= service._WARM_MAP_SIZE
        assert service.stats["answer_hits"] == service.stats["answer_misses"] == 40

    def test_answer_memo_is_bounded(self, client, server, small_profile):
        handle = _primed(client, [small_profile])
        for cap in range(1, 2 * server._ANSWER_MEMO_SIZE + 1):
            client.request("verify", config=handle, max_states=cap)
        assert len(server._warm[handle].answers) == server._ANSWER_MEMO_SIZE


class TestHitElapsedIsLookupTime:
    def test_hit_stamps_its_own_lookup_time(self, client, server, slot, monkeypatch):
        handle = _primed(client, slot)
        miss_cex = client.request("counterexample", config=handle)
        miss_check = client.request("check", config=handle, specs=SPECS)
        # Every server clock read on the memo path advances by 7 s, so a
        # hit's elapsed_seconds is exactly one lookup's clock difference.
        ticks = itertools.count(0.0, 7.0)
        clock = types.SimpleNamespace(
            perf_counter=lambda: next(ticks), monotonic=time.monotonic
        )
        monkeypatch.setattr(server_module, "time", clock)
        hit_cex = client.request("counterexample", config=handle)
        hit_check = client.request("check", config=handle, specs=SPECS)
        monkeypatch.undo()
        assert hit_cex["result"]["elapsed_seconds"] == 7.0
        assert [verdict["elapsed_seconds"] for verdict in hit_check["verdicts"]] == [
            7.0
        ] * len(SPECS)
        assert miss_cex["result"]["elapsed_seconds"] != 7.0
        assert _untimed_result(hit_cex) == _untimed_result(miss_cex)
        assert _untimed_verdicts(hit_check) == _untimed_verdicts(miss_check)


def test_third_warm_query_does_no_verification_work(server, monkeypatch):
    """By the third warm ``counterexample`` and ``check`` of a slot, the
    answer is a lookup: no verifier, no witness replay, no spec evaluation."""
    profiles = paper_profiles()
    slot = [profiles[name] for name in ("C1", "C5", "C4", "C6")]  # infeasible
    specs = [spec.text for spec in standard_spec_bundle(slot)]
    calls = {"verifier": 0, "replay": 0, "evaluate_spec": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ExhaustiveVerifier,
        "__init__",
        counting("verifier", ExhaustiveVerifier.__init__),
    )
    replay = counting("replay", result.replay_counterexample)
    for module in (result, exhaustive, spec_eval):
        monkeypatch.setattr(module, "replay_counterexample", replay)
    monkeypatch.setattr(
        spec_eval, "evaluate_spec", counting("evaluate_spec", spec_eval.evaluate_spec)
    )
    with ServiceClient(server.socket_path, retries=0) as client:
        for _ in range(2):
            witness = client.counterexample(slot)
            verdicts = client.check(slot, specs)
        # The instruments see the work of the first two rounds.
        assert all(count > 0 for count in calls.values()), calls
        calls.update(dict.fromkeys(calls, 0))
        before = dict(server.stats)
        third_witness = client.counterexample(slot)
        third_verdicts = client.check(slot, specs)
    assert calls == {"verifier": 0, "replay": 0, "evaluate_spec": 0}
    assert _memo_delta(server, before) == (2, 0)
    assert server.stats["handle_hits"] - before["handle_hits"] == 2
    assert not third_witness.feasible and third_witness.counterexample
    assert third_witness.counterexample == witness.counterexample
    assert [verdict.holds for verdict in third_verdicts] == [
        verdict.holds for verdict in verdicts
    ]
