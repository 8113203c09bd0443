"""Config handles: send a slot configuration once, then query it by handle.

Covers the handle protocol end to end against a live server: answers are
identical whether a request names its configuration by handle or carries
it in full, an evicted graph recompiles cold from the handle's stored
profiles, an unknown handle costs a ``retries=0`` client nothing, batch
sub-requests may carry handles, the server's tables stay bounded, and the
per-tier hit counters keep their meaning.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import ServiceError
from repro.scheduler.packed import clear_packed_caches, is_shared_system
from repro.scheduler.slot_system import SlotSystemConfig
from repro.service import ServiceClient, VerificationService
from repro.service.protocol import profiles_to_wire, result_to_wire
from repro.switching.profile import SwitchingProfile
from repro.verification import verify_slot_sharing
from repro.verification.acceleration import instance_budgets
from repro.verification.spec import specs_from_wire
from repro.verification.spec_eval import evaluate_specs

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


def _untimed(response):
    """A response minus its wall-clock fields and its tier."""
    response = dict(response)
    for key in ("id", "tier"):
        response.pop(key, None)
    if "result" in response:
        response["result"] = dict(response["result"], elapsed_seconds=0.0)
    if "verdicts" in response:
        response["verdicts"] = [
            dict(verdict, elapsed_seconds=0.0) for verdict in response["verdicts"]
        ]
    return response


def _direct(profiles, **kwargs):
    """Wire form of the direct library call (wall clock zeroed), computed
    from a cold cache so it shares no graph with the in-process server."""
    clear_packed_caches()
    result = verify_slot_sharing(
        profiles, instance_budget=instance_budgets(profiles), **kwargs
    )
    return dict(result_to_wire(result, True), elapsed_seconds=0.0)


def _empty_store(server):
    for fingerprint in server.store.fingerprints():
        os.remove(server.store.entry_path(fingerprint))


class TestHandleAnswersMatchFullConfig:
    OPS = [
        ("admit", {}),
        ("verify", {"with_counterexample": True}),
        ("counterexample", {}),
        ("check", {"specs": SPECS}),
    ]

    def test_every_op_answers_identically_by_handle(self, client, slot):
        primed = client.request("verify", **_full(slot))
        handle = primed["config"]
        assert isinstance(handle, str) and len(handle) == 64
        for operation, fields in self.OPS:
            full = client.request(operation, **_full(slot), **fields)
            by_handle = client.request(operation, config=handle, **fields)
            assert full["config"] == by_handle["config"] == handle
            assert by_handle["tier"] == "memory"
            assert _untimed(by_handle) == _untimed(full), operation

    def test_handle_answers_match_direct_calls(self, client, slot):
        handle = client.request("verify", **_full(slot))["config"]
        verify = client.request("verify", config=handle, with_counterexample=True)
        assert _untimed(verify)["result"] == _direct(slot, with_counterexample=True)
        cex = client.request("counterexample", config=handle)
        assert _untimed(cex)["result"] == _direct(
            slot, with_counterexample=True, minimize=True
        )
        admit = client.request("admit", config=handle)
        direct = _direct(slot, with_counterexample=False)
        assert (admit["admitted"], admit["truncated"]) == (
            direct["feasible"],
            direct["truncated"],
        )

    def test_client_sends_handles_after_the_first_call(self, client, server, slot):
        first = client.verify(slot, with_counterexample=True)
        before = dict(server.stats)
        second = client.verify(slot, with_counterexample=True)
        assert client.admit(slot) == first.feasible
        client.check(slot, SPECS)
        after = dict(server.stats)
        assert after["handle_hits"] - before["handle_hits"] == 3
        assert after["full_config_requests"] == before["full_config_requests"]
        assert result_to_wire(second) | {"elapsed_seconds": 0} == (
            result_to_wire(first) | {"elapsed_seconds": 0}
        )

    @pytest.mark.parametrize("cap", [1, 2, 5, 9])
    def test_warm_admit_honours_max_states_truncation(self, client, slot, cap):
        handle = client.request("verify", **_full(slot))["config"]
        response = client.request("admit", config=handle, max_states=cap)
        assert response["tier"] in ("memory", "store")  # a warm replay
        direct = _direct(slot, max_states=cap, with_counterexample=False)
        assert response["truncated"] == direct["truncated"]
        assert response["admitted"] == direct["feasible"]

    def test_truncating_cap_is_reported(self, client, small_profile, second_small_profile):
        profiles = [small_profile, second_small_profile]
        handle = client.request("verify", **_full(profiles))["config"]
        response = client.request("admit", config=handle, max_states=2)
        assert response["truncated"] and response["admitted"]


class TestColdCompileThroughHandle:
    """A handle whose graph left memory and store compiles from the
    profiles stored with the handle, not from the (absent) request ones."""

    @pytest.mark.parametrize("operation", ["admit", "verify", "check"])
    def test_evicted_graph_recompiles_cold_from_handle(
        self, client, server, slot, operation
    ):
        handle = client.request("verify", **_full(slot))["config"]
        compiles = server.stats["compiles"]
        clear_packed_caches()
        _empty_store(server)
        fields = {"specs": SPECS} if operation == "check" else {}
        if operation == "verify":
            fields["with_counterexample"] = True
        response = client.request(operation, config=handle, **fields)
        assert response["tier"] == "cold"
        assert server.stats["compiles"] == compiles + 1
        clear_packed_caches()
        if operation == "admit":
            direct = _direct(slot, with_counterexample=False)
            assert response["admitted"] == direct["feasible"]
            assert response["truncated"] == direct["truncated"]
        elif operation == "verify":
            assert _untimed(response)["result"] == _direct(
                slot, with_counterexample=True
            )
        else:
            budget = instance_budgets(slot)
            verify_slot_sharing(slot, instance_budget=budget, engine="kernel")
            from repro.scheduler.packed import packed_system_for

            graph = packed_system_for(
                SlotSystemConfig.from_profiles(slot, budget)
            ).compiled_graph
            direct = [
                dict(verdict.to_dict(), elapsed_seconds=0.0)
                for verdict in evaluate_specs(graph, specs_from_wire(SPECS))
            ]
            assert _untimed(response)["verdicts"] == direct


class TestUnknownHandles:
    def test_unknown_handle_is_structured(self, client):
        with pytest.raises(ServiceError) as caught:
            client.request("admit", config="0" * 64)
        assert caught.value.code == "unknown-config"
        assert not caught.value.retryable
        assert client.ping()

    def test_retries0_client_survives_a_forgotten_handle(
        self, client, server, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        assert client.admit(profiles)
        assert client.admit(profiles)  # by handle
        # What a server restart does to the handle table while this
        # connection stays up: every handle it issued is gone.
        server._configs.clear()
        server._parse_cache.clear()
        before = dict(server.stats)
        assert client.admit(profiles)  # unknown handle -> one full resend
        assert client.admit(profiles)  # the fresh handle works again
        after = dict(server.stats)
        assert after["handle_misses"] - before["handle_misses"] == 1
        assert after["full_config_requests"] - before["full_config_requests"] == 1
        assert after["handle_hits"] - before["handle_hits"] == 1
        assert after["errors"] - before["errors"] == 1  # the miss itself

    def test_evicted_handle_resends_transparently(
        self, client, server, small_profile, second_small_profile, tight_profile
    ):
        server._PARSE_CACHE_SIZE = 1
        first = [small_profile, second_small_profile]
        second = [small_profile, tight_profile]
        assert client.admit(first)
        client.admit(second)  # evicts the first config's handle
        before = dict(server.stats)
        assert client.admit(first)
        after = dict(server.stats)
        assert after["handle_misses"] - before["handle_misses"] == 1
        assert after["full_config_requests"] - before["full_config_requests"] == 1

    def test_close_drops_handles(self, server, small_profile):
        with ServiceClient(server.socket_path) as client:
            client.admit([small_profile])
            assert client._handles
            client.close()
            assert not client._handles
            before = dict(server.stats)
            client.admit([small_profile])  # reconnects, sends the full config
            after = dict(server.stats)
        assert after["full_config_requests"] - before["full_config_requests"] == 1
        assert after["handle_misses"] == before["handle_misses"]


class TestBatchWithHandles:
    def test_batch_sub_requests_may_carry_handles(
        self, client, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        handle = client.request("verify", **_full(profiles))["config"]
        responses = client.batch(
            [
                {"op": "admit", "config": handle},
                {"op": "check", "config": handle, "specs": SPECS},
                {"op": "admit", "config": "f" * 64},
                {"op": "admit", **_full(profiles)},
            ]
        )
        assert responses[0]["ok"] and responses[0]["admitted"]
        assert responses[0]["config"] == handle
        assert responses[1]["ok"] and len(responses[1]["verdicts"]) == len(SPECS)
        assert not responses[2]["ok"] and responses[2]["code"] == "unknown-config"
        assert responses[3]["ok"] and responses[3]["config"] == handle


class TestStatsByTier:
    def test_hits_count_by_tier_as_before(
        self, client, server, small_profile, second_small_profile, tight_profile
    ):
        configs = [
            [small_profile],
            [second_small_profile],
            [tight_profile],
            [small_profile, second_small_profile],
            [small_profile, tight_profile],
            [second_small_profile, tight_profile],
            [small_profile, second_small_profile, tight_profile],
        ]
        for profiles in configs:  # cold: compiled in the pool
            client.verify(profiles)
        # The pool published every graph, the server holds none in memory:
        # the re-queries (by handle) load each one from the store.
        for profiles in configs:
            client.verify(profiles)
        stats = dict(server.stats)
        assert stats["compiles"] == len(configs)
        assert stats["store_hits"] == len(configs)
        assert stats["memory_hits"] == 0
        assert stats["full_config_requests"] == len(configs)
        assert stats["handle_hits"] == len(configs)
        for profiles in configs:  # now warm in memory
            client.admit(profiles)
        assert server.stats["memory_hits"] == len(configs)
        assert server.stats["store_hits"] == len(configs)


def _synthetic(index: int) -> SwitchingProfile:
    return SwitchingProfile.from_arrays(
        name=f"S{index}",
        requirement_samples=3,
        min_inter_arrival=4 + index % 5,
        min_dwell=[1],
        max_dwell=[1 + index % 3],
    )


class TestTablesStayBounded:
    COUNT = 300

    @pytest.fixture()
    def service(self, tmp_path):
        return VerificationService(
            str(tmp_path / "unused.sock"), store_dir=str(tmp_path / "store")
        )

    def test_handle_table_and_payload_lru(self, service):
        fingerprints = set()
        for index in range(self.COUNT):
            profiles = [_synthetic(index)]
            fingerprint, entry = service._resolve_config(
                {"profiles": profiles_to_wire(profiles), "use_acceleration": False}
            )
            fingerprints.add(fingerprint)
            assert service._resolve_config({"config": fingerprint})[1] is entry
        assert len(fingerprints) == self.COUNT
        assert len(service._configs) == service._PARSE_CACHE_SIZE
        assert len(service._parse_cache) == service._PARSE_CACHE_SIZE

    def test_spec_memo(self, service):
        for index in range(self.COUNT):
            specs = service._parse_specs(
                {
                    "specs": [
                        "always not missed",
                        f"always (waiting(A) implies eventually <= {index + 1} "
                        "holding(A))",
                    ]
                }
            )
            assert len(specs) == 2
        assert len(service._specs) == service._PARSE_CACHE_SIZE

    def test_warm_map(self, service):
        for index in range(self.COUNT):
            profiles = [_synthetic(index)]
            fingerprint, (_, _, budget, config) = service._resolve_config(
                {"profiles": profiles_to_wire(profiles), "use_acceleration": False}
            )
            verify_slot_sharing(profiles, instance_budget=budget, engine="kernel")
            tier, entry = service._warm_lookup(fingerprint, config)
            assert tier == "memory" and entry.system.fingerprint == fingerprint
        assert len(service._warm) <= service._WARM_MAP_SIZE
        assert all(is_shared_system(entry.system) for entry in service._warm.values())
