"""Live-server tests: a real :class:`VerificationService` on a Unix socket.

Covers the acceptance criteria of the service PR: server results are
byte-identical to direct :func:`verify_slot_sharing` calls on the same
configurations, and N concurrent cold requests for one fingerprint
single-flight onto exactly one compile.
"""

from __future__ import annotations

import pytest

from repro.dimensioning.first_fit import FirstFitDimensioner, dimension_with_verification
from repro.exceptions import ServiceError
from repro.service import ServiceClient
from repro.service.protocol import profiles_to_wire, result_to_wire
from repro.verification import verify_slot_sharing
from repro.verification.acceleration import instance_budgets


@pytest.fixture()
def client(server):
    with ServiceClient(server.socket_path) as connected:
        yield connected


def _comparable(result):
    """Wire form minus the only timing-dependent field."""
    wire = result_to_wire(result, with_counterexample=True)
    wire.pop("elapsed_seconds")
    return wire


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping()

    def test_stats_shape(self, client):
        response = client.stats()
        assert response["stats"]["requests"] >= 1
        for counter in ("handle_hits", "handle_misses", "full_config_requests"):
            assert response["stats"][counter] == 0
        assert response["uptime_seconds"] >= 0
        assert response["store"]["entries"] == 0

    def test_unknown_op_reports_error_and_keeps_connection(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.request("frobnicate")
        assert client.ping()  # same connection still serves

    def test_bad_profiles_report_error_and_keep_connection(self, client):
        with pytest.raises(ServiceError, match="non-empty"):
            client.request("verify", profiles=[])
        assert client.ping()


class TestVerifyMatchesDirectCalls:
    def test_feasible_pair_identical_to_direct(
        self, client, tmp_path, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        served = client.verify(profiles, with_counterexample=True)
        # The server derives the paper's instance budgets by default
        # (use_acceleration=true); the direct call must run the same config.
        direct = verify_slot_sharing(
            profiles,
            instance_budget=instance_budgets(profiles),
            with_counterexample=True,
            graph_dir=str(tmp_path / "direct"),
        )
        assert served.feasible
        assert _comparable(served) == _comparable(direct)

    def test_infeasible_trio_identical_to_direct(
        self, client, tmp_path, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        served = client.verify(profiles, with_counterexample=True)
        direct = verify_slot_sharing(
            profiles,
            instance_budget=instance_budgets(profiles),
            with_counterexample=True,
            graph_dir=str(tmp_path / "direct"),
        )
        assert not served.feasible and served.counterexample
        assert _comparable(served) == _comparable(direct)

    def test_tiers_progress_cold_to_warm(
        self, client, server, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        first = client.request(
            "verify", profiles=profiles_to_wire(profiles), use_acceleration=True
        )
        again = client.request(
            "verify", profiles=profiles_to_wire(profiles), use_acceleration=True
        )
        assert first["tier"] == "cold"
        assert again["tier"] in ("memory", "store")
        assert first["result"]["feasible"] == again["result"]["feasible"]
        assert server.stats["compiles"] == 1
        # The cold compile published to the shared store.
        assert server.store.describe()["entries"] == 1

    def test_counterexample_op_returns_minimized_witness(
        self, client, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        result = client.counterexample(profiles)
        assert not result.feasible
        assert result.counterexample
        direct = verify_slot_sharing(
            profiles,
            instance_budget=instance_budgets(profiles),
            with_counterexample=True,
        ).minimize()
        assert result.counterexample == direct.counterexample

    def test_admit(self, client, small_profile, second_small_profile, tight_profile):
        assert client.admit([small_profile, second_small_profile])
        assert not client.admit(
            [small_profile, second_small_profile, tight_profile]
        )


class TestSingleFlight:
    def test_concurrent_cold_requests_compile_once(
        self, client, server, small_profile, second_small_profile
    ):
        wire_profiles = profiles_to_wire([small_profile, second_small_profile])
        fan_out = 6
        responses = client.batch(
            [
                {"op": "admit", "profiles": wire_profiles, "use_acceleration": True}
                for _ in range(fan_out)
            ]
        )
        assert len(responses) == fan_out
        assert all(response["ok"] for response in responses)
        assert len({response["admitted"] for response in responses}) == 1
        assert server.stats["compiles"] == 1
        assert server.stats["coalesced"] == fan_out - 1

    def test_distinct_configs_do_not_coalesce(
        self, client, server, small_profile, second_small_profile
    ):
        responses = client.batch(
            [
                {"op": "admit", "profiles": profiles_to_wire([small_profile])},
                {"op": "admit", "profiles": profiles_to_wire([second_small_profile])},
            ]
        )
        assert all(response["ok"] for response in responses)
        assert server.stats["compiles"] == 2
        assert server.stats["coalesced"] == 0


class TestDimensioningOverTheService:
    def test_first_fit_op_matches_local_dimensioning(
        self, client, tmp_path, small_profile, second_small_profile, tight_profile
    ):
        profiles = {
            profile.name: profile
            for profile in (small_profile, second_small_profile, tight_profile)
        }
        served = client.first_fit(list(profiles.values()))
        local = dimension_with_verification(
            profiles, graph_dir=str(tmp_path / "direct")
        )
        assert served["partition"] == [list(names) for names in local.partition()]
        assert served["slot_count"] == local.slot_count
        assert served["order"] == list(local.order)
        assert served["verifications"] == local.verifications

    def test_admission_test_drives_the_first_fit_dimensioner(
        self, client, tmp_path, small_profile, second_small_profile, tight_profile
    ):
        profiles = {
            profile.name: profile
            for profile in (small_profile, second_small_profile, tight_profile)
        }
        remote = FirstFitDimensioner(
            profiles, admission_test=client.admission_test()
        ).dimension()
        local = dimension_with_verification(
            profiles, graph_dir=str(tmp_path / "direct")
        )
        assert remote.partition() == local.partition()
        assert remote.slot_count == local.slot_count


class TestBatchOp:
    def test_mixed_batch_preserves_order_and_isolates_failures(
        self, client, small_profile
    ):
        responses = client.batch(
            [
                {"op": "ping"},
                {"op": "frobnicate"},
                {"op": "admit", "profiles": profiles_to_wire([small_profile])},
            ]
        )
        assert responses[0]["ok"] and responses[0]["pong"]
        assert not responses[1]["ok"] and "unknown op" in responses[1]["error"]
        assert responses[2]["ok"] and "admitted" in responses[2]
        assert client.ping()

    def test_nested_batch_rejected(self, client):
        with pytest.raises(ServiceError, match="nest"):
            client.batch([{"op": "batch", "requests": []}])


class TestCheckOp:
    SPECS = [
        "always not missed",
        "reachable occupant(B)",
        "always (waiting(A) implies eventually <= 5 holding(A))",
    ]

    def test_check_matches_direct_evaluation(
        self, client, small_profile, second_small_profile
    ):
        from repro.scheduler.packed import packed_system_for
        from repro.scheduler.slot_system import SlotSystemConfig
        from repro.verification import evaluate_specs, specs_from_wire

        profiles = [small_profile, second_small_profile]
        served = client.check(profiles, self.SPECS)

        budget = instance_budgets(profiles)
        verify_slot_sharing(profiles, instance_budget=budget, engine="kernel")
        config = SlotSystemConfig.from_profiles(profiles, budget)
        graph = packed_system_for(config).compiled_graph
        direct = evaluate_specs(graph, specs_from_wire(self.SPECS))
        assert [v.holds for v in served] == [v.holds for v in direct]
        assert [v.witness for v in served] == [v.witness for v in direct]

    def test_check_warms_up_and_counts(
        self, client, server, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        client.check(profiles, self.SPECS)  # cold: one compile
        before = dict(server.stats)
        client.check(profiles, "eventually not steady(A)")  # warm replay
        after = dict(server.stats)
        assert after["compiles"] == before["compiles"]  # no second compile
        assert after["spec_checks"] == before["spec_checks"] + 1

    def test_invalid_spec_is_structured_and_final(
        self, client, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        for bad in ("always frobnicate", "always occupant(ZZZ)",
                    "always eventually <= 3 idle"):
            with pytest.raises(ServiceError) as caught:
                client.check(profiles, bad)
            assert caught.value.code == "invalid-spec"
            assert not caught.value.retryable
        assert client.ping()  # connection survives every failure

    def test_missing_specs_field_rejected(self, client, small_profile):
        with pytest.raises(ServiceError, match="'specs' is required"):
            client.request(
                "check", profiles=profiles_to_wire([small_profile])
            )

    def test_truncated_exploration_is_structured(self, client, small_profile):
        with pytest.raises(ServiceError) as caught:
            client.check([small_profile], "always not missed", max_states=2)
        assert caught.value.code == "exploration-truncated"
        assert not caught.value.retryable


class TestErrorShapes:
    def test_unknown_op_carries_code_and_retryable(self, client):
        with pytest.raises(ServiceError) as caught:
            client.request("frobnicate")
        assert caught.value.code == "invalid-request"
        assert not caught.value.retryable

    def test_oversized_line_carries_code_and_retryable(self, server):
        import json
        import socket

        from repro.service.protocol import MAX_LINE_BYTES

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30.0)
            raw.connect(server.socket_path)
            try:
                raw.sendall(b"x" * (MAX_LINE_BYTES + 16) + b"\n")
            except (BrokenPipeError, ConnectionResetError):
                # The server may respond and close the connection before the
                # tail of the oversized payload is flushed; the response is
                # already in our receive queue, so keep going and read it.
                pass
            reader = raw.makefile("rb")
            response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["code"] == "invalid-request"
        assert response["retryable"] is False
