"""The configuration fingerprint is computed once per packed system.

``PackedSlotSystem.fingerprint`` memoizes
:func:`~repro.verification.kernel.config_fingerprint`; the graph store,
the spec-verdict cache and the service's warm path read the memo, so a
warm ``check`` of a whole spec bundle hashes nothing.
"""

from __future__ import annotations

import pytest

from repro.casestudy import paper_profiles
from repro.scheduler.packed import PackedSlotSystem, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.service import ServiceClient
from repro.verification import kernel, standard_spec_bundle
from repro.verification.acceleration import instance_budgets

HOT_SLOTS = [
    ("C1", "C5", "C4", "C3"),
    ("C6", "C2"),
    ("C1", "C5", "C4", "C6"),
    ("C1", "C5", "C4", "C2"),
    ("C1", "C5"),
    ("C1", "C5", "C4"),
]


def _slot(names):
    profiles = paper_profiles()
    return [profiles[name] for name in names]


@pytest.mark.parametrize("names", HOT_SLOTS, ids=",".join)
def test_memo_equals_config_fingerprint(names):
    slot = _slot(names)
    config = SlotSystemConfig.from_profiles(slot, instance_budgets(slot))
    system = PackedSlotSystem(config)
    assert system.fingerprint == kernel.config_fingerprint(config)


def test_memo_equals_config_fingerprint_without_budget():
    config = SlotSystemConfig.from_profiles(_slot(HOT_SLOTS[0]))
    system = packed_system_for(config)
    assert system.fingerprint == kernel.config_fingerprint(config)
    assert system.fingerprint is system.fingerprint  # computed once


def test_warm_check_of_spec_bundle_hashes_nothing(server, monkeypatch):
    from repro.service import server as server_module

    slot = _slot(HOT_SLOTS[0])
    specs = [spec.text for spec in standard_spec_bundle(slot)]
    assert len(specs) == 14
    with ServiceClient(server.socket_path, retries=0) as client:
        primed = client.check(slot, specs)  # cold compile, then store load
        client.check(slot, specs)  # warm, by handle

        calls = []
        original = kernel.config_fingerprint

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(kernel, "config_fingerprint", counting)
        monkeypatch.setattr(server_module, "config_fingerprint", counting)
        before = dict(server.stats)
        verdicts = client.check(slot, specs)
        after = dict(server.stats)
    assert [verdict.holds for verdict in verdicts] == [
        verdict.holds for verdict in primed
    ]
    assert after["handle_hits"] == before["handle_hits"] + 1
    assert calls == []
