"""Shared fixture of the service tests: a real server on a private socket."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.service import ServiceClient, VerificationService


@pytest.fixture()
def server(tmp_path):
    """A real server on a tempdir socket with a private graph store."""
    socket_path = str(tmp_path / "repro.sock")
    service = VerificationService(
        socket_path, store_dir=str(tmp_path / "store"), workers=1
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    for _ in range(500):
        if os.path.exists(socket_path):
            break
        time.sleep(0.01)
    else:
        raise RuntimeError("service socket never appeared")
    yield service
    try:
        with ServiceClient(socket_path, timeout=10.0) as client:
            client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()
