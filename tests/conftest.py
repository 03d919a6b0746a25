"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.harness import running_pools
from repro.storage.memory import MemoryFileSystem

#: Every thread the middleware starts carries one of these prefixes.
_OUR_THREADS = ("ginja-", "fleet-")


@pytest.fixture(autouse=True)
def thread_leak_census():
    """Fail the test that leaves one of our threads alive.

    Autouse fixtures set up first and tear down last, so this runs
    after every other fixture of the test has stopped what it started;
    a straggler gets a 2 s grace join (daemon workers exit a beat after
    their ``stop()`` returns) before it counts as a leak.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    leaked = []
    for thread in threading.enumerate():
        if thread in before or not thread.name.startswith(_OUR_THREADS):
            continue
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    if leaked:
        pytest.fail(f"test leaked threads: {sorted(leaked)}", pytrace=False)


@pytest.fixture
def pools():
    """A started ``(EncodeStage, UploadReactor)`` pair for tests that
    drive a bare CommitPipeline or CheckpointUploader (both only borrow
    their pools; a Ginja or a fleet owns them in production)."""
    with running_pools() as pair:
        yield pair


@pytest.fixture
def fs() -> MemoryFileSystem:
    """A zero-latency RAM file system."""
    return MemoryFileSystem()


@pytest.fixture
def store() -> InMemoryObjectStore:
    """A raw in-memory bucket."""
    return InMemoryObjectStore()


@pytest.fixture
def cloud() -> SimulatedCloud:
    """A simulated cloud with no latency and no faults."""
    return SimulatedCloud(time_scale=0.0)
