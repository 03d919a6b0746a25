"""Checkpointer resilience: GC delete failures must not be fatal.

Regression test for a bug found during integration: a single transient
DELETE error killed the Checkpointer thread permanently, stalling all
future checkpoint replication while commits kept flowing — silent
divergence.  Deletes now retry and, on exhaustion, skip (an orphaned
object is storage waste, not a correctness problem) — as a unit: GC is
one batch DELETE request, retried and skipped whole, narrated per key."""

from __future__ import annotations

import pytest

from repro.common.errors import CloudError
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.transport import build_transport
from repro.core.checkpointer import CheckpointCollector, CheckpointUploader
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta
from repro.core.stats import GinjaStats
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


class DeleteAlwaysFails(InMemoryObjectStore):
    def _delete_request(self, keys):
        raise CloudError("delete endpoint is broken")


class DeleteFailsOnce(InMemoryObjectStore):
    def __init__(self):
        super().__init__()
        self.failures_left = 1

    def _delete_request(self, keys):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise CloudError("transient delete error")
        super()._delete_request(keys)


def run_checkpoint(reactor, store, config=None, wal_objects=1):
    config = config or GinjaConfig(max_retries=2, retry_backoff=0.001)
    fs = MemoryFileSystem()
    fs.write("base/t", 0, b"\x00" * 100)
    view = CloudView()
    bus = EventBus()
    stats = GinjaStats().attach(bus)
    # The transport's RetryLayer owns the fatal-vs-skippable policy the
    # uploader used to hand-roll.
    transport = build_transport(store, config, bus=bus)
    uploader = CheckpointUploader(config, transport, view, reactor, bus)
    uploader.start()  # attaches the lane; the reactor fixture stops the loop
    collector = CheckpointCollector(
        config, ObjectCodec(), view, fs, POSTGRES_PROFILE,
        uploader.enqueue, bus,
    )
    # Confirmed WAL objects that GC will try to delete.
    for ts in range(wal_objects):
        view.next_wal_ts()
        wal = WALObjectMeta(ts=ts, filename="seg", offset=ts * 512)
        store.put(wal.key, b"w")
        view.add_wal(wal)
    checkpoint(collector)
    drained = uploader.drain(timeout=10.0)
    if uploader.failed is not None:
        raise uploader.failed
    assert drained
    return store, view, stats, uploader, collector


def checkpoint(collector):
    collector.begin()
    collector.add_write("base/t", 0, b"x")
    collector.end()


class TestDeleteResilience:
    def test_permanent_delete_failure_is_skipped(self, reactor):
        store, view, stats, uploader, collector = run_checkpoint(
            reactor, DeleteAlwaysFails(), wal_objects=3
        )
        # The checkpoint itself was uploaded...
        assert len(store.list("DB/")) == 1
        # ...the doomed request was abandoned, not fatal — skipped as a
        # unit, one gc_delete ok=False per key it carried.
        assert stats.gc_delete_failures == 3
        assert stats.gc_deletes == 0
        assert uploader.failed is None
        # The view no longer tracks the orphans (recovery ignores them).
        assert view.wal_object_count() == 0
        assert len(store.list("WAL/")) == 3
        # And the uploader lives on: the next checkpoint still uploads.
        checkpoint(collector)
        assert uploader.drain(timeout=10.0)
        assert len(store.list("DB/")) == 2

    def test_transient_delete_failure_retried_to_success(self, reactor):
        store, _view, stats, uploader, _collector = run_checkpoint(
            reactor, DeleteFailsOnce(), wal_objects=3
        )
        assert stats.gc_delete_failures == 0
        assert stats.gc_deletes == 3
        assert store.list("WAL/") == []  # eventually deleted
        assert uploader.failed is None

    def test_put_failure_remains_fatal(self, reactor):
        class PutFails(InMemoryObjectStore):
            def put(self, key, data):
                if key.startswith("DB/"):
                    raise CloudError("upload broken")
                super().put(key, data)

        with pytest.raises(CloudError):
            run_checkpoint(reactor, PutFails())
