"""Ginja over a store that knows only the four single-object verbs.

The benchmark's bucket proxy is such a store: an ``ObjectStore``
subclass overriding ``put``, ``get``, ``list`` and ``delete`` and
nothing else.  Every derived verb then rides the interface's defaults:
a GC batch DELETE from the upload reactor runs on the reactor's
executor and reaches the store as one ``delete`` per key, and recovery
and fsck read it through the LIST-narrowed ``stat``.
"""

from __future__ import annotations

import threading

from repro.common.units import KiB
from repro.cloud.interface import ObjectStore
from repro.cloud.memory import InMemoryObjectStore
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.fsck import audit
from repro.storage.memory import MemoryFileSystem

ENGINE = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
CONFIG = GinjaConfig(batch=4, safety=40, batch_timeout=0.05,
                     safety_timeout=2.0, retry_backoff=0.01)


class FourVerbStore(ObjectStore):
    """PUT, GET, LIST and single-key DELETE; records each DELETE's
    key and the thread that issued it."""

    def __init__(self) -> None:
        self.inner = InMemoryObjectStore()
        self.deletes: list[tuple[str, str]] = []

    def put(self, key, data):
        self.inner.put(key, data)

    def get(self, key):
        return self.inner.get(key)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def delete(self, key):
        self.deletes.append((key, threading.current_thread().name))
        self.inner.delete_many([key])


def test_protect_checkpoint_recover_and_fsck():
    store = FourVerbStore()
    disk = MemoryFileSystem()
    MiniDB.create(disk, POSTGRES_PROFILE, ENGINE).close()
    ginja = Ginja(disk, store, POSTGRES_PROFILE, CONFIG)
    ginja.start(mode="boot")
    try:
        db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, ENGINE)
        for i in range(40):
            db.put("t", f"pre{i}", b"x" * 100)
        assert ginja.drain(timeout=10.0)
        wal_before = {info.key for info in store.list("WAL/")}
        db.checkpoint()
        for i in range(10):
            db.put("t", f"post{i}", b"y")
        assert ginja.drain(timeout=10.0)
        gc_deletes = ginja.stats.gc_deletes
    finally:
        ginja.stop()

    # The checkpoint's GC reached the store one key per delete(), each
    # on the reactor's executor, never on the loop or the caller.
    deleted = [key for key, _ in store.deletes]
    assert gc_deletes == len(deleted) > 0
    assert set(deleted) <= wal_before
    assert not {info.key for info in store.list("WAL/")} & set(deleted)
    assert all(name.startswith("ginja-reactor-io")
               for _, name in store.deletes)

    assert audit(store, retention=CONFIG.retention).ok
    target = MemoryFileSystem()
    recovered, report = Ginja.recover(store, target, POSTGRES_PROFILE, CONFIG)
    try:
        db = MiniDB.open(recovered.fs, POSTGRES_PROFILE, ENGINE)
        assert all(db.get("t", f"pre{i}") == b"x" * 100 for i in range(40))
        assert all(db.get("t", f"post{i}") == b"y" for i in range(10))
        assert report.cleanup.deleted == []
    finally:
        recovered.stop()
    assert audit(store, retention=CONFIG.retention).ok
