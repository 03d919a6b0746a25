"""One LIST per recovery: the plan, the cleanup and the resynced view.

``Ginja.recover`` plans its restore from one bucket index and cleans
the bucket from the same index, so a clean bucket costs one LIST, and
a dirty one a LIST, one batch DELETE and the LIST that reads it back.
A failover coordinator adds nothing to that: its audit counts are the
recovery's own.
"""

from __future__ import annotations

import pytest

from repro.common.clock import ManualClock
from repro.common.units import KiB
from repro.cloud.memory import InMemoryObjectStore
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.failover import FailoverCoordinator, FailureDetector, HeartbeatWriter
from repro.fsck import audit
from repro.storage.memory import MemoryFileSystem

ENGINE = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
CONFIG = GinjaConfig(batch=5, safety=50, batch_timeout=0.02,
                     safety_timeout=5.0)


class CountingStore(InMemoryObjectStore):
    """Records every LIST and batch-DELETE request that reaches it."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[str] = []

    def list(self, prefix: str = ""):
        self.requests.append("LIST")
        return super().list(prefix)

    def _delete_request(self, keys: list[str]) -> None:
        self.requests.append("DELETE")
        super()._delete_request(keys)


def protected_bucket(*, gap: bool) -> CountingStore:
    """A drained, stopped primary's bucket (plus a heartbeat); with
    ``gap`` a mid-run WAL object is lost, stranding the ones beyond it.
    The request record starts empty."""
    store = CountingStore()
    disk = MemoryFileSystem()
    MiniDB.create(disk, POSTGRES_PROFILE, ENGINE).close()
    ginja = Ginja(disk, store, POSTGRES_PROFILE, CONFIG)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, ENGINE)
    for i in range(25):
        db.put("t", f"k{i}", b"v")
    assert ginja.drain(timeout=10.0)
    HeartbeatWriter(store).beat_once()
    ginja.stop()
    if gap:
        wal = sorted(info.key for info in store.list("WAL/"))
        assert len(wal) >= 3
        store.delete(wal[len(wal) // 2])
    assert audit(store, retention=CONFIG.retention).ok is not gap
    store.requests.clear()
    return store


@pytest.mark.parametrize("gap, expected", [
    (False, ["LIST"]),
    (True, ["LIST", "DELETE", "LIST"]),
])
def test_recover_lists_the_bucket_once(gap, expected):
    store = protected_bucket(gap=gap)
    ginja, report = Ginja.recover(
        store, MemoryFileSystem(), POSTGRES_PROFILE, CONFIG
    )
    try:
        assert store.requests == expected
        assert report.cleanup.audit.ok is not gap
        assert bool(report.cleanup.deleted) is gap
        # The view resynced from the one index is the bucket's.
        assert audit(store, ginja.view, retention=CONFIG.retention).ok
        assert ginja.view.confirmed_ts() == report.last_applied_wal_ts
    finally:
        ginja.stop()


@pytest.mark.parametrize("gap, expected", [
    (False, ["LIST"]),
    (True, ["LIST", "DELETE", "LIST"]),
])
def test_failover_reuses_the_recovery_cleanup(gap, expected):
    store = protected_bucket(gap=gap)
    promoted: list[list[str]] = []
    coordinator = FailoverCoordinator(
        store, POSTGRES_PROFILE,
        ginja_config=CONFIG, engine_config=ENGINE,
        detector=FailureDetector(store, misses_allowed=2),
        poll_interval=0.01, clock=ManualClock(),
        on_promote=lambda _db, _ginja: promoted.append(list(store.requests)),
    )
    result = coordinator.run()
    try:
        assert result.failed_over, result.error
        assert promoted == [expected]
        assert (result.audit_violations > 0) is gap
        assert bool(result.repaired_keys) is gap
    finally:
        result.ginja.stop()
