"""Algorithm 1: Boot, Reboot and file-level Recovery."""

from __future__ import annotations

import pytest

from repro.common.errors import RecoveryError
from repro.cloud.memory import InMemoryObjectStore
from repro.core.bootstrap import boot, reboot, recover_files
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    encode_checkpoint_payload,
    encode_dump_payload,
    encode_wal_payload,
)
from repro.core.ginja import Ginja
from repro.db.profiles import POSTGRES_PROFILE
from repro.fsck import audit
from repro.storage.memory import MemoryFileSystem


@pytest.fixture
def codec():
    return ObjectCodec()


@pytest.fixture
def local_db():
    """A small PostgreSQL-shaped local file tree."""
    fs = MemoryFileSystem()
    fs.write("pg_xlog/" + "0" * 23 + "0", 0, b"WAL-SEG-0" * 10)
    fs.write("pg_xlog/" + "0" * 23 + "1", 0, b"WAL-SEG-1" * 10)
    fs.write("base/orders", 0, b"table-pages" * 20)
    fs.write("pg_clog/0000", 0, b"\x01")
    fs.write("global/pg_control", 0, b"control-bytes")
    return fs


class TestBoot:
    def test_uploads_segments_then_dump(self, local_db, codec):
        store = InMemoryObjectStore()
        view = CloudView()
        boot(local_db, store, codec, view, POSTGRES_PROFILE, GinjaConfig())
        wal_keys = [i.key for i in store.list("WAL/")]
        db_keys = [i.key for i in store.list("DB/")]
        assert len(wal_keys) == 2  # one per segment
        assert len(db_keys) == 1
        assert DBObjectMeta.parse(db_keys[0]).is_dump
        # Boot WAL timestamps start at 1; the dump sits at ts 0 so that
        # recovery (which applies WAL > dump.ts) replays every segment.
        assert [WALObjectMeta.parse(k).ts for k in wal_keys] == [1, 2]
        assert view.confirmed_ts() == 2

    def test_boot_refuses_nonempty_bucket(self, local_db, codec):
        store = InMemoryObjectStore()
        store.put(WALObjectMeta(ts=0, filename="x", offset=0).key, b"old")
        with pytest.raises(RecoveryError):
            boot(local_db, store, codec, CloudView(), POSTGRES_PROFILE, GinjaConfig())

    def test_boot_splits_large_segments(self, codec):
        fs = MemoryFileSystem()
        fs.write("pg_xlog/" + "0" * 23 + "0", 0, b"z" * 300_000)
        fs.write("global/pg_control", 0, b"c")
        store = InMemoryObjectStore()
        config = GinjaConfig(max_object_bytes=100_000)
        boot(fs, store, codec, CloudView(), POSTGRES_PROFILE, config)
        wal_metas = [WALObjectMeta.parse(i.key) for i in store.list("WAL/")]
        assert len(wal_metas) == 3
        assert [m.offset for m in wal_metas] == [0, 100_000, 200_000]
        assert [m.ts for m in wal_metas] == [1, 2, 3]

    def test_boot_then_recovery_reproduces_files(self, local_db, codec):
        store = InMemoryObjectStore()
        boot(local_db, store, codec, CloudView(), POSTGRES_PROFILE, GinjaConfig())
        target = MemoryFileSystem()
        report = recover_files(store, codec, target)
        for path in local_db.files():
            assert target.read_all(path) == local_db.read_all(path)
        assert report.wal_objects_applied == 2
        assert report.files_restored == 3  # base/orders, pg_clog, pg_control


class TestReboot:
    def test_rebuilds_view_from_listing(self, local_db, codec):
        store = InMemoryObjectStore()
        boot_view = CloudView()
        boot(local_db, store, codec, boot_view, POSTGRES_PROFILE, GinjaConfig())
        fresh = CloudView()
        count = reboot(store, fresh)
        assert count == 3
        assert fresh.wal_object_count() == 2
        assert fresh.total_db_bytes() > 0
        assert fresh.confirmed_ts() == boot_view.confirmed_ts()
        assert fresh.next_wal_ts() == 3

    def test_reboot_empty_bucket(self):
        view = CloudView()
        assert reboot(InMemoryObjectStore(), view) == 0


class TestRecoverFiles:
    def _put(self, store, codec, meta, payload):
        store.put(meta.key, codec.encode(payload))

    def test_dump_plus_checkpoints_plus_wal(self, codec):
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"v0"), ("global/pg_control", b"c0")]))
        self._put(store, codec, DBObjectMeta(ts=3, type=CHECKPOINT, size=1),
                  encode_checkpoint_payload([("base/t", 0, b"v1")]))
        self._put(store, codec, WALObjectMeta(ts=4, filename="pg_xlog/seg", offset=0),
                  encode_wal_payload([(0, b"wal-bytes")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs)
        assert fs.read_all("base/t") == b"v1"
        assert fs.read_all("pg_xlog/seg") == b"wal-bytes"
        assert report.dump_ts == 0
        assert report.checkpoints_applied == 1
        assert report.wal_objects_applied == 1
        assert report.last_applied_wal_ts == 4

    def test_wal_gap_stops_replay(self, codec):
        """Out-of-order uploads at disaster time leave a ts gap; recovery
        must stop at it (§5.3's incomplete-state handling)."""
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"v0")]))
        self._put(store, codec, WALObjectMeta(ts=1, filename="seg", offset=0),
                  encode_wal_payload([(0, b"first")]))
        # ts=2 missing (was in flight when disaster struck)
        self._put(store, codec, WALObjectMeta(ts=3, filename="seg", offset=512),
                  encode_wal_payload([(512, b"third")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs)
        assert report.wal_objects_applied == 1
        assert report.last_applied_wal_ts == 1
        assert fs.read_all("seg") == b"first"
        orphan = WALObjectMeta(ts=3, filename="seg", offset=512).key
        assert orphan in audit(store).doomed

    def test_incomplete_dump_falls_back_to_previous(self, codec):
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"old")]))
        # Newer dump crashed mid-upload: part 0 of 2 only.
        self._put(store, codec,
                  DBObjectMeta(ts=9, type=DUMP, size=1, part=0, nparts=2),
                  encode_dump_payload([("base/t", b"new-partial")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs)
        assert report.dump_ts == 0
        assert fs.read_all("base/t") == b"old"
        assert any("000000000009" in k for k in audit(store).doomed)

    def test_multipart_dump_applied_in_order(self, codec):
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1, part=0, nparts=2),
                  encode_dump_payload([("base/a", b"A")]))
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1, part=1, nparts=2),
                  encode_dump_payload([("base/b", b"B")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs)
        assert fs.read_all("base/a") == b"A"
        assert fs.read_all("base/b") == b"B"
        assert report.dump_parts == 2

    def test_no_dump_raises(self, codec):
        with pytest.raises(RecoveryError):
            recover_files(InMemoryObjectStore(), codec, MemoryFileSystem())

    def test_upto_ts_restores_older_snapshot(self, codec):
        """PITR: pick the generation at or below the requested ts and do
        not replay newer WAL."""
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"gen0")]))
        self._put(store, codec, DBObjectMeta(ts=5, type=CHECKPOINT, size=1),
                  encode_checkpoint_payload([("base/t", 0, b"gen1")]))
        self._put(store, codec, DBObjectMeta(ts=9, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"gen2")]))
        self._put(store, codec, WALObjectMeta(ts=10, filename="seg", offset=0),
                  encode_wal_payload([(0, b"newer")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs, upto_ts=5)
        assert fs.read_all("base/t") == b"gen1"
        assert report.wal_objects_applied == 0
        assert not fs.exists("seg")

    def test_upto_ts_never_marks_the_live_wal_tail_stale(self, codec):
        """Regression: the old upto_ts path marked EVERY WAL object
        stale, so the cleanup pass after a snapshot restore deleted the
        WAL tail the latest state still needed — silent data loss on the
        next latest-state recovery.  Only WAL unreachable from every
        retained generation may be reported stale, and a snapshot
        restore's cleanup leaves the tail in the bucket."""
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"gen0")]))
        self._put(store, codec, DBObjectMeta(ts=5, type=CHECKPOINT, size=1),
                  encode_checkpoint_payload([("base/t", 0, b"gen1")]))
        self._put(store, codec, DBObjectMeta(ts=9, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"gen2")]))
        tail_keys = []
        for ts in (10, 11, 12):
            meta = WALObjectMeta(ts=ts, filename="seg", offset=(ts - 10) * 4)
            tail_keys.append(meta.key)
            self._put(store, codec, meta,
                      encode_wal_payload([((ts - 10) * 4, b"tail")]))
        ginja, report = Ginja.recover(
            store, MemoryFileSystem(), POSTGRES_PROFILE, upto_ts=5
        )
        ginja.stop()
        assert report.dump_ts == 0
        for key in tail_keys:
            assert key not in report.cleanup.audit.doomed
            assert store.exists(key)
        # The tail must still replay on a subsequent latest-state restore.
        fs = MemoryFileSystem()
        latest = recover_files(store, codec, fs)
        assert latest.wal_objects_applied == 3
        assert fs.read_all("seg") == b"tail" * 3

    def test_latest_recovery_ignores_stale_low_wal(self, codec):
        """WAL objects at or below the newest checkpoint ts (GC stragglers)
        are skipped and reported stale."""
        store = InMemoryObjectStore()
        self._put(store, codec, DBObjectMeta(ts=4, type=DUMP, size=1),
                  encode_dump_payload([("base/t", b"v")]))
        self._put(store, codec, WALObjectMeta(ts=2, filename="seg", offset=0),
                  encode_wal_payload([(0, b"stale")]))
        fs = MemoryFileSystem()
        report = recover_files(store, codec, fs)
        assert not fs.exists("seg")
        assert report.wal_objects_applied == 0
        assert audit(store).redundant_wal == [
            WALObjectMeta(ts=2, filename="seg", offset=0).key
        ]
