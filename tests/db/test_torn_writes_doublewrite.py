"""Torn writes at power loss, and InnoDB's doublewrite buffer."""

from __future__ import annotations

import pytest

from repro.common.errors import FileSystemError
from repro.common.units import KiB, MiB
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.storage.interposer import FSInterceptor, InterposedFS
from repro.storage.memory import MemoryFileSystem


def pg_config():
    return EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)


def my_config():
    return EngineConfig(wal_segment_size=16 * KiB, auto_checkpoint=False)


class TestTornWALWrites:
    def test_torn_commit_write_is_detected_by_redo(self):
        """Power fails mid-WAL-page write: the half-written record fails
        its CRC and recovery restores exactly the previously committed
        state."""
        fs = MemoryFileSystem()
        db = MiniDB.create(fs, POSTGRES_PROFILE, pg_config())
        for i in range(10):
            db.put("t", f"good{i}", b"v")
        fs.tear_next_write(37)  # power loss 37 bytes into the next page
        with pytest.raises(FileSystemError):
            db.put("t", "torn", b"x" * 100)
        db.crash()
        recovered = MiniDB.open(fs, POSTGRES_PROFILE, pg_config())
        for i in range(10):
            assert recovered.get("t", f"good{i}") == b"v"
        assert recovered.get("t", "torn") is None

    def test_torn_write_never_fabricates_rows(self):
        fs = MemoryFileSystem()
        db = MiniDB.create(fs, POSTGRES_PROFILE, pg_config())
        db.put("t", "k", b"committed")
        fs.tear_next_write(5)
        with pytest.raises(FileSystemError):
            db.put("t", "k", b"replacement")
        db.crash()
        recovered = MiniDB.open(fs, POSTGRES_PROFILE, pg_config())
        assert recovered.get("t", "k") == b"committed"

    def test_engine_usable_check_after_io_error(self):
        """The engine survives an I/O error on a non-torn path: later
        commits (after the fault clears) still work."""
        fs = MemoryFileSystem()
        db = MiniDB.create(fs, POSTGRES_PROFILE, pg_config())
        fs.tear_next_write(0)
        with pytest.raises(FileSystemError):
            db.put("t", "a", b"1")
        # The engine is not crashed; the WAL tail is still buffered, so
        # the next successful flush repairs the torn page.
        db.put("t", "b", b"2")
        assert db.get("t", "b") == b"2"


class RecordingCalls(FSInterceptor):
    def __init__(self):
        self.calls: list[tuple] = []

    def after_write(self, path, offset, data):
        self.calls.append(("write", path, offset, bytes(data)))

    def on_fsync(self, path):
        self.calls.append(("fsync", path))


def recorded(profile, config):
    inner = MemoryFileSystem()
    recorder = RecordingCalls()
    db = MiniDB.create(InterposedFS(inner, recorder), profile, config)
    return inner, recorder, db


class TestDoublewrite:
    def test_doublewrite_stages_pages_in_ibdata(self):
        _inner, recorder, db = recorded(MYSQL_PROFILE, my_config())
        for i in range(30):
            db.put("t", f"k{i}", b"x" * 400)
        recorder.calls.clear()
        db.checkpoint()
        writes = [call for call in recorder.calls if call[0] == "write"]
        staged = [w for w in writes if w[1] == "ibdata1" and w[2] >= 4096]
        table_writes = [w for w in writes if w[1].endswith(".ibd")]
        assert staged, "no doublewrite staging writes observed"
        assert len(staged) == len(table_writes)

    def test_checkpoint_stages_each_batch_of_sixteen_pages(self):
        """45 dirty 16 KiB pages over two tables are checkpointed in
        batches of 16, 16 and 13.  For each batch: its pages go to the
        doublewrite slots of ibdata1 at 4096 + slot * 16 KiB, ibdata1 is
        fsynced once, then the pages go to their table files and each
        file the batch touched is fsynced."""
        config = EngineConfig(wal_segment_size=1 * MiB, auto_checkpoint=False)
        _inner, recorder, db = recorded(MYSQL_PROFILE, config)
        for i in range(45):  # one 10 KB row fills a 16 KiB page
            db.put("ab"[i % 2], f"k{i}", bytes([i]) * 10_000)
        dirty = [(MYSQL_PROFILE.table_path(name), page.page_no, page.encode())
                 for name, page in db._store.collect_dirty()]
        assert len(dirty) == 45
        recorder.calls.clear()
        db.checkpoint()
        calls = recorder.calls
        # The checkpoint-begin marker comes first.
        assert calls[:2] == [("write", "ibdata1", 0, b"IBD1"), ("fsync", "ibdata1")]
        expected = []
        batches = [dirty[start:start + 16] for start in range(0, 45, 16)]
        assert [len(batch) for batch in batches] == [16, 16, 13]
        for batch in batches:
            expected += [
                ("write", "ibdata1", 4096 + slot * 16 * KiB, image)
                for slot, (_path, _page_no, image) in enumerate(batch)
            ]
            expected.append(("fsync", "ibdata1"))
            expected += [
                ("write", path, page_no * 16 * KiB, image)
                for path, page_no, image in batch
            ]
            expected += [("fsync", path) for path in sorted({p for p, _n, _i in batch})]
        assert calls[2:2 + len(expected)] == expected
        # The rest is the WAL marker and the checkpoint slot.
        assert {call[1][:10] for call in calls[2 + len(expected):]} == {"ib_logfile"}

    def test_recovery_unaffected_by_doublewrite(self):
        inner = MemoryFileSystem()
        db = MiniDB.create(inner, MYSQL_PROFILE, my_config())
        for i in range(30):
            db.put("t", f"k{i}", b"x" * 400)
        db.checkpoint()
        for i in range(30, 40):
            db.put("t", f"k{i}", b"x" * 400)
        db.crash()
        recovered = MiniDB.open(inner, MYSQL_PROFILE, my_config())
        for i in range(40):
            assert recovered.get("t", f"k{i}") == b"x" * 400

    def test_postgres_checkpoint_touches_no_ibdata(self):
        """PostgreSQL has no doublewrite area (it relies on full-page WAL
        images): no call of its checkpoint touches ibdata1."""
        inner, recorder, db = recorded(POSTGRES_PROFILE, pg_config())
        for i in range(30):
            db.put("t", f"k{i}", b"x" * 400)
        recorder.calls.clear()
        db.checkpoint()
        assert any(call[1].startswith("base/") for call in recorder.calls)
        assert [call for call in recorder.calls if call[1] == "ibdata1"] == []
        assert not inner.exists("ibdata1")
