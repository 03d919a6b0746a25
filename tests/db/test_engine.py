"""MiniDB engine: transactions, checkpoints, crash recovery.

These are the load-bearing tests of the DBMS substrate: Ginja's
end-to-end RPO guarantees rest on the engine really losing uncommitted
(and un-checkpointed-but-logged-then-truncated) state and really
recovering committed state via WAL redo.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DatabaseError, TransactionAborted
from repro.common.units import KiB
from repro.db import records
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


def small_config(profile, **overrides):
    seg = 64 * KiB if not profile.ring_wal else 16 * KiB
    defaults = dict(
        wal_segment_size=seg, auto_checkpoint_bytes=32 * KiB, auto_checkpoint=False
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


@pytest.fixture(params=["postgres", "mysql"])
def profile(request):
    return POSTGRES_PROFILE if request.param == "postgres" else MYSQL_PROFILE


@pytest.fixture
def db(profile):
    fs = MemoryFileSystem()
    return fs, MiniDB.create(fs, profile, small_config(profile))


class TestTransactions:
    def test_commit_makes_rows_visible(self, db):
        _fs, engine = db
        with engine.begin() as txn:
            txn.put("t", "k", b"v")
        assert engine.get("t", "k") == b"v"

    def test_abort_discards_everything(self, db):
        _fs, engine = db
        txn = engine.begin()
        txn.put("t", "k", b"v")
        txn.abort()
        assert engine.get("t", "k") is None
        assert engine.stats.aborts == 1

    def test_exception_in_context_aborts(self, db):
        _fs, engine = db
        with pytest.raises(RuntimeError):
            with engine.begin() as txn:
                txn.put("t", "k", b"v")
                raise RuntimeError("boom")
        assert engine.get("t", "k") is None

    def test_read_your_writes(self, db):
        _fs, engine = db
        engine.put("t", "k", b"old")
        with engine.begin() as txn:
            txn.put("t", "k", b"new")
            assert txn.get("t", "k") == b"new"
            assert engine.get("t", "k") == b"old"  # not yet committed

    def test_read_your_deletes(self, db):
        _fs, engine = db
        engine.put("t", "k", b"v")
        with engine.begin() as txn:
            txn.delete("t", "k")
            assert txn.get("t", "k") is None

    def test_finished_txn_rejects_use(self, db):
        _fs, engine = db
        txn = engine.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.put("t", "k", b"v")

    def test_empty_commit_writes_no_wal(self, db):
        _fs, engine = db
        before = engine.lsn
        engine.begin().commit()
        assert engine.lsn == before

    def test_autocommit_helpers(self, db):
        _fs, engine = db
        engine.put("t", "k", b"v")
        engine.delete("t", "k")
        assert engine.get("t", "k") is None
        assert engine.stats.commits == 2

    def test_txids_are_unique_and_increasing(self, db):
        _fs, engine = db
        ids = [engine.begin().txid for _ in range(5)]
        assert ids == sorted(ids) and len(set(ids)) == 5


class TestDurability:
    def test_commit_flushes_wal_synchronously(self, db):
        _fs, engine = db
        engine.put("t", "k", b"v")
        assert engine._wal.flushed_lsn == engine.lsn

    def test_commit_writes_wal_pages(self, db, profile):
        fs, engine = db
        engine.put("t", "k", b"v" * 100)
        wal_files = fs.files("pg_xlog/" if not profile.ring_wal else "ib_logfile")
        assert wal_files

    def test_crash_before_any_checkpoint_recovers_all_commits(self, db, profile):
        fs, engine = db
        for i in range(20):
            engine.put("t", f"k{i}", f"v{i}".encode())
        engine.crash()
        recovered = MiniDB.open(fs, profile, small_config(profile))
        for i in range(20):
            assert recovered.get("t", f"k{i}") == f"v{i}".encode()
        assert recovered.recovered_ops == 20

    def test_uncommitted_txn_lost_on_crash(self, db, profile):
        fs, engine = db
        engine.put("t", "committed", b"yes")
        txn = engine.begin()
        txn.put("t", "uncommitted", b"no")  # never committed
        engine.crash()
        recovered = MiniDB.open(fs, profile, small_config(profile))
        assert recovered.get("t", "committed") == b"yes"
        assert recovered.get("t", "uncommitted") is None

    def test_crashed_engine_rejects_use(self, db):
        _fs, engine = db
        engine.crash()
        with pytest.raises(DatabaseError):
            engine.put("t", "k", b"v")


class TestCheckpoints:
    def test_checkpoint_persists_pages(self, db, profile):
        fs, engine = db
        engine.put("t", "k", b"v")
        engine.checkpoint()
        path = profile.table_path("t")
        assert fs.size(path) >= profile.table_page_size

    def test_checkpoint_advances_pointer(self, db):
        _fs, engine = db
        engine.put("t", "k", b"v")
        lsn_before_ckpt = engine.lsn
        engine.checkpoint()
        assert engine.last_checkpoint_lsn == lsn_before_ckpt

    def test_recovery_after_checkpoint_plus_more_commits(self, db, profile):
        fs, engine = db
        engine.put("t", "before", b"1")
        engine.checkpoint()
        engine.put("t", "after", b"2")
        engine.crash()
        recovered = MiniDB.open(fs, profile, small_config(profile))
        assert recovered.get("t", "before") == b"1"
        assert recovered.get("t", "after") == b"2"

    def test_postgres_checkpoint_drops_old_segments(self):
        fs = MemoryFileSystem()
        config = small_config(POSTGRES_PROFILE)
        engine = MiniDB.create(fs, POSTGRES_PROFILE, config)
        for i in range(300):  # spill past one 64 KiB segment
            engine.put("t", f"k{i}", b"x" * 200)
        assert len(fs.files("pg_xlog/")) > 1
        engine.checkpoint()
        assert len(fs.files("pg_xlog/")) == 1

    def test_mysql_ring_guard_forces_checkpoint(self):
        fs = MemoryFileSystem()
        config = small_config(MYSQL_PROFILE)
        engine = MiniDB.create(fs, MYSQL_PROFILE, config)
        # Write more WAL than the ring holds; the engine must checkpoint
        # itself rather than overwrite un-checkpointed log.
        for i in range(400):
            engine.put("t", f"k{i}", b"x" * 100)
        assert engine.stats.checkpoints >= 1
        engine.crash()
        recovered = MiniDB.open(fs, MYSQL_PROFILE, config)
        for i in range(400):
            assert recovered.get("t", f"k{i}") == b"x" * 100

    def test_auto_checkpoint_triggers_on_threshold(self, profile):
        fs = MemoryFileSystem()
        config = small_config(profile, auto_checkpoint=True, auto_checkpoint_bytes=4096)
        engine = MiniDB.create(fs, profile, config)
        for i in range(50):
            engine.put("t", f"k{i}", b"x" * 200)
        assert engine.stats.checkpoints >= 1

    def test_checkpoint_with_no_dirty_pages(self, db):
        _fs, engine = db
        assert engine.checkpoint()
        assert engine.stats.checkpoints == 1

    def test_updates_and_deletes_survive_checkpoint_crash_recover(self, db, profile):
        fs, engine = db
        engine.put("t", "stay", b"1")
        engine.put("t", "gone", b"2")
        engine.checkpoint()
        engine.put("t", "stay", b"updated")
        engine.delete("t", "gone")
        engine.crash()
        recovered = MiniDB.open(fs, profile, small_config(profile))
        assert recovered.get("t", "stay") == b"updated"
        assert recovered.get("t", "gone") is None


class TestCleanShutdown:
    def test_close_then_open_without_redo(self, db, profile):
        fs, engine = db
        engine.put("t", "k", b"v")
        engine.close()
        reopened = MiniDB.open(fs, profile, small_config(profile))
        assert reopened.get("t", "k") == b"v"
        # Clean shutdown = checkpoint, so nothing needed redo... except
        # the checkpoint record itself carries no ops.
        assert reopened.recovered_ops == 0

    def test_close_rejects_further_use(self, db):
        _fs, engine = db
        engine.close()
        with pytest.raises(DatabaseError):
            engine.begin()


class TestMultiTableAndConcurrency:
    def test_many_tables(self, db):
        _fs, engine = db
        for t in ("a", "b", "c"):
            engine.put(t, "k", t.encode())
        assert engine.tables() == ["a", "b", "c"]
        assert engine.row_count("a") == 1

    def test_concurrent_commits(self, db):
        import threading

        _fs, engine = db
        errors = []

        def worker(worker_id):
            try:
                for i in range(20):
                    engine.put("t", f"w{worker_id}-{i}", b"v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert engine.row_count("t") == 80


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=15),  # key space
            st.binary(min_size=0, max_size=80),
        ),
        min_size=1,
        max_size=60,
    ),
    checkpoint_after=st.integers(min_value=0, max_value=60),
    profile_name=st.sampled_from(["postgres", "mysql"]),
)
def test_crash_recovery_equals_committed_state(ops, checkpoint_after, profile_name):
    """Property: for any committed op sequence with a checkpoint at an
    arbitrary position, crash + recover reproduces the exact final state."""
    profile = POSTGRES_PROFILE if profile_name == "postgres" else MYSQL_PROFILE
    fs = MemoryFileSystem()
    engine = MiniDB.create(fs, profile, small_config(profile))
    expected: dict[str, bytes] = {}
    for index, (kind, key_id, value) in enumerate(ops):
        key = f"k{key_id}"
        if kind == "put":
            engine.put("t", key, value)
            expected[key] = value
        else:
            engine.delete("t", key)
            expected.pop(key, None)
        if index + 1 == checkpoint_after:
            engine.checkpoint()
    engine.crash()
    recovered = MiniDB.open(fs, profile, small_config(profile))
    for key_id in range(16):
        key = f"k{key_id}"
        assert recovered.get("t", key) == expected.get(key)


class TestCommitFrames:
    """A commit builds each record's frame once, after the ring guard."""

    @staticmethod
    def run_history(profile, monkeypatch):
        """Sixty three-op transactions (two puts and a delete) with the
        guard's checkpoints in between; returns the engine, the WAL files'
        bytes and the number of ``_frame`` calls."""
        frames = []
        real_frame = records._frame

        def counting_frame(*args):
            frames.append(args[0])
            return real_frame(*args)

        monkeypatch.setattr(records, "_frame", counting_frame)
        fs = MemoryFileSystem()
        engine = MiniDB.create(fs, profile, small_config(profile))
        for n in range(60):
            with engine.begin() as txn:
                txn.put("stock", f"s{n % 17}", bytes([n % 251]) * (100 + n * 10))
                txn.put("orders", f"o{n}", b"o" * 40)
                txn.delete("orders", f"o{n - 3}")
        prefix = "pg_xlog/" if not profile.ring_wal else "ib_logfile"
        wal = {path: fs.read_all(path) for path in fs.files(prefix)}
        return engine, wal, len(frames)

    @pytest.mark.parametrize(
        "profile_name, checkpoints, digest",
        [
            # sha256 of the WAL files, as the two-pass commit wrote them.
            ("postgres", 0,
             "5cd310d324327f92dd00efe4f1fa625cce3845acf412cb6c54372bf7c0e391fe"),
            # The ring fills once: its guard checkpoints mid-history and
            # moves the LSN the next frames carry.
            ("mysql", 1,
             "53d8df3b13ea4256d869da891c0ee6ee0a73b594a5456b606970dd99627e1a87"),
        ],
        ids=["postgres", "mysql"],
    )
    def test_one_frame_per_record_and_the_same_wal_bytes(
        self, profile_name, checkpoints, digest, monkeypatch
    ):
        profile = POSTGRES_PROFILE if profile_name == "postgres" else MYSQL_PROFILE
        engine, wal, frames = self.run_history(profile, monkeypatch)
        assert engine.stats.checkpoints == checkpoints
        # Per transaction: three ops and a commit; per checkpoint: its marker.
        assert frames == 60 * 4 + checkpoints
        image = hashlib.sha256(
            b"".join(path.encode() + wal[path] for path in sorted(wal))
        ).hexdigest()
        assert image == digest
