"""MiniDB: the transactional engine.

Durability contract (the part Ginja depends on):

* a transaction's effects reach the WAL — via synchronous page-granular
  writes — *before* ``commit()`` returns;
* table files are only touched by checkpoints;
* after a crash, :meth:`MiniDB.open` restores exactly the committed
  state by loading the table files and redoing the WAL from the last
  checkpoint pointer.

Concurrency model: commits serialize on a single WAL lock (as they do on
the real engines' WAL insert locks at this scale); reads take the table
store lock briefly.  Checkpoints run on the calling thread and hold no
lock while writing table pages, so a blocked checkpoint write — e.g.
Ginja freezing DB files during a dump — never stalls commits (§5.3).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from repro.common.errors import DatabaseError, TransactionAborted
from repro.common.units import MiB
from repro.db.profiles import CheckpointStyle, DBMSProfile
from repro.db.records import (
    FRAME_OVERHEAD,
    CheckpointRecord,
    CommitRecord,
    OpRecord,
    TYPE_DELETE,
    TYPE_PUT,
)
from repro.db.tables import TableStore
from repro.db.wal import ControlState, WALStreamReader, WALWriter
from repro.storage.interface import FileSystem


#: Pages the fuzzy (MySQL) checkpointer flushes per batch.
FUZZY_BATCH_PAGES = 16
#: Byte offset of the doublewrite staging area within ibdata1 (the real
#: engine reserves extents after the tablespace header).
DOUBLEWRITE_BASE = 4096


@dataclass
class EngineConfig:
    """Tunables of the engine (defaults match the real engines' spirit;
    tests shrink them for speed)."""

    #: Override the profile's WAL segment size (None = profile default).
    wal_segment_size: int | None = None
    #: Run a checkpoint automatically once this much WAL accumulated.
    auto_checkpoint_bytes: int = 4 * MiB
    #: Disable to drive checkpoints manually (the harness does).
    auto_checkpoint: bool = True


@dataclass
class EngineStats:
    """Counters exposed for the experiments."""

    commits: int = 0
    aborts: int = 0
    checkpoints: int = 0
    rows_written: int = 0
    wal_bytes: int = 0


class Transaction:
    """Buffered write transaction with read-your-writes."""

    def __init__(self, db: "MiniDB", txid: int):
        self._db = db
        self.txid = txid
        self._ops: list[OpRecord] = []
        self._local: dict[tuple[str, str], bytes | None] = {}
        self._done = False

    def put(self, table: str, key: str, value: bytes) -> None:
        self._check_open()
        self._ops.append(
            OpRecord(txid=self.txid, op=TYPE_PUT, table=table, key=key, value=bytes(value))
        )
        self._local[(table, key)] = bytes(value)

    def delete(self, table: str, key: str) -> None:
        self._check_open()
        self._ops.append(OpRecord(txid=self.txid, op=TYPE_DELETE, table=table, key=key))
        self._local[(table, key)] = None

    def get(self, table: str, key: str) -> bytes | None:
        self._check_open()
        if (table, key) in self._local:
            return self._local[(table, key)]
        return self._db.get(table, key)

    def commit(self) -> None:
        self._check_open()
        self._done = True
        self._db._commit(self)

    def abort(self) -> None:
        self._check_open()
        self._done = True
        self._db._abort(self)

    def _check_open(self) -> None:
        if self._done:
            raise TransactionAborted(f"transaction {self.txid} already finished")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._done:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class MiniDB:
    """The engine facade.  Construct via :meth:`create` or :meth:`open`."""

    def __init__(self, fs: FileSystem, profile: DBMSProfile, config: EngineConfig):
        self._fs = fs
        self.profile = profile
        self.config = config
        self._store = TableStore(fs, profile)
        self._control = ControlState(fs, profile)
        self._commit_lock = threading.Lock()
        self._ckpt_lock = threading.Lock()
        self._txid_counter = itertools.count(1)
        self._ckpt_seq = 0
        self._last_redo_lsn = 0
        self._ckpt_trigger_lsn = 0
        self._crashed = False
        self._wal: WALWriter | None = None
        self.stats = EngineStats()
        #: Redo operations applied by the last :meth:`open` (0 for create).
        self.recovered_ops = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        fs: FileSystem,
        profile: DBMSProfile,
        config: EngineConfig | None = None,
    ) -> "MiniDB":
        """Initialize a fresh database directory."""
        db = cls(fs, profile, config or EngineConfig())
        db._wal = WALWriter(
            fs, profile, segment_size=db._segment_size(), start_lsn=0
        )
        db._wal.preallocate_initial()
        if profile.ring_wal:
            # InnoDB's system tablespace.
            if not fs.exists("ibdata1"):
                fs.write("ibdata1", 0, b"IBD1" + b"\x00" * 60)
        else:
            fs.write(profile.clog_path, 0, b"\x00")
        db._control.write(0, 0, 1)
        return db

    @classmethod
    def open(
        cls,
        fs: FileSystem,
        profile: DBMSProfile,
        config: EngineConfig | None = None,
    ) -> "MiniDB":
        """Open an existing database, performing crash recovery (redo)."""
        db = cls(fs, profile, config or EngineConfig())
        seq, redo_lsn, next_txid = db._control.read()
        db._ckpt_seq = seq
        db._last_redo_lsn = redo_lsn
        db._ckpt_trigger_lsn = redo_lsn
        db._store.load_all()
        reader = WALStreamReader(fs, profile, db._segment_size())
        pending: dict[int, list[OpRecord]] = {}
        end_lsn = redo_lsn
        max_txid = next_txid - 1
        redone = 0
        apply = db._apply_locked
        with db._store.lock:
            for record, _start, end_lsn in reader.scan_from(redo_lsn):
                kind = type(record)
                if kind is OpRecord:
                    pending.setdefault(record.txid, []).append(record)
                elif kind is CommitRecord:
                    ops = pending.pop(record.txid, ())
                    for op in ops:
                        apply(op)
                    redone += len(ops)
                    max_txid = max(max_txid, record.txid)
                # CheckpointRecords need no redo action.
        # A committed txn's ops carry its commit's txid: the uncommitted
        # ones left in ``pending`` are the only other txids seen.
        db._txid_counter = itertools.count(max([max_txid, *pending]) + 1)
        tail = reader.read_tail(end_lsn)
        db._wal = WALWriter(
            fs,
            profile,
            segment_size=db._segment_size(),
            start_lsn=end_lsn,
            tail=tail,
        )
        db.recovered_ops = redone
        return db

    def _segment_size(self) -> int:
        return self.config.wal_segment_size or self.profile.wal_segment_size

    # -- public surface -----------------------------------------------------------

    def begin(self) -> Transaction:
        self._check_alive()
        return Transaction(self, next(self._txid_counter))

    def get(self, table: str, key: str) -> bytes | None:
        """Read the latest committed value (autocommit read)."""
        self._check_alive()
        with self._store.lock:
            try:
                return self._store.table(table, create=False).get(key)
            except DatabaseError:
                return None

    def put(self, table: str, key: str, value: bytes) -> None:
        """Autocommit single-row write."""
        with self.begin() as txn:
            txn.put(table, key, value)

    def delete(self, table: str, key: str) -> None:
        """Autocommit single-row delete."""
        with self.begin() as txn:
            txn.delete(table, key)

    def tables(self) -> list[str]:
        return self._store.tables()

    def row_count(self, table: str) -> int:
        return self._store.row_count(table)

    @property
    def lsn(self) -> int:
        assert self._wal is not None
        return self._wal.lsn

    @property
    def last_checkpoint_lsn(self) -> int:
        return self._last_redo_lsn

    def db_file_bytes(self) -> int:
        """Size of all non-WAL files (for the 150% dump rule and reports)."""
        return self._store.db_file_bytes()

    # -- commit path ----------------------------------------------------------------

    def _commit(self, txn: Transaction) -> None:
        self._check_alive()
        if not txn._ops:
            self.stats.commits += 1
            return
        # A frame's size does not depend on its LSN, so the ring guard is
        # sized from the bodies; the frames are built after it, since a
        # checkpoint it forces moves the LSN they carry.
        bodies = [op.body() for op in txn._ops]
        encoded_size = sum(map(len, bodies)) + FRAME_OVERHEAD * (len(bodies) + 1)
        self._guard_ring_capacity(encoded_size)
        wal = self._wal
        assert wal is not None
        with self._commit_lock:
            for op, body in zip(txn._ops, bodies):
                wal.append(op.encode(wal.lsn, body))
            wal.append(CommitRecord(txn.txid).encode(wal.lsn))
            wal.flush()
            with self._store.lock:
                for op in txn._ops:
                    self._apply_locked(op)
            self.stats.commits += 1
            self.stats.rows_written += len(txn._ops)
            self.stats.wal_bytes += encoded_size
        self._maybe_auto_checkpoint()

    def _abort(self, txn: Transaction) -> None:
        # Deferred-apply engine: nothing was logged or applied yet.
        self.stats.aborts += 1

    def _apply_locked(self, op: OpRecord) -> None:
        table = self._store.table(op.table)
        if op.op == TYPE_PUT:
            table.put(op.key, op.value)
        else:
            table.delete(op.key)

    def _guard_ring_capacity(self, incoming: int) -> None:
        """Force a checkpoint before the ring WAL would overwrite data
        that redo still needs (InnoDB's log-full behaviour)."""
        wal = self._wal
        assert wal is not None
        capacity = wal.layout.ring_capacity
        if not capacity:
            return
        slack = 4 * self.profile.wal_page_size
        if wal.lsn + incoming - self._last_redo_lsn > capacity - slack:
            self.checkpoint()

    def _maybe_auto_checkpoint(self) -> None:
        if not self.config.auto_checkpoint:
            return
        assert self._wal is not None
        if self._wal.lsn - self._ckpt_trigger_lsn >= self.config.auto_checkpoint_bytes:
            self.checkpoint()

    # -- checkpoints --------------------------------------------------------------

    def checkpoint(self) -> bool:
        """Run one full checkpoint; returns False if one was in progress."""
        self._check_alive()
        if not self._ckpt_lock.acquire(blocking=False):
            return False
        try:
            self._checkpoint_locked()
            return True
        finally:
            self._ckpt_lock.release()

    def _checkpoint_locked(self) -> None:
        wal = self._wal
        assert wal is not None
        with self._commit_lock:
            redo_lsn = wal.lsn
            next_txid = next(self._txid_counter)
            self._txid_counter = itertools.count(next_txid)
            # The checkpoint-begin marker write (Table 1) happens *before*
            # the dirty snapshot and inside the commit lock: every commit
            # whose WAL an observer has seen by the time this write is
            # intercepted is therefore fully applied to the pages about to
            # be flushed.  Ginja's WAL garbage collection is only safe
            # because of this ordering.
            if self.profile.checkpoint_style is CheckpointStyle.SHARP:
                clog_offset = max(0, next_txid // 4)
                self._fs.write(self.profile.clog_path, clog_offset, b"\x01")
                self._fs.fsync(self.profile.clog_path)
            else:
                self._fs.write("ibdata1", 0, b"IBD1")
                self._fs.fsync("ibdata1")
            dirty = self._store.collect_dirty()
            seq = self._ckpt_seq + 1
            self._ckpt_trigger_lsn = wal.lsn
        if self.profile.checkpoint_style is CheckpointStyle.SHARP:
            self._sharp_flush(dirty)
        else:
            self._fuzzy_flush(dirty)
        # The in-WAL checkpoint marker (§4's "special record").
        with self._commit_lock:
            wal.append(CheckpointRecord(seq, redo_lsn).encode(wal.lsn))
            wal.flush()
        # Checkpoint end: the control/slot write (Table 1).
        self._control.write(seq, redo_lsn, next_txid)
        self._ckpt_seq = seq
        self._last_redo_lsn = redo_lsn
        self.stats.checkpoints += 1
        wal.drop_segments_before(redo_lsn)

    def _sharp_flush(self, dirty: list) -> None:
        """PostgreSQL style: write every dirty page, then fsync."""
        touched: set[str] = set()
        for table_name, page in dirty:
            touched.add(self._store.flush_page(table_name, page))
        for path in sorted(touched):
            self._fs.fsync(path)

    def _fuzzy_flush(self, dirty: list) -> None:
        """InnoDB style: small batches, begin event implicit in the first
        data-file write; each batch is staged through the doublewrite
        area of ibdata1 and fsynced there first — the torn-page defence
        real MySQL performs, and write traffic a file-level DR observer
        genuinely sees."""
        page_size = self.profile.table_page_size
        for start in range(0, len(dirty), FUZZY_BATCH_PAGES):
            batch = dirty[start:start + FUZZY_BATCH_PAGES]
            for slot, (_table_name, page) in enumerate(batch):
                with self._store.lock:
                    image = page.encode()
                self._fs.write(
                    "ibdata1", DOUBLEWRITE_BASE + slot * page_size, image
                )
            self._fs.fsync("ibdata1")
            touched: set[str] = set()
            for table_name, page in batch:
                touched.add(self._store.flush_page(table_name, page))
            for path in sorted(touched):
                self._fs.fsync(path)

    # -- lifecycle ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a power failure: all in-memory state is lost; the
        files stay exactly as last written."""
        self._crashed = True

    def close(self) -> None:
        """Clean shutdown: checkpoint so table files match the WAL."""
        self._check_alive()
        self.checkpoint()
        self._crashed = True  # further use requires reopening

    def _check_alive(self) -> None:
        if self._crashed:
            raise DatabaseError("database is not running (crashed or closed)")
