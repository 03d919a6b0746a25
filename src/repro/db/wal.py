"""WAL writer, stream reader, and checkpoint-pointer files.

The WAL is a logical byte stream addressed by LSN.  The writer maps the
stream onto files exactly the way each real engine does:

* **PostgreSQL**: an unbounded series of fixed-size segments
  (``pg_xlog/<24-hex>``, preallocated at creation); old segments are
  unlinked once a checkpoint passes them.
* **MySQL/InnoDB**: a fixed ring of ``ib_logfileN`` files reused
  circularly, with 2 KiB headers; checkpoint pointers live in two
  alternating 512-byte slots of ``ib_logfile0`` (offsets 512 and 1536).

All durable writes happen at WAL-page granularity (8 KiB for PG, 512 B
blocks for InnoDB): a commit rewrites the current page in place as it
fills, which is the overwrite pattern Ginja's aggregation coalesces
(§5.3 of the paper).
"""

from __future__ import annotations

import struct
import zlib

from repro.common.errors import DatabaseError, RecoveryError
from repro.db.profiles import DBMSProfile
from repro.db.records import iter_records
from repro.storage.interface import FileSystem


class WALWriter:
    """Appends to the logical WAL stream and flushes page-granular writes.

    Not thread-safe by itself; the engine serializes commits around it.
    """

    def __init__(
        self,
        fs: FileSystem,
        profile: DBMSProfile,
        *,
        segment_size: int | None = None,
        start_lsn: int = 0,
        tail: bytes = b"",
    ):
        self._fs = fs
        self._profile = profile
        self._segment_size = segment_size or profile.wal_segment_size
        if self._segment_size % profile.wal_page_size != 0:
            raise DatabaseError("segment size must be a multiple of the page size")
        usable = self._segment_size - profile.wal_header_size
        if profile.ring_wal and usable % profile.wal_page_size != 0:
            raise DatabaseError(
                "ring usable area (segment minus header) must be page-aligned"
            )
        layout = WALLayout(profile, self._segment_size)
        self._layout = layout
        self._lsn = start_lsn
        # The unflushed suffix of the stream, starting at the page boundary
        # at or before the flushed position (so the partial page can be
        # rewritten whole).
        self._tail_lsn = layout.page_start(start_lsn)
        self._tail = bytearray(tail)
        if len(self._tail) != start_lsn - self._tail_lsn:
            raise DatabaseError("tail bytes do not match start position")
        self._flushed_lsn = start_lsn
        # The segment the last flush wrote to, known to exist: like
        # PostgreSQL's ``openLogFile``, only a switch to another file probes.
        self._open_segment: str | None = None
        #: Pages written to the file system (for metrics).
        self.pages_written = 0

    @property
    def lsn(self) -> int:
        """Stream position of the next append."""
        return self._lsn

    @property
    def flushed_lsn(self) -> int:
        """Everything below this stream position is durable locally."""
        return self._flushed_lsn

    @property
    def layout(self) -> "WALLayout":
        return self._layout

    def append(self, data: bytes) -> int:
        """Add bytes to the stream (not yet durable); returns their LSN."""
        lsn = self._lsn
        self._tail.extend(data)
        self._lsn += len(data)
        return lsn

    def flush(self) -> None:
        """Write every page touched since the last flush, then fsync.

        This is the synchronous write that constitutes a commit — the
        "update commit" event of Table 1.
        """
        if self._flushed_lsn == self._lsn:
            return
        page = self._profile.wal_page_size
        layout = self._layout
        files_touched: list[str] = []
        position = layout.page_start(self._flushed_lsn)
        while position < self._lsn:
            chunk_start = position - self._tail_lsn
            chunk = bytes(self._tail[chunk_start:chunk_start + page])
            if len(chunk) < page:
                chunk += b"\x00" * (page - len(chunk))
            path, offset = layout.locate(position)
            if path != self._open_segment:
                self._ensure_segment(path)
                self._open_segment = path
            self._fs.write(path, offset, chunk)
            self.pages_written += 1
            if path not in files_touched:
                files_touched.append(path)
            position += page
        for path in files_touched:
            self._fs.fsync(path)
        self._flushed_lsn = self._lsn
        # Drop fully-flushed pages from the tail, keeping the partial one.
        new_tail_lsn = layout.page_start(self._lsn)
        del self._tail[: new_tail_lsn - self._tail_lsn]
        self._tail_lsn = new_tail_lsn

    def _ensure_segment(self, path: str) -> None:
        if not self._fs.exists(path):
            # Real engines preallocate WAL files full-size.
            self._fs.truncate(path, self._segment_size)

    def preallocate_initial(self) -> None:
        """Create the file(s) a fresh database starts with."""
        if self._profile.ring_wal:
            for index in range(self._profile.ring_files):
                self._ensure_segment(self._profile.wal_path(index))
        else:
            self._ensure_segment(self._profile.wal_path(0))

    def drop_segments_before(self, lsn: int) -> list[str]:
        """Unlink append-mode segments wholly below ``lsn`` (PG cleanup).

        Ring files are never dropped.  Returns the unlinked paths.
        """
        if self._profile.ring_wal:
            return []
        removed = []
        first_live = lsn // self._segment_size
        for index in sorted(map(self._profile.wal_index, self._fs.files("pg_xlog/"))):
            if index >= first_live:
                break
            path = self._profile.wal_path(index)
            self._fs.unlink(path)
            if path == self._open_segment:
                self._open_segment = None
            removed.append(path)
        return removed


class WALLayout:
    """Maps stream LSNs to (file path, byte offset)."""

    def __init__(self, profile: DBMSProfile, segment_size: int):
        self._profile = profile
        self._segment_size = segment_size
        if profile.ring_wal:
            self._usable = segment_size - profile.wal_header_size
            self._ring_capacity = self._usable * profile.ring_files
        else:
            self._usable = segment_size
            self._ring_capacity = 0

    @property
    def ring_capacity(self) -> int:
        """Stream bytes the ring can hold before overwriting itself
        (0 for append-mode WALs, which never wrap)."""
        return self._ring_capacity

    def page_start(self, lsn: int) -> int:
        page = self._profile.wal_page_size
        return (lsn // page) * page

    def locate(self, lsn: int) -> tuple[str, int]:
        """File and offset holding stream position ``lsn``."""
        if self._profile.ring_wal:
            pos = lsn % self._ring_capacity
            file_index = pos // self._usable
            offset = self._profile.wal_header_size + pos % self._usable
            return self._profile.wal_path(file_index), offset
        segment = lsn // self._segment_size
        return self._profile.wal_path(segment), lsn % self._segment_size


class WALStreamReader:
    """Reassembles the logical stream from files, for redo."""

    def __init__(self, fs: FileSystem, profile: DBMSProfile, segment_size: int):
        self._fs = fs
        self._profile = profile
        self._layout = WALLayout(profile, segment_size)
        self._page = profile.wal_page_size

    def read_stream(self, from_lsn: int, max_bytes: int = 256 * 1024 * 1024) -> bytes:
        """Stream bytes starting at ``from_lsn``, page by page, stopping at
        the first missing file (a GC'd segment) or ``max_bytes``.

        Like the writer, it probes a file only on entering it."""
        chunks: list[bytes] = []
        position = self._layout.page_start(from_lsn)
        skip = from_lsn - position
        total = 0
        entered = None
        # A ring physically holds at most one lap of the stream.
        if self._layout.ring_capacity:
            max_bytes = min(max_bytes, self._layout.ring_capacity)
        while total < max_bytes:
            path, offset = self._layout.locate(position)
            if path != entered:
                if not self._fs.exists(path):
                    break
                entered = path
            chunk = self._fs.read(path, offset, self._page)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if len(chunk) < self._page:
                break
            position += self._page
        stream = b"".join(chunks)
        return stream[skip:]

    def scan_from(self, from_lsn: int):
        """Yield ``(record, start_lsn, end_lsn)`` for each valid record
        from ``from_lsn``.

        Stops at the first invalid frame or LSN mismatch (end of log).
        """
        return iter_records(self.read_stream(from_lsn), 0, from_lsn)

    def read_tail(self, end_lsn: int) -> bytes:
        """Bytes from the page boundary below ``end_lsn`` up to it — the
        partial-page content a resuming writer must carry.

        A missing or short segment (e.g. a point-in-time restore, which
        rebuilds only checkpointed state and no WAL) yields zeros: redo
        never reads below the checkpoint pointer, so the lost prefix of
        the page is dead bytes.
        """
        start = self._layout.page_start(end_lsn)
        size = end_lsn - start
        if size == 0:
            return b""
        path, offset = self._layout.locate(start)
        if not self._fs.exists(path):
            return b"\x00" * size
        chunk = self._fs.read(path, offset, size)
        if len(chunk) < size:
            chunk += b"\x00" * (size - len(chunk))
        return chunk


# ---------------------------------------------------------------------------
# Checkpoint pointer files


_PG_CONTROL = struct.Struct("<4sQQQI")  # magic, ckpt_seq, redo_lsn, next_txid, crc
_PG_MAGIC = b"PGC1"

_SLOT = struct.Struct("<QQQI")  # ckpt_seq, redo_lsn, next_txid, crc
SLOT_SIZE = 512


class ControlState:
    """Reads/writes the checkpoint pointer, per profile.

    PostgreSQL: a dedicated ``global/pg_control`` file — writing it is the
    "checkpoint end" event.  MySQL: two alternating 512-byte slots in the
    ``ib_logfile0`` header (offsets 512/1536); recovery uses the valid slot
    with the highest sequence number, which is how InnoDB survives a crash
    mid-checkpoint-write.
    """

    def __init__(self, fs: FileSystem, profile: DBMSProfile):
        self._fs = fs
        self._profile = profile
        self._slot_toggle = 0

    # -- write ----------------------------------------------------------------

    def write(self, ckpt_seq: int, redo_lsn: int, next_txid: int) -> None:
        if self._profile.ring_wal:
            self._write_slot(ckpt_seq, redo_lsn, next_txid)
        else:
            self._write_pg_control(ckpt_seq, redo_lsn, next_txid)

    def _write_pg_control(self, ckpt_seq: int, redo_lsn: int, next_txid: int) -> None:
        body = _PG_CONTROL.pack(
            _PG_MAGIC, ckpt_seq, redo_lsn, next_txid,
            _control_crc(ckpt_seq, redo_lsn, next_txid),
        )
        path = self._profile.control_path
        self._fs.write(path, 0, body)
        self._fs.fsync(path)

    def _write_slot(self, ckpt_seq: int, redo_lsn: int, next_txid: int) -> None:
        body = _SLOT.pack(
            ckpt_seq, redo_lsn, next_txid,
            _control_crc(ckpt_seq, redo_lsn, next_txid),
        )
        body += b"\x00" * (SLOT_SIZE - len(body))
        offset = self._profile.checkpoint_slot_offsets[self._slot_toggle]
        self._slot_toggle = (self._slot_toggle + 1) % len(
            self._profile.checkpoint_slot_offsets
        )
        path = self._profile.wal_path(0)
        self._fs.write(path, offset, body)
        self._fs.fsync(path)

    # -- read -----------------------------------------------------------------

    def read(self) -> tuple[int, int, int]:
        """Return ``(ckpt_seq, redo_lsn, next_txid)``.

        Raises:
            RecoveryError: if no valid checkpoint pointer exists.
        """
        if self._profile.ring_wal:
            return self._read_slots()
        return self._read_pg_control()

    def _read_pg_control(self) -> tuple[int, int, int]:
        path = self._profile.control_path
        if not self._fs.exists(path):
            raise RecoveryError(f"missing control file {path!r}")
        raw = self._fs.read(path, 0, _PG_CONTROL.size)
        if len(raw) < _PG_CONTROL.size:
            raise RecoveryError("control file truncated")
        magic, seq, redo, txid, crc = _PG_CONTROL.unpack(raw)
        if magic != _PG_MAGIC or crc != _control_crc(seq, redo, txid):
            raise RecoveryError("control file corrupt")
        return seq, redo, txid

    def _read_slots(self) -> tuple[int, int, int]:
        path = self._profile.wal_path(0)
        if not self._fs.exists(path):
            raise RecoveryError(f"missing WAL ring file {path!r}")
        best: tuple[int, int, int] | None = None
        for offset in self._profile.checkpoint_slot_offsets:
            raw = self._fs.read(path, offset, _SLOT.size)
            if len(raw) < _SLOT.size:
                continue
            seq, redo, txid, crc = _SLOT.unpack(raw)
            if crc != _control_crc(seq, redo, txid):
                continue
            if best is None or seq > best[0]:
                best = (seq, redo, txid)
        if best is None:
            raise RecoveryError("no valid checkpoint slot in ib_logfile0")
        # Next write overwrites the *older* slot.
        newest_at = max(
            range(len(self._profile.checkpoint_slot_offsets)),
            key=lambda i: self._slot_seq(path, i),
        )
        self._slot_toggle = (newest_at + 1) % len(
            self._profile.checkpoint_slot_offsets
        )
        return best

    def _slot_seq(self, path: str, slot_index: int) -> int:
        offset = self._profile.checkpoint_slot_offsets[slot_index]
        raw = self._fs.read(path, offset, _SLOT.size)
        if len(raw) < _SLOT.size:
            return -1
        seq, redo, txid, crc = _SLOT.unpack(raw)
        if crc != _control_crc(seq, redo, txid):
            return -1
        return seq


def _control_crc(ckpt_seq: int, redo_lsn: int, next_txid: int) -> int:
    return zlib.crc32(struct.pack("<QQQ", ckpt_seq, redo_lsn, next_txid))
