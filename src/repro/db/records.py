"""WAL record encoding.

The WAL is a byte stream of self-delimiting records.  Each record is::

    magic(2) | type(1) | txid(8) | lsn(8) | body_len(4) | body | crc32(4)

The CRC covers everything before it, so redo can walk the stream and
stop at the first frame that fails validation — the torn tail of a
crashed log, or the point where a partially-replicated cloud WAL ends.

The frame embeds its own LSN (stream position).  That matters for the
MySQL profile, whose ring WAL physically reuses file space: after a
wrap, the bytes at a given offset may still hold a *valid* frame from a
previous lap, and only the LSN mismatch reveals it as stale.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, NamedTuple

from repro.common.serialize import pack_bytes, pack_str

_HEADER = struct.Struct("<HBQQI")  # magic, type, txid, lsn, body_len
_CRC = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_MAGIC = 0xD81A  # arbitrary; cannot appear in zero-filled page padding

TYPE_PUT = 1
TYPE_DELETE = 2
TYPE_COMMIT = 3
TYPE_CHECKPOINT = 4

#: Frame overhead added to a record body.
FRAME_OVERHEAD = _HEADER.size + _CRC.size


# Records are immutable named tuples: redo builds one per frame, and a
# tuple costs a quarter of a frozen dataclass to construct.
class OpRecord(NamedTuple):
    """A logical row operation inside a transaction."""

    txid: int
    op: int          # TYPE_PUT or TYPE_DELETE
    table: str
    key: str
    value: bytes = b""

    def encode(self, lsn: int) -> bytes:
        body = pack_str(self.table) + pack_str(self.key)
        if self.op == TYPE_PUT:
            body += pack_bytes(self.value)
        return _frame(self.op, self.txid, lsn, body)


class CommitRecord(NamedTuple):
    """Marks ``txid`` as committed; redo applies a txn only past this."""

    txid: int

    def encode(self, lsn: int) -> bytes:
        return _frame(TYPE_COMMIT, self.txid, lsn, b"")


class CheckpointRecord(NamedTuple):
    """The in-WAL checkpoint marker — the 'special record' of §4.

    ``seq`` is the checkpoint sequence number; ``redo_lsn`` is where redo
    must start for this checkpoint.
    """

    seq: int
    redo_lsn: int

    def encode(self, lsn: int) -> bytes:
        return _frame(TYPE_CHECKPOINT, self.seq, lsn, _U64.pack(self.redo_lsn))


WALRecord = OpRecord | CommitRecord | CheckpointRecord


def _frame(rtype: int, txid: int, lsn: int, body: bytes) -> bytes:
    head = _HEADER.pack(_MAGIC, rtype, txid, lsn, len(body))
    crc = zlib.crc32(head + body)
    return head + body + _CRC.pack(crc)


def decode_record(
    buf: bytes, offset: int, expected_lsn: int | None = None
) -> tuple[WALRecord, int] | None:
    """Decode one record at ``offset`` of ``buf``.

    Returns ``(record, next_offset)``, or ``None`` when the bytes are not
    a valid frame or (if ``expected_lsn`` is given) the frame's embedded
    LSN disagrees — i.e. it is stale data from a previous ring lap.
    """
    for record, start, end in iter_records(buf, offset, expected_lsn):
        return record, offset + end - start
    return None


def iter_records(
    buf: bytes, offset: int = 0, lsn: int | None = None
) -> Iterator[tuple[WALRecord, int, int]]:
    """Yield ``(record, start_lsn, end_lsn)`` for each valid frame of
    ``buf`` from ``offset``, the first one at stream position ``lsn``
    (any, if ``None``) and each later one where its predecessor ends.

    Stops at the first frame that is short, fails its magic, LSN or CRC
    check, has a field running past its body (or non-UTF-8 names), or
    has an unknown type: the end of the log.  Each frame is walked here
    in one pass — redo's per-record cost is this loop.
    """
    buf = bytes(buf)
    view = memoryview(buf)
    size = len(buf)
    header, u32, crc32 = _HEADER.unpack_from, _CRC.unpack_from, zlib.crc32
    while True:
        pos = offset + _HEADER.size
        if pos > size:
            return
        magic, rtype, txid, frame_lsn, body_len = header(buf, offset)
        if magic != _MAGIC or (lsn is not None and frame_lsn != lsn):
            return
        end_body = pos + body_len
        end = end_body + _CRC.size
        if end > size or u32(buf, end_body)[0] != crc32(view[offset:end_body]):
            return
        if rtype == TYPE_PUT or rtype == TYPE_DELETE:
            # table, key[, value]: each a u32 length + payload.  Field ends
            # only grow, so if the last lies inside the body, all do.
            try:
                key_at = pos + 4 + u32(buf, pos)[0]
                value_at = key_at + 4 + u32(buf, key_at)[0]
                stop = value_at
                if rtype == TYPE_PUT:
                    stop += 4 + u32(buf, value_at)[0]
                if stop > end_body:
                    return
                table = buf[pos + 4:key_at].decode()
                key = buf[key_at + 4:value_at].decode()
            except (struct.error, UnicodeDecodeError):
                return
            record = OpRecord(txid, rtype, table, key, buf[value_at + 4:stop])
        elif rtype == TYPE_COMMIT:
            record = CommitRecord(txid)
        elif rtype == TYPE_CHECKPOINT and body_len >= _U64.size:
            record = CheckpointRecord(txid, _U64.unpack_from(buf, pos)[0])
        else:
            return
        lsn = frame_lsn + end - offset
        yield record, frame_lsn, lsn
        offset = end
