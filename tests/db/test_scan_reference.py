"""Property: ``WALStreamReader.scan_from`` against a reference decoder.

The reference walks a stream frame by frame on ``serialize.take_*``, the
way the layout in ``db/records.py``'s docstring reads.  Fed any
truncation or byte flips of a valid stream — and frames whose CRC holds
over a body that does not parse — the scanner must stop at exactly the
frame where the reference stops, and never raise.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import IntegrityError
from repro.common.serialize import pack_u32, take_bytes, take_str, take_u32, take_u64
from repro.common.units import KiB
from repro.db.profiles import POSTGRES_PROFILE
from repro.db.records import (
    CheckpointRecord,
    CommitRecord,
    OpRecord,
    TYPE_CHECKPOINT,
    TYPE_COMMIT,
    TYPE_DELETE,
    TYPE_PUT,
    _frame,
)
from repro.db.wal import WALStreamReader
from repro.storage.memory import MemoryFileSystem

SEG = 64 * KiB
HEADER = struct.Struct("<HBQQI")  # magic, type, txid, lsn, body_len
MAGIC = 0xD81A


def reference_scan(stream: bytes, lsn: int) -> list:
    """``(record, start_lsn, end_lsn)`` for each valid frame of
    ``stream``, the first one at ``lsn``."""
    out = []
    offset = 0
    while offset + HEADER.size <= len(stream):
        magic, rtype, txid, frame_lsn, body_len = HEADER.unpack_from(stream, offset)
        if magic != MAGIC or frame_lsn != lsn:
            break
        end_body = offset + HEADER.size + body_len
        try:
            crc, end = take_u32(stream, end_body)
        except IntegrityError:
            break
        if crc != zlib.crc32(stream[offset:end_body]):
            break
        body = stream[offset + HEADER.size:end_body]
        try:
            if rtype in (TYPE_PUT, TYPE_DELETE):
                table, pos = take_str(body, 0)
                key, pos = take_str(body, pos)
                value = take_bytes(body, pos)[0] if rtype == TYPE_PUT else b""
                record = OpRecord(txid, rtype, table, key, value)
            elif rtype == TYPE_COMMIT:
                record = CommitRecord(txid)
            elif rtype == TYPE_CHECKPOINT:
                record = CheckpointRecord(txid, take_u64(body, 0)[0])
            else:
                break
        except (IntegrityError, UnicodeDecodeError):
            break
        out.append((record, lsn, lsn + end - offset))
        lsn += end - offset
        offset = end
    return out


@dataclass(frozen=True)
class RawFrame:
    """A frame with a valid CRC over an arbitrary body — short or
    overlong fields, non-UTF-8 names, short checkpoints, unknown types —
    and, when ``stale``, an LSN from another lap of a ring."""

    rtype: int
    body: bytes
    stale: bool = False

    def encode(self, lsn: int) -> bytes:
        return _frame(self.rtype, 5, lsn + 8192 * self.stale, self.body)


def fields_of(*sizes_and_payloads) -> bytes:
    """A body of u32-length-prefixed payloads, lengths as given."""
    return b"".join(pack_u32(size) + data for size, data in sizes_and_payloads)


names = st.text(max_size=6)
well_formed = st.one_of(
    st.builds(OpRecord, st.integers(0, 2**40), st.just(TYPE_PUT), names, names,
              st.binary(max_size=300)),
    st.builds(OpRecord, st.integers(0, 2**40), st.just(TYPE_DELETE), names, names,
              st.just(b"")),
    st.builds(CommitRecord, st.integers(0, 2**40)),
    st.builds(CheckpointRecord, st.integers(0, 2**40), st.integers(0, 2**63)),
)
# Op bodies: two or three length-prefixed fields, each length true or
# missing its payload by a few bytes, each payload maybe not UTF-8.
payloads = st.one_of(
    st.text(max_size=4).map(str.encode), st.binary(max_size=6), st.just(b"\xff\xfe")
)
fields = st.lists(
    st.tuples(st.sampled_from([0, 0, 0, -1, 1, 4]), payloads), min_size=2, max_size=3
)
op_bodies = fields.map(lambda chosen: fields_of(
    *((max(0, len(data) + miss), data) for miss, data in chosen)
))
records = st.one_of(
    well_formed,
    st.builds(RawFrame, st.sampled_from([TYPE_PUT, TYPE_DELETE]), op_bodies),
    st.builds(RawFrame, st.sampled_from([TYPE_CHECKPOINT, 0, 9]), st.binary(max_size=12)),
    st.builds(RawFrame, st.just(TYPE_COMMIT), st.just(b""), st.just(True)),
)


def encode_stream(chosen) -> tuple[bytes, list[int]]:
    """The stream from LSN 0, and each frame's start LSN."""
    parts, starts, lsn = [], [], 0
    for record in chosen:
        frame = record.encode(lsn)
        starts.append(lsn)
        parts.append(frame)
        lsn += len(frame)
    return b"".join(parts), starts


def scan(stream: bytes, from_lsn: int) -> list:
    """``scan_from(from_lsn)`` over a WAL whose one segment is ``stream``."""
    fs = MemoryFileSystem()
    fs.write(POSTGRES_PROFILE.wal_path(0), 0, stream)
    return list(WALStreamReader(fs, POSTGRES_PROFILE, SEG).scan_from(from_lsn))


@settings(max_examples=50, deadline=None)
@given(chosen=st.lists(well_formed, max_size=30))
def test_a_clean_stream_scans_whole(chosen):
    stream, starts = encode_stream(chosen)
    ends = starts[1:] + [len(stream)]
    expected = list(zip(chosen, starts, ends))
    assert reference_scan(stream, 0) == expected
    assert scan(stream, 0) == expected


# Frames one check away from valid: the value, the key, a checkpoint
# body and a name each end just past the body or do not decode, and a
# commit comes from another lap.
CORNERS = [
    RawFrame(TYPE_PUT, fields_of((1, b"t"), (1, b"k"), (3, b"v"))),
    RawFrame(TYPE_DELETE, fields_of((1, b"t"), (4, b"k"))),
    RawFrame(TYPE_PUT, fields_of((5, b"stock"), (2, b"\xff\xfe"), (1, b"v"))),
    RawFrame(TYPE_CHECKPOINT, b"\x01\x02"),
    RawFrame(TYPE_COMMIT, b"", stale=True),
]


@settings(max_examples=200, deadline=None)
@given(
    chosen=st.lists(records, max_size=30),
    cut=st.one_of(st.none(), st.integers(0, 2**20)),
    flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), max_size=3),
    first=st.integers(0, 30),
)
@example(chosen=[CommitRecord(1), CORNERS[0], CommitRecord(2)], cut=None, flips=[], first=0)
@example(chosen=[CommitRecord(1), CORNERS[1], CommitRecord(2)], cut=None, flips=[], first=0)
@example(chosen=[CORNERS[2], CommitRecord(2)], cut=None, flips=[], first=0)
@example(chosen=[CORNERS[3], CommitRecord(2)], cut=None, flips=[], first=0)
@example(chosen=[CommitRecord(1), CORNERS[4], CommitRecord(2)], cut=None, flips=[], first=0)
def test_scan_stops_where_the_reference_stops(chosen, cut, flips, first):
    stream, starts = encode_stream(chosen)
    mutated = bytearray(stream if cut is None else stream[:cut % (len(stream) + 1)])
    for at, mask in flips:
        if mutated:
            mutated[at % len(mutated)] ^= mask
    # From a frame boundary: mid-stream whenever ``first`` picks one.
    from_lsn = starts[first % len(starts)] if starts else 0
    assert scan(bytes(mutated), from_lsn) == reference_scan(
        bytes(mutated[from_lsn:]), from_lsn
    )
