"""WAL record framing."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.common.serialize import pack_bytes, pack_u32
from repro.common.units import KiB
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.db.records import (
    CheckpointRecord,
    CommitRecord,
    OpRecord,
    TYPE_CHECKPOINT,
    TYPE_DELETE,
    TYPE_PUT,
    _frame,
    decode_record,
)
from repro.storage.memory import MemoryFileSystem


class TestRoundTrip:
    def test_put_record(self):
        rec = OpRecord(txid=7, op=TYPE_PUT, table="orders", key="o1", value=b"row")
        decoded, end = decode_record(rec.encode(100), 0, expected_lsn=100)
        assert decoded == rec
        assert end == len(rec.encode(100))

    def test_delete_record(self):
        rec = OpRecord(txid=3, op=TYPE_DELETE, table="t", key="k")
        decoded, _ = decode_record(rec.encode(0), 0)
        assert decoded == rec

    def test_commit_record(self):
        rec = CommitRecord(txid=9)
        decoded, _ = decode_record(rec.encode(0), 0)
        assert decoded == rec

    def test_checkpoint_record(self):
        rec = CheckpointRecord(seq=4, redo_lsn=12345)
        decoded, _ = decode_record(rec.encode(0), 0)
        assert decoded == rec


class TestValidation:
    def test_zero_bytes_are_not_a_record(self):
        assert decode_record(b"\x00" * 64, 0) is None

    def test_truncated_frame_rejected(self):
        raw = OpRecord(txid=1, op=TYPE_PUT, table="t", key="k", value=b"v").encode(0)
        assert decode_record(raw[:-1], 0) is None
        assert decode_record(raw[:5], 0) is None

    def test_corrupted_body_rejected(self):
        raw = bytearray(CommitRecord(txid=1).encode(0))
        raw[3] ^= 0xFF
        assert decode_record(bytes(raw), 0) is None

    def test_lsn_mismatch_rejected(self):
        """A stale frame from a previous ring lap must not parse."""
        raw = CommitRecord(txid=1).encode(100)
        assert decode_record(raw, 0, expected_lsn=100) is not None
        assert decode_record(raw, 0, expected_lsn=612) is None

    def test_lsn_not_checked_when_not_requested(self):
        raw = CommitRecord(txid=1).encode(100)
        assert decode_record(raw, 0) is not None

    def test_decode_at_offset(self):
        a = CommitRecord(txid=1).encode(0)
        b = CommitRecord(txid=2).encode(len(a))
        buf = a + b
        rec, end = decode_record(buf, len(a), expected_lsn=len(a))
        assert rec == CommitRecord(txid=2)
        assert end == len(buf)


@given(
    txid=st.integers(min_value=0, max_value=2**63),
    table=st.text(min_size=1, max_size=20),
    key=st.text(min_size=0, max_size=50),
    value=st.binary(max_size=500),
    lsn=st.integers(min_value=0, max_value=2**62),
)
def test_put_roundtrip_property(txid, table, key, value, lsn):
    rec = OpRecord(txid=txid, op=TYPE_PUT, table=table, key=key, value=value)
    decoded, _ = decode_record(rec.encode(lsn), 0, expected_lsn=lsn)
    assert decoded == rec


@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_crash_decoder(garbage):
    decode_record(garbage, 0)  # must return None or a record, not raise


class TestValidFrameWithBadBody:
    """A frame whose CRC holds but whose body does not parse is the end of
    the log too: redo must stop there, never raise."""

    def test_non_utf8_key_is_not_a_record(self):
        frame = _frame(TYPE_PUT, 7, 0,
                       pack_bytes(b"stock") + pack_bytes(b"\xff\xfe") + pack_bytes(b"v"))
        assert decode_record(frame, 0) is None

    def test_non_utf8_table_is_not_a_record(self):
        frame = _frame(TYPE_DELETE, 7, 0, pack_bytes(b"\xc3") + pack_bytes(b"k"))
        assert decode_record(frame, 0) is None

    def test_short_checkpoint_body_is_not_a_record(self):
        assert decode_record(_frame(TYPE_CHECKPOINT, 1, 0, b"\x01\x02"), 0) is None

    def test_field_past_the_body_is_not_a_record(self):
        body = pack_bytes(b"t") + pack_bytes(b"k") + pack_u32(1000) + b"v"
        assert decode_record(_frame(TYPE_PUT, 1, 0, body), 0) is None

    def test_open_treats_a_non_utf8_frame_as_the_end_of_the_log(self):
        fs = MemoryFileSystem()
        config = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
        db = MiniDB.create(fs, POSTGRES_PROFILE, config)
        db.put("stock", "a", b"1")
        db._wal.append(_frame(
            TYPE_PUT, 7, db.lsn,
            pack_bytes(b"stock") + pack_bytes(b"\xff\xfe") + pack_bytes(b"v"),
        ))
        db._wal.append(CommitRecord(txid=7).encode(db.lsn))
        db._wal.flush()
        db.crash()
        recovered = MiniDB.open(fs, POSTGRES_PROFILE, config)
        assert recovered.row_count("stock") == 1
        assert recovered.get("stock", "a") == b"1"
        assert recovered.recovered_ops == 1
