"""WAL writer, layout, stream reader and checkpoint pointers."""

from __future__ import annotations

import pytest

from repro.common.errors import DatabaseError, RecoveryError
from repro.common.units import KiB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.db.records import CommitRecord, OpRecord, TYPE_PUT
from repro.db.wal import ControlState, WALLayout, WALStreamReader, WALWriter
from repro.storage.memory import MemoryFileSystem

SEG = 64 * KiB  # small segments so tests cross boundaries cheaply
MYSQL_SEG = 16 * KiB


class CountingFS(MemoryFileSystem):
    """A memory file system that logs every call as ``(verb, path, …)``."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple] = []

    def count(self, verb: str) -> int:
        return len(self.paths(verb))

    def paths(self, verb: str) -> list[str]:
        return [call[1] for call in self.calls if call[0] == verb]

    def write(self, path, offset, data):
        self.calls.append(("write", path, offset, len(data)))
        super().write(path, offset, data)

    def fsync(self, path):
        self.calls.append(("fsync", path))
        super().fsync(path)

    def truncate(self, path, size):
        self.calls.append(("truncate", path, size))
        super().truncate(path, size)

    def rename(self, src, dst):
        self.calls.append(("rename", src, dst))
        super().rename(src, dst)

    def unlink(self, path):
        self.calls.append(("unlink", path))
        super().unlink(path)

    def exists(self, path):
        self.calls.append(("exists", path))
        return super().exists(path)


class TestLayoutPostgres:
    def test_lsn_maps_into_segments(self):
        layout = WALLayout(POSTGRES_PROFILE, SEG)
        assert layout.locate(0) == (POSTGRES_PROFILE.wal_path(0), 0)
        assert layout.locate(SEG) == (POSTGRES_PROFILE.wal_path(1), 0)
        assert layout.locate(SEG + 17) == (POSTGRES_PROFILE.wal_path(1), 17)

    def test_segment_names_sort_with_lsn(self):
        names = [POSTGRES_PROFILE.wal_path(i) for i in range(300)]
        assert names == sorted(names)

    def test_no_ring_capacity(self):
        assert WALLayout(POSTGRES_PROFILE, SEG).ring_capacity == 0


class TestLayoutMySQL:
    def test_ring_wraps_across_files(self):
        layout = WALLayout(MYSQL_PROFILE, MYSQL_SEG)
        usable = MYSQL_SEG - MYSQL_PROFILE.wal_header_size
        header = MYSQL_PROFILE.wal_header_size
        assert layout.locate(0) == ("ib_logfile0", header)
        assert layout.locate(usable) == ("ib_logfile1", header)
        # A full lap returns to file 0 just past the header.
        assert layout.locate(2 * usable) == ("ib_logfile0", header)
        assert layout.ring_capacity == 2 * usable

    def test_header_area_never_used_for_log(self):
        layout = WALLayout(MYSQL_PROFILE, MYSQL_SEG)
        for lsn in range(0, 4 * MYSQL_SEG, 512):
            _path, offset = layout.locate(lsn)
            assert offset >= MYSQL_PROFILE.wal_header_size


class TestWALWriter:
    def test_append_then_flush_writes_full_pages(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"x" * 100)
        writer.flush()
        seg0 = POSTGRES_PROFILE.wal_path(0)
        assert fs.size(seg0) == SEG  # preallocated
        assert fs.read(seg0, 0, 100) == b"x" * 100
        assert writer.flushed_lsn == 100

    def test_partial_page_rewritten_as_it_fills(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"a" * 10)
        writer.flush()
        first_pages = writer.pages_written
        writer.append(b"b" * 10)
        writer.flush()
        assert writer.pages_written == first_pages + 1  # same page again
        assert fs.read(POSTGRES_PROFILE.wal_path(0), 0, 20) == b"a" * 10 + b"b" * 10

    def test_flush_is_idempotent(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"x")
        writer.flush()
        count = writer.pages_written
        writer.flush()
        assert writer.pages_written == count

    def test_crossing_segment_boundary_creates_next_segment(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"z" * (SEG + 100))
        writer.flush()
        assert fs.exists(POSTGRES_PROFILE.wal_path(1))
        assert fs.read(POSTGRES_PROFILE.wal_path(1), 0, 100) == b"z" * 100

    def test_ring_wrap_overwrites_old_space(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG)
        writer.preallocate_initial()
        capacity = writer.layout.ring_capacity
        writer.append(b"1" * 600)
        writer.flush()
        # Advance a full lap: same physical location, new content.
        writer.append(b"2" * capacity)
        writer.flush()
        header = MYSQL_PROFILE.wal_header_size
        assert fs.read("ib_logfile0", header, 1) == b"2"
        assert not fs.exists("ib_logfile2")

    def test_drop_segments_before(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"x" * (3 * SEG))
        writer.flush()
        removed = writer.drop_segments_before(2 * SEG + 5)
        assert removed == [POSTGRES_PROFILE.wal_path(0), POSTGRES_PROFILE.wal_path(1)]
        assert fs.exists(POSTGRES_PROFILE.wal_path(2))

    def test_ring_never_drops_files(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG)
        writer.preallocate_initial()
        writer.append(b"x" * 5000)
        writer.flush()
        assert writer.drop_segments_before(4096) == []

    def test_misaligned_segment_size_rejected(self):
        with pytest.raises(DatabaseError):
            WALWriter(MemoryFileSystem(), POSTGRES_PROFILE, segment_size=SEG + 1)

    def test_resume_from_tail(self):
        """A writer reconstructed at a mid-page LSN continues the stream."""
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"abc")
        writer.flush()
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        tail = reader.read_tail(3)
        resumed = WALWriter(
            fs, POSTGRES_PROFILE, segment_size=SEG, start_lsn=3, tail=tail
        )
        resumed.append(b"def")
        resumed.flush()
        assert fs.read(POSTGRES_PROFILE.wal_path(0), 0, 6) == b"abcdef"

    def test_resume_tail_mismatch_rejected(self):
        with pytest.raises(DatabaseError):
            WALWriter(
                MemoryFileSystem(),
                POSTGRES_PROFILE,
                segment_size=SEG,
                start_lsn=10,
                tail=b"short",
            )


class TestSegmentProbeCensus:
    """The writer keeps its segment open: it probes a WAL file only when
    a flush enters a different one, never once per page written."""

    @staticmethod
    def _commit_pages(writer, profile, commits):
        """``commits`` commits of one whole page each."""
        for _ in range(commits):
            writer.append(b"p" * profile.wal_page_size)
            writer.flush()

    def test_commits_inside_one_segment_probe_once(self):
        fs = CountingFS()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        pages = SEG // POSTGRES_PROFILE.wal_page_size
        self._commit_pages(writer, POSTGRES_PROFILE, pages)
        assert fs.count("write") == writer.pages_written == pages
        assert fs.count("exists") == 1
        assert fs.count("truncate") == 1  # the one preallocation

    def test_crossing_a_segment_boundary_probes_the_new_segment(self):
        fs = CountingFS()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        pages = SEG // POSTGRES_PROFILE.wal_page_size
        self._commit_pages(writer, POSTGRES_PROFILE, 2 * pages + 1)
        assert fs.count("write") == 2 * pages + 1
        assert fs.paths("exists") == [
            POSTGRES_PROFILE.wal_path(index) for index in range(3)
        ]

    def test_sub_page_commits_rewrite_one_page_probing_once(self):
        fs = CountingFS()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        for _ in range(20):
            writer.append(b"c" * 100)
            writer.flush()
        assert fs.count("write") == writer.pages_written == 20
        assert fs.count("fsync") == 20
        assert fs.count("exists") == 1

    def test_ring_wrap_probes_once_per_ring_file_entered(self):
        fs = CountingFS()
        writer = WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG)
        writer.preallocate_initial()
        assert fs.count("exists") == MYSQL_PROFILE.ring_files
        fs.calls.clear()
        per_file = ((MYSQL_SEG - MYSQL_PROFILE.wal_header_size)
                    // MYSQL_PROFILE.wal_page_size)
        # ib_logfile0, ib_logfile1, then ib_logfile0 again after the wrap.
        self._commit_pages(writer, MYSQL_PROFILE, 2 * per_file + 3)
        assert fs.count("write") == 2 * per_file + 3
        assert fs.paths("exists") == [
            "ib_logfile0", "ib_logfile1", "ib_logfile0",
        ]
        assert fs.count("truncate") == 0

    def test_resumed_writer_probes_its_first_segment(self):
        fs = CountingFS()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        self._commit_pages(writer, POSTGRES_PROFILE, 2)
        fs.calls.clear()
        resumed = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG,
                            start_lsn=writer.lsn)
        self._commit_pages(resumed, POSTGRES_PROFILE, 3)
        assert fs.count("exists") == 1
        assert fs.count("write") == 3

    def test_retiring_the_open_segment_forgets_it(self):
        fs = CountingFS()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(b"x" * 100)
        writer.flush()
        # A caller dropping ahead of the writer retires its open segment;
        # the next flush must recreate it, not write into a missing file.
        writer.drop_segments_before(SEG)
        assert not fs.exists(POSTGRES_PROFILE.wal_path(0))
        writer.append(b"y")
        writer.flush()
        assert fs.size(POSTGRES_PROFILE.wal_path(0)) == SEG
        assert fs.read(POSTGRES_PROFILE.wal_path(0), 100, 1) == b"y"


class TestStreamReader:
    def _write_records(self, fs, profile, seg, records):
        writer = WALWriter(fs, profile, segment_size=seg)
        writer.preallocate_initial()
        lsns = []
        for rec in records:
            lsns.append(writer.append(rec.encode(writer.lsn)))
        writer.flush()
        return lsns

    def test_scan_yields_all_records(self):
        fs = MemoryFileSystem()
        records = [
            OpRecord(txid=1, op=TYPE_PUT, table="t", key=f"k{i}", value=b"v")
            for i in range(10)
        ] + [CommitRecord(txid=1)]
        self._write_records(fs, POSTGRES_PROFILE, SEG, records)
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        scanned = [rec for rec, _s, _e in reader.scan_from(0)]
        assert scanned == records

    def test_scan_stops_at_unflushed_region(self):
        fs = MemoryFileSystem()
        writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=SEG)
        writer.append(CommitRecord(txid=1).encode(writer.lsn))
        writer.flush()
        writer.append(CommitRecord(txid=2).encode(writer.lsn))  # never flushed
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        scanned = [rec for rec, _s, _e in reader.scan_from(0)]
        assert scanned == [CommitRecord(txid=1)]

    def test_scan_from_mid_stream(self):
        fs = MemoryFileSystem()
        records = [CommitRecord(txid=i) for i in range(5)]
        lsns = self._write_records(fs, POSTGRES_PROFILE, SEG, records)
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        scanned = [rec for rec, _s, _e in reader.scan_from(lsns[2])]
        assert scanned == records[2:]

    def test_ring_scan_rejects_stale_lap(self):
        """After wrapping, old frames at the same offsets must not be
        yielded for the new lap's LSNs."""
        fs = MemoryFileSystem()
        writer = WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG)
        writer.preallocate_initial()
        capacity = writer.layout.ring_capacity
        # Nearly fill a lap with records, then scan from a point whose
        # physical bytes still hold lap-0 data.
        while writer.lsn < capacity - 2048:
            writer.append(CommitRecord(txid=writer.lsn).encode(writer.lsn))
        writer.flush()
        reader = WALStreamReader(fs, MYSQL_PROFILE, MYSQL_SEG)
        lap2_start = writer.lsn + capacity  # a lap ahead: nothing written yet
        assert [r for r, _s, _e in reader.scan_from(lap2_start)] == []

    def test_read_stream_probes_each_segment_on_entry(self):
        fs = CountingFS()
        records = [
            OpRecord(txid=i, op=TYPE_PUT, table="t", key=f"k{i}", value=b"v" * 3000)
            for i in range(50)  # ≈ 150 KiB: segments 0, 1 and 2
        ]
        self._write_records(fs, POSTGRES_PROFILE, SEG, records)
        fs.calls.clear()
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        stream = reader.read_stream(0)
        paths = [POSTGRES_PROFILE.wal_path(i) for i in range(4)]
        # One probe per segment entered; the missing fourth ends the stream.
        assert fs.paths("exists") == paths
        assert stream == b"".join(fs.read_all(path) for path in paths[:3])
        assert [r for r, _s, _e in reader.scan_from(0)] == records

    def test_ring_read_stream_probes_each_file_on_entry(self):
        fs = CountingFS()
        writer = WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG)
        writer.preallocate_initial()
        records = [CommitRecord(txid=i) for i in range(800)]  # ≈ 1.3 files
        for rec in records:
            writer.append(rec.encode(writer.lsn))
        writer.flush()
        fs.calls.clear()
        reader = WALStreamReader(fs, MYSQL_PROFILE, MYSQL_SEG)
        header = MYSQL_PROFILE.wal_header_size
        files = [fs.read_all(f"ib_logfile{i}")[header:] for i in range(2)]
        assert reader.read_stream(0) == files[0] + files[1]
        assert fs.paths("exists") == ["ib_logfile0", "ib_logfile1"]
        # From inside the second file the stream wraps through the first
        # and back to where it began: one lap, three files entered.
        fs.calls.clear()
        lsn = len(files[0]) + 512
        lap = files[1][512:] + files[0] + files[1][:512]
        assert reader.read_stream(lsn) == lap
        assert fs.paths("exists") == ["ib_logfile1", "ib_logfile0", "ib_logfile1"]
        assert [r for r, _s, _e in reader.scan_from(0)] == records

    def test_scan_stops_at_missing_segment(self):
        fs = MemoryFileSystem()
        records = [CommitRecord(txid=i) for i in range(3)]
        self._write_records(fs, POSTGRES_PROFILE, SEG, records)
        fs.unlink(POSTGRES_PROFILE.wal_path(0))
        reader = WALStreamReader(fs, POSTGRES_PROFILE, SEG)
        assert [r for r, _s, _e in reader.scan_from(0)] == []


class TestControlState:
    @pytest.mark.parametrize("profile,seg", [
        (POSTGRES_PROFILE, SEG),
        (MYSQL_PROFILE, MYSQL_SEG),
    ])
    def test_write_read_roundtrip(self, profile, seg):
        fs = MemoryFileSystem()
        WALWriter(fs, profile, segment_size=seg).preallocate_initial()
        control = ControlState(fs, profile)
        control.write(3, 4096, 77)
        assert ControlState(fs, profile).read() == (3, 4096, 77)

    def test_missing_control_raises(self):
        fs = MemoryFileSystem()
        with pytest.raises(RecoveryError):
            ControlState(fs, POSTGRES_PROFILE).read()

    def test_pg_corrupt_control_raises(self):
        fs = MemoryFileSystem()
        control = ControlState(fs, POSTGRES_PROFILE)
        control.write(1, 100, 2)
        fs.corrupt(POSTGRES_PROFILE.control_path, 8, b"\xff\xff")
        with pytest.raises(RecoveryError):
            ControlState(fs, POSTGRES_PROFILE).read()

    def test_mysql_slots_alternate(self):
        fs = MemoryFileSystem()
        WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG).preallocate_initial()
        control = ControlState(fs, MYSQL_PROFILE)
        control.write(1, 100, 2)
        control.write(2, 200, 3)
        # Both slots hold valid data; the newest wins.
        assert ControlState(fs, MYSQL_PROFILE).read() == (2, 200, 3)

    def test_mysql_survives_one_corrupt_slot(self):
        """A crash mid-checkpoint-write leaves one torn slot; recovery
        must fall back to the other — InnoDB's alternating-slot design."""
        fs = MemoryFileSystem()
        WALWriter(fs, MYSQL_PROFILE, segment_size=MYSQL_SEG).preallocate_initial()
        control = ControlState(fs, MYSQL_PROFILE)
        control.write(1, 100, 2)
        control.write(2, 200, 3)
        # Corrupt the newer slot (seq=2 went to the second offset used).
        fs.corrupt("ib_logfile0", 512 + 4, b"\xde\xad")  # seq=1 slot? check both
        fresh = ControlState(fs, MYSQL_PROFILE)
        seq, redo, txid = fresh.read()
        assert (seq, redo, txid) in [(1, 100, 2), (2, 200, 3)]
