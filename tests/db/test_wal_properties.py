"""Property tests: the WAL writer against a reference byte-stream model.

For any interleaving of appends and flushes, the bytes durable in the
files must equal the reference stream up to the last flush point — for
both the append-mode and ring layouts.  And a writer that keeps its
segment open must leave the same files, through the same calls bar the
existence probes, as one that probes before every page.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.common.units import KiB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.db.wal import WALStreamReader, WALWriter
from repro.storage.memory import MemoryFileSystem
from tests.db.test_wal import CountingFS

PG_SEG = 16 * KiB
MY_SEG = 8 * KiB


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.binary(min_size=1, max_size=3000),  # append
            st.just("flush"),
        ),
        max_size=25,
    ),
    profile_name=st.sampled_from(["postgres", "mysql"]),
)
def test_flushed_bytes_match_reference_stream(ops, profile_name):
    profile = POSTGRES_PROFILE if profile_name == "postgres" else MYSQL_PROFILE
    seg = PG_SEG if profile_name == "postgres" else MY_SEG
    fs = MemoryFileSystem()
    writer = WALWriter(fs, profile, segment_size=seg)
    writer.preallocate_initial()
    reference = bytearray()
    flushed_upto = 0
    ring_capacity = writer.layout.ring_capacity
    for op in ops:
        if op == "flush":
            writer.flush()
            flushed_upto = len(reference)
        else:
            # Keep ring streams within one lap so old bytes stay readable.
            if ring_capacity and len(reference) + len(op) > ring_capacity:
                continue
            writer.append(bytes(op))
            reference.extend(op)
    writer.flush()
    flushed_upto = len(reference)

    reader = WALStreamReader(fs, profile, seg)
    stream = reader.read_stream(0, max_bytes=flushed_upto or 1)
    assert stream[:flushed_upto] == bytes(reference[:flushed_upto])


@settings(max_examples=30, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=2000), min_size=1,
                    max_size=15),
    resume_after=st.integers(min_value=0, max_value=14),
)
def test_resume_mid_stream_continues_correctly(chunks, resume_after):
    """Write, stop at an arbitrary point, resume with a new writer from
    the flushed position (as recovery does), keep writing: the final
    stream is the concatenation."""
    fs = MemoryFileSystem()
    writer = WALWriter(fs, POSTGRES_PROFILE, segment_size=PG_SEG)
    cut = min(resume_after, len(chunks))
    for chunk in chunks[:cut]:
        writer.append(chunk)
    writer.flush()
    position = writer.lsn

    reader = WALStreamReader(fs, POSTGRES_PROFILE, PG_SEG)
    tail = reader.read_tail(position)
    resumed = WALWriter(fs, POSTGRES_PROFILE, segment_size=PG_SEG,
                        start_lsn=position, tail=tail)
    for chunk in chunks[cut:]:
        resumed.append(chunk)
    resumed.flush()

    expected = b"".join(chunks)
    stream = reader.read_stream(0, max_bytes=len(expected) or 1)
    assert stream[:len(expected)] == expected


class ProbeEveryPageWriter(WALWriter):
    """The reference: a writer that remembers no open segment, so it
    probes (and if need be creates) the segment before every page."""

    @property
    def _open_segment(self):
        return None

    @_open_segment.setter
    def _open_segment(self, _path):
        pass


def _image(fs):
    return {path: fs.read_all(path) for path in fs.files()}


def _without_probes(fs):
    return [call for call in fs.calls if call[0] != "exists"]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.integers(1, 20000),                          # append n bytes
            st.just("flush"),
            st.just("reopen"),                              # flush, new writer
            st.tuples(st.integers(0, 100)),                 # drop at pct of lsn
        ),
        max_size=30,
    ),
    profile_name=st.sampled_from(["postgres", "mysql"]),
)
# A drop ahead of the flushed position retires the open segment, which
# the next flush re-enters.
@example(ops=[100, "flush", 20000, (100,), "flush"],
         profile_name="postgres")
def test_open_segment_memo_changes_nothing_but_probes(ops, profile_name):
    """Against the probe-every-page reference, the memo leaves the file
    images and the write/fsync/truncate/rename/unlink stream identical,
    call for call: only ``exists`` calls disappear."""
    profile = POSTGRES_PROFILE if profile_name == "postgres" else MYSQL_PROFILE
    seg = PG_SEG if profile_name == "postgres" else MY_SEG
    sides = []
    for cls in (WALWriter, ProbeEveryPageWriter):
        fs = CountingFS()
        writer = cls(fs, profile, segment_size=seg)
        writer.preallocate_initial()
        sides.append([cls, fs, writer])
    for op in ops:
        for side in sides:
            cls, fs, writer = side
            if op == "flush":
                writer.flush()
            elif op == "reopen":
                writer.flush()
                lsn = writer.lsn
                tail = WALStreamReader(fs, profile, seg).read_tail(lsn)
                side[2] = cls(fs, profile, segment_size=seg, start_lsn=lsn,
                              tail=tail)
            elif isinstance(op, tuple):
                (pct,) = op
                current = writer.layout.locate(writer.lsn)[0]
                removed = writer.drop_segments_before(writer.lsn * pct // 100)
                # Never the segment being appended to, which the memo
                # may hold.
                assert current not in removed
            else:
                writer.append(bytes([writer.lsn % 251]) * op)
    for _cls, _fs, writer in sides:
        writer.flush()
    (_, memo_fs, _), (_, ref_fs, _) = sides
    assert _image(memo_fs) == _image(ref_fs)
    assert _without_probes(memo_fs) == _without_probes(ref_fs)
    assert memo_fs.count("exists") <= ref_fs.count("exists")
