"""Changed-range WAL shipping: the contract, through real GC and recovery.

The Aggregator ships the byte runs by which a rewritten page differs
from what it last planned there, and only against a write of the same
checkpoint epoch (``plan_writes`` over the shared ``Shadow`` /
``CloudView.begin_checkpoint``).
The contract: **recovery from any retained prefix reproduces, byte for
byte and length for length, every file range written since the
recovered checkpoint's begin event — exactly what whole-write shipping
reproduces there.**

The end-to-end suites below drive a real :class:`Ginja` (its
:class:`CheckpointUploader` GC included) with arbitrary bytes — no
MiniDB records, so nothing forgives a wrong byte below some redo point
it happens not to read — snapshot the bucket after every step, recover
each snapshot with :meth:`Ginja.recover`, and compare against the same
script run with ``coalesce_writes=False``, which ships every write
whole.  A mutant that ignores the epoch must fail them.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.common import events
from repro.common.clock import ManualClock
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core import commit_pipeline
from repro.core.commit_pipeline import (
    CommitPipeline, Marks, _CHUNK_FRAMING, plan_writes,
)
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta
from repro.core.ginja import Ginja
from repro.core.shadow import Shadow, _cut
from repro.core.stats import GinjaStats
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem

from tests.cloud.test_reactor import wait_for
from tests.core.test_commit_pipeline import decode_backend

PROFILE = POSTGRES_PROFILE
PAGE = 128
SEG = PROFILE.wal_path(0)


def wal_objects(backend) -> list[tuple[WALObjectMeta, list]]:
    """Every WAL object in the bucket, decoded, in timestamp order."""
    objects = decode_backend(backend)
    return [objects[ts] for ts in sorted(objects)]


def wal_planner(bound: int | None = None) -> tuple[Shadow, Marks]:
    """What a new pipeline plans against: an empty shadow, its bound
    and framing the pipeline's own, and no marks."""
    if bound is None:
        bound = commit_pipeline._SHADOW_BYTES
    return Shadow(bound, lambda _path: _CHUNK_FRAMING), Marks()


# -- the script: a page-granular WAL writer with checkpoints --------------------


def script(seed: int, checkpoints: int = 4) -> list[tuple]:
    """A seeded run of ``("wal", path, offset, page)`` writes around
    ``("begin",)``/``("end",)`` checkpoint events.

    Pages are rewritten whole as records land in them, as a DBMS does.
    The write right after each begin event appends a record *ending in
    zero bytes* to a page last written before it — the shape that tells
    a base GC may take from one it may not.
    """
    rng = random.Random(seed)
    steps: list[tuple] = []
    page_no, fill, page = 0, 0, bytearray(PAGE)

    def append(record: bytes) -> None:
        nonlocal page_no, fill, page
        while record:
            if fill == PAGE:
                page_no, fill, page = page_no + 1, 0, bytearray(PAGE)
            piece, record = record[:PAGE - fill], record[PAGE - fill:]
            page[fill:fill + len(piece)] = piece
            fill += len(piece)
            steps.append(("wal", SEG, page_no * PAGE, bytes(page)))

    def record(zero_tail: bool = False) -> bytes:
        body = bytes(rng.randrange(1, 256) for _ in range(rng.randint(1, 12)))
        return body + bytes(rng.randint(1, 4)) if zero_tail else body

    append(record())
    for _ in range(checkpoints):
        for _ in range(rng.randint(3, 9)):
            if rng.random() < 0.15:
                steps.append(steps[-1])  # the same page, written again
            else:
                append(record(zero_tail=rng.random() < 0.3))
        if PAGE - fill < 56:
            # Leave room: what the checkpoint sees written must all
            # land in this page, short of its end.
            append(bytes(rng.randrange(1, 256) for _ in range(PAGE - fill)))
            append(record())
        steps.append(("begin",))
        append(record(zero_tail=True))
        for _ in range(rng.randint(0, 3)):
            append(record())
        steps.append(("end",))
    for _ in range(rng.randint(2, 5)):
        append(record())
    return steps


def protect(coalesce: bool, *, batch: int = 1, wal: bytes = b"",
            max_object_bytes: int = 20_000_000, **wiring):
    """A booted Ginja over a scratch directory (whose first segment
    holds ``wal`` before boot), and its raw bucket."""
    disk = MemoryFileSystem()
    disk.write(PROFILE.table_path("t"), 0, bytes(4 * PAGE))
    if wal:
        disk.write(SEG, 0, wal)
    backend = InMemoryObjectStore()
    config = GinjaConfig(
        batch=batch, safety=10 * batch, batch_timeout=30.0,
        safety_timeout=60.0, coalesce_writes=coalesce,
        max_object_bytes=max_object_bytes,
    )
    ginja = Ginja(
        disk, SimulatedCloud(backend=backend, time_scale=0.0), PROFILE,
        config, **wiring,
    )
    ginja.start(mode="boot")
    return ginja, backend


def play(steps, ginja, backend) -> list[dict]:
    """Run the script against a protected directory, draining after
    every step; returns the bucket as a crash after each would leave
    it."""
    snapshots = []
    checkpoint = 0
    for step in steps:
        if step[0] == "wal":
            ginja.fs.write(*step[1:])
            assert ginja.pipeline.drain(timeout=10.0)
        elif step[0] == "begin":
            ginja.fs.write(PROFILE.clog_path, 0, b"\x01")
        else:
            checkpoint += 1
            ginja.fs.write(
                PROFILE.table_path("t"), (checkpoint % 4) * PAGE,
                bytes([checkpoint]) * PAGE,
            )
            ginja.fs.write(PROFILE.control_path, 0, bytes([checkpoint]) * 8)
            assert ginja.checkpointer.drain(timeout=10.0)
        snapshots.append(backend.snapshot())
    return snapshots


def recovered_files(snapshot: dict, profile=PROFILE, *, config=None,
                    upto_ts=None) -> dict[str, bytes]:
    """What ``Ginja.recover`` rebuilds from a crashed bucket."""
    backend = InMemoryObjectStore()
    for key, blob in snapshot.items():
        backend.put(key, blob)
    fresh = MemoryFileSystem()
    standby, _report = Ginja.recover(
        SimulatedCloud(backend=backend, time_scale=0.0), fresh, profile,
        config, upto_ts=upto_ts,
    )
    standby.stop()
    return {path: fresh.read_all(path) for path in fresh.files()}


def since_begin(steps, upto: int) -> list[tuple[str, int, int]]:
    """The (path, start, stop) ranges written from the begin event of
    the newest checkpoint completed by step ``upto`` (a completed "end"
    step: the script drains the uploader there) through that step."""
    begin = 0
    for index in range(upto + 1):
        if steps[index][0] == "begin":
            opened = index
        elif steps[index][0] == "end":
            begin = opened
    return [
        (step[1], step[2], step[2] + len(step[3]))
        for step in steps[begin:upto + 1] if step[0] == "wal"
    ]


def assert_contract(steps, shipped: list[dict], reference: list[dict]) -> None:
    """At every crash point: every range written since the recovered
    checkpoint began holds the reference's bytes, and each such file
    has the reference's length."""
    for upto, (ours, theirs) in enumerate(zip(shipped, reference)):
        got, want = recovered_files(ours), recovered_files(theirs)
        for path, start, stop in since_begin(steps, upto):
            where = f"step {upto} {path}[{start}:{stop}]"
            assert got[path][start:stop] == want[path][start:stop], where
            assert len(got[path]) == len(want[path]), where


def run_both(steps) -> tuple[list[dict], list[dict]]:
    """The script's crash snapshots under changed-range shipping and
    under the whole-write reference."""
    runs = []
    for coalesce in (True, False):
        ginja, backend = protect(coalesce)
        try:
            runs.append(play(steps, ginja, backend))
        finally:
            ginja.stop()
    return runs[0], runs[1]


def wal_bytes_ever_put(snapshots: list[dict]) -> int:
    seen = {key: len(blob) for bucket in snapshots
            for key, blob in bucket.items() if key.startswith("WAL/")}
    return sum(seen.values())


class TestTheContract:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_crash_point_recovers_what_whole_writes_recover(self, seed):
        steps = script(seed)
        assert sum(step[0] == "begin" for step in steps) >= 3
        shipped, reference = run_both(steps)
        assert_contract(steps, shipped, reference)
        # ... and it did ship less: this is not two whole-write runs.
        assert wal_bytes_ever_put(shipped) < 0.6 * wal_bytes_ever_put(reference)

    def test_a_mutant_that_ignores_the_epoch_fails_it(self, monkeypatch):
        """Stamp every write with one epoch and the rewrite right after
        a begin event diffs against a page GC is about to take: the
        record's head is gone and, its zero tail trimmed as unchanged,
        the segment comes back short."""
        steps = script(0)
        _shipped, reference = run_both(steps)
        monkeypatch.setattr(CloudView, "epoch", lambda self: 0)
        mutant, _reference = run_both(steps)
        with pytest.raises(AssertionError, match=r"pg_xlog"):
            assert_contract(steps, mutant, reference)
        first_end = next(i for i, s in enumerate(steps) if s[0] == "end")
        got = recovered_files(mutant[first_end])
        want = recovered_files(reference[first_end])
        assert len(got[SEG]) < len(want[SEG])

    def test_a_b100_batch_straddling_a_begin_event(self, monkeypatch):
        """One claimed batch holds writes of both epochs.  The tail
        page's coalesced run carries its latest entry's epoch, misses
        the shadow the previous batch left and ships whole — so it
        survives the GC that takes the previous batch's objects."""
        rng = random.Random(7)
        page = bytearray(PAGE)

        def rewrites(count: int, fill: int) -> list[tuple]:
            out = []
            for index in range(count):
                page[fill + index] = rng.randrange(1, 256)
                out.append(("wal", SEG, 0, bytes(page)))
            return out

        # Batch 1 seeds the shadow; batch 2 is 10 writes, the begin
        # event, then 90 more — every one of them to the same page.
        first = rewrites(20, 0) * 5
        before = rewrites(10, 20)
        after = rewrites(20, 30) + rewrites(10, 50) * 7
        assert len(first) == 100 and len(before) + len(after) == 100

        def run(coalesce: bool) -> dict[str, bytes]:
            ginja, backend = protect(coalesce, batch=100, clock=ManualClock())
            try:
                for step in first:
                    ginja.fs.write(*step[1:])
                assert ginja.pipeline.drain(timeout=10.0)
                for step in before:
                    ginja.fs.write(*step[1:])
                assert ginja.pending_updates() == 10    # unclaimed: T_B is frozen
                play([("begin",)], ginja, backend)
                for step in after:
                    ginja.fs.write(*step[1:])
                assert ginja.pipeline.drain(timeout=10.0)
                play([("end",)], ginja, backend)
                return recovered_files(backend.snapshot())
            finally:
                ginja.stop()

        want, got = run(False), run(True)
        assert got[SEG] == want[SEG] == after[-1][3]
        monkeypatch.setattr(CloudView, "epoch", lambda self: 0)
        assert run(True)[SEG] != want[SEG]   # the mutant diffs, and loses the base


# -- pipeline-level behaviour -----------------------------------------------------


@pytest.fixture
def pipe(reactor):
    """A started B = 1 pipeline, its backend, view, stats and bus."""
    backend = InMemoryObjectStore()
    config = GinjaConfig(batch=1, safety=20, batch_timeout=0.01,
                         safety_timeout=30.0)
    bus = EventBus()
    stats = GinjaStats().attach(bus)
    view = CloudView()
    pipeline = CommitPipeline(config, backend, ObjectCodec(), view, reactor, bus)
    pipeline.start()
    yield pipeline, backend, view, stats, bus
    pipeline.stop(drain_timeout=5.0)


def submit_drained(pipeline, offset: int, data: bytes, path: str = "seg") -> None:
    pipeline.submit(path, offset, data)
    assert pipeline.drain(timeout=5.0)


class TestPipeline:
    def test_a_tail_rewrite_ships_only_the_new_record(self, pipe):
        pipeline, backend, _view, stats, _bus = pipe
        submit_drained(pipeline, 8192, b"rec-1" + bytes(27))
        submit_drained(pipeline, 8192, b"rec-1" + b"rec-2" + bytes(22))
        (first, padded), (second, diff) = wal_objects(backend)
        # The first sight of the page: its record and a length pin.
        assert (first.offset, padded) == (8192, [(8192, b"rec-1"), (8223, b"\0")])
        assert (second.offset, diff) == (8197, [(8197, b"rec-2")])
        assert stats.wal_submitted_bytes == 64
        assert stats.wal_planned_bytes == 5 + 1 + 5

    def test_an_identical_rewrite_ships_nothing_and_still_unlocks(self, pipe):
        pipeline, backend, view, stats, bus = pipe
        seen = []
        bus.subscribe(seen.append,
                      kinds={events.WAL_BATCH, events.BATCH_UNLOCKED})
        submit_drained(pipeline, 0, b"same page")
        submit_drained(pipeline, 0, b"same page")
        assert len(backend.list("WAL/")) == 1
        assert view.last_assigned_ts() == 0          # no ts burnt either
        assert pipeline.pending_updates() == 0
        assert [event.kind for event in seen] == [
            events.WAL_BATCH, events.BATCH_UNLOCKED,
        ] * 2
        assert [(e.nbytes, e.total) for e in seen[::2]] == [(9, 9), (0, 9)]
        assert stats.wal_batches == 2

    def test_an_empty_batch_unlocks_behind_the_batch_it_repeats(self, reactor):
        """The second write adds nothing to the first, whose PUT is
        still on the wire: acked at once, it must all the same stay in
        the queue until the object its bytes ride in is durable."""
        released = threading.Event()

        class HeldStore(InMemoryObjectStore):
            async def aput(self, key, data):
                while not released.is_set():
                    await asyncio.sleep(0.001)
                self.put(key, data)

        config = GinjaConfig(batch=1, safety=20, batch_timeout=0.01,
                             safety_timeout=30.0)
        bus = EventBus()
        stats = GinjaStats().attach(bus)
        pipeline = CommitPipeline(config, HeldStore(), ObjectCodec(),
                                  CloudView(), reactor, bus)
        pipeline.start()
        try:
            pipeline.submit("seg", 0, b"page")
            pipeline.submit("seg", 0, b"page")
            assert wait_for(lambda: stats.wal_batches == 2)
            assert not pipeline.drain(timeout=0.2)
            assert pipeline.pending_updates() == 2
            released.set()
            assert pipeline.drain(timeout=5.0)
        finally:
            released.set()
            pipeline.stop(drain_timeout=5.0)

    def test_a_ring_lap_ships_the_whole_page(self, pipe):
        """The bucket's image never sees the ring reuse a block, so the
        lap is just a rewrite in which every byte changed."""
        pipeline, backend, _view, _stats, _bus = pipe
        submit_drained(pipeline, 2048, b"\x01" * 512, "ib_logfile0")
        submit_drained(pipeline, 2048, b"\x02" * 512, "ib_logfile0")
        assert [chunks for _meta, chunks in wal_objects(backend)] == [
            [(2048, b"\x01" * 512)], [(2048, b"\x02" * 512)],
        ]

    def test_a_rewrite_of_another_length_ships_whole(self, pipe):
        pipeline, backend, _view, _stats, _bus = pipe
        submit_drained(pipeline, 0, b"abcd")
        submit_drained(pipeline, 0, b"abcdef")
        submit_drained(pipeline, 0, b"abc")
        assert [chunks for _meta, chunks in wal_objects(backend)] == [
            [(0, b"abcd")], [(0, b"abcdef")], [(0, b"abc")],
        ]

    def test_a_shorter_rewrite_keeps_the_tail_of_the_write_it_replaces(
            self, reactor):
        """The coalescing bug: B = 2 kept only the later, shorter write
        and recovery zero-filled the first one's tail."""
        backend = InMemoryObjectStore()
        config = GinjaConfig(batch=2, safety=20, batch_timeout=30.0,
                             safety_timeout=60.0)
        pipeline = CommitPipeline(config, backend, ObjectCodec(), CloudView(),
                                  reactor)
        pipeline.start()
        try:
            pipeline.submit("seg", 0, b"A" * 16)
            pipeline.submit("seg", 0, b"B" * 8)
            assert pipeline.drain(timeout=5.0)
        finally:
            pipeline.stop(drain_timeout=5.0)
        image = bytearray(16)
        for _meta, chunks in wal_objects(backend):
            for offset, data in chunks:
                image[offset:offset + len(data)] = data
        assert bytes(image) == b"B" * 8 + b"A" * 8


def replayed(groups) -> bytes:
    """One file rebuilt from planned ``(path, chunks)`` objects, as
    recovery's ``fs.write`` does: holes zero-filled, in order."""
    image = bytearray()
    for _path, chunks in groups:
        for offset, data in chunks:
            end = offset + len(data)
            image.extend(bytes(max(0, end - len(image))))
            image[offset:end] = data
    return bytes(image)


class TestWriteOrder:
    """Overlapping writes of one batch replay in write order.  The
    offset-sorted merge recovered ``A×16@0, B×8@8, C×16@0`` as
    ``CCCCCCCCBBBBBBBB``: C's run sorted before B's and B won bytes C
    had durably overwritten."""

    @staticmethod
    def script(size: int) -> list[tuple[int, bytes]]:
        return [(0, b"A" * size), (size // 2, b"B" * (size // 2)),
                (0, b"C" * size)]

    @pytest.mark.parametrize("cap", [1 << 20, 8], ids=["one-object", "split"])
    def test_the_planner_recovers_the_last_write(self, cap):
        writes = [("seg", offset, data, 0) for offset, data in self.script(16)]
        planned = plan_writes(writes, *wal_planner(), coalesce=True,
                              max_object_bytes=cap)
        whole = plan_writes(writes, *wal_planner(), coalesce=False,
                            max_object_bytes=cap)
        assert replayed(planned) == replayed(whole) == b"C" * 16
        assert len(planned) == (1 if cap > 16 else 3)

    @pytest.mark.parametrize("size", [16, 64 * 1024], ids=["one-object", "split"])
    def test_a_real_ginja_recovers_what_whole_writes_recover(self, size):
        """At 64 KiB the batch is B's half page and C's page, split
        across two objects by the smallest ``max_object_bytes``."""

        def run(coalesce: bool):
            ginja, backend = protect(coalesce, batch=3,
                                     max_object_bytes=64 * 1024)
            try:
                for offset, data in self.script(size):
                    ginja.fs.write(SEG, offset, data)
                assert ginja.drain(timeout=10.0)
                return wal_objects(backend), recovered_files(backend.snapshot())
            finally:
                ginja.stop()

        objects, got = run(True)
        _objects, want = run(False)
        assert got[SEG] == want[SEG] == b"C" * size
        assert len(objects) == (1 if size == 16 else 2)


class TestTheShadow:
    def test_it_stays_bounded_over_ten_thousand_pages(self):
        rng = random.Random(3)
        shadow, marks = wal_planner()
        page_no = 0
        while page_no < 10_000:
            count = rng.choice((1, 1, 7, 100))
            batch = [("seg", (page_no + i) * PAGE, bytes([i % 251 + 1]) * PAGE, 0)
                     for i in range(count)]
            # The tail page of the previous batch is rewritten first.
            batch.insert(0, ("seg", max(page_no - 1, 0) * PAGE, b"\xff" * PAGE, 0))
            plan_writes(batch, shadow, marks, coalesce=True,
                        max_object_bytes=1 << 20)
            assert 0 < shadow.nbytes <= commit_pipeline._SHADOW_BYTES
            page_no += count
        # The tail is what it keeps: rewritten in the same epoch, only
        # the byte that changed ships.
        path, offset, data, epoch = batch[-1]
        runs, _learned = shadow.plan([(path, offset, data[:-1] + b"\0", epoch)])
        assert runs == [(path, offset + PAGE - 1, b"\0")]
        assert marks == {"seg": page_no * PAGE}         # one int per file

    def test_the_ablation_leaves_it_alone(self):
        shadow, marks = wal_planner()
        writes = [("seg", 0, b"page", 0), ("seg", 0, b"page", 0)]
        planned = plan_writes(writes, shadow, marks, coalesce=False,
                              max_object_bytes=1 << 20)
        assert planned == [("seg", [(0, b"page"), (0, b"page")])]
        assert shadow.nbytes == 0 and not marks

    @pytest.mark.parametrize("seed", range(5))
    def test_changed_range_agrees_with_a_byte_loop(self, seed):
        """The runs that differ, joined across at most ``gap`` equal
        bytes — and all of it against no base or another length."""
        rng = random.Random(seed)
        for _ in range(200):
            size, gap = rng.randint(0, 70), rng.randint(0, 6)
            old = bytes(rng.choice(b"\x00\x01") for _ in range(size))
            new = bytes(rng.choice(b"\x00\x01") for _ in range(size))
            want: list[list[int]] = []
            for i in (i for i in range(size) if old[i] != new[i]):
                if want and i - want[-1][1] <= gap:
                    want[-1][1] = i + 1
                else:
                    want.append([i, i + 1])
            got = _cut(old, 100, new, gap)
            assert [[o - 100, o - 100 + len(d)] for o, d in got] == want
            assert all(new[o - 100:o - 100 + len(d)] == d for o, d in got)
            assert _cut(None, 100, new, gap) == [(100, new)]
            assert _cut(old + b"x", 100, new, gap) == [(100, new)]


class TestANewPipelineKnowsNothing:
    """Boot, reboot and recover each build a new pipeline, whose empty
    shadow makes the first write of every page ship whole — whatever
    the previous pipeline had shipped there."""

    PAGES = (b"head" + bytes(PAGE - 4), b"head" + b"more" + bytes(PAGE - 8))

    def newest_chunks(self, backend):
        return wal_objects(backend)[-1][1]

    def test_the_first_write_after_reboot_ships_whole(self):
        ginja, backend = protect(True)
        disk = ginja.fs.inner
        ginja.fs.write(SEG, 0, self.PAGES[0])
        ginja.stop()
        again = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                      PROFILE, ginja.config)
        again.start(mode="reboot")
        try:
            again.fs.write(SEG, 0, self.PAGES[1])
            assert again.drain(timeout=10.0)
            assert self.newest_chunks(backend) == [(0, self.PAGES[1])]
            again.fs.write(SEG, 0, self.PAGES[1][:8] + b"tail" + bytes(PAGE - 12))
            assert again.drain(timeout=10.0)
            assert self.newest_chunks(backend) == [(8, b"tail")]
        finally:
            again.stop()

    def test_the_first_write_after_recover_ships_whole(self):
        ginja, backend = protect(True)
        ginja.fs.write(SEG, 0, self.PAGES[0])
        ginja.stop()
        standby, _report = Ginja.recover(
            SimulatedCloud(backend=backend, time_scale=0.0),
            MemoryFileSystem(), PROFILE, ginja.config,
        )
        try:
            standby.fs.write(SEG, 0, self.PAGES[1])
            assert standby.drain(timeout=10.0)
            assert self.newest_chunks(backend) == [(0, self.PAGES[1])]
        finally:
            standby.stop()


class TestHealth:
    def test_the_facade_reports_what_shipping_saves(self):
        """Both ratios — planned ÷ written, pre-codec — and what the
        shadow behind each holds."""
        ginja, _backend = protect(True)
        try:
            health = ginja.health()
            assert health["wal_shipped_ratio"] is None
            assert health["db_shipped_ratio"] is None
            assert health["wal_shadow_bytes"] == 0
            # The boot dump's image: the table file's four pages.
            assert health["db_shadow_bytes"] == 4 * PAGE
            ginja.fs.write(SEG, 0, b"ab" + bytes(PAGE - 2))
            assert ginja.drain(timeout=10.0)
            ginja.fs.write(SEG, 0, b"abcd" + bytes(PAGE - 4))
            assert ginja.drain(timeout=10.0)
            # The record and a length pin, then the two bytes that changed.
            assert ginja.health()["wal_shipped_ratio"] == (2 + 1 + 2) / (2 * PAGE)
            assert ginja.health()["wal_shadow_bytes"] == PAGE
            # Another page per write: the WAL figure holds at its bound.
            bound = commit_pipeline._SHADOW_BYTES
            for page_no in range(1, bound // PAGE + 8):
                ginja.fs.write(SEG, page_no * PAGE, b"ab" + bytes(PAGE - 2))
            assert ginja.drain(timeout=10.0)
            assert ginja.health()["wal_shadow_bytes"] == bound
            # Two checkpoints of a clog byte, a page and a control
            # record (over a directory large enough that the 150 % rule
            # stays quiet), cut against the image: all of it — the files
            # are new, the page was zeros — then the four bytes by which
            # the page and the four by which the record differ.
            ginja.fs.inner.write(PROFILE.table_path("ballast"), 0, bytes(8192))
            for page in (b"\x07" * PAGE, b"\x07" * (PAGE - 4) + b"rows"):
                ginja.fs.write(PROFILE.clog_path, 0, b"\x01")
                ginja.fs.write(PROFILE.table_path("t"), PAGE, page)
                ginja.fs.write(PROFILE.control_path, 0, page[-8:])
                assert ginja.drain(timeout=10.0)
            health = ginja.health()
            assert health["db_shipped_ratio"] == (
                (1 + PAGE + 8) + (0 + 4 + 4)) / (2 * (1 + PAGE + 8))
            # The two new files joined the image; the page was in it.
            assert health["db_shadow_bytes"] == 4 * PAGE + 1 + 8
            assert ginja.stats.dumps == 1    # the boot dump
        finally:
            ginja.stop()
