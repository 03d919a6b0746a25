"""Known-zero tails: WAL objects leave out the zeros the bucket already
holds, through real GC and recovery.

A run about to ship drops the zero bytes it carries beyond its file's
high-water mark (``Marks``) for a one-byte length pin.  The
contract is the one changed-range shipping keeps, here on the **whole**
file: recovery from the bucket a crash after any step leaves rebuilds,
byte for byte and length for length, what whole-write shipping
(``coalesce_writes=False``) rebuilds.  The harness is
``test_changed_range_shipping``'s: a real :class:`Ginja`, its GC
included, arbitrary bytes, a snapshot after every step.
"""

from __future__ import annotations

import pytest

from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.core import commit_pipeline
from repro.core.commit_pipeline import Marks, _CHUNK_FRAMING
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem

from tests.core.test_changed_range_shipping import (
    PAGE, PROFILE, SEG, play, protect, recovered_files, run_both, script,
    wal_objects,
)

NEXT_SEG = PROFILE.wal_path(1)
PIN = b"\0"
#: What a length pin costs a WAL payload: a chunk header and its byte.
PIN_BYTES = _CHUNK_FRAMING + 1


def padded(record: bytes, size: int = PAGE) -> bytes:
    return record + bytes(size - len(record))


def assert_same_files(shipped: list[dict], reference: list[dict],
                      profile=PROFILE) -> None:
    """At every crash point, every recovered file — its bytes and its
    length — is the reference's."""
    assert len(shipped) == len(reference)
    for upto, (ours, theirs) in enumerate(zip(shipped, reference)):
        got = recovered_files(ours, profile)
        want = recovered_files(theirs, profile)
        assert got == want, f"step {upto}"


def one_batch(coalesce: bool, writes, **config) -> tuple[list, dict]:
    """``writes`` as one claimed batch: the bucket's WAL objects and
    what recovery rebuilds from them."""
    ginja, backend = protect(coalesce, batch=len(writes), **config)
    try:
        for write in writes:
            ginja.fs.write(*write)
        assert ginja.drain(timeout=10.0)
        return wal_objects(backend), recovered_files(backend.snapshot())
    finally:
        ginja.stop()


def lap(pages: int, fill: int) -> list[tuple]:
    """Every page of a ``pages``-page ring written short and padded."""
    return [("wal", SEG, n * PAGE, padded(bytes([fill + n]) * 5))
            for n in range(pages)]


def full(pages: int, fill: int) -> list[tuple]:
    return [("wal", SEG, n * PAGE, bytes([fill + n]) * PAGE)
            for n in range(pages)]


#: Twelve full pages, then the same places rewritten short inside one
#: epoch.  Under :func:`narrow_shadow` every rewrite misses the shadow
#: and meets the older, longer bytes still in the bucket.
ONE_EPOCH_LAP = full(12, 0x10) + lap(12, 0x80)

#: The same laps with checkpoints beginning and ending inside them.
STRADDLING_LAPS = (
    full(12, 0x10)[:7] + [("begin",)] + full(12, 0x10)[7:] + lap(12, 0x80)[:5]
    + [("end",)] + lap(12, 0x80)[5:] + [("begin",)] + full(12, 0x30)[:4]
    + [("end",)] + full(12, 0x30)[4:] + lap(12, 0xA0)
)


@pytest.fixture
def narrow_shadow(monkeypatch):
    """The shadow bounded to nine of these pages — narrower than a
    lap of twelve, or of the ring's twelve blocks — so a lap's
    rewrites miss it and ship whole over what the bucket holds."""
    monkeypatch.setattr(commit_pipeline, "_SHADOW_BYTES", 9 * PAGE)


REAL_COVER = Marks.cover
REAL_ELIDE = commit_pipeline.elide_known_zeros


def always_strip(self, path, offset, data):
    """Mutant: the mark pinned to 0 — every zero tail is left out."""
    return offset + len(bytes(data).rstrip(b"\0"))


def only_cut_runs_count(self, path, offset, data):
    """Mutant: a run that ships whole leaves the mark where it was."""
    before = self.get(path)
    mark = REAL_COVER(self, path, offset, data)
    if offset + len(data) - mark <= PIN_BYTES:
        if before is None:
            self.pop(path, None)
        else:
            self[path] = before
    return mark


def no_pin(offset, data, mark, framing):
    """Mutant: the tail is left out and nothing says how long it was."""
    return [chunk for chunk in REAL_ELIDE(offset, data, mark, framing)
            if chunk[0] == offset]


class TestKnownZeroTails:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_crash_point_recovers_the_files_whole_writes_recover(
            self, seed):
        steps = script(seed)
        shipped, reference = run_both(steps)
        assert_same_files(shipped, reference)

    @pytest.mark.usefixtures("narrow_shadow")
    @pytest.mark.parametrize("steps", [ONE_EPOCH_LAP, STRADDLING_LAPS],
                             ids=["one-epoch", "straddling"])
    def test_a_lap_wider_than_the_shadow(self, steps):
        shipped, reference = run_both(steps)
        assert_same_files(shipped, reference)

    @pytest.mark.usefixtures("narrow_shadow")
    @pytest.mark.parametrize("mutant", [always_strip, only_cut_runs_count])
    def test_a_mutant_with_too_low_a_mark_recovers_stale_bytes(
            self, monkeypatch, mutant):
        """A shadow miss over older non-zero bytes must ship its zeros."""
        _shipped, reference = run_both(ONE_EPOCH_LAP)
        monkeypatch.setattr(Marks, "cover", mutant)
        shipped, _reference = run_both(ONE_EPOCH_LAP)
        with pytest.raises(AssertionError, match="step 12"):
            assert_same_files(shipped, reference)
        stale = recovered_files(shipped[12])[SEG]
        assert stale[:PAGE] == b"\x80" * 5 + b"\x10" * (PAGE - 6) + PIN

    def test_a_mutant_without_the_pin_recovers_a_short_segment(
            self, monkeypatch):
        steps = script(0)
        _shipped, reference = run_both(steps)
        monkeypatch.setattr(commit_pipeline, "elide_known_zeros", no_pin)
        shipped, _reference = run_both(steps)
        with pytest.raises(AssertionError, match="step 0"):
            assert_same_files(shipped, reference)
        assert len(recovered_files(shipped[0])[SEG]) < PAGE

    def test_overlapping_writes_ship_as_one_pinned_run(self):
        """Never cut against the shadow, they join in write order into
        one run; replayed in that order, its tail beyond the mark is
        known-zero like any other run's."""
        writes = [(SEG, 0, padded(b"aa")), (SEG, PAGE // 2, padded(b"bb"))]
        ((_meta, chunks),), got = one_batch(True, writes)
        assert chunks == [(0, padded(b"aa", PAGE // 2) + b"bb"),
                          (PAGE // 2 + PAGE - 1, PIN)]
        assert got == one_batch(False, writes)[1]

    def test_a_pin_in_a_later_object_than_its_head(self):
        """The batch is over ``max_object_bytes`` right where the head
        ends: the pin is an object of its own, and the drained bucket
        still recovers the whole-write image."""
        cap = 64 * 1024 + 100
        writes = [(SEG, 0, b"\x07" * (64 * 1024)),
                  (SEG, 64 * 1024, padded(b"\x09" * 100, 1100))]
        objects, got = one_batch(True, writes, max_object_bytes=cap)
        assert [(meta.offset, [(o, len(d)) for o, d in chunks])
                for meta, chunks in objects] == [
            (0, [(0, 64 * 1024 + 100)]),      # adjacent runs merge
            (64 * 1024 + 1099, [(64 * 1024 + 1099, 1)]),
        ]
        assert got == one_batch(False, writes, max_object_bytes=cap)[1]
        assert len(got[SEG]) == 64 * 1024 + 1100


class TestSeeding:
    """What a new pipeline is told about the bucket: exact marks from
    the bytes boot had in hand, unbounded ones after reboot and recover
    for every file an earlier pipeline may have shipped."""

    #: Two full pages, a started third, preallocated to eight.
    BOOTED = padded(b"\x01" * PAGE + b"\x02" * PAGE + b"rec", 8 * PAGE)

    def test_boot_ships_the_solid_prefix_and_a_pin(self):
        ginja, backend = protect(True, wal=self.BOOTED)
        try:
            (meta, chunks), = wal_objects(backend)
            assert (meta.ts, meta.offset) == (1, 0)
            assert chunks == [(0, self.BOOTED[:2 * PAGE + 3]),
                              (8 * PAGE - 1, PIN)]
            assert recovered_files(backend.snapshot())[SEG] == self.BOOTED
        finally:
            ginja.stop()

    def test_after_boot_the_tail_page_ships_its_records_and_a_pin(self):
        ginja, backend = protect(True, wal=self.BOOTED)
        try:
            ginja.fs.write(SEG, 2 * PAGE, padded(b"rec" + b"more"))
            assert ginja.drain(timeout=10.0)
            assert wal_objects(backend)[-1][1] == [
                (2 * PAGE, b"recmore"), (3 * PAGE - 1, PIN),
            ]
        finally:
            ginja.stop()

    def test_after_boot_zeros_over_what_boot_shipped_are_shipped(self):
        page = padded(b"x")
        ginja, backend = protect(True, wal=self.BOOTED)
        try:
            ginja.fs.write(SEG, 0, page)
            assert ginja.drain(timeout=10.0)
            assert wal_objects(backend)[-1][1] == [(0, page)]
            assert (recovered_files(backend.snapshot())[SEG]
                    == page + self.BOOTED[PAGE:])
        finally:
            ginja.stop()

    def assert_whole_then_cut(self, ginja, backend) -> None:
        page = padded(b"head" + b"more")
        ginja.fs.write(SEG, 0, page)
        assert ginja.drain(timeout=10.0)
        assert wal_objects(backend)[-1][1] == [(0, page)]
        ginja.fs.write(NEXT_SEG, 0, page)
        assert ginja.drain(timeout=10.0)
        assert wal_objects(backend)[-1][1] == [(0, b"headmore"), (PAGE - 1, PIN)]

    def test_after_reboot_only_a_new_segment_is_cut(self):
        ginja, backend = protect(True)
        disk = ginja.fs.inner
        ginja.fs.write(SEG, 0, padded(b"head"))
        ginja.stop()
        again = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                      PROFILE, ginja.config)
        again.start(mode="reboot")
        try:
            self.assert_whole_then_cut(again, backend)
        finally:
            again.stop()

    def test_after_recover_only_a_new_segment_is_cut(self):
        ginja, backend = protect(True)
        ginja.fs.write(SEG, 0, padded(b"head"))
        ginja.stop()
        standby, _report = Ginja.recover(
            SimulatedCloud(backend=backend, time_scale=0.0),
            MemoryFileSystem(), PROFILE, ginja.config,
        )
        try:
            self.assert_whole_then_cut(standby, backend)
        finally:
            standby.stop()

    def test_a_locally_held_segment_the_bucket_no_longer_lists_is_unbounded(
            self):
        """GC took every WAL object of the segment; the file is still
        in the directory a reboot mounts."""
        ginja, backend = protect(True)
        disk = ginja.fs.inner
        play([("wal", SEG, 0, padded(b"head")), ("begin",), ("end",)],
             ginja, backend)
        ginja.stop()
        assert not wal_objects(backend)
        again = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                      PROFILE, ginja.config)
        again.start(mode="reboot")
        try:
            self.assert_whole_then_cut(again, backend)
        finally:
            again.stop()

    @pytest.mark.parametrize("profile", [POSTGRES_PROFILE, MYSQL_PROFILE],
                             ids=["postgres", "mysql"])
    def test_boot_does_not_upload_preallocation(self, profile):
        """boot -> recover on a fresh FS: the local WAL files, byte for
        byte and length for length, for a fraction of their size."""
        engine = EngineConfig(wal_segment_size=256 * 1024, auto_checkpoint=False)
        disk = MemoryFileSystem()
        db = MiniDB.create(disk, profile, engine)
        for index in range(40):
            db.put("t", f"k{index}", b"v" * 50)
        db.close()
        local = {path: disk.read_all(path) for path in disk.files()
                 if profile.is_wal_path(path)}
        assert sum(map(len, local.values())) >= 256 * 1024
        backend = InMemoryObjectStore()
        ginja = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                      profile, GinjaConfig())
        ginja.start(mode="boot")
        ginja.stop()
        assert ginja.stats.wal_bytes < 16 * 1024
        recovered = recovered_files(backend.snapshot(), profile)
        assert {path: recovered[path] for path in local} == local


class TestTheObjectLevelBound:
    @pytest.mark.parametrize("seed", range(3))
    def test_planned_bytes_are_the_records_and_little_else(self, seed):
        """The unit-scale twin of the benchmark's bytes-per-op gate:
        what the claim jobs plan is at most the record bytes each write
        added, the page's earlier records again the first time a place
        is written in an epoch, and 13 B per pinned run.  A seeding that
        degraded to "unbounded" would ship a page per place per epoch
        and fail this."""
        steps = script(seed)
        ginja, backend = protect(True)
        try:
            snapshots = play(steps, ginja, backend)
            planned = ginja.stats.wal_planned_bytes
        finally:
            ginja.stop()
        bound, epoch, held = 0, 0, {}
        for step in steps:
            if step[0] == "begin":
                epoch += 1
            if step[0] != "wal":
                continue
            solid = len(step[3].rstrip(b"\0"))
            last_epoch, last_solid = held.get(step[2], (None, 0))
            bound += solid - last_solid if last_epoch == epoch else solid
            held[step[2]] = (epoch, solid)
        ever_put = InMemoryObjectStore()
        for snapshot in snapshots:
            for key, blob in snapshot.items():
                ever_put.put(key, blob)
        pins = sum(len(chunks) > 1 and chunks[-1][1] == PIN
                   for _meta, chunks in wal_objects(ever_put))
        assert planned <= bound + PIN_BYTES * pins
        assert planned >= 0.5 * bound     # ... and the bound is not slack
        assert pins >= 4


# -- the MySQL ring: 512 B blocks, two files, checkpoint slots in file 0 ---------

BLOCK = MYSQL_PROFILE.wal_page_size
HEADER = MYSQL_PROFILE.wal_header_size
BLOCKS_PER_FILE = 6     # twelve places a lap: more than a narrow shadow holds


def ring_steps() -> list[tuple]:
    """Two laps of the ring.  Each block is written as its first record
    lands (short, padded), again as it fills; lap two meets lap one's
    longer blocks.  A fuzzy checkpoint (first data-file write … slot
    write in ``ib_logfile0``) runs inside each lap."""
    steps: list[tuple] = []
    for lap_no in range(2):
        for place in range(2 * BLOCKS_PER_FILE):
            path = MYSQL_PROFILE.wal_path(place // BLOCKS_PER_FILE)
            offset = HEADER + place % BLOCKS_PER_FILE * BLOCK
            first = bytes([0x10 * (lap_no + 1) + place]) * (200 - 150 * lap_no)
            steps.append(("wal", path, offset, padded(first, BLOCK)))
            if place % 3 == 0:
                fuller = first + b"\xee" * (BLOCK - len(first))
            else:
                fuller = first + bytes([0x80 + place]) * 40
            steps.append(("wal", path, offset, padded(fuller, BLOCK)))
            if place == 4:
                steps.append(("begin",))
            if place == 8:
                steps.append(("end",))
    return steps


def play_ring(steps, coalesce: bool) -> list[dict]:
    disk = MemoryFileSystem()
    disk.write(MYSQL_PROFILE.table_path("t"), 0, bytes(64))
    size = HEADER + BLOCKS_PER_FILE * BLOCK
    disk.write("ib_logfile0", 0, padded(bytes(512) + b"slot-0", size))
    disk.write("ib_logfile1", 0, bytes(size))
    backend = InMemoryObjectStore()
    config = GinjaConfig(batch=1, safety=10, batch_timeout=30.0,
                         safety_timeout=60.0, coalesce_writes=coalesce)
    ginja = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                  MYSQL_PROFILE, config)
    ginja.start(mode="boot")
    snapshots, checkpoint = [], 0
    try:
        for step in steps:
            if step[0] == "wal":
                ginja.fs.write(*step[1:])
                assert ginja.pipeline.drain(timeout=10.0)
            elif step[0] == "begin":
                checkpoint += 1
                ginja.fs.write(MYSQL_PROFILE.table_path("t"), 0,
                               bytes([checkpoint]) * 64)
            else:
                slot = MYSQL_PROFILE.checkpoint_slot_offsets[checkpoint % 2]
                ginja.fs.write("ib_logfile0", slot,
                               padded(b"slot-%d" % checkpoint, 512))
                assert ginja.checkpointer.drain(timeout=10.0)
            snapshots.append(backend.snapshot())
    finally:
        ginja.stop()
    return snapshots


@pytest.mark.usefixtures("narrow_shadow")
class TestTheRingProfile:
    def test_two_laps_of_the_mysql_ring_recover_equal(self):
        steps = ring_steps()
        shipped, reference = play_ring(steps, True), play_ring(steps, False)
        assert_same_files(shipped, reference, MYSQL_PROFILE)

    def test_a_mutant_that_always_strips_fails_on_the_second_lap(
            self, monkeypatch):
        steps = ring_steps()
        reference = play_ring(steps, False)
        monkeypatch.setattr(Marks, "cover", always_strip)
        with pytest.raises(AssertionError, match=r"step \d+"):
            assert_same_files(play_ring(steps, True), reference, MYSQL_PROFILE)


class TestAMixedBucket:
    def test_whole_page_objects_and_pinned_ones_restore_together(self):
        """A bucket begun by a whole-write shipper (the shape every
        earlier commit wrote) and continued with pins restores to the
        image whole writes alone produce: the read side never changed."""
        first = script(1, checkpoints=2)
        second = [("wal", NEXT_SEG, n * PAGE, padded(bytes([0x40 + n]) * 9))
                  for n in range(4)] + [("wal", SEG, 0, padded(b"lap"))]

        def run(coalesce_after: bool) -> tuple[dict, list]:
            ginja, backend = protect(False)
            disk = ginja.fs.inner
            play(first, ginja, backend)
            ginja.stop()
            config = GinjaConfig(
                batch=1, safety=10, batch_timeout=30.0, safety_timeout=60.0,
                coalesce_writes=coalesce_after,
            )
            again = Ginja(disk, SimulatedCloud(backend=backend, time_scale=0.0),
                          PROFILE, config)
            again.start(mode="reboot")
            try:
                play(second, again, backend)
            finally:
                again.stop()
            return recovered_files(backend.snapshot()), wal_objects(backend)

        mixed, objects = run(True)
        whole, _objects = run(False)
        assert mixed == whole
        shapes = [len(chunks) for _meta, chunks in objects]
        assert 1 in shapes and 2 in shapes    # whole pages and pinned runs
