"""Changed-run checkpoint objects: the contract, through real GC and recovery.

A checkpoint object carries, for each page it writes, only the byte
runs by which it differs from what the bucket's replay holds there: the
*dump image* — the dump this process last handed to the uploader (the
boot dump, at first) plus every run handed over since — or, where a
process has no image (rebooted or recovered, until its first dump), the
page last handed over at that ``(path, offset)`` since the last dump.
The contract: **recovery from the bucket as any crash leaves it
rebuilds every DB file, byte for byte and length for length, exactly as
whole-write shipping rebuilds it.**

On ``test_changed_range_shipping``'s harness: a real :class:`Ginja`
(its uploader's GC and the 150 % rule included) is fed arbitrary bytes
— no MiniDB to forgive a wrong byte in a page it happens not to read —
the bucket is snapshotted after every checkpoint, each snapshot is
recovered with :meth:`Ginja.recover`, and every file compared with the
same script run under ``coalesce_writes=False``, which ships every
write whole and in write order.  Four mutants of the per-place entries
and six of the image, on both profiles, must fail.
"""

from __future__ import annotations

import random

import pytest

from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.core import checkpointer, shadow
from repro.core.checkpointer import CheckpointCollector, _run_framing
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    DBObjectMeta, decode_checkpoint_payload, encode_dump_payload,
)
from repro.core.ginja import Ginja
from repro.core.pitr import RetentionPolicy
from repro.core.shadow import Shadow
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem

from tests.core import test_changed_range_shipping as range_harness

PG, MY = POSTGRES_PROFILE, MYSQL_PROFILE
PAGE = 256
PAGES = 8                      # per table file
DOUBLEWRITE = 4096             # the staging area's offset in ibdata1
CUT = ("cut",)                 # drain, then snapshot the bucket
BALLAST = 48 * 1024            # keeps the 150 % rule quiet unless asked
CODEC = ObjectCodec()


# -- the scripts: raw file writes, as a file-level observer sees them ------------


def tables(profile) -> list[str]:
    return [profile.table_path("t"), profile.table_path("u")]


def noise(rng, length: int) -> bytes:
    return bytes(rng.randrange(1, 256) for _ in range(length))


def touched(rng, page: bytes) -> bytes:
    """The page as a checkpoint finds it next: a header count moved and
    a few rows landed; now and then not a byte, or every byte."""
    roll = rng.random()
    if roll < 0.1:
        return page
    if roll < 0.2:
        return noise(rng, len(page))
    fresh = bytearray(page)
    fresh[2:4] = noise(rng, 2)
    for _ in range(rng.randint(1, 3)):
        row = noise(rng, rng.randint(1, 12))
        start = rng.randrange(8, len(page) - 12)
        fresh[start:start + len(row)] = row
    return bytes(fresh)


def wal_write(profile, rng, number: int) -> tuple:
    """One commit's WAL page — it moves the frontier, so consecutive
    checkpoints carry distinct timestamps."""
    if profile.ring_wal:
        return (profile.wal_path(0),
                profile.wal_header_size + number * 512, noise(rng, 512))
    return (profile.wal_path(0), number * PAGE, noise(rng, PAGE))


def checkpoint(profile, rng, pages: dict, number: int,
               dirty: list[tuple[str, int]]) -> list[tuple]:
    """The writes of one checkpoint that flushes ``dirty``, the way the
    profile's engine issues them, ``pages`` updated to what it wrote."""
    steps: list[tuple] = []
    if profile.ring_wal:
        # InnoDB: the first data-file write *is* the begin event; pages
        # go out in fuzzy batches of two, each staged through the same
        # doublewrite slots first; the header slot write ends it.
        steps.append(("ibdata1", 0, b"IBD1"))
        for first in range(0, len(dirty), 2):
            batch = dirty[first:first + 2]
            for key in batch:
                pages[key] = touched(rng, pages[key])
            for slot, key in enumerate(batch):
                steps.append(("ibdata1", DOUBLEWRITE + slot * PAGE, pages[key]))
            steps += [(path, offset, pages[path, offset]) for path, offset in batch]
        slot = profile.checkpoint_slot_offsets[number % 2]
        steps.append((profile.wal_path(0), slot, noise(rng, 32)))
    else:
        steps.append((profile.clog_path, number // 4, b"\x01"))
        for key in dirty:
            pages[key] = touched(rng, pages[key])
            steps.append((*key, pages[key]))
        steps.append((profile.control_path, 0, bytes([number % 256]) * 8))
    return steps


def page_script(profile, seed: int, checkpoints: int = 6) -> list[tuple]:
    """Seeded checkpoints over two table files: most flush pages seen
    before, some a page never written (the file grows), one WAL write
    between any two."""
    rng = random.Random(seed)
    pages: dict[tuple[str, int], bytes] = {}
    steps: list[tuple] = []
    for number in range(checkpoints):
        steps.append(wal_write(profile, rng, number))
        known = sorted(pages)
        dirty = rng.sample(known, min(len(known), rng.randint(2, 4)))
        for _ in range(rng.randint(0, 2) if known else 4):
            key = (rng.choice(tables(profile)), rng.randrange(PAGES + 2) * PAGE)
            if key not in pages:
                pages[key] = noise(rng, PAGE)
                dirty.append(key)
        steps += checkpoint(profile, rng, pages, number, dirty)
        steps.append(CUT)
    return steps


# -- the harness -------------------------------------------------------------------


def seeded_disk(profile) -> MemoryFileSystem:
    """A database directory before boot: two table files of non-zero
    pages (so a byte a run object fails to carry shows), and the
    profile's bookkeeping files."""
    rng = random.Random(99)
    disk = MemoryFileSystem()
    for path in tables(profile):
        disk.write(path, 0, noise(rng, PAGES * PAGE))
    disk.write(profile.table_path("ballast"), 0, bytes(BALLAST))
    if profile.ring_wal:
        disk.write("ibdata1", 0, b"IBD1" + noise(rng, DOUBLEWRITE + 2 * PAGE - 4))
        # Of the log header only the slots reach a checkpoint object.
        disk.write(profile.wal_path(0), 0, bytes(profile.wal_header_size))
    else:
        disk.write(profile.clog_path, 0, bytes(8))
        disk.write(profile.control_path, 0, bytes(8))
    return disk


def protect(profile, coalesce: bool, *, mode: str = "boot", disk=None,
            backend=None, **config):
    config.setdefault("retention", RetentionPolicy.none())
    ginja = Ginja(
        disk if disk is not None else seeded_disk(profile),
        SimulatedCloud(backend=backend if backend is not None
                       else InMemoryObjectStore(), time_scale=0.0),
        profile,
        GinjaConfig(batch=1, safety=10, batch_timeout=30.0, safety_timeout=60.0,
                    coalesce_writes=coalesce, **config),
    )
    ginja.start(mode=mode)
    return ginja


def backend_of(ginja) -> InMemoryObjectStore:
    return ginja.cloud.backend


def local(path: str, offset: int, data: bytes) -> tuple:
    """A DB-file write no checkpoint carries: made beside the mount,
    it reaches the bucket only when a dump reads the local files."""
    return ("local", path, offset, data)


def play(steps, ginja) -> list[dict]:
    """Run the script; at every cut both pipelines are drained and the
    bucket is copied as a crash right there would leave it.  A callable
    step is handed the instance."""
    snapshots = []
    for step in steps:
        if step == CUT:
            assert ginja.drain(timeout=10.0)
            snapshots.append(backend_of(ginja).snapshot())
        elif callable(step):
            step(ginja)
        elif step[0] == "local":
            ginja.fs.inner.write(*step[1:])
        else:
            ginja.fs.write(*step)
    return snapshots


def recovered_files(snapshot: dict, profile, upto_ts=None) -> dict[str, bytes]:
    """What ``Ginja.recover`` rebuilds from a crashed bucket (retained
    generations stay retained)."""
    return range_harness.recovered_files(
        snapshot, profile, upto_ts=upto_ts,
        config=GinjaConfig(retention=RetentionPolicy.keep(8)),
    )


def db_image(files: dict[str, bytes], profile) -> dict[str, bytes]:
    """Everything checkpoint objects write into: the DB files and, for
    InnoDB, the log header that carries the checkpoint slots."""
    image = {path: held for path, held in files.items()
             if profile.is_db_file(path)}
    if profile.ring_wal:
        image["log header"] = files[profile.wal_path(0)][:profile.wal_header_size]
    return image


def start(profile, coalesce: bool, mode: str, local_writes=(), **config):
    """A protected instance that booted the bucket, or — ``mode=
    "reboot"`` — one rebooted over the directory and bucket a first
    instance booted and stopped, ``local_writes`` landing on the
    directory in between (the first process's last writes, which no
    object carried)."""
    ginja = protect(profile, coalesce, **config)
    if mode == "boot":
        return ginja
    ginja.stop()
    for write in local_writes:
        ginja.fs.inner.write(*write)
    return protect(profile, coalesce, mode=mode, disk=ginja.fs.inner,
                   backend=backend_of(ginja), **config)


def run(profile, steps, coalesce: bool, mode: str = "boot", local_writes=(),
        **config):
    """The script's crash snapshots, the local files it ends with and
    the instance's counters (``dumps`` counts the boot dump too)."""
    ginja = start(profile, coalesce, mode, local_writes, **config)
    try:
        snapshots = play(steps, ginja)
        disk = ginja.fs.inner
        local = {path: disk.read_all(path) for path in disk.files()}
        return snapshots, local, ginja.stats
    finally:
        ginja.stop()


def assert_contract(profile, steps, **config):
    """Every crash point of the script recovers the files whole-write
    shipping recovers; returns both runs.  ``mode`` and
    ``local_writes`` go to :func:`start`."""
    ours = run(profile, steps, True, **config)
    reference = run(profile, steps, False, **config)
    assert len(ours[0]) == len(reference[0]) == steps.count(CUT)
    for cut, (mine, theirs) in enumerate(zip(ours[0], reference[0])):
        got = db_image(recovered_files(mine, profile), profile)
        want = db_image(recovered_files(theirs, profile), profile)
        assert got.keys() == want.keys(), f"cut {cut}"
        for path in want:
            assert got[path] == want[path], f"cut {cut}: {path}"
    return ours, reference


def db_metas(keys) -> list[DBObjectMeta]:
    """The DB objects among bucket ``keys``, in replay order."""
    return sorted(
        (DBObjectMeta.parse(key) for key in keys if key.startswith("DB/")),
        key=lambda meta: (meta.order, meta.part),
    )


def checkpoint_objects(snapshot: dict) -> list[tuple[DBObjectMeta, list]]:
    """The bucket's checkpoint objects, decoded, in replay order."""
    return [(meta, decode_checkpoint_payload(CODEC.decode(snapshot[meta.key])))
            for meta in db_metas(snapshot) if not meta.is_dump]


def db_bytes_ever_put(snapshots: list[dict]) -> int:
    seen = {key: len(blob) for bucket in snapshots
            for key, blob in bucket.items() if "_checkpoint_" in key}
    return sum(seen.values())


# -- the contract ------------------------------------------------------------------


class TestTheContract:
    @pytest.mark.parametrize("profile", [PG, MY], ids=["postgres", "mysql"])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_crash_point_recovers_what_whole_writes_recover(
            self, profile, seed):
        steps = page_script(profile, seed)
        assert steps.count(CUT) >= 4
        ours, reference = assert_contract(profile, steps)
        # No write fell outside a checkpoint, so the last crash point
        # is also the local image ...
        final = db_image(recovered_files(ours[0][-1], profile), profile)
        assert final == db_image(ours[1], profile)
        # ... and it did ship less: this is not two whole-write runs.
        assert db_bytes_ever_put(ours[0]) < 0.7 * db_bytes_ever_put(reference[0])
        assert ours[2].dumps == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_planned_bytes_stay_within_what_changed(self, seed):
        """The object-level bound: what is planned is the bytes that
        changed plus, at most, one run's framing for each stretch of
        them — a shadow that silently ships whole pages breaks it."""
        steps = page_script(PG, seed, checkpoints=8)
        snapshots, _local, stats = run(PG, steps, True)
        assert stats.dumps == 1
        held: dict[tuple[str, int], bytes] = {}
        changed = stretches = written = 0
        for step in steps:
            if step == CUT:
                continue
            path, offset, data = step
            if PG.is_wal_path(path):
                continue
            written += len(data)
            base = held.get((path, offset), b"")
            differ = [i for i in range(len(data))
                      if i >= len(base) or data[i] != base[i]]
            changed += len(differ)
            stretches += sum(1 for n, i in enumerate(differ)
                             if n == 0 or differ[n - 1] != i - 1)
            held[path, offset] = data
        assert stats.db_submitted_bytes == written
        framing = max(_run_framing(path) for path, _offset in held)
        assert changed <= stats.db_planned_bytes <= changed + framing * stretches
        assert stats.db_planned_bytes < 0.6 * written
        # No dump deleted anything, so the bucket still holds every run.
        assert stats.db_planned_bytes == sum(
            len(data) for _meta, writes in checkpoint_objects(snapshots[-1])
            for _path, _offset, data in writes
        )


class TestDumpsAndGenerations:
    CONFIG = dict(dump_threshold=1.05, retention=RetentionPolicy.keep(8))

    def script(self, seed: int) -> list[tuple]:
        return page_script(PG, seed, checkpoints=12)

    @pytest.mark.parametrize("seed", range(2))
    def test_a_dump_mid_script_opens_a_new_generation(self, seed):
        steps = self.script(seed)
        ours, reference = assert_contract(PG, steps, **self.CONFIG)
        assert ours[2].dumps >= 2 and reference[2].dumps >= 2
        # Run objects exist on both sides of the dump.
        dumps = [meta.order for meta in db_metas(ours[0][-1])
                 if meta.is_dump and meta.seq]
        cut_runs = [meta.order for meta, writes in checkpoint_objects(ours[0][-1])
                    if any(len(data) < PAGE and path in tables(PG)
                           for path, _offset, data in writes)]
        assert any(min(cut_runs) < dump < max(cut_runs) for dump in dumps)

    @pytest.mark.parametrize("seed", range(2))
    def test_a_retained_generation_restores_with_upto_ts(self, seed):
        """Every checkpoint ever taken is a PITR target, and the final
        bucket restores each to the local image at its cut — also the
        ones whose generation a later dump superseded."""
        steps = self.script(seed)
        ginja = protect(PG, True, **self.CONFIG)
        try:
            targets = []
            for step in steps:
                if step != CUT:
                    ginja.fs.write(*step)
                    continue
                assert ginja.drain(timeout=10.0)
                newest = db_metas(backend_of(ginja).snapshot())[-1]
                disk = ginja.fs.inner
                targets.append((newest.ts, {
                    path: disk.read_all(path) for path in disk.files()
                }))
            assert ginja.stats.dumps >= 2
            bucket = backend_of(ginja).snapshot()
        finally:
            ginja.stop()
        assert len({ts for ts, _local in targets}) == len(targets)
        for ts, local in targets:
            got = recovered_files(bucket, PG, upto_ts=ts)
            assert db_image(got, PG) == db_image(local, PG), f"upto_ts={ts}"


T = PG.table_path("t")


def flush(profile, number: int, *writes) -> list[tuple]:
    """One checkpoint of exactly these page writes, bracketed the way
    the profile's engine brackets one, then a cut."""
    if profile.ring_wal:
        slot = profile.checkpoint_slot_offsets[number % 2]
        return [("ibdata1", 0, b"IBD1"), *writes,
                (profile.wal_path(0), slot, bytes([number]) * 32), CUT]
    return [(profile.clog_path, 0, b"\x01"), *writes,
            (profile.control_path, 0, bytes([number]) * 8), CUT]


def ckpt(number: int, *writes) -> list[tuple]:
    """One PostgreSQL checkpoint of exactly these page writes."""
    return flush(PG, number, *writes)


def newest_writes(snapshot, path: str = T) -> list[tuple]:
    """What the bucket's newest checkpoint object carries of ``path``."""
    _meta, writes = checkpoint_objects(snapshot)[-1]
    return [write for write in writes if write[0] == path]


class TestWhatShipsWhole:
    """Deterministic shapes, each through the contract and each checked
    at the object level too.  What ships whole does so where no image
    exists — in a rebooted process, before its first dump; after boot,
    the same shapes are cut against the dump image."""

    def test_a_write_outside_any_checkpoint_is_not_learned(self):
        """PostgreSQL's collector drops it at the next begin event; the
        bucket never sees it, so neither may the shadow."""
        rng = random.Random(5)
        page = noise(rng, PAGE)
        stray = page[:100] + noise(rng, 20) + page[120:]
        later = stray[:200] + noise(rng, 8) + stray[208:]
        steps = [
            *ckpt(1, (T, PAGE, page)),
            (T, PAGE, stray),                       # no checkpoint open
            *ckpt(2, (T, PAGE, later)),
        ]
        ours, _reference = assert_contract(PG, steps)
        assert newest_writes(ours[0][-1]) == [
            (T, PAGE + 100, later[100:120]),
            (T, PAGE + 200, later[200:208]),
        ]

    def another_length(self) -> tuple[list[tuple], bytes]:
        rng = random.Random(6)
        half = noise(rng, PAGE // 2)
        grown = half + bytes(PAGE // 2)      # zeros over the dump's bytes
        steps = [
            *ckpt(1, (T, 0, half)),
            *ckpt(2, (T, 0, grown)),
            *ckpt(3, (T, 0, grown[:PAGE - 4] + b"tail")),
        ]
        return steps, grown

    def test_a_write_of_another_length_ships_whole(self):
        steps, grown = self.another_length()
        ours, _reference = assert_contract(PG, steps, mode="reboot")
        assert newest_writes(ours[0][1]) == [(T, 0, grown)]
        assert newest_writes(ours[0][2]) == [
            (T, PAGE - 4, b"tail"),
        ]

    def test_a_write_of_another_length_is_cut_against_the_image(self):
        """The image holds every byte of the file, whatever the length
        of the write that last landed at a place."""
        steps, _grown = self.another_length()
        ours, _reference = assert_contract(PG, steps)
        assert newest_writes(ours[0][1]) == [
            (T, PAGE // 2, bytes(PAGE // 2)),
        ]
        assert newest_writes(ours[0][2]) == [
            (T, PAGE - 4, b"tail"),
        ]

    def overlapping(self) -> tuple[list[tuple], bytes, bytes]:
        rng = random.Random(7)
        left, right = noise(rng, PAGE // 2), noise(rng, PAGE // 2)
        wide = noise(rng, PAGE)
        steps = [
            *ckpt(1, (T, 0, left), (T, PAGE // 2, right)),
            # The wide write lands on both places; the right half is
            # then put back exactly as the shadow remembers it.
            *ckpt(2, (T, 0, wide), (T, PAGE // 2, right)),
            *ckpt(3, (T, PAGE // 2, right)),
        ]
        return steps, wide, right

    def test_overlapping_writes_ship_whole_and_are_forgotten(self):
        steps, wide, right = self.overlapping()
        ours, _reference = assert_contract(PG, steps, mode="reboot")
        # Whole, in write order — joined, the later bytes winning.
        assert newest_writes(ours[0][1]) == [
            (T, 0, wide[:PAGE // 2] + right),
        ]
        assert newest_writes(ours[0][2]) == [
            (T, PAGE // 2, right),
        ]

    def test_overlapping_writes_ship_whole_and_the_image_takes_them_in(self):
        steps, wide, right = self.overlapping()
        ours, _reference = assert_contract(PG, steps)
        assert newest_writes(ours[0][1]) == [
            (T, 0, wide[:PAGE // 2] + right),
        ]
        assert newest_writes(ours[0][2]) == []

    def test_an_evicted_place_ships_whole(self, monkeypatch):
        monkeypatch.setattr(checkpointer, "_SHADOW_BYTES", 3 * PAGE)
        rng = random.Random(8)
        pages = [noise(rng, PAGE) for _ in range(6)]
        first = [(T, n * PAGE, page) for n, page in enumerate(pages)]
        again = [(T, n * PAGE, page[:-2] + b"zz")
                 for n, page in enumerate(pages)]
        steps = [*ckpt(1, *first), *ckpt(2, *again)]
        ours, _reference = assert_contract(PG, steps, mode="reboot")
        # Control and clog included, the bound held the last pages only:
        # the first four ship whole (one run: they touch), the rest cut.
        shipped = newest_writes(ours[0][-1])
        assert shipped == [
            (T, 0, b"".join(data for _path, _offset, data in again[:4])),
            (T, 5 * PAGE - 2, b"zz"), (T, 6 * PAGE - 2, b"zz"),
        ]

    def test_a_checkpoint_split_into_parts(self):
        """40 pages of 4 KiB, half of each rewritten: 80 KiB of runs
        against the smallest ``max_object_bytes`` the config takes."""
        rng = random.Random(9)
        big = 4096
        pages = [rng.randbytes(big) for _ in range(40)]
        halved = [page[:big // 2] + rng.randbytes(big // 2) for page in pages]
        steps = [
            *ckpt(1, *((T, n * big, page) for n, page in enumerate(pages))),
            *ckpt(2, *((T, n * big, page) for n, page in enumerate(halved))),
        ]
        ours, _reference = assert_contract(PG, steps, max_object_bytes=64 * 1024)
        newest = [(meta, writes) for meta, writes in checkpoint_objects(ours[0][-1])
                  if meta.seq == 2]
        assert [meta.nparts for meta, _writes in newest] == [2, 2]
        # A run that straddles the parts is sliced across them.
        runs: list[tuple[int, bytes]] = []
        for _meta, writes in newest:
            for path, offset, data in writes:
                if path != T:
                    continue
                if runs and runs[-1][0] + len(runs[-1][1]) == offset:
                    runs[-1] = (runs[-1][0], runs[-1][1] + data)
                else:
                    runs.append((offset, data))
        assert len(runs) == 40
        assert all(big // 2 - 8 < len(data) <= big // 2 for _offset, data in runs)


class TestANewProcessKnowsNothing:
    """Reboot, recover and ``mode="attached"`` each build a new
    collector; its empty shadow ships the first write of every page
    whole, whatever the previous process had shipped there."""

    PAGE_1 = bytes(range(1, 256)) + b"\x01"
    PAGE_2 = PAGE_1[:40] + b"row!" + PAGE_1[44:]
    PAGE_3 = PAGE_2[:90] + b"more" + PAGE_2[94:]

    def flush(self, ginja, number: int, page: bytes) -> list[tuple]:
        """One checkpoint of the page; what its object carries of it."""
        ginja.fs.write(PG.clog_path, 0, b"\x01")
        ginja.fs.write(T, PAGE, page)
        ginja.fs.write(PG.control_path, 0, bytes([number]) * 8)
        assert ginja.drain(timeout=10.0)
        _meta, writes = checkpoint_objects(backend_of(ginja).snapshot())[-1]
        return [write for write in writes if write[0] == T]

    def successor_ships_whole_then_runs(self, successor):
        try:
            assert successor.health()["db_shadow_bytes"] == 0
            assert self.flush(successor, 3, self.PAGE_2) == [(T, PAGE, self.PAGE_2)]
            assert self.flush(successor, 4, self.PAGE_3) == [(T, PAGE + 90, b"more")]
            bucket = backend_of(successor).snapshot()
            disk = successor.fs.inner
            local = {path: disk.read_all(path) for path in disk.files()}
        finally:
            successor.stop()
        assert db_image(recovered_files(bucket, PG), PG) == db_image(local, PG)

    def first_process(self):
        ginja = protect(PG, True)
        assert self.flush(ginja, 1, self.PAGE_1) == [(T, PAGE, self.PAGE_1)]
        assert self.flush(ginja, 2, self.PAGE_2) == [(T, PAGE + 40, b"row!")]
        ginja.stop()
        return ginja

    def test_reboot(self):
        ginja = self.first_process()
        self.successor_ships_whole_then_runs(protect(
            PG, True, mode="reboot", disk=ginja.fs.inner,
            backend=backend_of(ginja),
        ))

    def test_recover_which_starts_attached(self):
        ginja = self.first_process()
        standby, _report = Ginja.recover(
            SimulatedCloud(backend=backend_of(ginja), time_scale=0.0),
            MemoryFileSystem(), PG, ginja.config,
        )
        self.successor_ships_whole_then_runs(standby)

    @pytest.mark.parametrize("seed", range(2))
    def test_a_mixed_bucket_restores_to_the_all_whole_image(self, seed):
        """Whole-page objects from a process that shipped every write,
        then run objects from its rebooted successor, in one bucket —
        against the whole script shipped whole."""
        steps = page_script(PG, seed, checkpoints=8)
        half = [i for i, step in enumerate(steps) if step == CUT][3] + 1
        old = protect(PG, False)
        try:
            mixed = play(steps[:half], old)
        finally:
            old.stop()
        new = protect(PG, True, mode="reboot", disk=old.fs.inner,
                      backend=backend_of(old))
        try:
            mixed += play(steps[half:], new)
        finally:
            new.stop()
        whole, _local, _stats = run(PG, steps, False)
        for cut, (mine, theirs) in enumerate(zip(mixed, whole)):
            assert (db_image(recovered_files(mine, PG), PG)
                    == db_image(recovered_files(theirs, PG), PG)), f"cut {cut}"
        assert any(len(data) < PAGE and path in tables(PG)
                   for _meta, writes in checkpoint_objects(mixed[-1])
                   for path, _offset, data in writes)


class TestTheDumpImage:
    """After boot, every DB file has an image: the boot dump, and every
    run handed over since.  A page this process never handed over is
    cut against it like any rewrite."""

    def first_sight(self, profile) -> tuple[str, bytes, list[tuple]]:
        table = tables(profile)[0]
        page = seeded_disk(profile).read_all(table)[PAGE:2 * PAGE]
        fresh = page[:40] + b"row!" + page[44:]
        return table, fresh, flush(profile, 1, (table, PAGE, fresh))

    @pytest.mark.parametrize("profile", [PG, MY], ids=["postgres", "mysql"])
    def test_first_sight_is_cut_against_the_boot_dump(self, profile):
        table, _fresh, steps = self.first_sight(profile)
        ours, _reference = assert_contract(profile, steps)
        assert newest_writes(ours[0][-1], table) == [(table, PAGE + 40, b"row!")]

    def test_the_image_counts_as_shadow_bytes(self):
        """``db_shadow_bytes`` is the dump's DB files from boot on, and
        grows with every byte a run appends — the fleet reports the
        same figure per tenant."""
        disk = seeded_disk(PG)
        dumped = sum(len(disk.read_all(path)) for path in disk.files()
                     if PG.is_db_file(path))
        ginja = protect(PG, True, disk=disk)
        try:
            assert ginja.health()["db_shadow_bytes"] == dumped
            play(ckpt(1, (T, PAGES * PAGE, noise(random.Random(3), PAGE))),
                 ginja)
            assert ginja.health()["db_shadow_bytes"] == dumped + PAGE
        finally:
            ginja.stop()

    def test_a_dump_larger_than_the_bound_keeps_no_image(self, monkeypatch):
        """Images count against the collector's bound: below the dump's
        size none is kept, and a page's first sight ships whole."""
        monkeypatch.setattr(checkpointer, "_SHADOW_BYTES", 4 * PAGE)
        table, fresh, steps = self.first_sight(PG)
        ginja = protect(PG, True)
        try:
            assert ginja.health()["db_shadow_bytes"] == 0
        finally:
            ginja.stop()
        ours, _reference = assert_contract(PG, steps)
        assert newest_writes(ours[0][-1], table) == [(table, PAGE, fresh)]


# -- the mutants -------------------------------------------------------------------


class TestMutants:
    """Each breaks one clause of the invariant and must fail the
    contract on a script that the real thing passes.  The first three
    break the per-place entries, which only a process without an image
    plans against — a rebooted one, before its first dump."""

    def assert_fails(self, profile, steps, **config):
        with pytest.raises(AssertionError, match=r"cut \d+"):
            assert_contract(profile, steps, **config)

    def test_the_shadow_kept_across_a_dump(self, monkeypatch):
        """The dump reads the *local* files, which hold a write no
        checkpoint carried; entries that outlive it cut the next
        rewrite against bytes the new generation does not hold."""
        rng = random.Random(11)
        page = noise(rng, PAGE)
        stray = noise(rng, PAGE)
        filler = [(PG.table_path("u"), n * PAGE, noise(rng, PAGE)) for n in range(12)]
        steps = [
            *ckpt(1, (T, 0, page)),
            (T, 0, stray),                    # local only
            *ckpt(2, *filler),                     # object bytes pile up ...
            *ckpt(3, *filler[:1]),                 # ... and this one dumps
            *ckpt(4, (T, 0, page[:-4] + b"last")),
        ]
        config = dict(dump_threshold=1.04, mode="reboot")
        ours, _reference = assert_contract(PG, steps, **config)
        assert ours[2].dumps == 1        # the reboot's stats miss the boot dump
        assert sum("_dump_" in key for key in ours[0][2]) == 1 == len(ours[0][2])
        monkeypatch.setattr(CheckpointCollector, "seed", lambda self, files: None)
        self.assert_fails(PG, steps, **config)

    def test_the_shadow_updated_at_add_write(self, monkeypatch):
        steps = page_script(PG, 0)
        assert_contract(PG, steps, mode="reboot")
        honest = CheckpointCollector.add_write

        def eager(self, path, offset, data):
            honest(self, path, offset, data)
            self._shadow.learn(({(path, offset): (0, bytes(data))}, ()))

        monkeypatch.setattr(CheckpointCollector, "add_write", eager)
        self.assert_fails(PG, steps, mode="reboot")

    def test_lengths_ignored(self, monkeypatch):
        steps = self.another_length_script()
        assert_contract(PG, steps, mode="reboot")
        honest = shadow._cut

        def any_length(old, offset, data, gap):
            if old is not None:
                old = old[:len(data)].ljust(len(data), b"\0")
            return honest(old, offset, data, gap)

        monkeypatch.setattr(shadow, "_cut", any_length)
        self.assert_fails(PG, steps, mode="reboot")

    def another_length_script(self) -> list[tuple]:
        rng = random.Random(6)
        half = noise(rng, PAGE // 2)
        return [
            *ckpt(1, (T, 0, half)),
            *ckpt(2, (T, 0, half + bytes(PAGE // 2))),
        ]

    def test_overlap_ignored(self, monkeypatch):
        rng = random.Random(7)
        left, right = noise(rng, PAGE // 2), noise(rng, PAGE // 2)
        steps = [
            *ckpt(1, (T, 0, left), (T, PAGE // 2, right)),
            *ckpt(2, (T, 0, noise(rng, PAGE)), (T, PAGE // 2, right)),
        ]
        assert_contract(PG, steps)
        monkeypatch.setattr(
            shadow, "_overlaps",
            lambda writes, pages: (set(range(len(writes))), []),
        )
        self.assert_fails(PG, steps)


class EncodeFailed(Exception):
    pass


def dump_encode_fails(profile, number: int, *writes):
    """A script step: the checkpoint of ``writes``, which must dump, has
    its parts encoded and then fails — the hand-off never happens, and
    the instance carries on."""

    def step(ginja):
        collector = ginja.collector

        def fail(groups, encode_payload):
            type(collector)._encode_groups(collector, groups, encode_payload)
            raise EncodeFailed(encode_payload.__name__)

        collector._encode_groups = fail
        try:
            with pytest.raises(EncodeFailed, match="encode_dump_payload"):
                for write in flush(profile, number, *writes)[:-1]:
                    ginja.fs.write(*write)
        finally:
            del collector._encode_groups
    return step


@pytest.mark.parametrize("profile", [PG, MY], ids=["postgres", "mysql"])
class TestImageMutants:
    """Each breaks one clause of the dump image's invariant — that it
    equals, byte for byte and length for length, what replaying the
    bucket's newest dump and every run since rebuilds — and must fail
    the contract on both profiles, on a script the real thing passes."""

    CONFIG = dict(dump_threshold=1.04)

    def assert_fails(self, profile, steps, **config):
        with pytest.raises(AssertionError, match=r"cut \d+"):
            assert_contract(profile, steps, **config)

    def dump_script(self, profile, seed: int, *, fails: bool = False):
        """A page checkpointed, then overwritten beside the mount; a
        checkpoint that dumps the directory (or fails to); the page
        rewritten so that only the bytes the bucket does *not* hold
        there agree with it."""
        rng = random.Random(seed)
        table, other = tables(profile)
        page, stray = noise(rng, PAGE), noise(rng, PAGE)
        filler = [(other, n * PAGE, noise(rng, PAGE)) for n in range(12)]
        dump = (dump_encode_fails(profile, 3, *filler[:1]) if fails
                else flush(profile, 3, *filler[:1]))
        return [
            *flush(profile, 1, (table, 0, page)),
            local(table, 0, stray),
            *flush(profile, 2, *filler),              # object bytes pile up ...
            *([dump] if fails else dump),             # ... and this one dumps
            # A failed dump leaves the bucket's generation as it was;
            # a larger directory keeps the 150 % rule quiet after it.
            *([local(profile.table_path("more"), 0, bytes(BALLAST))] if fails
              else []),
            *flush(profile, 4, (table, 0, (stray if fails else page)[:-4] + b"last")),
        ]

    def test_the_image_kept_across_a_dump(self, monkeypatch, profile):
        steps = self.dump_script(profile, 11)
        ours, _reference = assert_contract(profile, steps, **self.CONFIG)
        assert ours[2].dumps == 2
        honest = CheckpointCollector.seed

        def boot_only(self, files):
            if not getattr(self, "booted", False):
                self.booted = True
                honest(self, files)

        monkeypatch.setattr(CheckpointCollector, "seed", boot_only)
        self.assert_fails(profile, steps, **self.CONFIG)

    def test_the_image_seeded_before_the_dump_hand_off(self, monkeypatch,
                                                       profile):
        """Seeded while the parts are encoded, the image outlives a dump
        whose encode then fails — the bucket's newest dump is still the
        one before it."""
        steps = self.dump_script(profile, 12, fails=True)
        ours, _reference = assert_contract(profile, steps, **self.CONFIG)
        assert ours[2].dumps == 1
        table = tables(profile)[0]
        assert newest_writes(ours[0][-1], table) != [
            (table, PAGE - 4, b"last"),
        ]
        honest = CheckpointCollector._encode_groups

        def seeds_early(self, groups, encode_payload):
            if encode_payload is encode_dump_payload:
                self.seed([file for group in groups for file in group])
            return honest(self, groups, encode_payload)

        monkeypatch.setattr(CheckpointCollector, "_encode_groups", seeds_early)
        self.assert_fails(profile, steps, **self.CONFIG)

    def test_the_image_updated_at_add_write(self, monkeypatch, profile):
        steps = page_script(profile, 0)
        assert_contract(profile, steps)
        honest = CheckpointCollector.add_write

        def eager(self, path, offset, data):
            honest(self, path, offset, data)
            self._shadow.learn(({}, [(path, offset, bytes(data))]))

        monkeypatch.setattr(CheckpointCollector, "add_write", eager)
        self.assert_fails(profile, steps)

    def test_the_image_seeded_from_the_local_files_at_reboot(
            self, monkeypatch, profile):
        """The first process stopped with a page written that no object
        carried; its successor's local file is not the bucket's."""
        rng = random.Random(13)
        table = tables(profile)[0]
        page = noise(rng, PAGE)
        steps = flush(profile, 1, (table, 0, page[:-4] + b"last"))
        config = dict(mode="reboot", local_writes=[(table, 0, page)])
        ours, _reference = assert_contract(profile, steps, **config)
        assert newest_writes(ours[0][-1], table) == [
            (table, 0, page[:-4] + b"last"),
        ]
        honest = Ginja.start

        def from_local(self, mode="boot"):
            honest(self, mode)
            if mode == "reboot":
                disk = self.fs.inner
                self.collector.seed([(path, disk.read_all(path))
                                     for path in disk.files()])

        monkeypatch.setattr(Ginja, "start", from_local)
        self.assert_fails(profile, steps, **config)

    def test_the_image_not_told_of_an_overlapped_write(self, monkeypatch,
                                                       profile):
        """Whole writes that overlap land on the image too: else a page
        put back as it was before them looks unchanged."""
        rng = random.Random(14)
        table = tables(profile)[0]
        before, wide, right = (noise(rng, PAGE), noise(rng, PAGE),
                               noise(rng, PAGE // 2))
        steps = [
            *flush(profile, 1, (table, 0, before)),
            *flush(profile, 2, (table, 0, wide), (table, PAGE // 2, right)),
            *flush(profile, 3, (table, 0, before)),
        ]
        assert_contract(profile, steps)
        honest = Shadow.plan

        def untold(self, writes):
            runs, (places, _runs) = honest(self, writes)
            survivors = shadow._coalesce(writes)
            alone, _overlapped = shadow._overlaps(survivors, {})
            _alone, (_places, told) = honest(
                self, [write for index, write in enumerate(survivors)
                       if index in alone])
            return runs, (places, told)

        monkeypatch.setattr(Shadow, "plan", untold)
        self.assert_fails(profile, steps)

    def test_no_pin_past_the_image_end(self, monkeypatch, profile):
        """A page appended past the file's end, its records then zeros:
        without the pin, the recovered file comes back short."""
        table = tables(profile)[0]
        offset = (PAGES + 1) * PAGE
        steps = flush(profile, 1, (table, offset, b"rec" + bytes(PAGE - 3)))
        ours, _reference = assert_contract(profile, steps)
        assert newest_writes(ours[0][-1], table) == [
            (table, offset, b"rec"), (table, offset + PAGE - 1, b"\0"),
        ]
        honest = shadow.elide_known_zeros

        def no_pin(offset, data, mark, framing):
            return [chunk for chunk in honest(offset, data, mark, framing)
                    if chunk[0] == offset]

        monkeypatch.setattr(shadow, "elide_known_zeros", no_pin)
        with pytest.raises(AssertionError, match=r"cut 0: " + table):
            assert_contract(profile, steps)
