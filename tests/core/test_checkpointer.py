"""Algorithm 3: checkpoint capture, upload, GC and PITR retention."""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

from repro.common.errors import GinjaError
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.checkpointer import CheckpointCollector, CheckpointUploader
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    decode_checkpoint_payload,
    decode_dump_payload,
)
from repro.core.pitr import RetentionPolicy
from repro.core.stats import GinjaStats
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem

from tests.cloud.test_reactor import wait_for


def make_stack(pools, config=None, fs=None):
    config = config or GinjaConfig()
    fs = fs or MemoryFileSystem()
    backend = InMemoryObjectStore()
    cloud = SimulatedCloud(backend=backend, time_scale=0.0)
    view = CloudView()
    bus = EventBus()
    stats = GinjaStats().attach(bus)
    codec = ObjectCodec()
    transport = build_transport(cloud, config, bus=bus)
    _stage, reactor = pools
    uploader = CheckpointUploader(config, transport, view, reactor, bus)
    uploader.start()  # attaches the lane; the pools fixture stops the loop
    collector = CheckpointCollector(
        config, codec, view, fs, POSTGRES_PROFILE, uploader.enqueue, bus
    )
    return config, fs, backend, view, stats, codec, uploader, collector


def run_uploader_once(uploader):
    """Let everything enqueued run to completion on the reactor — parts,
    registration and GC — and surface a failure right here."""
    drained = uploader.drain(timeout=10.0)
    if uploader.failed is not None:
        raise uploader.failed
    assert drained


class TestCollector:
    def test_incremental_checkpoint_payload(self, pools):
        _cfg, fs, backend, view, _stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"\x00" * 100)  # some local DB presence
        view.next_wal_ts()
        view.add_wal(WALObjectMeta(ts=0, filename="seg", offset=0))
        collector.begin()
        assert collector.in_checkpoint
        collector.add_write("base/t", 0, b"page-v1")
        collector.add_write("base/t", 0, b"page-v2")  # coalesced
        collector.add_write("base/t", 8192, b"page-b")
        collector.end()
        assert not collector.in_checkpoint
        run_uploader_once(uploader)
        (info,) = backend.list("DB/")
        meta = DBObjectMeta.parse(info.key)
        assert meta.type == CHECKPOINT
        assert meta.ts == 0  # the confirmed WAL frontier at begin
        writes = decode_checkpoint_payload(codec.decode(backend.get(info.key)))
        assert writes == [("base/t", 0, b"page-v2"), ("base/t", 8192, b"page-b")]

    def test_dump_triggered_by_150_percent_rule(self, pools):
        _cfg, fs, backend, view, stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"d" * 1000)  # local DB size = 1000
        # Pretend the cloud already holds 1500+ bytes of DB objects.
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=1600))
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()
        run_uploader_once(uploader)
        dumps = [
            DBObjectMeta.parse(i.key)
            for i in backend.list("DB/")
            if DBObjectMeta.parse(i.key).is_dump
        ]
        assert dumps, "the 150% rule must force a dump"
        content = decode_dump_payload(codec.decode(backend.get(dumps[0].key)))
        assert ("base/t", b"d" * 1000) in content
        assert stats.dumps == 1

    def test_below_threshold_stays_incremental(self, pools):
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"d" * 1000)
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=1400))  # 140% < 150%
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()
        run_uploader_once(uploader)
        new_metas = [DBObjectMeta.parse(i.key) for i in backend.list("DB/")]
        assert any(m.type == CHECKPOINT for m in new_metas)

    @staticmethod
    def replayed(backend, codec, size: int = 16) -> bytes:
        """``base/t`` as recovery's apply loop rebuilds it from the
        checkpoint objects, over the ``D``s a dump left there."""
        image = bytearray(b"D" * size)
        metas = sorted((DBObjectMeta.parse(info.key) for info in backend.list("DB/")),
                       key=lambda meta: (meta.order, meta.part))
        for meta in metas:
            payload = codec.decode(backend.get(meta.key))
            for path, offset, data in decode_checkpoint_payload(payload):
                assert path == "base/t"
                image[offset:offset + len(data)] = data
        return bytes(image)

    def test_a_shorter_rewrite_keeps_the_tail_of_the_write_it_replaced(self, pools):
        """The coalescing bug: latest-per-(path, offset) shipped ``ZZ``
        alone, and recovery left the dump's bytes under the other 14."""
        _cfg, fs, backend, _view, _stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"D" * 16)
        fs.write("base/big", 0, bytes(10_000))  # keeps the 150% rule quiet
        collector.begin()
        collector.add_write("base/t", 0, b"A" * 16)
        collector.add_write("base/t", 0, b"ZZ")
        collector.end()
        run_uploader_once(uploader)
        assert self.replayed(backend, codec) == b"ZZ" + b"A" * 14
        # Neither shape is remembered: the same page again ships whole.
        collector.begin()
        collector.add_write("base/t", 0, b"ZZ")
        collector.end()
        run_uploader_once(uploader)
        newest = max(backend.list("DB/"), key=lambda i: DBObjectMeta.parse(i.key).order)
        assert decode_checkpoint_payload(codec.decode(backend.get(newest.key))) == [
            ("base/t", 0, b"ZZ"),
        ]

    def test_overlapping_writes_replay_in_write_order(self, pools):
        """The other half: first-seen order replayed the rewrite of an
        earlier place *before* the later write it had overwritten."""
        _cfg, fs, backend, _view, _stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"D" * 16)
        fs.write("base/big", 0, bytes(10_000))  # keeps the 150% rule quiet
        collector.begin()
        collector.add_write("base/t", 0, b"A" * 16)
        collector.add_write("base/t", 8, b"B" * 8)
        collector.add_write("base/t", 0, b"C" * 16)
        collector.end()
        run_uploader_once(uploader)
        assert self.replayed(backend, codec) == b"C" * 16

    @pytest.mark.parametrize("seed", range(10))
    def test_any_overlapping_script_replays_to_the_local_image(self, pools, seed):
        rng = random.Random(seed)
        _cfg, fs, backend, _view, _stats, codec, uploader, collector = make_stack(pools)
        local = bytearray(b"D" * 48)
        fs.write("base/t", 0, bytes(local))
        fs.write("base/big", 0, bytes(10_000))
        for _ in range(4):
            collector.begin()
            for _ in range(rng.randint(1, 8)):
                offset = rng.choice((0, 0, 8, 16, 20, 32))
                data = bytes([rng.randrange(1, 256)]) * rng.choice((2, 8, 16))
                local[offset:offset + len(data)] = data
                collector.add_write("base/t", offset, data)
            collector.end()
            run_uploader_once(uploader)
            assert self.replayed(backend, codec, 48) == bytes(local)

    def test_a_page_rewritten_in_place_ships_the_runs_that_changed(self, pools):
        _cfg, fs, backend, _view, stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, bytes(4096))
        page = bytearray(b"\x07" * 1024)
        collector.begin()
        collector.add_write("base/t", 1024, bytes(page))
        collector.end()
        page[2:4] = b"hd"           # a header count ...
        page[1000:1010] = b"r" * 10  # ... and a row at the tail
        collector.begin()
        collector.add_write("base/t", 1024, bytes(page))
        collector.end()
        run_uploader_once(uploader)
        newest = max(backend.list("DB/"), key=lambda i: DBObjectMeta.parse(i.key).order)
        assert decode_checkpoint_payload(codec.decode(backend.get(newest.key))) == [
            ("base/t", 1026, b"hd"), ("base/t", 2024, b"r" * 10),
        ]
        assert (stats.db_submitted_bytes, stats.db_planned_bytes) == (2048, 1036)
        assert collector.shadow_bytes == 1024

    def test_large_checkpoint_splits_into_parts(self, pools):
        config = GinjaConfig(max_object_bytes=64 * 1024)
        _cfg, fs, backend, _view, _stats, _codec, uploader, collector = make_stack(
            pools, config
        )
        fs.write("base/t", 0, b"\x00")
        collector.begin()
        for page in range(24):  # 24 x 8 KiB = 192 KiB > 3 x 64 KiB
            collector.add_write("base/t", page * 8192, b"p" * 8192)
        collector.end()
        run_uploader_once(uploader)
        metas = [DBObjectMeta.parse(i.key) for i in backend.list("DB/")]
        assert len(metas) >= 3
        assert all(m.nparts == len(metas) for m in metas)
        assert sorted(m.part for m in metas) == list(range(len(metas)))


class TestGarbageCollection:
    def test_wal_objects_upto_ts_deleted(self, pools):
        _cfg, fs, backend, view, stats, codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"\x00" * 10)
        # Three confirmed WAL objects in the cloud.
        for ts in range(3):
            view.next_wal_ts()
            meta = WALObjectMeta(ts=ts, filename="seg", offset=ts * 512)
            backend.put(meta.key, b"blob")
            view.add_wal(meta)
        collector.begin()  # frontier ts = 2
        collector.add_write("base/t", 0, b"x")
        collector.end()
        run_uploader_once(uploader)
        assert backend.list("WAL/") == []
        assert view.wal_object_count() == 0
        assert stats.gc_deletes == 3

    def test_wal_beyond_checkpoint_ts_survives(self, pools):
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"\x00" * 10)
        view.next_wal_ts()
        meta0 = WALObjectMeta(ts=0, filename="seg", offset=0)
        backend.put(meta0.key, b"blob")
        view.add_wal(meta0)
        collector.begin()  # frontier = 0
        # A new confirmed WAL object arrives during the checkpoint.
        view.next_wal_ts()
        meta1 = WALObjectMeta(ts=1, filename="seg", offset=512)
        backend.put(meta1.key, b"blob")
        view.add_wal(meta1)
        collector.add_write("base/t", 0, b"x")
        collector.end()
        run_uploader_once(uploader)
        remaining = [i.key for i in backend.list("WAL/")]
        assert remaining == [meta1.key]

    def test_dump_deletes_previous_db_objects(self, pools):
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"d" * 100)
        old_dump = DBObjectMeta(ts=0, type=DUMP, size=120)
        old_ckpt = DBObjectMeta(ts=2, type=CHECKPOINT, size=60)
        for meta in (old_dump, old_ckpt):
            backend.put(meta.key, b"old")
            view.add_db(meta)
        view.next_wal_ts()
        wal3 = WALObjectMeta(ts=0, filename="seg", offset=0)
        backend.put(wal3.key, b"w")
        view.add_wal(wal3)
        view.force_frontier(5)  # checkpoint ts will be 5 > old objects
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()  # 180 >= 1.5*100 -> dump
        run_uploader_once(uploader)
        keys = [i.key for i in backend.list("DB/")]
        assert old_dump.key not in keys
        assert old_ckpt.key not in keys
        assert len(keys) == 1  # only the new dump


class TestRetention:
    def _superseding_dump(self, view, collector, uploader, fs, ts):
        view.force_frontier(ts)
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()
        run_uploader_once(uploader)

    def test_generations_kept_then_rotated(self, pools):
        config = GinjaConfig(retention=RetentionPolicy.keep(2))
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(
            pools, config
        )
        fs.write("base/t", 0, b"d" * 10)  # tiny local DB: every ckpt dumps
        gen_keys = []
        for gen in range(4):
            old = DBObjectMeta(ts=gen * 10, type=DUMP, size=100)
            backend.put(old.key, b"old")
            view.add_db(old)
            gen_keys.append(old.key)
            self._superseding_dump(view, collector, uploader, fs, gen * 10 + 5)
        # Two most recent superseded generations retained, older deleted.
        assert len(uploader.snapshots) == 2
        live = {i.key for i in backend.list("DB/")}
        assert gen_keys[0] not in live
        assert gen_keys[1] not in live
        assert gen_keys[2] in live
        assert gen_keys[3] in live

    def test_no_retention_deletes_immediately(self, pools):
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"d" * 10)
        old = DBObjectMeta(ts=0, type=DUMP, size=100)
        backend.put(old.key, b"old")
        view.add_db(old)
        self._superseding_dump(view, collector, uploader, fs, 5)
        assert uploader.snapshots == []
        assert old.key not in {i.key for i in backend.list("DB/")}


class TestUploaderThread:
    def test_threaded_upload_and_drain(self, pools):
        """The uploader has no thread of its own: the object uploads on
        the reactor's, and stop() is a drain plus a lane detach."""
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"\x00" * 10)
        before = {t.name for t in threading.enumerate()}
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()
        assert uploader.drain(timeout=5.0)
        assert backend.list("DB/")
        assert {t.name for t in threading.enumerate()} == before
        with pytest.raises(GinjaError, match="already started"):
            uploader.start()
        uploader.stop(drain_timeout=5.0)
        assert uploader.failed is None
        assert "" not in pools[1].health()["tenants"]


class TestFreeze:
    def test_db_writes_blocked_during_dump(self, pools):
        import threading

        _cfg, fs, _backend, view, _stats, _codec, _uploader, collector = make_stack(pools)
        # Large-ish file so the dump read loop has substance.
        fs.write("base/t", 0, b"d" * 10_000)
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=100_000))  # force dump

        entered = threading.Event()
        finished = threading.Event()
        original_read_all = fs.read_all

        def slow_read_all(path):
            entered.set()
            time.sleep(0.2)
            return original_read_all(path)

        fs.read_all = slow_read_all

        def run_end():
            collector.begin()
            collector.add_write("base/t", 0, b"x")
            collector.end()
            finished.set()

        ckpt_thread = threading.Thread(target=run_end)
        ckpt_thread.start()
        assert entered.wait(timeout=5)
        blocked_result = []

        def other_writer():
            collector.wait_if_frozen()
            blocked_result.append(time.monotonic())

        writer = threading.Thread(target=other_writer)
        start = time.monotonic()
        writer.start()
        writer.join(timeout=5)
        ckpt_thread.join(timeout=5)
        assert finished.is_set()
        # The writer had to wait for the dump assembly to finish.
        assert blocked_result and blocked_result[0] - start > 0.1


class TestWorkerFaults:
    """Any exception escaping a step must poison the uploader, and
    drain() must wait on the machine's condition instead of polling —
    before these guards a non-CloudError killed the worker silently and
    drain spun on ``clock.sleep(0.01)``, eating virtual-time deadlines."""

    def _stack(self, pools, store, clock=None):
        import threading  # noqa: F401 - used by callers via module scope

        config = GinjaConfig(max_retries=0, retry_backoff=0.001)
        fs = MemoryFileSystem()
        fs.write("base/t", 0, b"\x00" * 64)
        view = CloudView()
        transport = build_transport(store, config)
        kwargs = {"clock": clock} if clock is not None else {}
        uploader = CheckpointUploader(config, transport, view, pools[1], **kwargs)
        collector = CheckpointCollector(
            config, ObjectCodec(), view, fs, POSTGRES_PROFILE, uploader.enqueue
        )
        return uploader, collector

    def _enqueue_one(self, collector):
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()

    def test_non_cloud_error_poisons_thread(self, pools):
        class PutExplodes(InMemoryObjectStore):
            def put(self, key, data):
                raise ValueError("not a CloudError")

        uploader, collector = self._stack(pools, PutExplodes())
        uploader.start()
        try:
            self._enqueue_one(collector)
            # Pre-fix the thread died without setting _fatal and this
            # drain polled its whole 5 s timeout away before failing.
            started = time.monotonic()
            assert uploader.drain(timeout=5.0) is False
            assert time.monotonic() - started < 2.0
            assert isinstance(uploader.failed, ValueError)
        finally:
            uploader.stop(drain_timeout=0.1)

    def test_drain_honors_deadline_with_a_stuck_upload(self, pools):
        import threading

        release = threading.Event()

        class SlowPut(InMemoryObjectStore):
            def put(self, key, data):
                release.wait(5.0)
                super().put(key, data)

        uploader, collector = self._stack(pools, SlowPut())
        uploader.start()
        try:
            self._enqueue_one(collector)
            start = time.monotonic()
            assert uploader.drain(timeout=0.2) is False
            assert time.monotonic() - start < 2.0
            release.set()
            assert uploader.drain(timeout=5.0) is True
        finally:
            release.set()
            uploader.stop(drain_timeout=1.0)

    def test_drain_deadline_is_virtual_time_not_self_advanced(self, pools):
        """Under a ManualClock the old poll loop *advanced* the clock by
        10 ms per iteration, so a stuck upload consumed the virtual
        deadline instantly.  The condition-based drain only observes the
        clock: the deadline passes when someone else advances it."""
        import threading

        from repro.common.clock import ManualClock

        release = threading.Event()

        class SlowPut(InMemoryObjectStore):
            def put(self, key, data):
                release.wait(10.0)
                super().put(key, data)

        clock = ManualClock()
        uploader, collector = self._stack(pools, SlowPut(), clock=clock)
        uploader.start()
        outcome = []
        try:
            self._enqueue_one(collector)
            drainer = threading.Thread(
                target=lambda: outcome.append(uploader.drain(timeout=1.0))
            )
            drainer.start()
            # The old implementation returned (False) almost instantly
            # here, having advanced the clock past the deadline itself.
            drainer.join(timeout=0.3)
            assert drainer.is_alive()
            assert clock.now() == 0.0
            clock.advance(2.0)  # now the deadline has truly passed
            drainer.join(timeout=5.0)
            assert not drainer.is_alive()
            assert outcome == [False]
            assert clock.now() == 2.0
        finally:
            release.set()
            uploader.stop(drain_timeout=1.0)


class GateStore(InMemoryObjectStore):
    """An async store that parks chosen requests (as loop timers) until
    released, and logs the order requests start and finish in."""

    def __init__(self, hold=lambda op, key: False):
        super().__init__()
        self._hold = hold
        self.release = threading.Event()
        self.log: list[tuple[str, str, str]] = []  # (op, key, edge)

    async def _gated(self, op, key):
        self.log.append((op, key, "start"))
        while self._hold(op, key) and not self.release.is_set():
            await asyncio.sleep(0.001)

    async def aput(self, key, data):
        await self._gated("put", key)
        self.put(key, data)
        self.log.append(("put", key, "end"))

    async def _adelete_request(self, keys):
        await self._gated("delete", keys[0])
        self._delete_request(keys)
        self.log.append(("delete", keys[0], "end"))

    def started(self, op):
        return [key for o, key, edge in self.log if o == op and edge == "start"]


def holds_part(part):
    """Gate predicate: park the PUT of DB-object part number ``part``."""
    return lambda op, key: op == "put" and DBObjectMeta.parse(key).part == part


def gated_stack(reactor, store, config=None, wal_objects=1):
    """An uploader over ``store`` with ``wal_objects`` confirmed WAL
    objects its next checkpoint's GC retires; nothing enqueued yet."""
    config = config or GinjaConfig(max_retries=0, retry_backoff=0.001)
    fs = MemoryFileSystem()
    fs.write("base/t", 0, b"\x00" * (1 << 20))  # big enough: no dump
    view = CloudView()
    uploader = CheckpointUploader(
        config, build_transport(store, config), view, reactor
    )
    collector = CheckpointCollector(
        config, ObjectCodec(), view, fs, POSTGRES_PROFILE, uploader.enqueue
    )
    wals = []
    for ts in range(wal_objects):
        view.next_wal_ts()
        wal = WALObjectMeta(ts=ts, filename="seg", offset=ts * 512)
        store.put(wal.key, b"w")
        view.add_wal(wal)
        wals.append(wal)
    uploader.start()
    return uploader, collector, view, wals


def checkpoint(collector, pages=1):
    collector.begin()
    for page in range(pages):
        collector.add_write("base/t", page * 8192, b"p" * 8192)
    collector.end()


class TestOrdering:
    """One object in flight at a time: objects reach the bucket in
    ``seq`` order and GC follows durability, with no thread to order
    them — only the completion callbacks."""

    def test_second_object_waits_for_the_firsts_gc(self, pools):
        store = GateStore(hold=lambda op, key: op == "delete")
        uploader, collector, view, wals = gated_stack(pools[1], store)
        checkpoint(collector)
        # A WAL object confirmed after the first checkpoint began: the
        # second checkpoint's GC retires it.
        view.next_wal_ts()
        later = WALObjectMeta(ts=1, filename="seg", offset=512)
        store.put(later.key, b"w")
        view.add_wal(later)
        checkpoint(collector)
        assert wait_for(lambda: store.started("delete"))
        # Object 1's GC request is parked: object 2 has not submitted a
        # part, and a drain cannot succeed.
        time.sleep(0.05)
        assert len(store.started("put")) == 1
        assert uploader.drain(timeout=0.05) is False
        assert uploader.failed is None
        store.release.set()
        assert uploader.drain(timeout=5.0)
        first, second = (DBObjectMeta.parse(key) for key in store.started("put"))
        assert (first.seq, second.seq) == (1, 2)
        assert store.log.index(("delete", wals[0].key, "end")) < store.log.index(
            ("put", second.key, "start")
        )
        assert store.list("WAL/") == []
        assert len(view.db_objects()) == 2

    def test_group_registers_only_after_every_part(self, pools):
        config = GinjaConfig(
            max_retries=0, retry_backoff=0.001, max_object_bytes=64 * 1024
        )
        store = GateStore(hold=holds_part(1))
        uploader, collector, view, _wals = gated_stack(pools[1], store, config)
        checkpoint(collector, pages=24)  # 192 KiB -> 3 parts
        assert wait_for(lambda: len(store.started("put")) == 3)
        time.sleep(0.05)
        # Two parts are durable, one is parked: the view knows nothing
        # of the group and no GC request went out.
        assert view.total_db_bytes() == 0
        assert view.wal_object_count() == 1
        assert store.started("delete") == []
        store.release.set()
        assert uploader.drain(timeout=5.0)
        assert len(view.db_objects()) == 3
        assert store.started("delete") != []


class TestAbortStopsTheWork:
    """A crashed primary must stop editing the bucket.  The machine
    re-reads ``_aborting`` at every step, and nothing waits on a handle,
    so an abort can neither be outrun (parts going in behind its lane
    cancel, a GC request issued after it) nor leave anything behind to
    join."""

    def test_abort_between_parts_deletes_nothing(self, pools):
        config = GinjaConfig(
            max_retries=0, retry_backoff=0.001, max_object_bytes=64 * 1024
        )
        store = GateStore(hold=holds_part(1))
        uploader, collector, view, wals = gated_stack(pools[1], store, config)
        checkpoint(collector, pages=24)  # 3 parts; part 1 parks
        assert wait_for(lambda: len(store.list("DB/")) == 2)
        uploader.abort()
        store.release.set()
        assert wait_for(lambda: "" not in pools[1].health()["tenants"])
        # Nothing was registered and — the point — nothing was deleted:
        # the WAL object a dead primary no longer owns is still there.
        assert view.total_db_bytes() == 0
        assert view.wal_object_count() == 1
        assert store.exists(wals[0].key)
        assert store.started("delete") == []
        assert len(store.list("DB/")) == 2  # the parked part never landed
        assert isinstance(uploader.failed, GinjaError)
        assert uploader.drain(timeout=0.05) is False

    def test_abort_mid_gc_stops_before_the_next_delete(self, pools, monkeypatch):
        # Two keys per request, so three retired WAL objects make two.
        monkeypatch.setattr("repro.cloud.interface.MAX_DELETE_KEYS", 2)
        store = GateStore(hold=lambda op, key: op == "delete")
        uploader, collector, view, wals = gated_stack(
            pools[1], store, wal_objects=3
        )
        checkpoint(collector)
        assert wait_for(lambda: store.started("delete"))
        uploader.abort()
        store.release.set()
        assert wait_for(lambda: "" not in pools[1].health()["tenants"])
        # The first request was cancelled on the wire, the second never
        # issued: all three objects are still in the bucket.
        assert store.started("delete") == [wals[0].key]
        assert [info.key for info in store.list("WAL/")] == [w.key for w in wals]
        assert isinstance(uploader.failed, GinjaError)

    def test_second_gc_slice_is_not_issued_after_an_abort(self, pools, monkeypatch):
        """The flag is re-read between slices even when the first one
        completed: abort lands while slice 1 is resolving."""
        monkeypatch.setattr("repro.cloud.interface.MAX_DELETE_KEYS", 2)
        store = GateStore()
        uploader, collector, view, wals = gated_stack(
            pools[1], store, wal_objects=3
        )
        real = store._delete_request

        def abort_after_first(keys):
            real(keys)
            uploader._aborting = True  # what abort() raises first

        store._delete_request = abort_after_first
        checkpoint(collector)
        assert wait_for(lambda: uploader.failed is not None)
        assert store.started("delete") == [wals[0].key]
        assert [info.key for info in store.list("WAL/")] == [wals[2].key]
        assert "abandoned" in str(uploader.failed)

    def test_reactor_crash_mid_checkpoint_fails_drain_promptly(self):
        from repro.harness import running_pools

        store = GateStore(hold=lambda op, key: op == "put")
        with running_pools() as (_stage, reactor):
            uploader, collector, view, _wals = gated_stack(reactor, store)
            checkpoint(collector)
            assert wait_for(lambda: store.started("put"))
            outcome = []
            drainer = threading.Thread(
                target=lambda: outcome.append(uploader.drain(timeout=30.0))
            )
            drainer.start()
            started = time.monotonic()
            reactor.crash(RuntimeError("loop died"))
            drainer.join(timeout=5.0)
            assert not drainer.is_alive()
            assert outcome == [False]
            assert time.monotonic() - started < 5.0
            assert "loop died" in str(uploader.failed)
            assert view.total_db_bytes() == 0


class PerKeyStore(InMemoryObjectStore):
    """Overrides ``delete``, so every batch falls back to the per-key
    loop — Alg. 3's one-by-one GC, kept as the reference."""

    def __init__(self):
        super().__init__()
        self.singles = 0

    def delete(self, key):
        self.singles += 1
        super().delete(key)


class TestBatchedGCEquivalence:
    """The counter the benchmark reads changed meaning per request, not
    per key; this is the proof that the same keys still leave the
    bucket."""

    def _run_script(self, pools, store, seed):
        rng = random.Random(seed)
        config = GinjaConfig(
            max_retries=0, retry_backoff=0.001, dump_threshold=1.5,
            retention=RetentionPolicy.keep(1) if seed % 2 else RetentionPolicy.none(),
        )
        fs = MemoryFileSystem()
        fs.write("base/t", 0, b"\x00" * (32 * 1024))
        view = CloudView()
        uploader = CheckpointUploader(
            config, build_transport(store, config), view, pools[1]
        )
        collector = CheckpointCollector(
            config, ObjectCodec(), view, fs, POSTGRES_PROFILE, uploader.enqueue
        )
        uploader.start()
        ts = 0
        for _ in range(12):
            collector.begin()
            for _ in range(rng.randrange(0, 9)):  # WAL confirmed meanwhile
                view.next_wal_ts()
                wal = WALObjectMeta(ts=ts, filename="seg", offset=ts * 512)
                store.put(wal.key, bytes([ts % 251]) * rng.randrange(1, 64))
                view.add_wal(wal)
                ts += 1
            for _ in range(rng.randrange(1, 4)):
                collector.add_write(
                    "base/t", rng.randrange(4) * 8192, bytes([rng.randrange(256)]) * 8192
                )
            collector.end()
            # One at a time: dump-or-increment reads the view, so an
            # object still in flight would make the script's next
            # decision a race instead of a function of the seed.
            run_uploader_once(uploader)
        uploader.stop(drain_timeout=5.0)
        return store.snapshot(), view

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_script_leaves_the_same_bucket(self, pools, monkeypatch, seed):
        # Small requests, so multi-slice GC is exercised too.
        monkeypatch.setattr("repro.cloud.interface.MAX_DELETE_KEYS", 4)
        batched, view_a = self._run_script(pools, InMemoryObjectStore(), seed)
        reference = PerKeyStore()
        per_key, view_b = self._run_script(pools, reference, seed)
        assert reference.singles > 0
        assert sorted(batched) == sorted(per_key)
        assert batched == per_key  # bodies too
        assert view_a.wal_objects() == view_b.wal_objects()
        assert view_a.db_objects() == view_b.db_objects()
        # And GC did happen: what a checkpoint covers is gone.
        frontier = max(meta.ts for meta in view_a.db_objects())
        assert all(
            WALObjectMeta.parse(key).ts > frontier
            for key in batched if key.startswith("WAL/")
        )
