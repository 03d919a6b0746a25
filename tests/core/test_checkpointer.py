"""Algorithm 3: checkpoint capture, upload, GC and PITR retention."""

from __future__ import annotations

import queue
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
    # The lane start() would attach, so run_uploader_once can drive
    # _upload from the test thread.
    reactor.attach("", window=config.uploaders)
    collector = CheckpointCollector(
        config, codec, view, fs, POSTGRES_PROFILE, uploader.queue, bus
    )
    return config, fs, backend, view, stats, codec, uploader, collector


def run_uploader_once(uploader):
    """Process everything queued, synchronously: the PUTs ride the
    reactor, but no checkpointer thread — failures raise right here."""
    while True:
        try:
            item = uploader.queue.get_nowait()
        except queue.Empty:
            return
        uploader._upload(item)


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
        _cfg, fs, backend, view, _stats, _codec, uploader, collector = make_stack(pools)
        fs.write("base/t", 0, b"\x00" * 10)
        uploader.start()
        try:
            collector.begin()
            collector.add_write("base/t", 0, b"x")
            collector.end()
            assert uploader.drain(timeout=5.0)
            deadline = time.monotonic() + 5
            while not backend.list("DB/") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert backend.list("DB/")
        finally:
            uploader.stop(drain_timeout=5.0)


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
    """Any exception escaping the worker must poison the uploader, and
    drain() must wait on the worker's condition instead of polling —
    before these guards a non-CloudError killed the thread silently and
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
            config, ObjectCodec(), view, fs, POSTGRES_PROFILE, uploader.queue
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
            assert uploader.drain(timeout=5.0) is False
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


class _ParkedSubmitReactor:
    """The real reactor, except ``submit`` parks until released — holds
    the checkpointer exactly between its dequeue and its submissions."""

    def __init__(self, reactor):
        self._reactor = reactor
        self.entered = threading.Event()
        self.release = threading.Event()

    def submit(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(10.0)
        return self._reactor.submit(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._reactor, name)


class TestAbortStopsTheWork:
    """A crashed primary must stop editing the bucket.  ``_aborting``
    used to be read only at dequeue, so a worker that had just dequeued
    kept going: submitted its parts after abort()'s lane cancel, waited
    on them unbounded, registered the object and ran the whole serial
    GC DELETE loop — while abort() timed out its join and forgot the
    thread (the intermittent fleet thread leak)."""

    def _stack(self, reactor, store):
        config = GinjaConfig(max_retries=0, retry_backoff=0.001)
        fs = MemoryFileSystem()
        fs.write("base/t", 0, b"\x00" * 64)
        view = CloudView()
        uploader = CheckpointUploader(
            config, build_transport(store, config), view, reactor
        )
        collector = CheckpointCollector(
            config, ObjectCodec(), view, fs, POSTGRES_PROFILE, uploader.queue
        )
        # One confirmed WAL object the checkpoint's GC would delete.
        view.next_wal_ts()
        wal = WALObjectMeta(ts=0, filename="seg", offset=0)
        store.put(wal.key, b"w")
        view.add_wal(wal)
        collector.begin()
        collector.add_write("base/t", 0, b"x")
        collector.end()
        return uploader, view, wal

    def test_abort_between_dequeue_and_submit_deletes_nothing(self, pools):
        parked = _ParkedSubmitReactor(pools[1])
        store = InMemoryObjectStore()
        uploader, view, wal = self._stack(parked, store)
        uploader.start()
        worker = uploader._thread
        assert parked.entered.wait(5.0)  # dequeued, about to submit
        aborter = threading.Thread(target=uploader.abort)
        aborter.start()
        deadline = time.monotonic() + 5.0
        while uploader.failed is None and time.monotonic() < deadline:
            time.sleep(0.002)  # abort() has raised the flag...
        time.sleep(0.05)       # ...and cancelled the (still empty) lane
        parked.release.set()
        aborter.join(timeout=10.0)
        worker.join(timeout=10.0)
        assert not aborter.is_alive() and not worker.is_alive()
        # Nothing was registered and — the point — nothing was deleted:
        # the WAL object a dead primary no longer owns is still there.
        assert view.total_db_bytes() == 0
        assert view.wal_object_count() == 1
        assert store.exists(wal.key)
        assert isinstance(uploader.failed, GinjaError)

    def test_abort_mid_gc_stops_before_the_next_delete(self, pools):
        first_delete = threading.Event()
        release = threading.Event()

        class ParkedDelete(InMemoryObjectStore):
            deletes = 0

            def delete(self, key):
                self.deletes += 1
                first_delete.set()
                assert release.wait(10.0)
                super().delete(key)

        store = ParkedDelete()
        uploader, view, _wal = self._stack(pools[1], store)
        # A second GC candidate: the loop must not reach it.
        view.next_wal_ts()
        second = WALObjectMeta(ts=1, filename="seg", offset=512)
        store.put(second.key, b"w")
        view.add_wal(second)
        uploader.queue.queue[0].ts = 1  # the checkpoint covers both
        uploader.start()
        worker = uploader._thread
        assert first_delete.wait(5.0)
        aborter = threading.Thread(target=uploader.abort)
        aborter.start()
        deadline = time.monotonic() + 5.0
        while uploader.failed is None and time.monotonic() < deadline:
            time.sleep(0.002)
        release.set()
        aborter.join(timeout=10.0)
        worker.join(timeout=10.0)
        assert not aborter.is_alive() and not worker.is_alive()
        assert store.deletes == 1
        assert store.exists(second.key)

    def test_timed_out_join_keeps_the_thread_and_records_it(self, pools):
        """stop()/abort() used to null ``_thread`` after a timed-out
        join — the leak pattern EncodeStage.stop() was cured of."""
        release = threading.Event()

        class ParkedDelete(InMemoryObjectStore):
            def delete(self, key):
                assert release.wait(10.0)
                super().delete(key)

        store = ParkedDelete()
        uploader, _view, wal = self._stack(pools[1], store)
        uploader.start()
        worker = uploader._thread
        try:
            deadline = time.monotonic() + 5.0
            while not store.list("DB/") and time.monotonic() < deadline:
                time.sleep(0.002)  # the part landed; GC is parked next
            uploader._halt(join_timeout=0.1)
            assert uploader._thread is worker and worker.is_alive()
            assert "failed to stop" in str(uploader.failed)
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert not store.exists(wal.key)  # it was a live stop: GC finished
