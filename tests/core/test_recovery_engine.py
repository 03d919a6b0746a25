"""The parallel recovery engine: plan shape, ordering, window, poison.

End-to-end recovery behaviour (boot→recover round trips, gap handling)
lives in ``test_bootstrap.py``; these tests pin the engine mechanics the
refactor introduced — parallel==sequential byte identity, the sliding
prefetch window, the poison discipline, and the event narration.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.common import events
from repro.common.errors import RecoveryError
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.core.bootstrap import recover_files
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    encode_checkpoint_payload,
    encode_dump_payload,
    encode_wal_payload,
)
from repro.core.recovery import (
    RecoveryEngine,
    STEP_CHECKPOINT,
    STEP_DUMP,
    STEP_WAL,
    plan_recovery,
)
from repro.core.stats import GinjaStats
from repro.fsck import audit
from repro.storage.memory import MemoryFileSystem


@pytest.fixture
def codec():
    return ObjectCodec()


def _put(store, codec, meta, payload):
    store.put(meta.key, codec.encode(payload))


def _seed_bucket(codec, wal_objects=8):
    """Dump (2 parts) + checkpoint (2 parts) + a WAL chain."""
    store = InMemoryObjectStore()
    _put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1, part=0, nparts=2),
         encode_dump_payload([("base/data", b"D" * 64)]))
    _put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1, part=1, nparts=2),
         encode_dump_payload([("global/pg_control", b"ctl")]))
    _put(store, codec,
         DBObjectMeta(ts=2, type=CHECKPOINT, size=1, part=0, nparts=2),
         encode_checkpoint_payload([("base/data", 0, b"C" * 16)]))
    _put(store, codec,
         DBObjectMeta(ts=2, type=CHECKPOINT, size=1, part=1, nparts=2),
         encode_checkpoint_payload([("base/data", 32, b"c" * 16)]))
    for ts in range(3, 3 + wal_objects):
        _put(store, codec, WALObjectMeta(ts=ts, filename="seg",
                                         offset=(ts - 3) * 8),
             encode_wal_payload([((ts - 3) * 8, bytes([ts]) * 8)]))
    return store


def _image(fs):
    return {path: fs.read_all(path) for path in fs.files()}


class TestPlanRecovery:
    def test_orders_dump_then_checkpoints_then_wal(self, codec):
        store = _seed_bucket(codec, wal_objects=3)
        plan = plan_recovery(store.list())
        kinds = [step.kind for step in plan.steps]
        assert kinds == [STEP_DUMP] * 2 + [STEP_CHECKPOINT] * 2 + [STEP_WAL] * 3
        # group_end marks only the final part of the checkpoint group.
        assert [s.group_end for s in plan.steps[2:4]] == [False, True]
        assert [s.meta.ts for s in plan.steps if s.kind == STEP_WAL] == [3, 4, 5]
        assert plan.dump_ts == 0
        assert plan.object_count == 7
        assert audit(store).doomed == []

    def test_snapshot_restore_never_stales_the_live_wal_tail(self, codec):
        # The PITR data-loss regression: two generations, restore the
        # old one — the latest generation's WAL tail must NOT be stale.
        # Staleness is the index's audit, which no upto_ts reaches.
        store = InMemoryObjectStore()
        _put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
             encode_dump_payload([("base/data", b"old")]))
        _put(store, codec, DBObjectMeta(ts=5, type=CHECKPOINT, size=1),
             encode_checkpoint_payload([("base/data", 0, b"ck5")]))
        _put(store, codec, DBObjectMeta(ts=9, type=DUMP, size=1),
             encode_dump_payload([("base/data", b"new")]))
        live_tail = []
        for ts in (10, 11):
            meta = WALObjectMeta(ts=ts, filename="seg", offset=0)
            live_tail.append(meta.key)
            _put(store, codec, meta, encode_wal_payload([(0, b"w")]))
        plan = plan_recovery(store.list(), upto_ts=5)
        assert plan.dump_ts == 0
        # Snapshot restores end at their newest checkpoint: no WAL steps.
        assert [s.kind for s in plan.steps] == [STEP_DUMP, STEP_CHECKPOINT]
        for key in live_tail:
            assert key not in audit(store).doomed

    def test_unreachable_wal_is_still_stale_under_upto_ts(self, codec):
        # WAL below the latest frontier or beyond the first gap is
        # unreachable from *every* generation — stale even during PITR.
        store = InMemoryObjectStore()
        _put(store, codec, DBObjectMeta(ts=0, type=DUMP, size=1),
             encode_dump_payload([("f", b"d")]))
        _put(store, codec, DBObjectMeta(ts=5, type=CHECKPOINT, size=1),
             encode_checkpoint_payload([("f", 0, b"c")]))
        superseded = WALObjectMeta(ts=3, filename="seg", offset=0)
        live = WALObjectMeta(ts=6, filename="seg", offset=0)
        orphan = WALObjectMeta(ts=9, filename="seg", offset=0)  # gap at 7,8
        for meta in (superseded, live, orphan):
            _put(store, codec, meta, encode_wal_payload([(0, b"w")]))
        plan = plan_recovery(store.list(), upto_ts=0)
        assert [s.kind for s in plan.steps] == [STEP_DUMP]
        assert set(audit(store).doomed) == {superseded.key, orphan.key}
        latest = plan_recovery(store.list())
        assert [s.meta.ts for s in latest.steps if s.kind == STEP_WAL] == [6]

    def test_no_dump_raises(self, codec):
        store = InMemoryObjectStore()
        _put(store, codec, WALObjectMeta(ts=1, filename="seg", offset=0),
             encode_wal_payload([(0, b"w")]))
        with pytest.raises(RecoveryError):
            plan_recovery(store.list())

    def test_upto_before_first_dump_raises(self, codec):
        store = _seed_bucket(codec)
        with pytest.raises(RecoveryError):
            plan_recovery(store.list(), upto_ts=-1)


class TestEngineParallelism:
    def test_parallel_restore_is_byte_identical_to_sequential(self, codec):
        store = _seed_bucket(codec, wal_objects=24)
        images, reports = [], []
        for downloaders in (1, 6):
            fs = MemoryFileSystem()
            report = recover_files(
                store, codec, fs,
                config=GinjaConfig(downloaders=downloaders, prefetch_window=4),
            )
            images.append(_image(fs))
            reports.append(report)
        assert images[0] == images[1]
        assert reports[0] == reports[1]
        assert reports[0].wal_objects_applied == 24

    def test_prefetch_window_bounds_readahead(self, codec):
        store = _seed_bucket(codec, wal_objects=12)
        plan = plan_recovery(store.list())
        gate = threading.Event()
        started, lock = [], threading.Lock()
        first_key = plan.steps[0].meta.key

        class GatedStore:
            """Blocks the first step's GET so the apply cursor stays at 0."""

            def get(self, key):
                with lock:
                    started.append(key)
                if key == first_key:
                    gate.wait(timeout=10)
                return store.get(key)

        engine = RecoveryEngine(GatedStore(), codec, MemoryFileSystem(),
                                downloaders=2, prefetch_window=4)
        runner = threading.Thread(target=engine.run, args=(plan,))
        runner.start()
        try:
            deadline = time.monotonic() + 5
            while len(started) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # give an over-eager worker time to overshoot
            with lock:
                seen = list(started)
            # With the apply cursor stuck at 0 and window=4, only plan
            # positions 0..3 may ever be claimed.
            assert sorted(seen) == sorted(s.meta.key for s in plan.steps[:4])
        finally:
            gate.set()
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert len(started) == len(plan.steps)

    def test_worker_poison_fails_recovery_and_leaks_no_threads(self, codec):
        store = _seed_bucket(codec, wal_objects=10)
        poisoned_key = plan_recovery(store.list()).steps[5].meta.key

        class FailingStore:
            def get(self, key):
                if key == poisoned_key:
                    raise RuntimeError("disk fell off the cloud")
                return store.get(key)

            def list(self, prefix=""):
                return store.list(prefix)

        engine = RecoveryEngine(FailingStore(), codec, MemoryFileSystem(),
                                downloaders=4, prefetch_window=8)
        with pytest.raises(RuntimeError, match="fell off"):
            engine.run(plan_recovery(store.list()))
        for thread in threading.enumerate():
            assert not thread.name.startswith("ginja-downloader")

    def test_corrupt_object_poisons_instead_of_hanging(self, codec):
        store = _seed_bucket(codec, wal_objects=6)
        key = plan_recovery(store.list()).steps[-1].meta.key
        store.put(key, b"not a codec frame")
        with pytest.raises(Exception):
            recover_files(store, codec, MemoryFileSystem(),
                          config=GinjaConfig(downloaders=3))
        for thread in threading.enumerate():
            assert not thread.name.startswith("ginja-downloader")

    def test_a_borrowed_pool_discarded_mid_restore_fails_the_run(self, codec):
        """A restore borrows its helpers' slots from a shared semaphore
        and one helper's GET fails mid-restore: the run raises that
        error instead of waiting on the position the helper held, no
        helper outlives it, and every borrowed slot is free again."""
        store = _seed_bucket(codec, wal_objects=10)
        caller = threading.current_thread()
        helper_in = threading.Event()

        class FailingStore:
            """A helper's first GET fails; the restoring thread's GETs
            wait until a helper has got that far."""

            def get(self, key):
                if threading.current_thread() is not caller:
                    helper_in.set()
                    raise RuntimeError("a helper's GET fell over")
                assert helper_in.wait(timeout=10)
                return store.get(key)

        slots = threading.BoundedSemaphore(4)
        engine = RecoveryEngine(FailingStore(), codec, MemoryFileSystem(),
                                downloaders=4, prefetch_window=8,
                                helper_slots=slots)
        with pytest.raises(RuntimeError, match="helper's GET"):
            engine.run(plan_recovery(store.list()))
        assert not any(t.name.startswith("ginja-downloader")
                       for t in threading.enumerate())
        assert [slots.acquire(blocking=False)
                for _ in range(5)] == [True] * 4 + [False]
        for _ in range(4):
            slots.release()

    def test_engine_validates_arguments(self, codec):
        store = InMemoryObjectStore()
        with pytest.raises(RecoveryError):
            RecoveryEngine(store, codec, MemoryFileSystem(), downloaders=0)
        with pytest.raises(RecoveryError):
            RecoveryEngine(store, codec, MemoryFileSystem(), prefetch_window=0)


class TestTheRestoringThreadFetches:
    def test_downloaders_gets_in_flight_on_one_thread_fewer(self, codec):
        """At ``downloaders=4`` a private restore reaches 4 concurrent
        GETs (the first four wait for each other at a barrier) with at
        most 3 ``ginja-downloader`` threads: the fourth fetcher is the
        restoring thread."""
        store = _seed_bucket(codec, wal_objects=12)
        barrier = threading.Barrier(4, timeout=10)
        lock = threading.Lock()
        calls, inflight, peak, helpers = [0], [0], [0], []

        class CountingStore:
            def get(self, key):
                with lock:
                    calls[0] += 1
                    first_four = calls[0] <= 4
                    inflight[0] += 1
                    peak[0] = max(peak[0], inflight[0])
                    helpers.append(len([
                        t for t in threading.enumerate()
                        if t.name.startswith("ginja-downloader")
                    ]))
                try:
                    if first_four:
                        barrier.wait()
                    return store.get(key)
                finally:
                    with lock:
                        inflight[0] -= 1

            def list(self, prefix=""):
                return store.list(prefix)

        fs = MemoryFileSystem()
        recover_files(CountingStore(), codec, fs,
                      config=GinjaConfig(downloaders=4))
        assert peak[0] == 4
        assert max(helpers) <= 3
        reference = MemoryFileSystem()
        recover_files(store, codec, reference)
        assert _image(fs) == _image(reference)

    def test_scrambled_get_latency_restores_the_sequential_image(self, codec):
        store = _seed_bucket(codec, wal_objects=30)
        rng = random.Random(11)
        delays = {info.key: rng.random() * 0.004 for info in store.list()}

        class JitterStore:
            def get(self, key):
                time.sleep(delays[key])
                return store.get(key)

            def list(self, prefix=""):
                return store.list(prefix)

        images, reports = [], []
        for downloaders in (1, 4):
            fs = MemoryFileSystem()
            reports.append(recover_files(
                JitterStore(), codec, fs,
                config=GinjaConfig(downloaders=downloaders, prefetch_window=6),
            ))
            images.append(_image(fs))
        assert images[0] == images[1]
        assert reports[0] == reports[1]

    def test_racing_fetchers_apply_every_position_once_in_plan_order(
            self, codec):
        """Eight fetchers over a window of eight under a 1 µs switch
        interval: every position is applied exactly once, in plan
        order, and the run ends — a lost hand-off of the apply role or
        of a helper top-up would skip, repeat or stall a position."""
        store = _seed_bucket(codec, wal_objects=120)
        plan = plan_recovery(store.list())
        reference = MemoryFileSystem()
        recover_files(store, codec, reference)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                bus, restored = EventBus(), []
                bus.subscribe(lambda e: restored.append(e.key),
                              kinds={events.OBJECT_RESTORED})
                fs = MemoryFileSystem()
                engine = RecoveryEngine(store, codec, fs, downloaders=8,
                                        prefetch_window=8, bus=bus)
                runner = threading.Thread(target=engine.run, args=(plan,))
                runner.start()
                runner.join(timeout=30)
                assert not runner.is_alive(), "restore stalled"
                assert restored == [step.meta.key for step in plan.steps]
                assert _image(fs) == _image(reference)
        finally:
            sys.setswitchinterval(previous)

    def test_a_failing_get_on_the_callers_own_fetch_raises(self, codec):
        """The restoring thread's own GET (its first — it always fetches
        plan position 0) fails once a helper is fetching beside it:
        recover_files raises that error and no downloader outlives it."""
        store = _seed_bucket(codec, wal_objects=10)
        caller = threading.current_thread()
        helper_in = threading.Event()

        class FailingStore:
            def get(self, key):
                if threading.current_thread() is not caller:
                    helper_in.set()
                    return store.get(key)
                assert helper_in.wait(timeout=10)
                raise RuntimeError("the caller's GET fell over")

            def list(self, prefix=""):
                return store.list(prefix)

        with pytest.raises(RuntimeError, match="caller's GET"):
            recover_files(FailingStore(), codec, MemoryFileSystem(),
                          config=GinjaConfig(downloaders=4))
        for thread in threading.enumerate():
            assert not thread.name.startswith("ginja-downloader")

    def test_a_fleet_restore_on_a_one_worker_shared_pool(self, codec):
        """A restore that wants three helpers on a fleet's one-slot
        semaphore gets one: only the restoring thread and
        ``ginja-downloader-0`` fetch, the caller among them, the image
        equals the sequential one, and the slot is free again after."""
        store = _seed_bucket(codec, wal_objects=12)
        plan = plan_recovery(store.list())
        fetchers = []

        class RecordingStore:
            def get(self, key):
                fetchers.append(threading.current_thread().name)
                return store.get(key)

        slots = threading.BoundedSemaphore(1)
        fs = MemoryFileSystem()
        report = RecoveryEngine(RecordingStore(), codec, fs, downloaders=4,
                                helper_slots=slots).run(plan)
        reference = MemoryFileSystem()
        assert report == recover_files(store, codec, reference)
        assert _image(fs) == _image(reference)
        me = threading.current_thread().name
        assert me in fetchers
        assert set(fetchers) <= {me, "ginja-downloader-0"}
        assert len(fetchers) == len(plan.steps)
        assert slots.acquire(blocking=False)
        slots.release()


class TestEngineEvents:
    def test_events_narrate_the_restore_in_plan_order(self, codec):
        store = _seed_bucket(codec, wal_objects=5)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        stats = GinjaStats().attach(bus)
        report = recover_files(store, codec, MemoryFileSystem(),
                               config=GinjaConfig(downloaders=4), bus=bus)
        plan = plan_recovery(store.list())
        assert seen[0].kind == events.RECOVERY_PLANNED
        assert seen[0].count == plan.object_count
        assert seen[-1].kind == events.RECOVERY_DONE
        assert seen[-1].nbytes == report.bytes_downloaded
        restored = [e for e in seen if e.kind == events.OBJECT_RESTORED]
        # Applied strictly in plan order even with 4 downloaders racing.
        assert [e.key for e in restored] == [s.meta.key for s in plan.steps]
        assert stats.recoveries == 1
        assert stats.objects_restored == plan.object_count
        assert stats.restored_bytes == report.bytes_downloaded
