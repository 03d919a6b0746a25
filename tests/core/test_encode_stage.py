"""The encode step of the claim job, and the restore helpers that
took over the encode stage's last job.

Covers the ordering contract encoding must not weaken (timestamps are
assigned by the claim job; out-of-order upload completion never
unlocks batches out of order), the poison discipline (a codec fault in
a claim job fails submitters and shutdown), byte-level replay
equivalence between one-object and split batches, and the encode
events.

The encode stage's thread pool ended up lending restores their helper
threads; a restore now starts its own.  ``TestEncodeStageUnit``,
``TestOnDemandWorkers`` and ``TestWedgedStop`` pin what of the pool
survives in them: fetching inline when no helper can start, reuse
after a run, helpers started only for what the plan and the free slots
allow, and a wedged helper reported by name at the join deadline.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.common.errors import GinjaError, RecoveryError
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core import recovery
from repro.core.bootstrap import recover_files
from repro.core.data_model import (
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    decode_wal_payload,
    encode_dump_payload,
)
from repro.core.recovery import RecoveryEngine, plan_recovery
from repro.storage.memory import MemoryFileSystem

from tests.cloud.test_reactor import wait_for
from tests.core.test_recovery_engine import _image, _seed_bucket


def make_pipeline(reactor, config, codec=None, backend=None, bus=None):
    backend = backend if backend is not None else InMemoryObjectStore()
    cloud = SimulatedCloud(backend=backend, time_scale=0.0)
    view = CloudView()
    transport = build_transport(cloud, config, bus=bus)
    pipe = CommitPipeline(
        config, transport, codec or ObjectCodec(), view, reactor, bus
    )
    return pipe, backend, view


def replay_backend(backend, codec=None):
    """Decode every WAL object and apply it in ts order -> {file: bytes}."""
    codec = codec or ObjectCodec()
    images: dict[str, bytearray] = {}
    metas = sorted(
        (WALObjectMeta.parse(info.key) for info in backend.list("WAL/")),
        key=lambda m: m.ts,
    )
    for meta in metas:
        payload = codec.decode(backend.get(meta.key))
        image = images.setdefault(meta.filename, bytearray())
        for offset, data in decode_wal_payload(payload):
            end = offset + len(data)
            if len(image) < end:
                image.extend(b"\x00" * (end - len(image)))
            image[offset:end] = data
    return {name: bytes(img) for name, img in images.items()}


class TestUnlockOrderUnderParallelEncode:
    def test_stalled_first_encode_holds_the_unlock_frontier(self, reactor):
        """Objects ts=1 and ts=2 upload while the PUT of ts=0 is stuck:
        no batch may unlock and no queue slot may free until ts=0 lands
        (Alg. 2 lines 20-22).  One batch over three files is three
        objects, encoded in ts order by the claim job that planned them."""
        gate = threading.Event()

        class GatedBackend(InMemoryObjectStore):
            def put(self, key, data):
                if WALObjectMeta.parse(key).ts == 0:
                    assert gate.wait(timeout=60)
                super().put(key, data)

        config = GinjaConfig(batch=3, safety=10, batch_timeout=0.01,
                             safety_timeout=30.0, uploaders=2)
        pipe, backend, view = make_pipeline(reactor, config,
                                            backend=GatedBackend())
        pipe.start()
        try:
            pipe.submit("seg-a", 0, b"first-" + b"a" * 64)
            pipe.submit("seg-b", 0, b"second-" + b"b" * 64)
            pipe.submit("seg-c", 0, b"third-" + b"c" * 64)
            deadline = time.monotonic() + 10
            while len(backend.list("WAL/")) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(backend.list("WAL/")) == 2  # ts=1, ts=2 uploaded
            time.sleep(0.1)  # let their acks run the unlock rule
            assert view.confirmed_ts() == -1
            assert pipe.pending_updates() == 3
            gate.set()
            assert pipe.drain(timeout=10.0)
            assert view.confirmed_ts() == 2
            assert pipe.pending_updates() == 0
        finally:
            gate.set()
            pipe.stop(drain_timeout=5.0)

    def test_scrambled_encode_latency_drains_completely(self, reactor):
        """Randomized per-object encode delays (seeded): every write
        still lands and the frontier closes."""
        rng = random.Random(7)
        delays = {}

        class JitterCodec(ObjectCodec):
            def encode(self, payload):
                key = bytes(payload[:32])
                time.sleep(delays.setdefault(key, rng.random() * 0.01))
                return super().encode(payload)

        config = GinjaConfig(batch=4, safety=100, batch_timeout=0.01,
                             safety_timeout=30.0, uploaders=3)
        pipe, backend, view = make_pipeline(reactor, config, codec=JitterCodec())
        pipe.start()
        try:
            for i in range(60):
                pipe.submit(f"seg{i % 3}", (i // 3) * 512,
                            f"w{i:03d}".encode() + b"x" * 60)
            assert pipe.drain(timeout=20.0)
            assert view.confirmed_ts() == view.last_assigned_ts()
            images = replay_backend(backend)
            for i in range(60):
                prefix = f"w{i:03d}".encode()
                offset = (i // 3) * 512
                image = images[f"seg{i % 3}"]
                assert image[offset:offset + len(prefix)] == prefix
        finally:
            pipe.stop(drain_timeout=5.0)


class FaultyCodec(ObjectCodec):
    def encode(self, payload):
        if b"poison" in bytes(payload):
            raise RuntimeError("injected codec fault")
        return super().encode(payload)


POISON_CONFIG = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                            safety_timeout=5.0, uploaders=2)


class TestEncodePoisonDiscipline:
    @staticmethod
    def _poisoned_pipeline(reactor):
        return make_pipeline(reactor, POISON_CONFIG, codec=FaultyCodec())

    def test_a_faulty_lane_fails_only_its_own_pipeline(self, reactor):
        """Two tenants' claim jobs on one shared reactor: the fault blows
        the fuse of the pipeline whose job it was, nobody else's."""
        bad, good = (
            CommitPipeline(POISON_CONFIG, InMemoryObjectStore(),
                           FaultyCodec(), CloudView(), reactor, lane=lane)
            for lane in ("bad", "good")
        )
        bad.start()
        good.start()
        try:
            bad.submit("seg", 0, b"poison")
            good.submit("seg", 0, b"fine")
            deadline = time.monotonic() + 5
            while bad.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert isinstance(bad.failed, RuntimeError)
            good.submit("seg", 512, b"still fine")
            assert good.drain(timeout=5.0)
            assert good.failed is None
        finally:
            with pytest.raises(GinjaError):
                bad.stop(drain_timeout=0.1)
            good.stop(drain_timeout=5.0)

    def test_encode_worker_fault_fails_submitters(self, reactor):
        pipe, _backend, _view = self._poisoned_pipeline(reactor)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"fine")
            pipe.submit("seg", 512, b"poison")
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert isinstance(pipe.failed, RuntimeError)
            with pytest.raises(GinjaError):
                pipe.submit("seg", 1024, b"after")
        finally:
            with pytest.raises(GinjaError):
                pipe.stop(drain_timeout=0.1)

    def test_stop_reraises_recorded_failure_and_stops_encoders(self, reactor):
        """stop() used to report a clean shutdown on a poisoned
        pipeline.  It must leave no claim behind AND re-raise; the
        reactor it borrowed stays up for its owner to stop."""
        pipe, _backend, _view = self._poisoned_pipeline(reactor)
        pipe.start()
        pipe.submit("seg", 0, b"poison")
        deadline = time.monotonic() + 5
        while pipe.failed is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pipe.failed is not None
        with pytest.raises(GinjaError) as excinfo:
            pipe.stop(drain_timeout=0.1)
        assert excinfo.value.__cause__ is pipe.failed
        assert pipe._claim == 0  # no claim job scheduled or running
        assert reactor.alive  # borrowed, not ours to stop


class TestParallelInlineEquivalence:
    @staticmethod
    def _run(reactor, seed: int, files: int):
        """Push one seeded page-write stream through a pipeline and
        return the replayed per-file images."""
        config = GinjaConfig(batch=5, safety=200, batch_timeout=0.005,
                             safety_timeout=30.0, uploaders=3, compress=True)
        codec = ObjectCodec(compress=True)
        pipe, backend, view = make_pipeline(reactor, config, codec=codec)
        rng = random.Random(seed)
        pipe.start()
        try:
            for _ in range(120):
                page = rng.randrange(16)
                data = bytes(rng.randrange(256) for _ in range(64))
                pipe.submit(f"seg{page % files}", page * 512, data)
            assert pipe.drain(timeout=20.0)
            assert view.confirmed_ts() == view.last_assigned_ts()
        finally:
            pipe.stop(drain_timeout=5.0)
        return replay_backend(backend, codec=codec)

    @staticmethod
    def _naive(seed: int, files: int):
        rng = random.Random(seed)
        images: dict[str, bytearray] = {}
        for _ in range(120):
            page = rng.randrange(16)
            data = bytes(rng.randrange(256) for _ in range(64))
            image = images.setdefault(f"seg{page % files}", bytearray())
            end = page * 512 + 64
            if len(image) < end:
                image.extend(b"\x00" * (end - len(image)))
            image[page * 512:end] = data
        return {name: bytes(img) for name, img in images.items()}

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_recovered_bytes_identical_across_dispatch_modes(self, seed, reactor):
        """Batch boundaries are timing-dependent, so bucket *objects*
        may differ between runs — but the replayed file images must
        equal naively applying the stream in commit order both when
        every batch is one object (one file) and when batches split
        into several objects (four files)."""
        assert self._run(reactor, seed, files=1) == self._naive(seed, files=1)
        assert self._run(reactor, seed, files=4) == self._naive(seed, files=4)


class TestEncodeEvents:
    def test_encode_events_emitted_when_subscribed(self, reactor):
        from repro.core import events as core_events

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append,
                      kinds={core_events.ENCODE_QUEUED, core_events.ENCODE_DONE})
        config = GinjaConfig(batch=2, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1)
        pipe, _backend, _view = make_pipeline(reactor, config, bus=bus)
        pipe.start()
        try:
            pipe.submit("seg-a", 0, b"x" * 64)   # two files: two objects,
            pipe.submit("seg-b", 0, b"y" * 64)   # both encoded by the claim
            assert pipe.drain(timeout=5.0)
            # The claim job emits encode_done *after* handing the blob
            # to the reactor, so the upload can ack — and drain()
            # return — a beat before the event is out.
            deadline = time.monotonic() + 5.0
            while len(seen) < 2 and time.monotonic() < deadline:
                time.sleep(0.002)
            time.sleep(0.05)  # room for a stray encode_queued to show
        finally:
            pipe.stop(drain_timeout=5.0)
        # No object is handed to another thread: one encode_done per
        # object, and no encode_queued.
        assert [e.kind for e in seen] == [core_events.ENCODE_DONE] * 2
        assert [e.key for e in seen] == sorted(e.key for e in seen)

    def test_no_encode_events_without_audience(self):
        """Counter-style subscribers declare their kinds, so the bus
        reports wants()==False for per-object encode events and the
        pipeline never builds them."""
        from repro.core import events as core_events
        from repro.core.stats import GinjaStats

        bus = EventBus()
        GinjaStats().attach(bus)
        assert not bus.wants(core_events.ENCODE_QUEUED)
        assert not bus.wants(core_events.ENCODE_DONE)
        assert not bus.wants(core_events.QUEUE_DEPTH)
        assert bus.wants(core_events.WAL_OBJECT)


class RecordingStore:
    """A bucket that records the key and the thread of every GET."""

    def __init__(self, store):
        self.store = store
        self.gets: list[tuple[str, str]] = []

    def get(self, key):
        self.gets.append((key, threading.current_thread().name))
        return self.store.get(key)

    def list(self, prefix=""):
        return self.store.list(prefix)

    def fetchers(self) -> set[str]:
        return {name for _key, name in self.gets}


class CountingSlots(threading.BoundedSemaphore):
    """A helper-slot semaphore that counts the slots taken from it and
    the most held at once; ``pause`` stretches each take, giving
    helpers already started time to run before the next one starts."""

    def __init__(self, value, pause=0.0):
        super().__init__(value)
        self.taken = self.held = self.peak = 0
        self.pause = pause
        self._count = threading.Lock()

    def acquire(self, blocking=True, timeout=None):
        got = super().acquire(blocking, timeout)
        if got:
            with self._count:
                self.taken += 1
                self.held += 1
                self.peak = max(self.peak, self.held)
            time.sleep(self.pause)
        return got

    def release(self, n=1):
        with self._count:
            self.held -= n
        super().release(n)

    def free(self) -> int:
        """How many slots are free now (leaves them free)."""
        n = 0
        while threading.BoundedSemaphore.acquire(self, blocking=False):
            n += 1
        if n:
            threading.BoundedSemaphore.release(self, n)
        return n


def helpers_alive() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith("ginja-downloader")]


def sequential_image(store, codec):
    reference = MemoryFileSystem()
    report = recover_files(store, codec, reference)
    return report, _image(reference)


class TestEncodeStageUnit:
    def test_map_runs_inline_when_not_started(self):
        """No helper slot free: the restore starts no helper and the
        restoring thread fetches every object itself, in plan order."""
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=12)
        plan = plan_recovery(store.list())
        slots = CountingSlots(4)
        for _ in range(4):
            slots.acquire()
        recording = RecordingStore(store)
        fs = MemoryFileSystem()
        report = RecoveryEngine(recording, codec, fs, downloaders=4,
                                helper_slots=slots).run(plan)
        assert slots.taken == 4 and slots.free() == 0
        assert recording.gets == [
            (step.meta.key, threading.current_thread().name)
            for step in plan.steps
        ]
        assert (report, _image(fs)) == sequential_image(store, codec)

    def test_restartable_after_stop(self):
        """One engine restores twice on one semaphore: each run takes
        the same helper slots, gives every one back, and leaves no
        helper alive, and both restore the sequential image."""
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=12)
        plan = plan_recovery(store.list())
        slots = CountingSlots(3)
        fs = MemoryFileSystem()
        engine = RecoveryEngine(store, codec, fs, downloaders=4,
                                helper_slots=slots)
        expected = sequential_image(store, codec)
        for run in (1, 2):
            assert (engine.run(plan), _image(fs)) == expected
            assert slots.taken == 3 * run
            assert helpers_alive() == []
            assert slots.free() == 3


class TestOnDemandWorkers:
    def test_no_thread_before_the_first_job(self):
        """The restoring thread takes plan position 0 before any helper
        starts, so it fetches the first object however quickly the
        helpers it starts next get going."""
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=12)
        plan = plan_recovery(store.list())
        me = threading.current_thread().name
        for _ in range(3):
            recording = RecordingStore(store)
            slots = CountingSlots(8, pause=0.01)
            RecoveryEngine(recording, codec, MemoryFileSystem(),
                           downloaders=8, helper_slots=slots).run(plan)
            assert slots.taken == 7
            assert (plan.steps[0].meta.key, me) in recording.gets
            assert len(recording.gets) == len(plan.steps)

    @pytest.mark.parametrize(
        "downloaders, wal_objects, free, helpers",
        [(1, 12, 8, 0),     # one downloader: the caller alone
         (8, 1, 8, 4),      # five objects: four helpers, not seven
         (4, 12, 8, 3),     # downloaders − 1
         (4, 12, 2, 2)],    # no more than the slots free
    )
    def test_workers_follow_concurrent_demand_up_to_the_cap(
            self, downloaders, wal_objects, free, helpers):
        """A restore runs ``min(downloaders, steps) − 1`` helpers at
        once, or as many as it finds slots free if that is fewer, and
        every one is gone and its slot back when the run ends.  (A
        helper that runs out of positions exits and frees its slot at
        once, so with slots short the run may start another in it.)"""
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=wal_objects)
        slots = CountingSlots(8)
        for _ in range(8 - free):
            slots.acquire()
        slots.taken = slots.held = slots.peak = 0
        recording = RecordingStore(store)
        fs = MemoryFileSystem()
        report = RecoveryEngine(recording, codec, fs, downloaders=downloaders,
                                helper_slots=slots).run(
            plan_recovery(store.list()))
        wanted = min(downloaders, len(plan_recovery(store.list()).steps)) - 1
        if helpers == wanted:
            assert slots.taken == helpers
        assert slots.peak <= helpers <= slots.taken
        assert recording.fetchers() <= (
            {threading.current_thread().name}
            | {f"ginja-downloader-{i}" for i in range(wanted)}
        )
        assert helpers_alive() == [] and slots.free() == free
        assert slots.held == 0
        assert (report, _image(fs)) == sequential_image(store, codec)

    def test_a_one_job_map_starts_no_thread(self):
        """A one-object plan restores on the restoring thread alone and
        takes no helper slot."""
        codec = ObjectCodec()
        store = InMemoryObjectStore()
        store.put(DBObjectMeta(ts=0, type=DUMP, size=1).key,
                  codec.encode(encode_dump_payload([("base/data", b"D" * 64)])))
        recording = RecordingStore(store)
        slots = CountingSlots(4)
        fs = MemoryFileSystem()
        report = RecoveryEngine(recording, codec, fs, downloaders=4,
                                helper_slots=slots).run(
            plan_recovery(store.list()))
        assert recording.gets == [(store.list()[0].key,
                                   threading.current_thread().name)]
        assert slots.taken == 0
        assert report.dump_parts == 1
        assert _image(fs) == {"base/data": b"D" * 64}


class TestWedgedStop:
    def test_stop_timeout_raises_and_reports_the_leak(self, monkeypatch):
        """A helper wedges in its GET and then the caller's own GET
        fails: the run joins its helpers against one deadline and
        raises a RecoveryError naming the one still alive — at the
        deadline, not whenever the wedged GET returns.  The wedged
        helper keeps its slot until its GET returns, then gives it
        back, and the next restore on the same slots runs clean."""
        monkeypatch.setattr(recovery, "HELPER_JOIN_TIMEOUT", 0.2)
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=3)
        plan = plan_recovery(store.list())
        caller = threading.current_thread()
        gate, helper_in = threading.Event(), threading.Event()

        class WedgingStore:
            def get(self, key):
                if threading.current_thread() is not caller:
                    helper_in.set()
                    gate.wait(timeout=30)
                    return store.get(key)
                assert helper_in.wait(timeout=10)
                raise RuntimeError("the caller's GET fell over")

        slots = CountingSlots(1)
        started = time.monotonic()
        try:
            with pytest.raises(RecoveryError,
                               match="ginja-downloader-0") as excinfo:
                RecoveryEngine(WedgingStore(), codec, MemoryFileSystem(),
                               downloaders=2, helper_slots=slots).run(plan)
            assert time.monotonic() - started < 5
            # The failure that ended the run rides along as the context.
            assert "fell over" in str(excinfo.value.__context__)
            # The leak stays visible: the helper is alive, its slot taken.
            assert helpers_alive() == ["ginja-downloader-0"]
            assert slots.free() == 0
        finally:
            gate.set()
        assert wait_for(lambda: helpers_alive() == [])
        assert slots.free() == 1
        fs = MemoryFileSystem()
        report = RecoveryEngine(store, codec, fs, downloaders=2,
                                helper_slots=slots).run(plan)
        assert slots.taken == 2
        assert (report, _image(fs)) == sequential_image(store, codec)

    def test_clean_stop_still_resets_state(self):
        """A restore that ends cleanly leaves the process as it found
        it: no helper thread alive, no thread count grown, and every
        slot it took free again."""
        codec = ObjectCodec()
        store = _seed_bucket(codec, wal_objects=12)
        slots = CountingSlots(4)
        before = threading.active_count()
        recover_files(store, codec, MemoryFileSystem(),
                      config=GinjaConfig(downloaders=4))
        RecoveryEngine(store, codec, MemoryFileSystem(), downloaders=4,
                       helper_slots=slots).run(plan_recovery(store.list()))
        assert slots.taken == 3
        assert helpers_alive() == []
        assert threading.active_count() == before
        assert slots.free() == 4
