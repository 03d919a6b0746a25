"""The worker pool (now the restore helper pool) and the encode step of
the claim job.

Covers the pool itself (lanes, on-demand workers, wedged stops), the
ordering contract encoding must not weaken (timestamps are assigned by
the claim job; out-of-order upload completion never unlocks batches out
of order), the poison discipline (a codec fault in a claim job fails
submitters and shutdown), and byte-level replay equivalence between
one-object and split batches.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from functools import partial

import pytest

from repro.common.errors import GinjaError
from repro.common.events import EventBus
from repro.common.fuse import Fuse
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta, decode_wal_payload
from repro.core.encode_stage import EncodeStage

from tests.cloud.test_reactor import wait_for


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


class TestEncodeStageUnit:
    def test_map_runs_inline_when_not_started(self):
        stage = EncodeStage(workers=2)
        assert not stage.running
        assert stage.map([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]

    def test_map_preserves_order_across_workers(self):
        stage = EncodeStage(workers=4)
        stage.start()
        try:
            def job(i):
                time.sleep(0.001 * ((7 - i) % 5))  # scramble completion
                return i * i
            results = stage.map([lambda i=i: job(i) for i in range(16)])
            assert results == [i * i for i in range(16)]
        finally:
            stage.stop()
        assert not stage.running

    def test_map_reraises_first_error_in_caller(self):
        stage = EncodeStage(workers=2)
        stage.start()
        try:
            def boom():
                raise ValueError("codec fault")
            with pytest.raises(ValueError, match="codec fault"):
                stage.map([lambda: 1, boom, lambda: 3])
        finally:
            stage.stop()

    def test_submit_error_reaches_on_error_hook(self):
        """The hook an escaping error reaches is the job's own fuse;
        the worker survives it."""
        fuse = Fuse()
        stage = EncodeStage(workers=1)
        stage.start()
        try:
            stage.submit(lambda: (_ for _ in ()).throw(RuntimeError("dead")),
                         fuse)
            deadline = time.monotonic() + 5
            while fuse.error is None and time.monotonic() < deadline:
                time.sleep(0.005)
            assert isinstance(fuse.error, RuntimeError)
            done = threading.Event()
            stage.submit(done.set, Fuse())
            assert done.wait(timeout=5)
        finally:
            stage.stop()

    def test_discard_stop_cancels_queued_map_without_deadlock(self):
        """A stop(discard=True) racing a map() must resolve the mapper
        with an error, never leave it waiting on jobs nobody will run."""
        stage = EncodeStage(workers=1)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait, Fuse())  # occupy the only worker
        assert wait_for(lambda: stage.queue_depth() == 0)
        failures = []

        def mapper():
            try:
                stage.map([lambda: 1, lambda: 2])
            except GinjaError as exc:
                failures.append(exc)

        thread = threading.Thread(target=mapper)
        thread.start()
        # The first job runs on the mapper's thread, the second queues.
        assert wait_for(lambda: stage.queue_depth() == 1)
        stopper = threading.Thread(target=stage.stop, kwargs={"discard": True})
        stopper.start()
        thread.join(timeout=5)
        release.set()
        stopper.join(timeout=5)
        assert not thread.is_alive() and not stopper.is_alive()
        assert failures, "cancelled map did not raise"

    def test_restartable_after_stop(self):
        stage = EncodeStage(workers=1)
        stage.start()
        stage.stop()
        stage.start()
        try:
            assert stage.map([lambda: "again"]) == ["again"]
        finally:
            stage.stop()

    def test_submit_raises_when_never_started(self):
        """The silent-enqueue bug: submit() on a stage with no worker
        threads used to park the job in the queue forever."""
        stage = EncodeStage(workers=1)
        with pytest.raises(GinjaError, match="not running"):
            stage.submit(lambda: None, Fuse())

    def test_submit_raises_after_stop(self):
        stage = EncodeStage(workers=1)
        stage.start()
        ran = []
        stage.submit(lambda: ran.append(True), Fuse())
        stage.stop()
        with pytest.raises(GinjaError, match="not running"):
            stage.submit(lambda: ran.append(False), Fuse())
        assert ran == [True]  # drain-stop ran the pre-stop job
        assert stage.queue_depth() == 0

    def test_drain_stop_runs_queued_jobs(self):
        stage = EncodeStage(workers=1)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait, Fuse())  # occupy the only worker
        ran = []
        for i in range(5):
            stage.submit(lambda i=i: ran.append(i), Fuse())
        release.set()
        stage.stop()  # drain semantics: everything queued must run
        assert ran == [0, 1, 2, 3, 4]

    def test_lanes_round_robin_fair_share(self):
        """A tenant that floods the stage must not starve another: with
        lane A holding a deep backlog, lane B's single job is picked
        after at most one more lane-A job, not after the whole backlog."""
        stage = EncodeStage(workers=1)
        stage.start()
        try:
            release = threading.Event()
            order = []
            stage.submit(release.wait, Fuse())  # hold the worker while we queue
            for i in range(10):
                stage.submit(lambda i=i: order.append(("a", i)), Fuse(), lane="a")
            stage.submit(lambda: order.append(("b", 0)), Fuse(), lane="b")
            release.set()
            deadline = time.monotonic() + 5
            while len(order) < 11 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(order) == 11
            # Round-robin: b's job runs within the first two slots.
            assert ("b", 0) in order[:2], order
            # Per-lane FIFO order is preserved.
            a_jobs = [i for lane, i in order if lane == "a"]
            assert a_jobs == list(range(10))
        finally:
            stage.stop()

    def test_lane_depth_tracks_per_lane_backlog(self):
        stage = EncodeStage(workers=1)
        stage.start()
        try:
            release = threading.Event()
            stage.submit(release.wait, Fuse())
            deadline = time.monotonic() + 5
            while stage.queue_depth() > 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to claim the blocker
            stage.submit(lambda: None, Fuse(), lane="x")
            stage.submit(lambda: None, Fuse(), lane="x")
            stage.submit(lambda: None, Fuse(), lane="y")
            assert stage.lane_depth("x") == 2
            assert stage.lane_depth("y") == 1
            assert stage.queue_depth() == 3
            release.set()
        finally:
            stage.stop()
        assert stage.lane_depth("x") == 0


def started(name):
    """The live worker threads of the stage named ``name``."""
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith(f"{name}-")
    )


class TestOnDemandWorkers:
    """A worker starts only when queued jobs outnumber idle workers, up
    to ``workers``, and stays until stop(): the pool's size is the
    largest concurrent demand it has seen."""

    NAME = "ginja-ondemand"

    def test_no_thread_before_the_first_job(self):
        stage = EncodeStage(workers=4, name=self.NAME)
        stage.start()
        try:
            assert stage.running and started(self.NAME) == []
            done = threading.Event()
            stage.submit(done.set, Fuse())
            assert done.wait(timeout=5)
            assert started(self.NAME) == [f"{self.NAME}-0"]
        finally:
            stage.stop()
        assert started(self.NAME) == []

    def test_workers_follow_concurrent_demand_up_to_the_cap(self):
        stage = EncodeStage(workers=3, name=self.NAME)
        stage.start()
        release = threading.Event()
        try:
            for held in range(1, 6):
                stage.submit(release.wait, Fuse())
                assert len(started(self.NAME)) == min(held, 3)
            release.set()
            assert wait_for(lambda: stage.queue_depth() == 0)
            assert len(started(self.NAME)) == 3     # kept, not retired
        finally:
            release.set()
            stage.stop()
        assert started(self.NAME) == []

    def test_jobs_that_never_overlap_hold_one_thread(self):
        stage = EncodeStage(workers=4, name=self.NAME)
        stage.start()
        try:
            for _ in range(20):
                done = threading.Event()
                stage.submit(done.set, Fuse())
                assert done.wait(timeout=5)
                assert wait_for(lambda: stage._idle == 1)   # back for more
            assert started(self.NAME) == [f"{self.NAME}-0"]
        finally:
            stage.stop()

    def test_a_one_job_map_starts_no_thread(self):
        stage = EncodeStage(workers=4, name=self.NAME)
        stage.start()
        try:
            here = threading.current_thread()
            assert stage.map([threading.current_thread]) == [here]
            assert started(self.NAME) == []
            # Two jobs: the first here, the second on the one worker it
            # starts.
            first, second = stage.map([threading.current_thread] * 2)
            assert first is here and second.name == f"{self.NAME}-0"
        finally:
            stage.stop()

    def test_racing_submitters_respect_the_cap_and_lose_no_job(self):
        """Eight submitters on three lanes of a three-worker stage under
        a 1 µs switch interval: every job runs once, at most three
        workers start, and at rest every started worker counts as idle
        again — a lost update of the idle count breaks the last."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stage = EncodeStage(workers=3, name=self.NAME)
        stage.start()
        ran = []
        try:
            def submitter(k):
                for i in range(200):
                    stage.submit(partial(ran.append, (k, i)), Fuse(),
                                 lane=str(k % 3))

            submitters = [
                threading.Thread(target=submitter, args=(k,)) for k in range(8)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in submitters)
            assert wait_for(lambda: len(ran) == 1600, timeout=30)
            workers = len(started(self.NAME))
            assert 1 <= workers <= 3
            assert wait_for(lambda: stage._idle == workers)
        finally:
            sys.setswitchinterval(previous)
            stage.stop()
        assert sorted(ran) == [(k, i) for k in range(8) for i in range(200)]


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


class TestWedgedStop:
    def test_stop_timeout_raises_and_reports_the_leak(self):
        """The regression this PR fixes: stop() used to clear _threads
        after a timed-out join, silently leaking the wedged worker while
        running reported False (and a later start() doubled the pool)."""
        stage = EncodeStage(workers=1)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait, Fuse())  # blocks the only worker
        deadline = time.monotonic() + 5
        while stage.queue_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)  # wait until the worker claims the blocker
        try:
            with pytest.raises(GinjaError) as excinfo:
                stage.stop(join_timeout=0.1)
            assert "wedged" in str(excinfo.value)
            # The leak stays visible: the stage still reports running,
            # refuses to stack a second pool, and refuses new work.
            assert stage.running
            with pytest.raises(GinjaError):
                stage.start()
            with pytest.raises(GinjaError):
                stage.submit(lambda: None, Fuse())
        finally:
            release.set()
        stage.stop()  # the unwedged worker exits; clean shutdown now
        assert not stage.running
        stage.start()  # and the stage is reusable afterwards
        try:
            done = threading.Event()
            stage.submit(done.set, Fuse())
            assert done.wait(timeout=5)
        finally:
            stage.stop()

    def test_clean_stop_still_resets_state(self):
        stage = EncodeStage(workers=2)
        stage.start()
        stage.submit(lambda: None, Fuse())
        stage.stop()
        assert not stage.running
        stage.start()
        stage.stop()

    def test_a_discard_behind_wedged_workers_blows_the_queued_fuses(self):
        """With every worker wedged in a job no worker will ever skip
        the queued one, so stop(discard=True) must blow its fuse itself
        — or its map caller or restore waits forever."""
        stage = EncodeStage(workers=2)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait, Fuse())
        stage.submit(release.wait, Fuse())
        assert wait_for(lambda: stage.queue_depth() == 0)   # both held
        fuse = Fuse()
        stage.submit(lambda: None, fuse)
        try:
            with pytest.raises(GinjaError, match="wedged"):
                stage.stop(discard=True, join_timeout=0.1)
            assert isinstance(fuse.error, GinjaError)
        finally:
            release.set()
        stage.stop()


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
