"""The parallel encode stage and the three-stage pipeline around it.

Covers the ordering contract the stage must not weaken (timestamps are
assigned by the Aggregator; out-of-order encode completion never
unlocks batches out of order), the poison discipline (a codec fault on
an encoder worker fails submitters and shutdown), and byte-level replay
equivalence between parallel and inline encoding.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.common.errors import GinjaError
from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta, decode_wal_payload
from repro.core.encode_stage import EncodeStage


def make_pipeline(pools, config, codec=None, backend=None, bus=None):
    backend = backend if backend is not None else InMemoryObjectStore()
    cloud = SimulatedCloud(backend=backend, time_scale=0.0)
    view = CloudView()
    transport = build_transport(cloud, config, bus=bus)
    pipe = CommitPipeline(
        config, transport, codec or ObjectCodec(), view, *pools, bus
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
        errors = []
        stage = EncodeStage(workers=1, on_error=errors.append)
        stage.start()
        try:
            stage.submit(lambda: (_ for _ in ()).throw(RuntimeError("dead")))
            deadline = time.monotonic() + 5
            while not errors and time.monotonic() < deadline:
                time.sleep(0.005)
            assert errors and isinstance(errors[0], RuntimeError)
        finally:
            stage.stop()

    def test_discard_stop_cancels_queued_map_without_deadlock(self):
        """A stop(discard=True) racing a map() must resolve the mapper
        with an error, never leave it waiting on jobs nobody will run."""
        stage = EncodeStage(workers=1)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait)  # occupy the only worker
        failures = []

        def mapper():
            try:
                stage.map([lambda: 1, lambda: 2])
            except GinjaError as exc:
                failures.append(exc)

        thread = threading.Thread(target=mapper)
        thread.start()
        time.sleep(0.05)  # let the map jobs reach the queue
        stage._discard = True  # the crash path, without joining first
        release.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert failures, "cancelled map did not raise"
        stage.stop(discard=True)

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
            stage.submit(lambda: None)

    def test_submit_raises_after_stop(self):
        stage = EncodeStage(workers=1)
        stage.start()
        ran = []
        stage.submit(lambda: ran.append(True))
        stage.stop()
        with pytest.raises(GinjaError, match="not running"):
            stage.submit(lambda: ran.append(False))
        assert ran == [True]  # drain-stop ran the pre-stop job
        assert stage.queue_depth() == 0

    def test_drain_stop_runs_queued_jobs(self):
        stage = EncodeStage(workers=1)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait)  # occupy the only worker
        ran = []
        for i in range(5):
            stage.submit(lambda i=i: ran.append(i))
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
            stage.submit(release.wait)  # hold the worker while we queue
            for i in range(10):
                stage.submit(lambda i=i: order.append(("a", i)), lane="a")
            stage.submit(lambda: order.append(("b", 0)), lane="b")
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
            stage.submit(release.wait)
            deadline = time.monotonic() + 5
            while stage.queue_depth() > 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to claim the blocker
            stage.submit(lambda: None, lane="x")
            stage.submit(lambda: None, lane="x")
            stage.submit(lambda: None, lane="y")
            assert stage.lane_depth("x") == 2
            assert stage.lane_depth("y") == 1
            assert stage.queue_depth() == 3
            release.set()
        finally:
            stage.stop()
        assert stage.lane_depth("x") == 0


class TestUnlockOrderUnderParallelEncode:
    def test_stalled_first_encode_holds_the_unlock_frontier(self, pools):
        """Objects ts=1 and ts=2 finish encoding and uploading while
        ts=0 is stuck in the encode stage: no batch may unlock and no
        queue slot may free until ts=0 lands (Alg. 2 lines 20-22).
        One batch over three files is three objects: the worker that
        planned them keeps the first, two idle workers take the rest."""
        gate = threading.Event()

        class GateCodec(ObjectCodec):
            def encode(self, payload):
                if b"first" in bytes(payload):
                    assert gate.wait(timeout=60)
                return super().encode(payload)

        config = GinjaConfig(batch=3, safety=10, batch_timeout=0.01,
                             safety_timeout=30.0, uploaders=2, encoders=3)
        pipe, backend, view = make_pipeline(pools, config, codec=GateCodec())
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
            pipe.stop(drain_timeout=5.0)

    def test_scrambled_encode_latency_drains_completely(self, pools):
        """Randomized per-object encode delays (seeded) across several
        workers: every write still lands and the frontier closes."""
        rng = random.Random(7)
        delays = {}

        class JitterCodec(ObjectCodec):
            def encode(self, payload):
                key = bytes(payload[:32])
                time.sleep(delays.setdefault(key, rng.random() * 0.01))
                return super().encode(payload)

        config = GinjaConfig(batch=4, safety=100, batch_timeout=0.01,
                             safety_timeout=30.0, uploaders=3, encoders=4)
        pipe, backend, view = make_pipeline(pools, config, codec=JitterCodec())
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


class TestEncodePoisonDiscipline:
    @staticmethod
    def _poisoned_pipeline(pools):
        class FaultyCodec(ObjectCodec):
            def encode(self, payload):
                if b"poison" in bytes(payload):
                    raise RuntimeError("injected codec fault")
                return super().encode(payload)

        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=2, encoders=3)
        return make_pipeline(pools, config, codec=FaultyCodec())

    def test_encode_worker_fault_fails_submitters(self, pools):
        pipe, _backend, _view = self._poisoned_pipeline(pools)
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

    def test_stop_reraises_recorded_failure_and_stops_encoders(self, pools):
        """stop() used to report a clean shutdown on a poisoned
        pipeline.  It must leave no claim behind AND re-raise; the
        encoders it borrowed stay up for their owner to stop."""
        pipe, _backend, _view = self._poisoned_pipeline(pools)
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
        assert pools[0].running  # borrowed, not ours to stop


class TestParallelInlineEquivalence:
    @staticmethod
    def _run(pools, seed: int, files: int):
        """Push one seeded page-write stream through a pipeline and
        return the replayed per-file images."""
        config = GinjaConfig(batch=5, safety=200, batch_timeout=0.005,
                             safety_timeout=30.0, uploaders=3,
                             encoders=4, compress=True)
        codec = ObjectCodec(compress=True)
        pipe, backend, view = make_pipeline(pools, config, codec=codec)
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
    def test_recovered_bytes_identical_across_dispatch_modes(self, seed, pools):
        """Batch boundaries are timing-dependent, so bucket *objects*
        may differ between runs — but the replayed file images must
        equal naively applying the stream in commit order both when
        every batch is one object (one file: the planning worker
        encodes everything) and when batches split into objects that
        other workers encode beside it (four files)."""
        assert self._run(pools, seed, files=1) == self._naive(seed, files=1)
        assert self._run(pools, seed, files=4) == self._naive(seed, files=4)


class TestWedgedStop:
    def test_stop_timeout_raises_and_reports_the_leak(self):
        """The regression this PR fixes: stop() used to clear _threads
        after a timed-out join, silently leaking the wedged worker while
        running reported False (and a later start() doubled the pool)."""
        errors = []
        stage = EncodeStage(workers=1, on_error=errors.append)
        stage.start()
        release = threading.Event()
        stage.submit(release.wait)  # blocks the only worker indefinitely
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
            assert errors and isinstance(errors[0], GinjaError)
            with pytest.raises(GinjaError):
                stage.start()
            with pytest.raises(GinjaError):
                stage.submit(lambda: None)
        finally:
            release.set()
        stage.stop()  # the unwedged worker exits; clean shutdown now
        assert not stage.running
        stage.start()  # and the stage is reusable afterwards
        try:
            done = threading.Event()
            stage.submit(done.set)
            assert done.wait(timeout=5)
        finally:
            stage.stop()

    def test_clean_stop_still_resets_state(self):
        stage = EncodeStage(workers=2)
        stage.start()
        stage.submit(lambda: None)
        stage.stop()
        assert not stage.running
        stage.start()
        stage.stop()


class TestEncodeEvents:
    def test_encode_events_emitted_when_subscribed(self, pools):
        from repro.core import events as core_events

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append,
                      kinds={core_events.ENCODE_QUEUED, core_events.ENCODE_DONE})
        config = GinjaConfig(batch=2, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1, encoders=2)
        pipe, _backend, _view = make_pipeline(pools, config, bus=bus)
        pipe.start()
        try:
            pipe.submit("seg-a", 0, b"x" * 64)   # two files: two objects,
            pipe.submit("seg-b", 0, b"y" * 64)   # the second one handed off
            assert pipe.drain(timeout=5.0)
            # The encoder worker emits encode_done *after* handing the
            # blob to the reactor, so the upload can ack — and drain()
            # return — a beat before the event is out.
            deadline = time.monotonic() + 5.0
            while len(seen) < 3 and time.monotonic() < deadline:
                time.sleep(0.002)
        finally:
            pipe.stop(drain_timeout=5.0)
        # encode_queued means "handed to another worker": only the
        # batch's second object was; both report encode_done.
        kinds = sorted(e.kind for e in seen)
        assert kinds == [core_events.ENCODE_DONE, core_events.ENCODE_DONE,
                         core_events.ENCODE_QUEUED]

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
