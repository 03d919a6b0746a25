"""Algorithm 2: the commit pipeline.

Uses a zero-latency simulated cloud so tests are fast, plus fault
injection to exercise retries and the poison-pipeline path.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.clock import ManualClock, SYSTEM_CLOCK
from repro.common.errors import CloudUnavailable, GinjaError
from repro.common.events import EventBus
from repro.cloud.faults import FaultPolicy
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import (
    CommitPipeline, Marks, _CHUNK_FRAMING, _SHADOW_BYTES, plan_writes,
)
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta, decode_wal_payload
from repro.core.shadow import Shadow, split_runs
from repro.core.stats import GinjaStats

from tests.cloud.test_reactor import wait_for


def make_pipeline(pools, config=None, faults=None, backend=None,
                  clock=SYSTEM_CLOCK):
    if backend is None:  # `or` would drop an empty store: len() == 0 is falsy
        backend = InMemoryObjectStore()
    cloud = SimulatedCloud(
        backend=backend, time_scale=0.0, faults=faults or FaultPolicy()
    )
    config = config or GinjaConfig(
        batch=2, safety=20, batch_timeout=0.05, safety_timeout=0.5,
        uploaders=2, max_retries=2, retry_backoff=0.005,
    )
    view = CloudView()
    bus = EventBus()
    stats = GinjaStats().attach(bus)
    transport = build_transport(cloud, config, bus=bus, clock=clock)
    pipeline = CommitPipeline(config, transport, ObjectCodec(), view, *pools,
                              bus, clock=clock)
    return pipeline, backend, view, stats


@pytest.fixture
def pipeline(pools):
    pipe, backend, view, stats = make_pipeline(pools)
    pipe.start()
    yield pipe, backend, view, stats
    pipe.stop(drain_timeout=5.0)


def planned_chunks(writes):
    """One batch of ``(offset, data)`` writes to one file through the
    claim job's transform, by a new pipeline: its object's chunks, and
    the file they rebuild — which must be the writes replayed whole."""
    batch = [("seg", offset, bytes(data), 0) for offset, data in writes]
    groups = plan_writes(
        batch, Shadow(_SHADOW_BYTES, lambda _path: _CHUNK_FRAMING), Marks(),
        coalesce=True, max_object_bytes=1 << 20,
    )
    chunks = [chunk for _path, group in groups for chunk in group]
    image, whole = bytearray(), bytearray()
    for replay, stream in ((image, chunks), (whole, writes)):
        for offset, data in stream:
            end = offset + len(data)
            replay.extend(bytes(max(0, end - len(replay))))
            replay[offset:end] = data
    assert image == whole
    return chunks


def decode_backend(backend, codec=None):
    codec = codec or ObjectCodec()
    out = {}
    for info in backend.list("WAL/"):
        meta = WALObjectMeta.parse(info.key)
        out[meta.ts] = (meta, decode_wal_payload(codec.decode(backend.get(info.key))))
    return out


class TestBasicFlow:
    def test_submits_become_wal_objects(self, pipeline):
        pipe, backend, view, stats = pipeline
        pipe.submit("seg", 0, b"page-a")
        pipe.submit("seg", 8192, b"page-b")
        assert pipe.drain(timeout=5.0)
        objects = decode_backend(backend)
        assert len(objects) >= 1
        all_chunks = [c for _meta, chunks in objects.values() for c in chunks]
        assert (0, b"page-a") in all_chunks
        assert (8192, b"page-b") in all_chunks
        assert view.confirmed_ts() >= 0
        assert stats.wal_objects >= 1

    def test_figure2_trace(self, pools):
        """The paper's Figure 2: B=2 means each cloud backup carries two
        updates; with S=20 nothing blocks for a 20-update burst."""
        config = GinjaConfig(batch=2, safety=20, batch_timeout=5.0,
                             safety_timeout=30.0, uploaders=1)
        pipe, backend, view, stats = make_pipeline(pools, config)
        pipe.start()
        try:
            for i in range(20):
                pipe.submit("seg", i * 512, f"u{i:02d}".encode())
            assert pipe.drain(timeout=5.0)
            objects = decode_backend(backend)
            # 20 updates at distinct offsets / B=2 -> 10 WAL objects.
            assert len(objects) == 10
            assert stats.wal_batches == 10
            assert stats.blocks == 0
        finally:
            pipe.stop(drain_timeout=5.0)

    def test_batch_timeout_pushes_partial_batch(self, pools):
        config = GinjaConfig(batch=1000, safety=2000, batch_timeout=0.05,
                             safety_timeout=5.0, uploaders=1)
        pipe, backend, _view, _stats = make_pipeline(pools, config)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"lonely")
            assert pipe.drain(timeout=5.0)  # only T_B can flush this
            assert len(backend.list("WAL/")) == 1
        finally:
            pipe.stop(drain_timeout=5.0)

    def test_pending_updates_counts_queue(self, pools):
        config = GinjaConfig(batch=100, safety=200, batch_timeout=60.0,
                             safety_timeout=60.0, uploaders=1)
        pipe, _backend, _view, _stats = make_pipeline(pools, config)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"x")
            assert pipe.pending_updates() == 1  # waiting for B or T_B
        finally:
            pipe.stop(drain_timeout=5.0)


class TestCoalescing:
    def test_page_overwrites_collapse(self, pipeline):
        """Rewrites of the same (file, offset) within a batch upload only
        the final content — §5.3's aggregation."""
        pipe, backend, _view, _stats = pipeline
        pipe.submit("seg", 0, b"version-1")
        pipe.submit("seg", 0, b"version-2")
        assert pipe.drain(timeout=5.0)
        objects = decode_backend(backend)
        assert len(objects) == 1
        _meta, chunks = objects[0]
        assert chunks == [(0, b"version-2")]

    def test_contiguous_pages_merge_into_one_chunk(self, pipeline):
        pipe, backend, _view, _stats = pipeline
        pipe.submit("seg", 0, b"A" * 512)
        pipe.submit("seg", 512, b"B" * 512)
        assert pipe.drain(timeout=5.0)
        (_meta, chunks), = decode_backend(backend).values()
        assert chunks == [(0, b"A" * 512 + b"B" * 512)]

    def test_writes_to_different_segments_become_separate_objects(self, pools):
        config = GinjaConfig(batch=2, safety=20, batch_timeout=0.05,
                             safety_timeout=5.0, uploaders=2)
        pipe, backend, _view, _stats = make_pipeline(pools, config)
        pipe.start()
        try:
            pipe.submit("seg-a", 0, b"x")
            pipe.submit("seg-b", 0, b"y")
            assert pipe.drain(timeout=5.0)
            metas = [WALObjectMeta.parse(i.key) for i in backend.list("WAL/")]
            assert sorted(m.filename for m in metas) == ["seg-a", "seg-b"]
        finally:
            pipe.stop(drain_timeout=5.0)

    # The chunks of one batch, planned and replayed: overlapping
    # writes of a batch ship whole, in write order, and a run that
    # touches the one before it merges into it.

    def test_merge_chunks_overlap(self):
        chunks = planned_chunks([(0, b"aaaa"), (2, b"bb"), (10, b"cc")])
        assert chunks == [(0, b"aabb"), (10, b"cc")]

    def test_merge_chunks_contained_write_preserves_the_suffix(self):
        """A later write contained inside an earlier run replaces exactly
        the bytes it covers — truncating the run would drop durable bytes
        from the WAL object and recovery would restore stale data."""
        assert planned_chunks([(0, b"aaaaaa"), (2, b"B")]) == [(0, b"aaBaaa")]

    def test_merge_chunks_interior_rewrite_at_run_start(self):
        chunks = planned_chunks([(4, b"old-old"), (4, b"new")])
        assert chunks == [(4, b"new-old")]

    def test_merge_chunks_contained_write_regression(self):
        """The ISSUE 3 case: old run covers [0, 100), a new write covers
        [10, 15); the merged run must still carry the old [15, 100)."""
        old = bytes(range(100))
        patch = b"\xff" * 5
        chunks = planned_chunks([(0, old), (10, patch)])
        assert chunks == [(0, old[:10] + patch + old[15:])]

    def test_merge_chunks_empty_batch(self):
        assert planned_chunks([]) == []

    def test_split_chunks_respects_cap(self):
        groups = split_runs([(0, b"x" * 250)], max_bytes=100)
        assert [len(g[0][1]) for g in groups] == [100, 100, 50]
        assert [g[0][0] for g in groups] == [0, 100, 200]

    def test_split_chunks_empty(self):
        assert split_runs([], max_bytes=100) == []

    def test_single_write_over_object_cap_splits_into_wal_objects(self, pools):
        """One submit larger than max_object_bytes becomes several WAL
        objects whose chunks reassemble the original write exactly."""
        cap = 64 * 1024  # the smallest max_object_bytes config allows
        total = 4 * cap - 1024
        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=2,
                             max_object_bytes=cap)
        pipe, backend, view, _stats = make_pipeline(pools, config)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"z" * total)
            assert pipe.drain(timeout=5.0)
            objects = decode_backend(backend)
            assert len(objects) == 4  # ceil(total / cap)
            rebuilt = bytearray(total)
            covered = 0
            for _ts, (_meta, chunks) in sorted(objects.items()):
                for offset, data in chunks:
                    assert len(data) <= cap
                    rebuilt[offset:offset + len(data)] = data
                    covered += len(data)
            assert covered == total
            assert bytes(rebuilt) == b"z" * total
            assert view.confirmed_ts() == 3  # all four confirmed in order
        finally:
            pipe.stop(drain_timeout=5.0)


class TestSafetyBlocking:
    def test_writer_blocks_beyond_safety(self, pools):
        """With uploads stalled, the S+1-th update must block the caller
        (Figure 2's U21)."""
        backend = InMemoryObjectStore()
        faults = FaultPolicy()
        config = GinjaConfig(batch=2, safety=4, batch_timeout=0.02,
                             safety_timeout=30.0, uploaders=1,
                             max_retries=1000, retry_backoff=0.2)
        pipe, backend, _view, stats = make_pipeline(pools, config, faults, backend)
        faults.fail_next(4)  # stall the cloud for ~1s of backoff
        pipe.start()
        try:
            for i in range(4):
                pipe.submit("seg", i * 512, b"u")  # fills up to S
            blocked = threading.Event()
            released = threading.Event()

            def fifth_writer():
                blocked.set()
                pipe.submit("seg", 4 * 512, b"u")  # size becomes S+1 -> blocks
                released.set()

            thread = threading.Thread(target=fifth_writer)
            thread.start()
            blocked.wait(timeout=2)
            assert not released.wait(timeout=0.3), "S+1-th write did not block"
            # The cloud recovers; retries succeed; the writer unblocks.
            assert released.wait(timeout=10)
            thread.join()
            assert stats.blocks >= 1
            assert stats.blocked_seconds > 0
        finally:
            pipe.stop(drain_timeout=10.0)

    def test_consecutive_ts_unlock_rule(self, pools):
        """A later batch acked before an earlier one must NOT free queue
        slots (Alg. 2 lines 20-22): loss stays bounded by S even with
        out-of-order uploads."""
        class ReorderingStore(InMemoryObjectStore):
            """Holds the FIRST WAL object put until a later one arrives."""

            def __init__(self):
                super().__init__()
                self.gate = threading.Event()
                self.first_key = None
                self.attempts = 0
                self._order_lock = threading.Lock()

            def __len__(self):
                with self._order_lock:
                    return self.attempts

            def put(self, key, data):
                with self._order_lock:
                    self.attempts += 1
                    if self.first_key is None:
                        self.first_key = key
                        hold = True
                    else:
                        hold = False
                if hold:
                    self.gate.wait(timeout=60)
                super().put(key, data)

        backend = ReorderingStore()
        config = GinjaConfig(batch=1, safety=3, batch_timeout=0.01,
                             safety_timeout=30.0, uploaders=2)
        pipe, _b, view, _stats = make_pipeline(pools, config, backend=backend)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"first")    # object ts=0, stalled
            pipe.submit("seg", 512, b"second")  # object ts=1, completes
            deadline = time.monotonic() + 10
            # Wait until both PUTs reached the backend (ts=0 held inside,
            # ts=1 completed) rather than sleeping a fixed amount.
            while len(backend) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # let the ack for ts=1 propagate
            # ts=1 uploaded but ts=0 stalled: frontier must hold at -1
            # and both entries must still occupy the queue.
            assert view.confirmed_ts() == -1
            assert pipe.pending_updates() == 2
            backend.gate.set()
            assert pipe.drain(timeout=5.0)
            assert view.confirmed_ts() == 1
        finally:
            pipe.stop(drain_timeout=5.0)


class TestFailureHandling:
    def test_transient_errors_are_retried(self, pools):
        faults = FaultPolicy()
        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1,
                             max_retries=5, retry_backoff=0.001)
        pipe, backend, _view, stats = make_pipeline(pools, config, faults)
        faults.fail_next(2)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"x")
            assert pipe.drain(timeout=5.0)
            assert len(backend.list("WAL/")) == 1
            assert stats.upload_retries == 2
        finally:
            pipe.stop(drain_timeout=5.0)

    def test_retry_exhaustion_poisons_pipeline(self, pools):
        faults = FaultPolicy()
        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1,
                             max_retries=1, retry_backoff=0.001)
        pipe, _backend, _view, _stats = make_pipeline(pools, config, faults)
        faults.fail_next(50)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"x")
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pipe.failed is not None
            with pytest.raises(GinjaError):
                pipe.submit("seg", 512, b"y")
        finally:
            # stop() re-raises the recorded poison — a failed pipeline
            # must never report a clean shutdown.
            with pytest.raises(GinjaError):
                pipe.stop(drain_timeout=0.1)

    def test_codec_fault_poisons_pipeline(self, pools):
        """A non-CloudError fault in the aggregator (codec encode) must
        poison the pipeline: without the catch-all worker guards the
        thread dies silently, ``failed`` stays None and Safety-blocked
        submitters wait forever instead of raising."""

        class ExplodingCodec(ObjectCodec):
            def encode(self, payload: bytes) -> bytes:
                raise RuntimeError("codec fault")

        config = GinjaConfig(batch=1, safety=2, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1)
        cloud = SimulatedCloud(backend=InMemoryObjectStore(), time_scale=0.0)
        pipe = CommitPipeline(
            config, build_transport(cloud, config), ExplodingCodec(),
            CloudView(), *pools,
        )
        pipe.start()
        try:
            pipe.submit("seg", 0, b"x")  # claims a batch -> encode -> boom
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pipe.failed is not None
            with pytest.raises(GinjaError):
                pipe.submit("seg", 512, b"y")
        finally:
            with pytest.raises(GinjaError):
                pipe.stop(drain_timeout=0.1)

    def test_uploader_non_cloud_error_poisons_pipeline(self, pools):
        """The uploader loop must treat *any* exception as fatal, not
        just the CloudError the retry layer re-raises."""

        class BrokenStore(InMemoryObjectStore):
            def put(self, key: str, data: bytes) -> None:
                raise ValueError("not a CloudError")

        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1)
        pipe, _backend, _view, _stats = make_pipeline(pools, config, backend=BrokenStore())
        pipe.start()
        try:
            pipe.submit("seg", 0, b"x")
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pipe.failed is not None
            with pytest.raises(GinjaError):
                pipe.submit("seg", 512, b"y")
            assert not pipe.drain(timeout=0.1)
        finally:
            with pytest.raises(GinjaError):
                pipe.stop(drain_timeout=0.1)

    def test_poisoned_drop_path_counts_upload_dropped(self, pools):
        """Every blob the poisoned uploader abandons must be accounted:
        the drop path emits ``upload_dropped`` with the byte count, and
        GinjaStats tallies both the events and the bytes.  Before this
        event existed, an abort against a dead cloud silently discarded
        the backlog — RPO triage had no record of what never made it."""

        class DeadStore(InMemoryObjectStore):
            def put(self, key, data):
                raise CloudUnavailable("permanently down")

        config = GinjaConfig(batch=1, safety=50, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1,
                             max_retries=1, retry_backoff=0.001)
        pipe, _backend, _view, stats = make_pipeline(
            pools,
            config, backend=DeadStore()
        )
        pipe.start()
        try:
            for i in range(20):
                try:
                    pipe.submit("seg", i * 512, b"u" * 64)
                except GinjaError:
                    break  # poisoned while we were still submitting
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pipe.failed is not None
        finally:
            pipe.abort()
        # The first batch burned its retry budget and poisoned the
        # pipeline; everything encoded behind it was dropped cold, and
        # each drop carries its blob size into the counters.
        deadline = time.monotonic() + 5
        while stats.uploads_dropped == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert stats.uploads_dropped >= 1
        assert stats.uploads_dropped_bytes > 0
        snap = stats.snapshot()
        assert snap["uploads_dropped"] == stats.uploads_dropped
        assert snap["uploads_dropped_bytes"] == stats.uploads_dropped_bytes


class TestConcurrency:
    def test_many_writers(self, pools):
        config = GinjaConfig(batch=5, safety=50, batch_timeout=0.02,
                             safety_timeout=10.0, uploaders=3)
        pipe, backend, view, _stats = make_pipeline(pools, config)
        pipe.start()
        try:
            def writer(wid):
                for i in range(30):
                    pipe.submit(f"seg{wid % 2}", (wid * 1000 + i) * 512, b"u")

            threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert pipe.drain(timeout=10.0)
            # Every one of the 120 distinct offsets must be in the cloud.
            chunks = set()
            for _ts, (_meta, chunk_list) in decode_backend(backend).items():
                for offset, data in chunk_list:
                    for pos in range(0, len(data), 512):
                        chunks.add((offset + pos))
            assert len(chunks) == 120
            assert view.confirmed_ts() == view.last_assigned_ts()
        finally:
            pipe.stop(drain_timeout=5.0)


class CountingStage:
    """The encode stage as the pipeline sees it, counting what it is
    handed (every job a pipeline submits is a thread it touches)."""

    def __init__(self, stage):
        self._stage = stage
        self.jobs = 0

    def submit(self, job, fuse, lane="", **kw):
        self.jobs += 1
        self._stage.submit(job, fuse, lane=lane, **kw)

    def __getattr__(self, name):
        return getattr(self._stage, name)


class TestAggregatorWakeUps:
    """What used to wake the Aggregator thread now *schedules*: a submit
    arms the T_B timer for the first unclaimed update, schedules one
    claim job when a batch fills, and otherwise touches nothing; what
    the thread used to learn from its other wake-ups the timer learns
    when it fires."""

    def test_a_filling_batch_schedules_one_claim(self, pools):
        stage, reactor = pools
        counting = CountingStage(stage)
        config = GinjaConfig(batch=100, safety=1000, batch_timeout=60.0,
                             safety_timeout=120.0, uploaders=1)
        pipe, backend, _view, stats = make_pipeline(
            (counting, reactor), config,
        )
        bus_events = []
        pipe._bus.subscribe(bus_events.append, kinds={"claim_queued"})
        pipe.start()
        try:
            for i in range(99):
                pipe.submit("seg", i * 512, b"u")
            time.sleep(0.05)
            # The first update armed T_B; 98 more scheduled nothing and
            # touched no other thread.
            assert counting.jobs == 0 and bus_events == []
            assert stats.wal_batches == 0
            pipe.submit("seg", 99 * 512, b"u")      # B reached: claims now,
            assert pipe.drain(timeout=5.0)          # T_B is a minute away
            assert counting.jobs == 1 and len(bus_events) == 1
            assert stats.wal_batches == 1
            assert len(backend.list("WAL/")) == 1
        finally:
            pipe.stop(drain_timeout=5.0)

    def test_tb_fires_when_a_manual_clock_passes_it(self, pools):
        """Advancing a ManualClock *is* the scheduler: no second submit
        and no real-time wait stands between an expired T_B and its
        flush (the Aggregator thread slept T_B out in real seconds)."""
        clock = ManualClock()
        config = GinjaConfig(batch=100, safety=200, batch_timeout=30.0,
                             safety_timeout=600.0, uploaders=1)
        pipe, backend, _view, stats = make_pipeline(pools, config, clock=clock)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"only")
            time.sleep(0.05)                # real time alone flushes nothing
            assert pipe.pending_updates() == 1
            started = time.monotonic()
            clock.advance(31.0)
            assert wait_for(lambda: pipe.pending_updates() == 0, timeout=2.0)
            assert time.monotonic() - started < 2.0
            assert stats.wal_batches == 1
            assert len(backend.list("WAL/")) == 1
            assert clock.now() == 31.0      # the timer moved no virtual time
        finally:
            pipe.abort()

    def test_a_lone_update_still_flushes_at_tb_on_a_manual_clock(self, pools):
        clock = ManualClock()
        config = GinjaConfig(batch=100, safety=200, batch_timeout=0.05,
                             safety_timeout=60.0, uploaders=1)
        pipe, backend, _view, _stats = make_pipeline(pools, config, clock=clock)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"lonely")
            time.sleep(0.1)                 # real time alone flushes nothing
            assert pipe.pending_updates() == 1
            clock.advance(0.05)
            assert wait_for(lambda: pipe.pending_updates() == 0)
            assert len(backend.list("WAL/")) == 1
        finally:
            pipe.abort()

    def test_first_update_after_an_idle_gap_flushes_at_once(self, pools):
        clock = ManualClock()
        config = GinjaConfig(batch=100, safety=200, batch_timeout=30.0,
                             safety_timeout=600.0, uploaders=1)
        pipe, _backend, _view, stats = make_pipeline(pools, config, clock=clock)
        pipe.start()
        try:
            clock.advance(31.0)             # idle for longer than T_B
            pipe.submit("seg", 0, b"first")
            assert wait_for(lambda: pipe.pending_updates() == 0)
            assert stats.wal_batches == 1
        finally:
            pipe.abort()

    def test_drain_flushes_a_partial_batch_on_a_frozen_clock(self, pools):
        """drain() claims a partial batch at once instead of waiting out
        T_B: at B = 10, three updates drain with the clock never moved
        (a drain that waits for the timer waits here forever)."""
        clock = ManualClock()
        config = GinjaConfig(batch=10, safety=100, batch_timeout=30.0,
                             safety_timeout=600.0, uploaders=1)
        pipe, backend, _view, stats = make_pipeline(pools, config, clock=clock)
        pipe.start()
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(pipe.drain(timeout=60.0)),
        )
        try:
            for i in range(3):
                pipe.submit("seg", i * 512, b"u")
            drainer.start()
            drainer.join(timeout=5.0)
            assert drained == [True]
            assert clock.now() == 0.0
            assert stats.wal_batches == 1       # one batch of three
            assert len(backend.list("WAL/")) == 1
        finally:
            clock.advance(31.0)     # releases a drain still waiting on T_B
            if drainer.ident is not None:
                drainer.join(timeout=5.0)
            pipe.abort()
        assert not drainer.is_alive()

    def test_an_unlock_moves_the_deadline_the_timer_re_reads(self, pools):
        """The anchor resets at each unlock: a partial batch whose timer
        was armed before an unlock flushes T_B after *that*, not after
        the older anchor the timer was armed from."""
        clock = ManualClock()
        config = GinjaConfig(batch=2, safety=200, batch_timeout=10.0,
                             safety_timeout=600.0, uploaders=1)
        pipe, _backend, _view, stats = make_pipeline(pools, config, clock=clock)
        pipe.start()
        try:
            pipe.submit("seg", 0, b"a")     # arms T_B for t = 10
            clock.advance(6.0)
            pipe.submit("seg", 512, b"b")   # fills: claimed at 6, unlocks at 6
            assert wait_for(lambda: pipe.pending_updates() == 0)
            pipe.submit("seg", 1024, b"c")  # partial; deadline is 6 + 10
            clock.advance(5.0)              # t = 11: the stale timer fires
            time.sleep(0.05)
            assert pipe.pending_updates() == 1 and stats.wal_batches == 1
            clock.advance(5.0)              # t = 16
            assert wait_for(lambda: pipe.pending_updates() == 0)
            assert stats.wal_batches == 2
        finally:
            pipe.abort()

    def test_a_retune_below_available_claims_no_later_than_tb(self, pools):
        batch_timeout = 0.4
        config = GinjaConfig(batch=100, safety=200, batch_timeout=batch_timeout,
                             safety_timeout=60.0, uploaders=1,
                             target_commit_latency=5.0)
        pipe, _backend, _view, stats = make_pipeline(pools, config)
        pipe.start()
        try:
            started = time.monotonic()
            for i in range(10):
                pipe.submit("seg", i * 512, b"u")
            pipe.tuner.set_override(5)      # B < available; nobody is told
            assert pipe.drain(timeout=5.0)
            assert time.monotonic() - started < batch_timeout + 1.0
            assert stats.wal_batches == 2   # claimed at the effective B
        finally:
            pipe.stop(drain_timeout=5.0)

    def test_the_unlock_rule_alone_releases_submitter_and_drain(self, pools):
        class GatedStore(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.gate = threading.Event()

            def put(self, key, data):
                self.gate.wait(timeout=60)
                super().put(key, data)

        backend = GatedStore()
        config = GinjaConfig(batch=2, safety=4, batch_timeout=0.02,
                             safety_timeout=60.0, uploaders=2)
        pipe, _b, _view, stats = make_pipeline(pools, config, backend=backend)
        pipe.start()
        try:
            for i in range(4):
                pipe.submit("seg", i * 512, b"u")   # two batches, both held
            submitted, drained = threading.Event(), []

            def fifth_writer():
                pipe.submit("seg", 4 * 512, b"u")   # S + 1: parks on space
                submitted.set()

            waiters = [
                threading.Thread(target=fifth_writer),
                threading.Thread(
                    target=lambda: drained.append(pipe.drain(timeout=30.0))
                ),
            ]
            for thread in waiters:
                thread.start()
            assert wait_for(lambda: stats.blocks >= 1)
            time.sleep(0.1)
            assert not submitted.is_set() and not drained
            backend.gate.set()              # no submit from here on
            for thread in waiters:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert submitted.is_set() and drained == [True]
        finally:
            backend.gate.set()
            pipe.stop(drain_timeout=5.0)


class TestUnlockOnTheReactorLoop:
    def test_a_lane_parked_on_safety_never_blocks_the_others(self, pools):
        """The unlock rule runs in the reactor's completion callback,
        so it must never wait on a lane's DBMS thread.  Three lanes
        share the loop; lane a's PUTs stall and its writer parks on S
        (inside ``cond.wait`` — the condition is released).  Lanes b
        and c must keep unlocking batches through the same loop."""
        import asyncio

        stalled = threading.Event()

        class StalledStore(InMemoryObjectStore):
            async def aput(self, key, data):
                while not stalled.is_set():
                    await asyncio.sleep(0.001)
                self.put(key, data)

        config = GinjaConfig(batch=1, safety=2, batch_timeout=0.01,
                             safety_timeout=60.0, uploaders=2)
        stage, reactor = pools
        backends = {"a": StalledStore(), "b": InMemoryObjectStore(),
                    "c": InMemoryObjectStore()}
        pipes = {
            lane: CommitPipeline(config, backend, ObjectCodec(), CloudView(),
                                 stage, reactor, lane=lane)
            for lane, backend in backends.items()
        }
        for pipe in pipes.values():
            pipe.start()
        parked = threading.Thread(
            target=lambda: [pipes["a"].submit("seg", i * 512, b"a")
                            for i in range(3)],  # S + 1: the third blocks
        )
        parked.start()
        try:
            deadline = time.monotonic() + 5.0
            while pipes["a"].pending_updates() < 3:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            parked.join(timeout=0.1)
            assert parked.is_alive()  # lane a's DBMS thread is on S
            for round_ in range(10):
                for lane in ("b", "c"):
                    pipes[lane].submit("seg", round_ * 512, lane.encode())
            for lane in ("b", "c"):
                assert pipes[lane].drain(timeout=5.0)
                assert len(backends[lane].list("WAL/")) == 10
            assert parked.is_alive() and pipes["a"].pending_updates() == 3
            stalled.set()
            parked.join(timeout=5.0)
            assert not parked.is_alive()
            assert pipes["a"].drain(timeout=5.0)
        finally:
            stalled.set()
            for pipe in pipes.values():
                pipe.stop(drain_timeout=5.0)


    def test_a_lane_parked_on_a_slow_gc_request_never_delays_the_others(self, pools):
        """Checkpoint GC rides the same loop as every lane's WAL acks.
        A GC request that takes its time parks as a loop timer on its
        own lane; lanes b and c must keep unlocking batches meanwhile,
        and lane a's own WAL PUTs keep flowing beside it."""
        import asyncio

        from repro.core.checkpointer import CheckpointCollector, CheckpointUploader
        from repro.db.profiles import POSTGRES_PROFILE
        from repro.storage.memory import MemoryFileSystem

        released = threading.Event()
        gc_started = threading.Event()

        class SlowGC(InMemoryObjectStore):
            async def _adelete_request(self, keys):
                gc_started.set()
                while not released.is_set():
                    await asyncio.sleep(0.001)
                self._delete_request(keys)

        config = GinjaConfig(batch=1, safety=2, batch_timeout=0.01,
                             safety_timeout=60.0, uploaders=2)
        stage, reactor = pools
        backends = {"a": SlowGC(), "b": InMemoryObjectStore(),
                    "c": InMemoryObjectStore()}
        views = {lane: CloudView() for lane in backends}
        pipes = {
            lane: CommitPipeline(config, backend, ObjectCodec(), views[lane],
                                 stage, reactor, lane=lane)
            for lane, backend in backends.items()
        }
        uploader = CheckpointUploader(
            config, backends["a"], views["a"], reactor, lane="a"
        )
        fs = MemoryFileSystem()
        fs.write("base/t", 0, b"\x00" * 64)
        collector = CheckpointCollector(
            config, ObjectCodec(), views["a"], fs, POSTGRES_PROFILE,
            uploader.enqueue,
        )
        for pipe in pipes.values():
            pipe.start()
        uploader.start()
        try:
            pipes["a"].submit("seg", 0, b"a")  # something for GC to retire
            assert pipes["a"].drain(timeout=5.0)
            collector.begin()
            collector.add_write("base/t", 0, b"x")
            collector.end()
            assert gc_started.wait(5.0)  # lane a's GC request is parked
            for round_ in range(10):
                for lane in ("a", "b", "c"):
                    pipes[lane].submit("seg", (round_ + 1) * 512, lane.encode())
            for lane in ("a", "b", "c"):
                assert pipes[lane].drain(timeout=5.0)
            assert len(backends["b"].list("WAL/")) == 10
            assert len(backends["c"].list("WAL/")) == 10
            assert len(backends["a"].list("WAL/")) == 11  # GC still parked
            assert uploader.drain(timeout=0.05) is False
            released.set()
            assert uploader.drain(timeout=5.0)
            assert len(backends["a"].list("WAL/")) == 10
        finally:
            released.set()
            uploader.stop(drain_timeout=5.0)
            for pipe in pipes.values():
                pipe.stop(drain_timeout=5.0)


class TestAbort:
    def test_abort_releases_blocked_writer_and_skips_drain(self, pools):
        """Abrupt primary loss: a writer parked on the Safety limit must
        be released with an error, and nothing further is uploaded.

        The pipeline is deliberately *not* started: with no aggregator
        claiming batches the queue can only shrink via a drain, so an
        empty bucket after abort proves none happened.
        """
        config = GinjaConfig(batch=2, safety=2, batch_timeout=30.0,
                             safety_timeout=30.0, uploaders=1)
        pipe, backend, _view, _stats = make_pipeline(pools, config)
        for i in range(2):
            pipe.submit("seg", i * 512, b"u")
        blocked = threading.Event()
        errors = []

        def third_writer():
            blocked.set()
            try:
                pipe.submit("seg", 2 * 512, b"u")
            except GinjaError as exc:
                errors.append(exc)

        thread = threading.Thread(target=third_writer)
        thread.start()
        blocked.wait(timeout=2)
        time.sleep(0.05)  # let the writer reach the Safety wait
        pipe.abort()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors, "blocked writer was not released with an error"
        # No drain on abort: the queued batch never reached the cloud.
        assert backend.list("WAL/") == []
        with pytest.raises(GinjaError):
            pipe.submit("seg", 9999, b"u")

    def test_abort_is_idempotent(self, pools):
        pipe, _backend, _view, _stats = make_pipeline(pools)
        pipe.start()
        pipe.abort()
        pipe.abort()  # must not raise or hang

    def test_abort_drops_queued_uploads_instead_of_retrying_them(self, pools):
        """Abort with a backlogged upload queue against a dead cloud:
        the poisoned uploader must drop queued blobs, not burn a full
        retry budget per item (inline dispatch pre-encodes every claimed
        batch into the queue, so at crash time the backlog can be long
        and abort()'s join would wait out len(queue) retry storms)."""

        class DeadStore(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.puts = 0

            def put(self, key, data):
                self.puts += 1
                from repro.common.errors import CloudUnavailable

                raise CloudUnavailable("permanently down")

        backend = DeadStore()
        pipe, _backend, _view, _stats = make_pipeline(pools, backend=backend)
        pipe.start()
        try:
            for i in range(40):
                try:
                    pipe.submit("seg", i * 512, b"u" * 64)
                except GinjaError:
                    break  # poisoned while we were still submitting
            deadline = time.monotonic() + 5.0
            while pipe.failed is None:
                assert time.monotonic() < deadline, "pipeline never poisoned"
                time.sleep(0.005)
        finally:
            started = time.monotonic()
            pipe.abort()
            elapsed = time.monotonic() - started
        assert elapsed < 4.0, f"abort took {elapsed:.1f}s draining retries"
        # Only the puts attempted before the poison ran their retries;
        # everything queued behind the failure was dropped cold.
        assert backend.puts <= 3 * (2 + 1)  # uploaders x (budget + first try)
        # No claim job outlives abort: nothing is scheduled, nothing is
        # on a worker, and the lane's queue on the borrowed stage is
        # empty (the pools are the fixture's to stop).
        assert pipe._timer is None
        assert wait_for(lambda: pipe._claim == 0)   # a queued one no-ops
        assert pools[0].lane_depth("") == 0
        batches = _stats.wal_batches
        time.sleep(0.05)
        assert _stats.wal_batches == batches
