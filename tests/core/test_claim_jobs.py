"""The commit pipeline without a thread: claim jobs and the T_B timer.

A pipeline schedules its claim → plan → encode → upload step as a job
on the encode stage it borrows (at most one at a time, on its own
fair-share lane) and keeps T_B as a timer on the reactor it borrows.
These tests pin what a thread used to guarantee by existing: stop and
abort leave nothing of the pipeline running, a wedged codec is reported
inside a bounded wait, reactor death cannot strand an armed timer, a
claim never runs on the DBMS thread, and a cold tenant's flush is not
starved by a co-tenant's burst on a shared stage.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.reactor import UploadReactor
from repro.common import events
from repro.common.clock import ManualClock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common.events import EventBus
from repro.common.fuse import Fuse
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.encode_stage import EncodeStage
from repro.core.stats import GinjaStats

from tests.cloud.test_reactor import GatedStore, wait_for


class GateCodec(ObjectCodec):
    """Encodes normally once ``gate`` is set; counts its calls."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.calls = 0

    def encode(self, payload):
        self.calls += 1
        self.entered.set()
        assert self.gate.wait(timeout=60)
        return super().encode(payload)


class Lane:
    """One tenant on a shared stage and reactor: pipeline, bucket, view,
    counters and the ``wal_batch`` emitters' thread idents."""

    def __init__(self, stage, reactor, name, config, *, codec=None,
                 clock=SYSTEM_CLOCK, backend=None):
        self.backend = backend if backend is not None else InMemoryObjectStore()
        self.view = CloudView()
        self.bus = EventBus()
        self.stats = GinjaStats().attach(self.bus)
        self.claimed_on: list[int] = []
        self.bus.subscribe(
            lambda event: self.claimed_on.append(threading.get_ident()),
            kinds={events.WAL_BATCH},
        )
        self.pipe = CommitPipeline(
            config, self.backend, codec or ObjectCodec(), self.view, stage,
            reactor, self.bus, clock=clock, lane=name,
        )


def config(batch=1, batch_timeout=30.0, **knobs):
    return GinjaConfig(batch=batch, safety=200, batch_timeout=batch_timeout,
                       safety_timeout=600.0, uploaders=2, **knobs)


@pytest.fixture
def one_worker(pools):
    """A one-worker stage several lanes share, beside the fixture's
    reactor: whatever holds the worker holds every lane behind it."""
    stage = EncodeStage(1, name="ginja-encoder-shared")
    stage.start()
    yield stage, pools[1]
    stage.stop()


class TestStop:
    def test_stop_waits_out_a_claim_in_flight_and_nothing_runs_after(
            self, one_worker):
        codec = GateCodec()
        lane = Lane(*one_worker, "t", config(batch=2), codec=codec)
        lane.pipe.start()
        for i in range(5):                  # two full batches and a tail
            lane.pipe.submit("seg", i * 512, b"u")
        assert codec.entered.wait(5.0)      # batch 0 is on the worker
        threading.Timer(0.2, codec.gate.set).start()
        started = time.monotonic()
        # Drain gives up at once (the batch is held); _halt then waits
        # for the running claim to leave before stop() may return.
        lane.pipe.stop(drain_timeout=0.01)
        assert time.monotonic() - started >= 0.15
        assert lane.pipe._claim == 0 and lane.pipe._timer is None
        # It did not reschedule itself for the updates still queued...
        assert one_worker[0].lane_depth("t") == 0
        calls, batches = codec.calls, lane.stats.wal_batches
        assert batches == 1 and lane.pipe.pending_updates() > 0
        time.sleep(0.1)
        # ...and nothing of the pipeline claims or encodes afterwards.
        assert (codec.calls, lane.stats.wal_batches) == (calls, batches)

    def test_a_codec_call_that_never_returns_poisons_inside_the_timeout(self):
        stage = EncodeStage(1, name="ginja-encoder-wedge")
        stage.start()
        reactor = UploadReactor(inflight_window=4).start()
        codec = GateCodec()                 # the gate stays shut: wedged
        lane = Lane(stage, reactor, "t", config(), codec=codec)
        lane.pipe.start()
        try:
            lane.pipe.submit("seg", 0, b"u")
            assert codec.entered.wait(5.0)
            started = time.monotonic()
            lane.pipe._halt(join_timeout=0.2)
            assert 0.15 <= time.monotonic() - started < 2.0
            assert isinstance(lane.pipe.failed, GinjaError)
            assert "claim job failed to stop" in str(lane.pipe.failed)
            with pytest.raises(GinjaError):
                lane.pipe.submit("seg", 512, b"u")
            # The leak stays visible: the stage names the worker the
            # claim holds, and the thread is still on the census.
            with pytest.raises(GinjaError, match="ginja-encoder-wedge-0"):
                stage.stop(join_timeout=0.1)
            assert "ginja-encoder-wedge-0" in {
                t.name for t in threading.enumerate()
            }
        finally:
            codec.gate.set()
            stage.stop()
            reactor.stop()


class TestAbortOnASharedStage:
    def test_a_claim_queued_behind_a_co_tenant_is_a_no_op(self, one_worker):
        hot_codec = GateCodec()
        hot = Lane(*one_worker, "hot", config(), codec=hot_codec)
        cold = Lane(*one_worker, "cold", config())
        hot.pipe.start()
        cold.pipe.start()
        try:
            for i in range(3):
                hot.pipe.submit("seg", i * 512, b"h")
            assert hot_codec.entered.wait(5.0)      # hot holds the worker
            cold.pipe.submit("seg", 0, b"c")
            assert one_worker[0].lane_depth("cold") == 1    # queued behind
            ts_before = cold.view.last_assigned_ts()
            started = time.monotonic()
            cold.pipe.abort()               # does not wait for a queued job
            assert time.monotonic() - started < 1.0
            hot_codec.gate.set()
            # The co-tenant never noticed...
            assert hot.pipe.drain(timeout=10.0)
            assert len(hot.backend.list("WAL/")) == 3
            # ...and the dead tenant's claim ran as a no-op: no batch,
            # no timestamp taken from the view, nothing in the bucket.
            assert wait_for(lambda: one_worker[0].lane_depth("cold") == 0)
            assert wait_for(lambda: cold.pipe._claim == 0)
            assert cold.stats.wal_batches == 0 and cold.claimed_on == []
            assert cold.view.last_assigned_ts() == ts_before
            assert cold.backend.list("WAL/") == []
        finally:
            hot_codec.gate.set()
            hot.pipe.stop(drain_timeout=5.0)


class TestReactorDeath:
    def test_reactor_death_with_a_timer_armed_poisons(self, pools):
        reactor = UploadReactor(inflight_window=4).start()
        clock = ManualClock()
        lane = Lane(pools[0], reactor, "t", config(batch=100), clock=clock)
        lane.pipe.start()
        lane.pipe.submit("seg", 0, b"u")
        assert wait_for(lambda: clock._deadlines)       # T_B is armed
        reactor.crash()
        assert wait_for(lambda: lane.pipe.failed is not None)
        with pytest.raises(GinjaError):
            lane.pipe.submit("seg", 512, b"u")
        assert lane.pipe.drain(timeout=0.05) is False   # fails, not hangs
        clock.advance(60.0)                 # the deadline went with the loop
        lane.pipe.abort()
        assert lane.stats.wal_batches == 0

    def test_a_borrowed_pool_stopped_under_the_pipeline_poisons_it(self, pools):
        """A stopped reactor fires the attached lane's ``on_fatal`` and a
        stopped stage the first submit that has a claim to schedule:
        either way, what the DBMS thread gets is the pipeline's own
        failure."""
        reactor = UploadReactor(inflight_window=4).start()
        armer = Lane(pools[0], reactor, "armer", config(batch=100))
        armer.pipe.start()
        reactor.stop()
        with pytest.raises(GinjaError, match="commit pipeline failed"):
            armer.pipe.submit("seg", 0, b"u")
        assert "not running" in str(armer.pipe.failed)
        armer.pipe.abort()

        stage = EncodeStage(1, name="ginja-encoder-gone")
        claimer = Lane(stage, pools[1], "claimer", config(batch=1))
        claimer.pipe.start()                # the stage was never started
        with pytest.raises(GinjaError, match="commit pipeline failed"):
            claimer.pipe.submit("seg", 0, b"u")
        assert "not running" in str(claimer.pipe.failed)
        assert claimer.pipe._claim == 0
        claimer.pipe.abort()

    def test_a_reactor_stopped_under_a_writer_blocked_on_s_fails_it(
            self, pools):
        """The stop cancels the PUT in flight and leaves the rest
        unsent: the writer parked on S behind them must get the
        failure, not wait for an ack that can never come."""

        class SlowStore(InMemoryObjectStore):
            def put(self, key, data):
                time.sleep(0.3)
                super().put(key, data)

        reactor = UploadReactor(inflight_window=4).start()
        lane = Lane(pools[0], reactor, "t", GinjaConfig(
            batch=1, safety=1, batch_timeout=30.0, safety_timeout=600.0,
            uploaders=1,
        ), backend=SlowStore())
        failed_at = []

        def writer():
            try:
                for i in range(3):
                    lane.pipe.submit("seg", i * 512, b"u")
            except GinjaError:
                failed_at.append(time.monotonic())

        lane.pipe.start()
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            # Two unconfirmed > S = 1: the writer is parked, one PUT on
            # the wire and one queued behind it.
            assert wait_for(lambda: lane.pipe.pending_updates() == 2)
            def wire_and_queue():
                health = reactor.health()["tenants"]["t"]
                return health["inflight"], health["queued"]

            assert wait_for(lambda: wire_and_queue() == (1, 1))
            stopped_at = time.monotonic()
            reactor.stop()
            thread.join(timeout=1.0)
            assert failed_at and failed_at[0] - stopped_at < 1.0
            assert "not running" in str(lane.pipe.failed)
        finally:
            lane.pipe.abort()
            reactor.stop()

    def test_a_crash_accounts_every_object_queued_behind_a_gated_put(
            self, pools):
        """Requests the loop's death orphans still settle through their
        ``on_done``: every encoded WAL object that never acked is an
        ``upload_dropped``."""
        reactor = UploadReactor(inflight_window=4).start()
        store = GatedStore()
        lane = Lane(pools[0], reactor, "t", GinjaConfig(
            batch=1, safety=200, batch_timeout=30.0, safety_timeout=600.0,
            uploaders=1,
        ), backend=store)
        lane.pipe.start()
        try:
            reactor.submit(store, "gate", b"x", tenant="t")   # the window
            assert wait_for(lambda: store.concurrent == 1)
            for i in range(4):
                lane.pipe.submit("seg", i * 512, b"u")
            assert wait_for(
                lambda: reactor.health()["tenants"]["t"]["queued"] == 4
            )
            reactor.crash()
            assert wait_for(lambda: lane.stats.uploads_dropped == 4)
            assert lane.pipe.failed is not None
            assert lane.backend.list("WAL/") == []
        finally:
            store.release.set()
            lane.pipe.abort()


class TestSettle:
    def test_settle_waits_for_a_due_timer_the_loop_has_not_run(self, pools):
        """T_B's deadline has passed, but the reactor loop is held and
        has not run its timer: nothing is claimed or in flight, and
        ``settle`` must still wait until that partial batch is acked."""
        clock = ManualClock()
        lane = Lane(*pools, "t", config(batch=100), clock=clock)
        lane.pipe.start()
        hold = threading.Event()
        try:
            lane.pipe.submit("seg", 0, b"u")
            assert wait_for(lambda: clock._deadlines)       # T_B is armed
            pools[1]._loop.call_soon_threadsafe(hold.wait, 5.0)
            clock.advance(31.0)             # due; its release queues behind
            threading.Timer(0.1, hold.set).start()
            lane.pipe.settle()
            assert lane.pipe.pending_updates() == 0
            assert lane.stats.wal_batches == 1
            lane.pipe.settle()              # settled stays settled: no wait
        finally:
            hold.set()
            lane.pipe.stop(drain_timeout=5.0)

    def test_settle_raises_once_the_fuse_blows(self, pools):
        lane = Lane(*pools, "t", config(batch=100), clock=ManualClock())
        lane.pipe.start()
        lane.pipe.submit("seg", 0, b"u")
        lane.pipe.abort()
        with pytest.raises(GinjaError, match="commit pipeline failed"):
            lane.pipe.settle()


class TestNeverOnTheSubmittingThread:
    def test_a_claim_runs_on_a_worker_at_b_1(self, one_worker):
        lane = Lane(*one_worker, "t", config())
        lane.pipe.start()
        try:
            for i in range(10):
                lane.pipe.submit("seg", i * 512, b"u")
            assert lane.pipe.drain(timeout=5.0)
            assert lane.claimed_on
            assert threading.get_ident() not in lane.claimed_on
        finally:
            lane.pipe.stop(drain_timeout=5.0)

    def test_a_saturated_stage_delays_the_claim_not_the_submitter(
            self, one_worker):
        stage, _reactor = one_worker
        gate = threading.Event()
        stage.submit(gate.wait, Fuse(), lane="other")
        assert wait_for(lambda: stage.queue_depth() == 0)   # worker is held
        lane = Lane(*one_worker, "t", config())
        lane.pipe.start()
        try:
            started = time.monotonic()
            lane.pipe.submit("seg", 0, b"u")    # full batch, no free worker
            assert time.monotonic() - started < 1.0
            time.sleep(0.05)
            assert lane.claimed_on == [] and lane.pipe.pending_updates() == 1
            gate.set()
            assert lane.pipe.drain(timeout=5.0)
            assert lane.claimed_on
            assert threading.get_ident() not in lane.claimed_on
        finally:
            gate.set()
            lane.pipe.stop(drain_timeout=5.0)


class TestFairness:
    def test_a_cold_tb_flush_is_not_queued_behind_a_co_tenants_burst(
            self, one_worker):
        stage, _reactor = one_worker
        clock = ManualClock()
        cold = Lane(*one_worker, "cold", config(batch=100), clock=clock)
        queued = []
        cold.bus.subscribe(queued.append, kinds={events.CLAIM_QUEUED})
        ran = []                            # hot jobs, in execution order
        cold.bus.subscribe(lambda event: ran.append("cold-claim"),
                           kinds={events.WAL_BATCH})
        gate = threading.Event()
        stage.submit(gate.wait, Fuse(), lane="hot")
        assert wait_for(lambda: stage.queue_depth() == 0)   # worker is held
        for i in range(200):
            stage.submit(lambda i=i: ran.append(i), Fuse(), lane="hot")
        cold.pipe.start()
        try:
            cold.pipe.submit("seg", 0, b"u")
            assert queued == []             # a partial batch: T_B armed only
            clock.advance(31.0)             # T_B fires on the loop...
            assert wait_for(lambda: queued)
            event = queued[0]               # ...and only schedules the claim
            assert (event.key, event.count, event.at) == ("cold", 1, 31.0)
            assert event.total == 201
            assert ran == []
            gate.set()
            assert cold.pipe.drain(timeout=10.0)
            # Round-robin over non-empty lanes: at most one hot job was
            # served before the cold tenant's claim, not the burst.
            assert ran.index("cold-claim") <= 1
            assert wait_for(lambda: len(ran) == 201)
        finally:
            gate.set()
            cold.pipe.stop(drain_timeout=5.0)
