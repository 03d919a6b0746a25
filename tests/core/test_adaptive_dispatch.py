"""The adaptive encode dispatch controller (inline↔pool self-tuning).

Unit-tests the decision rules on a virtual clock with synthetic
telemetry (promotion when encode dominates and spare workers exist,
demotion when the pool stops winning, geometric re-promotion penalty so
the controller never flaps), then integration-tests the pipeline across
forced mode transitions: replay equivalence, lane fairness over a
shared stage after one lane demotes, and the poison discipline when a
job dies mid-transition.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import GinjaError
from repro.common.events import EventBus
from repro.core import events as core_events
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.encode_stage import (
    DISPATCH_INLINE,
    DISPATCH_POOL,
    DispatchController,
    EncodeStage,
)
from repro.core.stats import GinjaStats
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport

from tests.core.test_encode_stage import make_pipeline, replay_backend


class StubStage:
    """Just enough of the EncodeStage surface for decision tests."""

    def __init__(self, workers: int = 4, spare: int = 4, depth: int = 0):
        self.workers = workers
        self.spare = spare
        self.depth = depth
        self.running = True

    def spare_workers(self) -> int:
        return self.spare

    def lane_depth(self, lane: str = "") -> int:
        return self.depth


def make_controller(clock, *, policy="adaptive", stage=None, window=4,
                    hysteresis=1.15, bus=None, lane="t1", cpus=4):
    # cpus defaults to 4 so the decision tests exercise promotion even
    # when the test runner itself has a single core.
    return DispatchController(
        policy=policy, stage=stage, lane=lane, window=window,
        hysteresis=hysteresis, clock=clock, bus=bus, cpus=cpus,
    )


def drive(ctrl, clock, batches, *, interval=0.010, encode=0.0, unlock=None):
    """Feed ``batches`` synthetic batch cycles and return the modes."""
    modes = []
    for _ in range(batches):
        clock.advance(interval)
        if encode:
            ctrl.observe_encode(encode)
        modes.append(ctrl.on_batch())
        if unlock is not None:
            ctrl.observe_unlock(unlock)
    return modes


class TestControllerDecisions:
    def test_adaptive_starts_inline(self):
        ctrl = make_controller(ManualClock(), stage=StubStage())
        assert ctrl.mode == DISPATCH_INLINE
        assert ctrl.on_batch() == DISPATCH_INLINE

    def test_pinned_policies_never_move(self):
        clock = ManualClock()
        stage = StubStage()
        pool = make_controller(clock, policy="pool", stage=stage)
        inline = make_controller(clock, policy="inline", stage=stage)
        assert pool.mode == DISPATCH_POOL
        # Encode dominating the interval would promote adaptive; the
        # pinned policies must ignore it in both directions.
        assert set(drive(pool, clock, 20, encode=0.009)) == {DISPATCH_POOL}
        assert set(drive(inline, clock, 20, encode=0.009)) == {DISPATCH_INLINE}
        assert pool.transitions == [] and inline.transitions == []

    def test_promotes_when_encode_dominates_and_spare_workers(self):
        clock = ManualClock()
        ctrl = make_controller(clock, stage=StubStage(spare=2), window=4)
        modes = drive(ctrl, clock, 10, encode=0.008)
        assert modes[0] == DISPATCH_INLINE
        assert ctrl.mode == DISPATCH_POOL
        assert len(ctrl.transitions) == 1
        assert ctrl.transitions[0]["to"] == DISPATCH_POOL
        assert "dominates" in ctrl.transitions[0]["reason"]

    def test_no_promotion_when_encode_is_cheap(self):
        clock = ManualClock()
        ctrl = make_controller(clock, stage=StubStage(), window=4)
        drive(ctrl, clock, 50, encode=0.001)  # 10% share < 0.5
        assert ctrl.mode == DISPATCH_INLINE

    def test_no_promotion_without_spare_workers(self):
        clock = ManualClock()
        ctrl = make_controller(clock, stage=StubStage(spare=0), window=4)
        drive(ctrl, clock, 50, encode=0.009)
        assert ctrl.mode == DISPATCH_INLINE

    def test_no_promotion_on_a_single_core_machine(self):
        """The original regression: on one CPU an idle pool worker is
        not spare capacity, so even a dominating encode share must not
        promote — pooled dispatch can only add hand-off overhead there."""
        clock = ManualClock()
        ctrl = make_controller(clock, stage=StubStage(), window=4, cpus=1)
        drive(ctrl, clock, 50, encode=0.009)
        assert ctrl.mode == DISPATCH_INLINE
        assert ctrl.transitions == []

    @staticmethod
    def _promoted(clock, stage):
        """A controller driven just past promotion (12ms inline unlock
        baseline, pool dwell shorter than the decision window)."""
        ctrl = make_controller(clock, stage=stage, window=4)
        drive(ctrl, clock, 6, encode=0.008, unlock=0.012)
        assert ctrl.mode == DISPATCH_POOL
        return ctrl

    def test_demotes_when_pool_stops_beating_inline_baseline(self):
        clock = ManualClock()
        ctrl = self._promoted(clock, StubStage())
        # Pooled unlocks come back *no better* than inline (the 1-CPU
        # picture): must demote once the dwell window passes.
        drive(ctrl, clock, 20, encode=0.008, unlock=0.012)
        assert ctrl.mode == DISPATCH_INLINE
        assert ctrl.transitions[-1]["to"] == DISPATCH_INLINE
        assert "not beating" in ctrl.transitions[-1]["reason"]

    def test_stays_promoted_while_pool_wins(self):
        clock = ManualClock()
        ctrl = self._promoted(clock, StubStage())
        # Pool beats the 12ms baseline by far more than the hysteresis.
        drive(ctrl, clock, 40, encode=0.008, unlock=0.004)
        assert ctrl.mode == DISPATCH_POOL
        assert len(ctrl.transitions) == 1

    def test_demotes_when_lane_backlogs(self):
        clock = ManualClock()
        stage = StubStage(workers=2)
        ctrl = self._promoted(clock, stage)
        stage.depth = 20  # 10x the pool size: the shared pool is drowning
        drive(ctrl, clock, 20, encode=0.008, unlock=0.004)
        assert ctrl.mode == DISPATCH_INLINE
        assert "backlog" in ctrl.transitions[-1]["reason"]

    def test_demotes_when_stage_stops(self):
        clock = ManualClock()
        stage = StubStage()
        ctrl = self._promoted(clock, stage)
        stage.running = False
        drive(ctrl, clock, 8, encode=0.008)
        assert ctrl.mode == DISPATCH_INLINE
        assert "stopped" in ctrl.transitions[-1]["reason"]

    def test_hysteresis_no_flapping(self):
        """A workload the pool never actually helps (pooled unlocks equal
        inline ones) must not oscillate: each demotion doubles the
        re-promotion penalty, so transitions stay logarithmic in the
        number of batches, not linear."""
        clock = ManualClock()
        ctrl = make_controller(clock, stage=StubStage(), window=4)
        drive(ctrl, clock, 400, encode=0.008, unlock=0.012)
        switches = len(ctrl.transitions)
        assert ctrl.transitions, "expected at least one probe"
        assert switches <= 14  # 400 batches of flapping would be ~100
        # And the gaps between probes grow geometrically.
        promotes = [t for t in ctrl.transitions if t["to"] == DISPATCH_POOL]
        gaps = [
            later["at"] - earlier["at"]
            for earlier, later in zip(promotes, promotes[1:])
        ]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_set_mode_forces_and_records(self):
        clock = ManualClock()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds={core_events.ENCODE_MODE})
        ctrl = make_controller(clock, stage=StubStage(), bus=bus)
        ctrl.set_mode(DISPATCH_POOL, reason="operator override")
        assert ctrl.mode == DISPATCH_POOL
        ctrl.set_mode(DISPATCH_POOL)  # no-op, no duplicate record
        assert len(ctrl.transitions) == 1
        ctrl.set_mode(DISPATCH_INLINE)
        assert [e.detail for e in seen] == [
            "inline->pool: operator override",
            "pool->inline: forced",
        ]
        assert all(e.key == "t1" for e in seen)
        with pytest.raises(GinjaError):
            ctrl.set_mode("sideways")

    def test_set_mode_pool_requires_stage(self):
        ctrl = make_controller(ManualClock(), stage=None)
        with pytest.raises(GinjaError):
            ctrl.set_mode(DISPATCH_POOL)

    def test_pool_policy_requires_stage(self):
        with pytest.raises(GinjaError):
            make_controller(ManualClock(), policy="pool", stage=None)

    def test_mode_events_feed_stats_rollup(self):
        clock = ManualClock()
        bus = EventBus(tenant="acme")
        stats = GinjaStats().attach(bus)
        ctrl = make_controller(clock, stage=StubStage(), bus=bus, window=4)
        drive(ctrl, clock, 8, encode=0.008)
        assert ctrl.mode == DISPATCH_POOL
        assert stats.encode_mode_switches == 1
        assert stats.tenant("acme").encode_mode_switches == 1


class TestPipelineModeTransitions:
    @staticmethod
    def _stream(seed: int, count: int = 90):
        rng = random.Random(seed)
        writes = []
        for _ in range(count):
            page = rng.randrange(16)
            data = bytes(rng.randrange(256) for _ in range(64))
            writes.append((f"seg{page % 2}", page * 512, data))
        return writes

    @staticmethod
    def _naive(writes):
        images: dict[str, bytearray] = {}
        for path, offset, data in writes:
            image = images.setdefault(path, bytearray())
            end = offset + len(data)
            if len(image) < end:
                image.extend(b"\x00" * (end - len(image)))
            image[offset:end] = data
        return {name: bytes(img) for name, img in images.items()}

    @pytest.mark.parametrize("seed", [5, 23])
    def test_replay_equivalence_across_forced_transitions(self, seed, pools):
        """inline→promoted→demoted mid-stream: the replayed images must
        match naively applying the stream in commit order — the unlock
        rule survives the controller switching under load."""
        config = GinjaConfig(batch=5, safety=200, batch_timeout=0.005,
                             safety_timeout=30.0, uploaders=3, encoders=4,
                             encode_dispatch="adaptive", compress=True)
        codec = ObjectCodec(compress=True)
        pipe, backend, view = make_pipeline(pools, config, codec=codec)
        writes = self._stream(seed)
        thirds = len(writes) // 3
        pipe.start()
        try:
            for i, (path, offset, data) in enumerate(writes):
                if i == thirds:
                    pipe.dispatch.set_mode(DISPATCH_POOL, reason="test")
                elif i == 2 * thirds:
                    pipe.dispatch.set_mode(DISPATCH_INLINE, reason="test")
                pipe.submit(path, offset, data)
            assert pipe.drain(timeout=20.0)
            assert view.confirmed_ts() == view.last_assigned_ts()
        finally:
            pipe.stop(drain_timeout=5.0)
        assert len(pipe.dispatch.transitions) >= 2
        assert replay_backend(backend, codec=codec) == self._naive(writes)

    def test_lane_fairness_preserved_after_demotion(self, pools):
        """Two lanes share one stage; one demotes to inline.  The still-
        pooled lane must keep draining (no slot starvation from the
        demoted lane's past jobs) and both streams must replay intact."""
        stage = EncodeStage(workers=2, name="shared")
        stage.start()
        pipes = {}
        backends = {}
        views = {}
        try:
            for lane in ("a", "b"):
                config = GinjaConfig(batch=5, safety=200, batch_timeout=0.005,
                                     safety_timeout=30.0, uploaders=2,
                                     encoders=2, encode_dispatch="adaptive")
                backend = InMemoryObjectStore()
                cloud = SimulatedCloud(backend=backend, time_scale=0.0)
                view = CloudView()
                transport = build_transport(cloud, config)
                pipe = CommitPipeline(
                    config, transport, ObjectCodec(), view, stage,
                    pools[1], lane=lane,
                )
                pipe.start()
                pipe.dispatch.set_mode(DISPATCH_POOL, reason="test")
                pipes[lane], backends[lane], views[lane] = pipe, backend, view
            streams = {"a": self._stream(1, 60), "b": self._stream(2, 60)}
            for i in range(60):
                for lane in ("a", "b"):
                    path, offset, data = streams[lane][i]
                    pipes[lane].submit(path, offset, data)
                if i == 30:
                    pipes["a"].dispatch.set_mode(DISPATCH_INLINE,
                                                 reason="test")
            for lane in ("a", "b"):
                assert pipes[lane].drain(timeout=20.0)
                assert views[lane].confirmed_ts() == \
                    views[lane].last_assigned_ts()
        finally:
            for pipe in pipes.values():
                pipe.stop(drain_timeout=5.0)
            stage.stop()
        assert pipes["a"].encode_mode == DISPATCH_INLINE
        assert pipes["b"].encode_mode == DISPATCH_POOL
        for lane in ("a", "b"):
            assert replay_backend(backends[lane]) == \
                self._naive(streams[lane])

    def test_poison_discipline_mid_transition(self, pools):
        """A codec fault racing a forced demotion must still poison the
        pipeline (fail submitters, re-raise on stop) no matter which
        side of the seam the dying job ran on."""
        class FaultyCodec(ObjectCodec):
            def encode(self, payload):
                if b"poison" in bytes(payload):
                    raise RuntimeError("injected codec fault")
                return super().encode(payload)

        config = GinjaConfig(batch=1, safety=10, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=2, encoders=3,
                             encode_dispatch="adaptive")
        pipe, _backend, _view = make_pipeline(pools, config, codec=FaultyCodec())
        pipe.start()
        try:
            pipe.submit("seg", 0, b"fine")
            pipe.dispatch.set_mode(DISPATCH_POOL, reason="test")
            pipe.submit("seg", 512, b"poison")
            pipe.dispatch.set_mode(DISPATCH_INLINE, reason="test")
            deadline = time.monotonic() + 5
            while pipe.failed is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert isinstance(pipe.failed, RuntimeError)
            with pytest.raises(GinjaError):
                pipe.submit("seg", 1024, b"after")
        finally:
            with pytest.raises(GinjaError):
                pipe.stop(drain_timeout=0.1)

    def test_health_reports_encode_mode(self, pools):
        config = GinjaConfig(batch=2, safety=20, batch_timeout=0.01,
                             safety_timeout=5.0, uploaders=1, encoders=2,
                             encode_dispatch="adaptive")
        pipe, _backend, _view = make_pipeline(pools, config)
        assert pipe.encode_mode == DISPATCH_INLINE
        snapshot = pipe.dispatch.snapshot()
        assert snapshot["policy"] == "adaptive"
        assert snapshot["mode"] == DISPATCH_INLINE
        assert snapshot["transitions"] == 0
