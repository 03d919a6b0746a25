"""Request throttling (S3 SlowDown model)."""

from __future__ import annotations

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import CloudUnavailable
from repro.cloud.faults import FaultPolicy, Throttle
from repro.cloud.simulated import SimulatedCloud


def throttled_cloud(rate, burst):
    clock = ManualClock()
    policy = FaultPolicy(throttle=Throttle(rate=rate, burst=burst))
    cloud = SimulatedCloud(time_scale=0.0, faults=policy, clock=clock)
    return clock, cloud


class TestThrottle:
    def test_burst_then_slowdown(self):
        _clock, cloud = throttled_cloud(rate=1.0, burst=3)
        for i in range(3):
            cloud.put(f"k{i}", b"x")  # the burst passes
        with pytest.raises(CloudUnavailable, match="SlowDown"):
            cloud.put("k3", b"x")

    def test_tokens_refill_with_time(self):
        clock, cloud = throttled_cloud(rate=2.0, burst=1)
        cloud.put("a", b"x")
        with pytest.raises(CloudUnavailable):
            cloud.put("b", b"x")
        clock.advance(1.0)  # 2 tokens accrue (capped at burst=1)
        cloud.put("b", b"x")

    def test_sustained_rate_enforced(self):
        clock, cloud = throttled_cloud(rate=5.0, burst=1)
        accepted = 0
        for _ in range(100):
            try:
                cloud.put("k", b"x")
                accepted += 1
            except CloudUnavailable:
                pass
            clock.advance(0.1)  # 10 attempts/sec against a 5/sec limit
        # ~rate x duration accepted (float refill drift rounds down some
        # windows), far below the 100 offered.
        assert 30 <= accepted <= 60

    def test_all_verbs_throttled(self):
        _clock, cloud = throttled_cloud(rate=1.0, burst=1)
        cloud.put("k", b"x")
        with pytest.raises(CloudUnavailable):
            cloud.get("k")

    def test_validation(self):
        with pytest.raises(ValueError):
            Throttle(rate=0)
        with pytest.raises(ValueError):
            Throttle(rate=1.0, burst=0)


class TestPipelineUnderThrottle:
    def test_uploads_survive_throttling_via_retries(self, reactor):
        """Ginja's retry/backoff absorbs SlowDown without losing data."""
        from repro.common.events import EventBus
        from repro.cloud.memory import InMemoryObjectStore
        from repro.cloud.transport import build_transport
        from repro.core.cloud_view import CloudView
        from repro.core.codec import ObjectCodec
        from repro.core.commit_pipeline import CommitPipeline
        from repro.core.config import GinjaConfig
        from repro.core.stats import GinjaStats

        policy = FaultPolicy(throttle=Throttle(rate=50.0, burst=5))
        backend = InMemoryObjectStore()
        cloud = SimulatedCloud(backend=backend, time_scale=0.0, faults=policy)
        config = GinjaConfig(batch=1, safety=100, batch_timeout=0.005,
                             safety_timeout=30.0, uploaders=4,
                             max_retries=50, retry_backoff=0.002)
        bus = EventBus()
        stats = GinjaStats().attach(bus)
        transport = build_transport(cloud, config, bus=bus)
        pipeline = CommitPipeline(config, transport, ObjectCodec(),
                                  CloudView(), reactor, bus)
        pipeline.start()
        try:
            for i in range(40):
                pipeline.submit("seg", i * 512, b"u")
            assert pipeline.drain(timeout=20.0)
            assert len(backend.list("WAL/")) == 40
            assert stats.upload_retries > 0  # throttling actually bit
        finally:
            pipeline.stop(drain_timeout=5.0)
