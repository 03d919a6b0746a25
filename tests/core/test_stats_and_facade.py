"""GinjaStats and Ginja facade edge cases."""

from __future__ import annotations

import threading

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import GinjaError
from repro.common.units import KiB
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.core.stats import GinjaStats
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


class TestGinjaStats:
    def test_add_and_snapshot(self):
        stats = GinjaStats()
        stats.add(wal_objects=2, wal_bytes=100)
        stats.add(wal_objects=1)
        snap = stats.snapshot()
        assert snap["wal_objects"] == 3
        assert snap["wal_bytes"] == 100
        assert snap["dumps"] == 0

    def test_concurrent_adds(self):
        stats = GinjaStats()

        def bump():
            for _ in range(1000):
                stats.add(blocks=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["blocks"] == 4000

    def test_float_fields(self):
        stats = GinjaStats()
        stats.add(blocked_seconds=0.5)
        stats.add(blocked_seconds=0.25)
        assert stats.snapshot()["blocked_seconds"] == pytest.approx(0.75)


def make_ginja():
    fs = MemoryFileSystem()
    MiniDB.create(fs, POSTGRES_PROFILE,
                  EngineConfig(wal_segment_size=64 * KiB)).close()
    cloud = SimulatedCloud(time_scale=0.0)
    config = GinjaConfig(batch=5, safety=50, batch_timeout=0.05,
                         safety_timeout=5.0)
    return Ginja(fs, cloud, POSTGRES_PROFILE, config), cloud


class TestFacadeLifecycle:
    def test_double_start_rejected(self):
        ginja, _cloud = make_ginja()
        ginja.start(mode="boot")
        try:
            with pytest.raises(GinjaError):
                ginja.start(mode="boot")
        finally:
            ginja.stop()

    def test_unknown_mode_rejected(self):
        ginja, _cloud = make_ginja()
        with pytest.raises(GinjaError):
            ginja.start(mode="turbo")

    def test_stop_is_idempotent(self):
        ginja, _cloud = make_ginja()
        ginja.start(mode="boot")
        ginja.stop()
        ginja.stop()  # no-op
        assert not ginja.running

    def test_boot_rejects_populated_bucket(self):
        ginja, cloud = make_ginja()
        ginja.start(mode="boot")
        ginja.stop()
        # A second instance booting into the same bucket must refuse.
        fs2 = MemoryFileSystem()
        MiniDB.create(fs2, POSTGRES_PROFILE,
                      EngineConfig(wal_segment_size=64 * KiB)).close()
        second = Ginja(fs2, cloud, POSTGRES_PROFILE,
                       GinjaConfig(batch=5, safety=50))
        from repro.common.errors import RecoveryError
        with pytest.raises(RecoveryError):
            second.start(mode="boot")

    def test_interception_only_while_running(self):
        ginja, _cloud = make_ginja()
        assert ginja.fs.interceptor is None
        ginja.start(mode="boot")
        assert ginja.fs.interceptor is ginja.processor
        ginja.stop()
        assert ginja.fs.interceptor is None

    def test_health_before_start(self):
        ginja, _cloud = make_ginja()
        health = ginja.health()
        assert not health["running"]
        assert health["pending_updates"] == 0


class _DrainRecorder:
    """Stands in for the pipeline/checkpointer: records the drain budget
    it was handed and burns ``consumes`` seconds of virtual time."""

    def __init__(self, clock, consumes):
        self._clock = clock
        self._consumes = consumes
        self.budget = None

    def stop(self, drain_timeout):
        self.budget = drain_timeout
        self._clock.advance(self._consumes)


class TestStopDeadline:
    """``stop(drain_timeout=T)`` bounds the WHOLE shutdown: the
    checkpointer drains on whatever the pipeline's drain left of the
    deadline, not on a fresh T of its own (the old behaviour could block
    ~2x the requested timeout)."""

    def _stub_ginja(self, clock, pipeline_consumes):
        fs = MemoryFileSystem()
        MiniDB.create(fs, POSTGRES_PROFILE,
                      EngineConfig(wal_segment_size=64 * KiB)).close()
        ginja = Ginja(fs, SimulatedCloud(time_scale=0.0), POSTGRES_PROFILE,
                      GinjaConfig(), clock=clock)
        ginja.pipeline = _DrainRecorder(clock, pipeline_consumes)
        ginja.checkpointer = _DrainRecorder(clock, 0.0)
        ginja._running = True  # stop() without spinning real threads
        return ginja

    def test_checkpointer_gets_the_remaining_budget(self):
        clock = ManualClock()
        ginja = self._stub_ginja(clock, pipeline_consumes=20.0)
        start = clock.now()
        ginja.stop(drain_timeout=30.0)
        assert ginja.pipeline.budget == 30.0
        assert ginja.checkpointer.budget == pytest.approx(10.0)
        assert clock.now() - start == pytest.approx(20.0)

    def test_overrun_pipeline_leaves_zero_not_a_fresh_budget(self):
        clock = ManualClock()
        ginja = self._stub_ginja(clock, pipeline_consumes=45.0)
        ginja.stop(drain_timeout=30.0)
        # The deadline passed during the pipeline drain; the checkpointer
        # must be told "no time left", never handed another 30 seconds.
        assert ginja.checkpointer.budget == 0.0
        assert not ginja.running
