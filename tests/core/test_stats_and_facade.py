"""GinjaStats and Ginja facade edge cases."""

from __future__ import annotations

import threading
import time

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

from tests.cloud.test_reactor import wait_for
from tests.core.test_checkpointer import GateStore


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


class TestDrainAndThreads:
    def test_drain_shares_one_deadline_between_both_pipelines(self):
        """``drain(timeout)`` bounds the whole wait, as ``stop()`` does:
        with a WAL object and a checkpoint object both parked on a store
        that never acks, ``drain(0.5)`` gives up after 0.5 s, not after
        0.5 s for each pipeline."""
        store = GateStore(hold=lambda op, key: op == "put")
        fs = MemoryFileSystem()
        engine = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
        MiniDB.create(fs, POSTGRES_PROFILE, engine).close()
        ginja = Ginja(fs, store, POSTGRES_PROFILE, GinjaConfig(
            batch=1, safety=50, batch_timeout=0.05, safety_timeout=30.0,
        ))
        ginja.start(mode="boot")
        db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, engine)
        try:
            db.put("t", "k", b"v")
            assert db.checkpoint()
            assert wait_for(lambda: any(
                key.startswith("DB/") for key in store.started("put")
            ))
            started = time.monotonic()
            assert ginja.drain(timeout=0.5) is False
            assert time.monotonic() - started < 0.75
        finally:
            store.release.set()
            db.close()
            ginja.stop()

    def test_a_lone_stack_at_b1_holds_one_reactor_and_two_encoders_at_most(
            self):
        """Encoders start on demand: none before the first commit.  A
        claim job's worker takes its successor itself, so at B = 1 a
        second encoder starts only for a commit that lands while that
        worker is still leaving a claim, and this small database's
        checkpoints are one part each — never a third."""
        def named(prefix):
            return [t.name for t in threading.enumerate()
                    if t.name.startswith(prefix)]

        fs = MemoryFileSystem()
        engine = EngineConfig(wal_segment_size=64 * KiB)
        MiniDB.create(fs, POSTGRES_PROFILE, engine).close()
        ginja = Ginja(fs, SimulatedCloud(time_scale=0.0), POSTGRES_PROFILE,
                      GinjaConfig(batch=1, safety=10, batch_timeout=0.05,
                                  safety_timeout=5.0, encoders=4))
        ginja.start(mode="boot")
        try:
            assert named("ginja-encoder-") == []
            db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, engine)
            for i in range(100):
                db.put("t", f"k{i}", b"v")
                if i % 25 == 24:
                    assert db.checkpoint()
            db.close()
            assert ginja.drain(timeout=10.0)
            assert named("ginja-reactor").count("ginja-reactor") == 1
            assert 1 <= len(named("ginja-encoder-")) <= 2
        finally:
            ginja.stop()


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
