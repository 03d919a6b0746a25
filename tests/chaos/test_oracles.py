"""Oracle soundness — including the mutation checks proving they bite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common import events
from repro.common.events import Event
from repro.chaos import SCENARIOS, run_drill
from repro.chaos.campaign import mutation_check
from repro.chaos.oracles import (
    Disaster,
    _billing_oracle,
    _gc_oracle,
    run_oracles,
)
from repro.chaos.scenarios import Scenario
from repro.core.data_model import CHECKPOINT, DUMP, DBObjectMeta, WALObjectMeta
from repro.db.profiles import POSTGRES_PROFILE


def _gc_event(key: str, ok: bool = True) -> Event:
    return Event(kind=events.GC_DELETE, key=key, ok=ok)


def _disaster(snapshot: dict, evts: list[Event]) -> Disaster:
    return Disaster(
        scenario=Scenario(name="synthetic"), seed=0,
        snapshot=snapshot, committed={}, events=evts,
    )


class TestGCOracle:
    def test_covered_wal_delete_passes(self):
        checkpoint = DBObjectMeta(ts=10, type=CHECKPOINT, size=3)
        snapshot = {checkpoint.key: b"x"}
        deleted = WALObjectMeta(ts=7, filename="wal", offset=0)
        verdict = _gc_oracle(_disaster(snapshot, [_gc_event(deleted.key)]))
        assert verdict.ok

    def test_uncovered_wal_delete_fails(self):
        """A GC bug that deletes a WAL object *beyond* the checkpoint
        frontier destroys committed updates — the oracle must see it."""
        checkpoint = DBObjectMeta(ts=10, type=CHECKPOINT, size=3)
        snapshot = {checkpoint.key: b"x"}
        deleted = WALObjectMeta(ts=11, filename="wal", offset=0)
        verdict = _gc_oracle(_disaster(snapshot, [_gc_event(deleted.key)]))
        assert not verdict.ok
        assert deleted.key in verdict.detail

    def test_incomplete_group_does_not_cover(self):
        """A half-uploaded checkpoint (part 0 of 2) is unusable for
        recovery, so WAL deletes against its frontier are violations."""
        part = DBObjectMeta(ts=10, type=CHECKPOINT, size=3,
                            part=0, nparts=2)
        snapshot = {part.key: b"x"}
        deleted = WALObjectMeta(ts=7, filename="wal", offset=0)
        verdict = _gc_oracle(_disaster(snapshot, [_gc_event(deleted.key)]))
        assert not verdict.ok

    def test_db_delete_requires_superseding_dump(self):
        old = DBObjectMeta(ts=5, type=CHECKPOINT, size=3, seq=1)
        dump = DBObjectMeta(ts=9, type=DUMP, size=3, seq=2)
        verdict = _gc_oracle(
            _disaster({dump.key: b"x"}, [_gc_event(old.key)])
        )
        assert verdict.ok
        verdict = _gc_oracle(_disaster({}, [_gc_event(old.key)]))
        assert not verdict.ok

    def test_failed_deletes_are_ignored(self):
        deleted = WALObjectMeta(ts=99, filename="wal", offset=0)
        verdict = _gc_oracle(
            _disaster({}, [_gc_event(deleted.key, ok=False)])
        )
        assert verdict.ok


class TestGCOracleOnBatchedGC:
    """GC is one batch DELETE per checkpoint, but it is narrated — and
    judged — per key.  A mutant request that also carries one WAL key
    above the DB frontier must be caught from those events; one event
    per *request* (under its first key) would wave it through."""

    def _checkpoint(self, reactor, mutate):
        from repro.cloud.memory import InMemoryObjectStore
        from repro.cloud.transport import TransportLayer, build_transport
        from repro.chaos.crashpoints import EventLog
        from repro.common.events import EventBus
        from repro.core.checkpointer import (
            CheckpointCollector,
            CheckpointUploader,
        )
        from repro.core.cloud_view import CloudView
        from repro.core.codec import ObjectCodec
        from repro.core.config import GinjaConfig
        from repro.storage.memory import MemoryFileSystem

        bus = EventBus()
        log = EventLog().attach(bus)
        backend = InMemoryObjectStore()
        config = GinjaConfig(max_retries=0)
        view = CloudView()
        wals = []

        def confirm_wal():
            ts = view.next_wal_ts()
            meta = WALObjectMeta(ts=ts, filename="seg", offset=ts * 512)
            backend.put(meta.key, b"w")
            view.add_wal(meta)
            wals.append(meta)

        class GreedyGC(TransportLayer):
            """Sits where the uploader's requests enter the transport:
            the reactor awaits the async batch DELETE."""

            async def _adelete_request(self, keys):
                if mutate:
                    keys = keys + [wals[-1].key]  # one past the frontier
                await super()._adelete_request(keys)

        transport = GreedyGC(build_transport(backend, config, bus=bus))
        uploader = CheckpointUploader(config, transport, view, reactor, bus)
        fs = MemoryFileSystem()
        fs.write("base/t", 0, b"\x00" * 64)
        collector = CheckpointCollector(
            config, ObjectCodec(), view, fs, POSTGRES_PROFILE,
            uploader.enqueue, bus,
        )
        uploader.start()
        for _ in range(3):
            confirm_wal()
        collector.begin()       # frontier: ts 2
        confirm_wal()           # ts 3 lands during the checkpoint
        collector.add_write("base/t", 0, b"x")
        collector.end()
        assert uploader.drain(timeout=10.0)
        uploader.stop()
        return _disaster(backend.snapshot(), log.upto()), wals

    def test_honest_batch_passes(self, reactor):
        disaster, wals = self._checkpoint(reactor, mutate=False)
        assert wals[3].key in disaster.snapshot
        verdict = _gc_oracle(disaster)
        assert verdict.ok and "3 GC delete(s)" in verdict.detail

    def test_mutant_batch_is_flagged_from_the_per_key_events(self, reactor):
        disaster, wals = self._checkpoint(reactor, mutate=True)
        assert wals[3].key not in disaster.snapshot  # the damage is real
        verdict = _gc_oracle(disaster)
        assert not verdict.ok
        assert wals[3].key in verdict.detail


class TestBillingOracle:
    def test_missing_meter_fails(self):
        assert not _billing_oracle(_disaster({}, [])).ok

    def test_oversized_batch_fails(self):
        from repro.cloud.metering import RequestMeter

        disaster = _disaster({}, [Event(kind=events.WAL_BATCH, count=6)])
        disaster.meter = RequestMeter()
        verdict = _billing_oracle(disaster)
        assert not verdict.ok
        assert "exceeded B=5" in verdict.detail

    def test_within_envelope_passes(self):
        from repro.cloud.metering import RequestMeter

        disaster = _disaster({}, [])
        disaster.meter = RequestMeter()
        assert _billing_oracle(disaster).ok


class TestDrillOracles:
    def test_healthy_drill_passes_every_oracle(self):
        result = run_drill(SCENARIOS["baseline"], "during-gc", seed=0)
        assert result.ok, result.summary()
        assert [v.name for v in result.verdicts] \
            == ["rpo", "recovery", "gc", "billing", "liveness"]

    def test_end_of_run_point_uses_fallback_snapshot(self):
        result = run_drill(SCENARIOS["baseline"], "end-of-run", seed=0)
        assert not result.triggered
        assert result.ok, result.summary()

    def test_oracles_judge_disaster_not_live_state(self):
        """run_oracles works from the frozen Disaster alone."""
        result = run_drill(SCENARIOS["baseline"], "post-ack", seed=1)
        assert result.ok, result.summary()


class TestMutationCheck:
    """Acceptance: disabling the Safety back-pressure (unbounded S under
    a permanent outage) must make the RPO oracle report a violation,
    while the bounded control drill stays green."""

    def test_rpo_oracle_has_teeth(self):
        outcome = mutation_check(seed=0)
        assert outcome["detected"], (
            outcome["mutant"].summary(),
            outcome["control"].summary(),
        )
        mutant_rpo = next(v for v in outcome["mutant"].verdicts
                          if v.name == "rpo")
        assert not mutant_rpo.ok
        assert "bound S+B+1 = 26" in mutant_rpo.detail
        # The mutant's damage is *only* an RPO violation: the disaster
        # image itself still recovers to a consistent database.
        others = [v for v in outcome["mutant"].verdicts if v.name != "rpo"]
        assert all(v.ok for v in others)
