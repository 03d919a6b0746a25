"""The event bus, the trace recorder and the stats bridge."""

from __future__ import annotations

import pytest

from repro.core import events
from repro.core.events import Event, EventBus, TraceRecorder
from repro.core.stats import GinjaStats


def put_end(nbytes=10, latency=0.5, ok=True):
    return Event(kind=events.PUT_END, verb="PUT", nbytes=nbytes,
                 latency=latency, ok=ok)


class TestEventBus:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(events.RETRY, verb="PUT", attempt=2)
        (event,) = seen
        assert event.kind == events.RETRY
        assert event.attempt == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handle = bus.subscribe(seen.append)
        bus.unsubscribe(handle)
        bus.emit(events.RETRY)
        assert seen == []

    def test_raising_subscriber_is_counted_not_propagated(self):
        bus = EventBus()

        def bad(_event):
            raise RuntimeError("observability bug")

        seen = []
        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.emit(events.RETRY)  # must not raise
        assert len(seen) == 1  # later subscribers still served
        assert bus.subscriber_errors == 1

    def test_emit_without_subscribers_is_a_noop(self):
        EventBus().emit(events.RETRY)  # must not build or raise anything


class TestWants:
    def test_null_bus_wants_nothing(self):
        from repro.common.events import NULL_BUS
        assert not NULL_BUS.wants(events.RETRY)
        assert not NULL_BUS.wants(events.QUEUE_DEPTH)

    def test_wildcard_subscriber_wants_everything(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        assert bus.wants(events.RETRY)
        assert bus.wants("made-up-kind")

    def test_filtered_subscriber_wants_only_its_kinds(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds={events.RETRY, events.CODEC})
        assert bus.wants(events.RETRY)
        assert bus.wants(events.CODEC)
        assert not bus.wants(events.QUEUE_DEPTH)

    def test_unsubscribe_retracts_wants(self):
        bus = EventBus()
        handle = bus.subscribe(lambda e: None, kinds={events.RETRY})
        assert bus.wants(events.RETRY)
        bus.unsubscribe(handle)
        assert not bus.wants(events.RETRY)

    def test_filtered_subscriber_never_sees_other_kinds(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds={events.RETRY})
        bus.emit(events.RETRY, attempt=1)
        bus.emit(events.CODEC, nbytes=5)  # no audience at all -> not built
        wild = []
        bus.subscribe(wild.append)
        bus.emit(events.CODEC, nbytes=7)  # wildcard gets it, filter does not
        assert [e.kind for e in seen] == [events.RETRY]
        assert [e.kind for e in wild] == [events.CODEC]

    def test_emit_skips_event_construction_without_audience(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds={events.RETRY})
        # kwargs invalid for Event: would raise if the Event were built.
        bus.emit(events.CODEC, not_a_field=1)
        with pytest.raises(TypeError):
            bus.emit(events.RETRY, not_a_field=1)


class TestTraceRecorder:
    def test_ring_buffer_bounds_retention(self):
        recorder = TraceRecorder(capacity=3)
        for n in range(5):
            recorder(put_end(nbytes=n))
        assert recorder.seen == 5
        assert recorder.dropped == 2
        assert [e.nbytes for e in recorder.events()] == [2, 3, 4]

    def test_aggregates_survive_ring_wrap(self):
        recorder = TraceRecorder(capacity=2)
        for _ in range(10):
            recorder(put_end(nbytes=7, latency=0.1))
        trace = recorder.per_verb()["PUT"]
        assert trace.count == 10
        assert trace.nbytes == 70
        assert trace.latency_total == pytest.approx(1.0)

    def test_errors_and_retries_folded_per_verb(self):
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        bus.emit(events.PUT_END, verb="PUT", nbytes=4, latency=2.0)
        bus.emit(events.PUT_END, verb="PUT", ok=False, latency=0.1)
        bus.emit(events.RETRY, verb="PUT", attempt=1)
        bus.emit(events.RETRY, verb="PUT", attempt=2)
        trace = recorder.per_verb()["PUT"]
        assert trace.count == 1      # only successful requests
        assert trace.errors == 1
        assert trace.retries == 2
        assert trace.latency_max == pytest.approx(2.0)
        assert trace.mean_latency == pytest.approx(2.0)

    def test_events_filtered_by_kind(self):
        recorder = TraceRecorder()
        recorder(put_end())
        recorder(Event(kind=events.RETRY, verb="PUT"))
        assert [e.kind for e in recorder.events(events.RETRY)] \
            == [events.RETRY]

    def test_kind_counts(self):
        recorder = TraceRecorder()
        recorder(put_end())
        recorder(put_end())
        recorder(Event(kind=events.GC_DELETE, ok=False))
        assert recorder.kind_counts() == {events.PUT_END: 2,
                                          events.GC_DELETE: 1}

    def test_render_mentions_verbs_and_event_counts(self):
        bus = EventBus()
        recorder = TraceRecorder().attach(bus)
        bus.emit(events.PUT_END, verb="PUT", nbytes=100, latency=0.25)
        bus.emit(events.RETRY, verb="PUT", attempt=1)
        text = recorder.render()
        assert "PUT" in text
        assert "retry=1" in text

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestStatsBridge:
    """GinjaStats counters are sourced solely from bus events."""

    def bridge(self):
        bus = EventBus()
        stats = GinjaStats().attach(bus)
        return bus, stats

    def test_retry_and_gc_events(self):
        bus, stats = self.bridge()
        bus.emit(events.RETRY, verb="PUT", attempt=1)
        bus.emit(events.GC_DELETE, ok=True)
        bus.emit(events.GC_DELETE, ok=False)
        snap = stats.snapshot()
        assert snap["upload_retries"] == 1
        assert snap["gc_deletes"] == 1
        assert snap["gc_delete_failures"] == 1

    def test_wal_and_db_traffic_events(self):
        bus, stats = self.bridge()
        bus.emit(events.WAL_OBJECT, key="WAL/0", nbytes=100)
        bus.emit(events.WAL_BATCH, count=2, nbytes=300, total=16384)
        bus.emit(events.DB_OBJECT, key="DB/0", nbytes=50)
        bus.emit(events.DUMP_COMPLETE, count=1)
        snap = stats.snapshot()
        assert snap["wal_objects"] == 1
        assert snap["wal_bytes"] == 100
        assert snap["wal_batches"] == 1
        assert snap["wal_planned_bytes"] == 300
        assert snap["wal_submitted_bytes"] == 16384
        assert snap["db_objects"] == 1
        assert snap["db_bytes"] == 50
        assert snap["dumps"] == 1

    def test_blocking_events(self):
        bus, stats = self.bridge()
        bus.emit(events.COMMIT_BLOCKED, count=5)
        bus.emit(events.COMMIT_UNBLOCKED, latency=0.75)
        snap = stats.snapshot()
        assert snap["blocks"] == 1
        assert snap["blocked_seconds"] == pytest.approx(0.75)

    def test_snapshot_covers_every_field(self):
        import dataclasses

        stats = GinjaStats()
        snap = stats.snapshot()
        assert set(snap) == {f.name for f in dataclasses.fields(stats)}
