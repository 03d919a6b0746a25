"""The composable transport stack and the unified retry policy."""

from __future__ import annotations

import random

import pytest

from repro.common import events
from repro.common.clock import ManualClock
from repro.common.errors import CloudError, CloudUnavailable
from repro.common.events import EventBus
from repro.cloud.faults import FaultPolicy, Outage
from repro.cloud.latency import LatencyModel
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter
from repro.cloud.retry import BACKOFF_CAP, RetryLayer, RetryPolicy
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport, describe_transport
from repro.core.config import GinjaConfig

#: Deterministic (no jitter) latency model for billing assertions.
FLAT_LATENCY = LatencyModel(put_base=0.4, get_base=0.2,
                            list_base=0.25, delete_base=0.08)


class Recorder:
    """Subscriber that just keeps every event."""

    def __init__(self, bus: EventBus | None = None):
        self.events = []
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event):
        self.events.append(event)

    def kinds(self):
        return [e.kind for e in self.events]

    def of(self, kind):
        return [e for e in self.events if e.kind == kind]


class TestAssembly:
    def test_full_stack_canonical_order(self):
        stack = build_transport(
            InMemoryObjectStore(), GinjaConfig(), latency=FLAT_LATENCY,
            faults=FaultPolicy(), metered=True, time_scale=0.0,
        )
        assert describe_transport(stack) == [
            "TracingLayer", "RetryLayer", "FaultLayer", "MeterLayer",
            "InMemoryObjectStore",
        ]

    def test_layers_included_only_when_asked(self):
        backend = InMemoryObjectStore()
        assert describe_transport(build_transport(backend, tracing=False)) \
            == ["InMemoryObjectStore"]
        assert describe_transport(build_transport(backend)) \
            == ["TracingLayer", "InMemoryObjectStore"]
        assert describe_transport(
            build_transport(backend, GinjaConfig(), tracing=False)
        ) == ["RetryLayer", "InMemoryObjectStore"]

    def test_explicit_policy_overrides_config(self):
        policy = RetryPolicy(max_retries=9)
        stack = build_transport(
            InMemoryObjectStore(), GinjaConfig(max_retries=1),
            policy=policy, tracing=False,
        )
        assert stack.policy is policy

    def test_verbs_pass_through_the_whole_stack(self):
        backend = InMemoryObjectStore()
        stack = build_transport(
            backend, GinjaConfig(), latency=FLAT_LATENCY,
            faults=FaultPolicy(), metered=True, time_scale=0.0,
        )
        stack.put("a/k", b"data")
        assert backend.get("a/k") == b"data"
        assert stack.get("a/k") == b"data"
        assert [i.key for i in stack.list("a/")] == ["a/k"]
        assert stack.exists("a/k") and not stack.exists("a")
        assert sum(info.size for info in stack.list()) == 4
        stack.delete("a/k")
        assert backend.list() == []


class TestRetryPolicy:
    def test_backoff_grows_to_the_cap(self):
        policy = RetryPolicy(base_backoff=0.25)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 5)] == \
            [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_configurable_cap_replaces_the_hardcoded_two_seconds(self):
        """The cap is the module's one constant, whatever the config's
        base backoff."""
        policy = RetryPolicy.from_config(GinjaConfig(retry_backoff=1.0))
        assert policy.backoff(12) == BACKOFF_CAP == 2.0

    def test_huge_attempt_counts_do_not_overflow(self):
        """Long-outage drills retry tens of thousands of times; the cap
        must apply before the exponential blows past float range."""
        policy = RetryPolicy(base_backoff=0.1)
        assert policy.backoff(30_000) == BACKOFF_CAP

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-0.5)
        with pytest.raises(TypeError):  # the schedule's constants
            RetryPolicy(multiplier=0.5)

    def test_from_config_reads_every_knob(self):
        config = GinjaConfig(max_retries=7, retry_backoff=0.3)
        policy = RetryPolicy.from_config(config)
        assert policy == RetryPolicy(max_retries=7, base_backoff=0.3)


class FailingStore(InMemoryObjectStore):
    """Fails the first ``n`` calls of each verb."""

    def __init__(self, failures: int):
        super().__init__()
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise CloudUnavailable("injected")

    def put(self, key, data):
        self._maybe_fail()
        super().put(key, data)

    def _delete_request(self, keys):
        self._maybe_fail()
        super()._delete_request(keys)


class TestRetryLayer:
    def test_transient_failures_absorbed_with_backoff(self):
        clock = ManualClock()
        bus = EventBus()
        rec = Recorder(bus)
        store = FailingStore(3)
        layer = RetryLayer(
            store,
            RetryPolicy(max_retries=5, base_backoff=1.0),
            clock=clock, bus=bus,
        )
        layer.put("k", b"v")
        assert store.get("k") == b"v"
        retries = rec.of(events.RETRY)
        assert [e.attempt for e in retries] == [1, 2, 3]
        # ManualClock.sleep advances time: 1.0 + 2.0 + capped 2.0.
        assert clock.now() == pytest.approx(5.0)

    def test_put_exhaustion_is_fatal(self):
        layer = RetryLayer(
            FailingStore(100),
            RetryPolicy(max_retries=2, base_backoff=0.0),
            clock=ManualClock(),
        )
        with pytest.raises(CloudError):
            layer.put("k", b"v")

    def test_delete_exhaustion_is_skipped(self):
        bus = EventBus()
        rec = Recorder(bus)
        store = FailingStore(100)
        InMemoryObjectStore.put(store, "k", b"v")  # seed, bypassing faults
        layer = RetryLayer(
            store, RetryPolicy(max_retries=1, base_backoff=0.0),
            clock=ManualClock(), bus=bus,
        )
        layer.delete("k")  # does not raise
        (failure,) = rec.of(events.GC_DELETE)
        assert failure.ok is False
        assert failure.attempt == 2  # budget 1 -> two attempts made

    def test_delete_success_emits_gc_event(self):
        bus = EventBus()
        rec = Recorder(bus)
        store = InMemoryObjectStore()
        store.put("k", b"v")
        RetryLayer(store, RetryPolicy(), bus=bus).delete("k")
        (ok,) = rec.of(events.GC_DELETE)
        assert ok.ok is True and ok.attempt == 1

    def test_zero_budget_raises_immediately(self):
        store = FailingStore(1)
        layer = RetryLayer(
            store, RetryPolicy(max_retries=0), clock=ManualClock()
        )
        with pytest.raises(CloudError):
            layer.put("k", b"v")
        assert store.calls == 1

    def test_exists_and_total_bytes_ride_the_list_budget(self):
        """Regression: the listing-class reads used to bypass the retry
        loop, so a single transient error failed recovery-side callers
        (fsck, the failure detector) that every other verb would have
        survived.  ``exists`` is ``stat`` now, and both retry."""

        class FlakyReads(FailingStore):
            def stat(self, key):
                self._maybe_fail()
                return super().stat(key)

        bus = EventBus()
        rec = Recorder(bus)
        store = FlakyReads(2)
        InMemoryObjectStore.put(store, "k", b"v" * 7)
        layer = RetryLayer(
            store, RetryPolicy(max_retries=3, base_backoff=0.0),
            clock=ManualClock(), bus=bus,
        )
        assert layer.exists("k") is True
        store.failures = store.calls + 2
        assert layer.stat("k").size == 7
        retries = rec.of(events.RETRY)
        assert len(retries) == 4
        assert {e.verb for e in retries} == {"LIST"}

    def test_exists_exhaustion_is_fatal_not_skipped(self):
        # Unlike DELETE, a listing-class read that exhausts its budget
        # must surface the error — callers branch on the answer.
        class FlakyReads(FailingStore):
            def stat(self, key):
                self._maybe_fail()
                return super().stat(key)

        layer = RetryLayer(
            FlakyReads(100), RetryPolicy(max_retries=1, base_backoff=0.0),
            clock=ManualClock(),
        )
        with pytest.raises(CloudError):
            layer.exists("k")


class TestMeterLayer:
    def build(self, faults=None):
        bus = EventBus()
        meter = RequestMeter().attach(bus)
        stack = build_transport(
            InMemoryObjectStore(), GinjaConfig(max_retries=3,
                                               retry_backoff=0.0),
            bus=bus, latency=FLAT_LATENCY, faults=faults, metered=True,
            time_scale=0.0, clock=ManualClock(),
        )
        return stack, meter

    def test_modeled_latency_billed_despite_zero_time_scale(self):
        stack, meter = self.build()
        stack.put("k", b"data")
        stack.get("k")
        stack.list()
        stack.delete("k")
        assert meter.puts.count == 1
        assert meter.puts.latency_total == pytest.approx(0.4)
        assert meter.gets.latency_total == pytest.approx(0.2)
        assert meter.lists.latency_total == pytest.approx(0.25)
        assert meter.deletes.latency_total == pytest.approx(0.08)

    def test_failed_attempts_are_not_billed(self):
        faults = FaultPolicy()
        stack, meter = self.build(faults)
        faults.fail_next(2)
        stack.put("k", b"data")  # two rejected attempts, one success
        assert meter.puts.count == 1

    def test_facade_and_direct_stack_meter_identically(self):
        ops = [("put", "a", b"xyz"), ("put", "a", b"xy"), ("get", "a"),
               ("list",), ("delete", "a")]
        cloud = SimulatedCloud(latency=FLAT_LATENCY, time_scale=0.0, seed=3)
        bus = EventBus()
        meter = RequestMeter().attach(bus)
        stack = build_transport(
            InMemoryObjectStore(), bus=bus, tracing=False,
            latency=FLAT_LATENCY, metered=True, time_scale=0.0, seed=3,
        )
        for target in (cloud, stack):
            for op, *args in ops:
                getattr(target, op)(*args)
        for verb in ("puts", "gets", "lists", "deletes"):
            facade, direct = getattr(cloud.meter, verb), getattr(meter, verb)
            assert facade.count == direct.count
            assert facade.bytes == direct.bytes
            assert facade.latency_total == pytest.approx(direct.latency_total)


class TestFaultAndTracing:
    def test_outage_event_emitted(self):
        clock = ManualClock(start=100.0)
        bus = EventBus()
        rec = Recorder(bus)
        stack = build_transport(
            InMemoryObjectStore(), bus=bus, clock=clock, tracing=False,
            faults=FaultPolicy(outages=[Outage(start=5.0, end=50.0)]),
        )
        clock.advance(10.0)  # store time 10s, inside the window
        with pytest.raises(CloudUnavailable):
            stack.put("k", b"v")
        (outage,) = rec.of(events.OUTAGE)
        assert outage.verb == "PUT"
        assert outage.detail == "5s-50s"

    def test_fault_layer_covers_listing_class_reads(self):
        # exists/stat are fault-injected like every other verb,
        # and the retry layer above them absorbs the injected errors.
        clock = ManualClock()
        faults = FaultPolicy()
        bare = build_transport(
            InMemoryObjectStore(), clock=clock, tracing=False, faults=faults,
        )
        faults.fail_next(1)
        with pytest.raises(CloudUnavailable):
            bare.exists("k")
        faults.fail_next(1)
        with pytest.raises(CloudUnavailable):
            bare.stat("k")
        retried = build_transport(
            InMemoryObjectStore(),
            GinjaConfig(max_retries=3, retry_backoff=0.0),
            clock=clock, tracing=False, faults=faults,
        )
        faults.fail_next(2)
        assert retried.exists("k") is False
        faults.fail_next(2)
        assert retried.stat("k") is None

    def test_tracing_start_end_pairs(self):
        bus = EventBus()
        rec = Recorder(bus)
        stack = build_transport(InMemoryObjectStore(), bus=bus)
        stack.put("k", b"abc")
        data = stack.get("k")
        assert data == b"abc"
        assert rec.kinds() == [events.PUT_START, events.PUT_END,
                               events.GET_START, events.GET_END]
        (end,) = rec.of(events.GET_END)
        assert end.nbytes == 3  # GET end carries the bytes received

    def test_tracing_reports_exhausted_request_as_error(self):
        bus = EventBus()
        rec = Recorder(bus)
        stack = build_transport(
            FailingStore(100),
            GinjaConfig(max_retries=1, retry_backoff=0.0),
            bus=bus, clock=ManualClock(),
        )
        with pytest.raises(CloudError):
            stack.put("k", b"v")
        (end,) = rec.of(events.PUT_END)
        assert end.ok is False

    def test_every_start_gets_its_end_whatever_the_exit(self):
        """Only a CloudError used to close the pair: an IntegrityError
        out of a striped read, or an upload task cancelled by a tenant
        abort, left a ``*_start`` that every start/end pairing then
        carried open forever."""
        import asyncio

        from repro.common.errors import IntegrityError

        class Corrupt(InMemoryObjectStore):
            def get(self, key):
                raise IntegrityError("fragment failed its checksum")

            async def aput(self, key, data):
                await asyncio.sleep(30)

        bus = EventBus()
        rec = Recorder(bus)
        stack = build_transport(Corrupt(), bus=bus)
        with pytest.raises(IntegrityError):
            stack.get("k")
        assert rec.kinds() == [events.GET_START, events.GET_END]
        assert rec.of(events.GET_END)[0].ok is False

        async def cancelled_upload():
            task = asyncio.ensure_future(stack.aput("k", b"abc"))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(cancelled_upload())
        (end,) = rec.of(events.PUT_END)
        assert (end.ok, end.key, end.nbytes) == (False, "k", 3)
        assert len(rec.of(events.PUT_START)) == 1

    def test_batch_delete_is_one_pair_under_its_first_key(self):
        bus = EventBus()
        rec = Recorder(bus)
        stack = build_transport(InMemoryObjectStore(), bus=bus)
        stack.delete_many(["WAL/3", "WAL/4", "WAL/5"])
        assert rec.kinds() == [events.DELETE_START, events.DELETE_END]
        assert [e.key for e in rec.events] == ["WAL/3", "WAL/3"]
        assert rec.events[1].ok


class TestSeedPlumbing:
    """GinjaConfig.seed feeds one shared RNG to every stochastic layer."""

    def _rngs(self, stack):
        layers, layer = [], stack
        while layer is not None:
            layers.append(layer)
            layer = getattr(layer, "inner", None)
        return [l._rng for l in layers if hasattr(l, "_rng")]

    def test_config_seed_reaches_all_stochastic_layers(self):
        stack = build_transport(
            InMemoryObjectStore(), GinjaConfig(seed=1234),
            latency=FLAT_LATENCY, faults=FaultPolicy(), metered=True,
            time_scale=0.0,
        )
        rngs = self._rngs(stack)
        assert len(rngs) == 2  # fault, latency (retry draws nothing)
        assert all(r is rngs[0] for r in rngs)  # one stream, one knob
        assert rngs[0].random() == random.Random(1234).random()

    def test_explicit_rng_overrides_config_seed(self):
        rng = random.Random(7)
        stack = build_transport(
            InMemoryObjectStore(), GinjaConfig(seed=1), rng=rng,
            metered=True, tracing=False,
        )
        assert self._rngs(stack) == [rng]
