"""Conformance of the fifth verb: ``ObjectStore.delete_many``.

One suite, every implementation and layer: the contract the base class
owns (missing keys are a no-op, no keys is no request, any length goes
out as requests of at most ``MAX_DELETE_KEYS``) and what "one request
is one of everything" means in each layer that counts something — one
latency draw, one fault check, one retry budget skipped as a unit, one
``delete_start``/``delete_end`` pair, one ``meter`` event carrying the
exact bytes removed — while ``gc_delete`` stays one event per key.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

import pytest

from repro.cloud.directory import DirectoryObjectStore
from repro.cloud.faults import FaultPolicy
from repro.cloud.interface import MAX_DELETE_KEYS, ObjectStore
from repro.cloud.latency import LatencyModel
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter, TenantMeterBank
from repro.cloud.prefix import PrefixedObjectStore, tenant_prefix
from repro.cloud.retry import RetryLayer, RetryPolicy
from repro.cloud.s3 import BotoS3Store
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import (
    FaultLayer,
    LatencyLayer,
    MeterLayer,
    TracingLayer,
    build_transport,
)
from repro.common import events
from repro.common.clock import ManualClock
from repro.common.errors import CloudError, CloudUnavailable
from repro.common.events import EventBus
from repro.placement.factory import build_placement

from tests.cloud.test_s3_adapter import _StubClient


@dataclass(frozen=True)
class CountingLatency(LatencyModel):
    """A latency model that counts its DELETE draws (class-level list:
    the dataclass is frozen)."""

    def delete_latency(self, rng=None):
        DRAWS.append("DELETE")
        return super().delete_latency(rng)


DRAWS: list[str] = []


class CountingFaults(FaultPolicy):
    def __post_init__(self):
        super().__post_init__()
        self.checks: list[str] = []

    def check(self, op, now, rng):
        self.checks.append(op)
        super().check(op, now, rng)


class FourVerbStore(ObjectStore):
    """A third-party store that knows only the four single-object verbs
    (the frozen benchmark's StoreProxy is one): the base-class fallback
    must keep it correct."""

    def __init__(self):
        self.inner = InMemoryObjectStore()
        self.deletes: list[str] = []

    def put(self, key, data):
        self.inner.put(key, data)

    def get(self, key):
        return self.inner.get(key)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def delete(self, key):
        self.deletes.append(key)
        self.inner.delete(key)


def _memory(tmp_path):
    return InMemoryObjectStore()


def _directory(tmp_path):
    return DirectoryObjectStore(tmp_path / "bucket")


def _s3(tmp_path):
    return BotoS3Store("bucket", client=_StubClient(), prefix="ginja/")


def _fallback(tmp_path):
    return FourVerbStore()


def _prefixed(tmp_path):
    return PrefixedObjectStore(InMemoryObjectStore(), tenant_prefix("acme"))


def _simulated(tmp_path):
    return SimulatedCloud(time_scale=0.0)


def _latency(tmp_path):
    return LatencyLayer(InMemoryObjectStore(), LatencyModel(delete_base=0.008),
                        clock=ManualClock())


def _fault(tmp_path):
    return FaultLayer(InMemoryObjectStore(), FaultPolicy())


def _meter(tmp_path):
    return MeterLayer(InMemoryObjectStore(), bus=EventBus())


def _retry(tmp_path):
    return RetryLayer(InMemoryObjectStore(), RetryPolicy(), clock=ManualClock())


def _tracing(tmp_path):
    return TracingLayer(InMemoryObjectStore(), bus=EventBus())


def _full_stack(tmp_path):
    return build_transport(
        InMemoryObjectStore(), policy=RetryPolicy(), clock=ManualClock(),
        latency=LatencyModel(delete_base=0.008), faults=FaultPolicy(),
        metered=True, bus=EventBus(),
    )


def _mirror(tmp_path):
    return build_placement(2, "mirror-2/q1")


def _stripe(tmp_path):
    return build_placement(3, "stripe-2-3")


IMPLEMENTATIONS = {
    "memory": _memory, "directory": _directory, "s3-stub": _s3,
    "four-verb-fallback": _fallback, "prefixed": _prefixed,
    "simulated": _simulated, "latency-layer": _latency,
    "fault-layer": _fault, "meter-layer": _meter, "retry-layer": _retry,
    "tracing-layer": _tracing, "full-stack": _full_stack,
    "mirror-2/q1": _mirror, "stripe-2-3": _stripe,
}


@pytest.fixture(params=sorted(IMPLEMENTATIONS))
def store(request, tmp_path):
    built = IMPLEMENTATIONS[request.param](tmp_path)
    yield built
    close = getattr(built, "close", None)
    if close is not None:
        close()


def keys_of(store):
    return [info.key for info in store.list()]


class TestContract:
    """What every implementation, native or fallback, must do."""

    def test_removes_the_named_keys_and_only_those(self, store):
        for i in range(6):
            store.put(f"WAL/{i}", b"x" * (i + 1))
        store.delete_many(["WAL/1", "WAL/3", "WAL/5"])
        assert keys_of(store) == ["WAL/0", "WAL/2", "WAL/4"]

    def test_missing_keys_are_a_noop(self, store):
        store.put("WAL/0", b"x")
        store.delete_many(["WAL/9", "WAL/0", "never/was"])
        store.delete_many(["WAL/0"])  # idempotent, like DELETE
        assert keys_of(store) == []

    def test_no_keys_is_fine(self, store):
        store.put("WAL/0", b"x")
        store.delete_many([])
        assert keys_of(store) == ["WAL/0"]

    def test_any_length_and_any_iterable(self, store):
        n = 2 * MAX_DELETE_KEYS + 500
        if isinstance(store, DirectoryObjectStore) or hasattr(store, "providers"):
            n = MAX_DELETE_KEYS + 5  # same slicing, a tenth of the files
        for i in range(n):
            store.put(f"WAL/{i:05d}", b"x")
        store.put("DB/keep", b"y")
        store.delete_many(f"WAL/{i:05d}" for i in range(n))  # a generator
        assert keys_of(store) == ["DB/keep"]

    def test_async_twin_or_bridge_does_the_same(self, store):
        for i in range(4):
            store.put(f"WAL/{i}", b"x")
        asyncio.run(store.adelete_many(["WAL/0", "WAL/2", "WAL/7"]))
        asyncio.run(store.adelete_many([]))
        assert keys_of(store) == ["WAL/1", "WAL/3"]


class TestOneRequestIsOneOfEverything:
    def _stack(self):
        DRAWS.clear()
        bus = EventBus()
        seen: list = []
        bus.subscribe(seen.append)
        faults = CountingFaults()
        meter = RequestMeter().attach(bus)
        stack = build_transport(
            InMemoryObjectStore(), policy=RetryPolicy(max_retries=1),
            clock=ManualClock(), latency=CountingLatency(delete_base=0.008),
            faults=faults, metered=True, bus=bus,
        )
        return stack, bus, seen, faults, meter

    def _kinds(self, seen, kind):
        return [event for event in seen if event.kind == kind]

    def test_2500_keys_are_three_requests_in_every_layer(self):
        stack, _bus, seen, faults, meter = self._stack()
        keys = [f"WAL/{i:05d}" for i in range(2500)]
        for key in keys:
            stack.put(key, b"abc")
        stored = meter.stored_bytes
        seen.clear()
        faults.checks.clear()
        stack.delete_many(keys)
        metered = [e for e in self._kinds(seen, events.METER)]
        assert [e.verb for e in metered] == ["DELETE"] * 3
        assert [e.key for e in metered] == [keys[0], keys[1000], keys[2000]]
        assert [e.nbytes for e in metered] == [3000, 3000, 1500]
        assert all(e.latency == 0.008 for e in metered)
        assert DRAWS == ["DELETE"] * 3
        assert faults.checks == ["DELETE"] * 3
        assert len(self._kinds(seen, events.DELETE_START)) == 3
        assert len(self._kinds(seen, events.DELETE_END)) == 3
        # ... while GC narration stays per key, in order.
        gc = self._kinds(seen, events.GC_DELETE)
        assert [e.key for e in gc] == keys and all(e.ok for e in gc)
        # The meter counts requests and removes exactly the bytes.
        assert meter.deletes.count == 3
        assert meter.deletes.bytes == stored == 7500
        assert meter.stored_bytes == 0

    def test_no_keys_issue_no_request_and_no_event(self):
        stack, _bus, seen, faults, meter = self._stack()
        stack.delete_many([])
        asyncio.run(stack.adelete_many([]))
        assert seen == [] and faults.checks == [] and DRAWS == []
        assert meter.deletes.count == 0

    def test_bytes_removed_are_exact_with_missing_keys_mixed_in(self):
        stack, _bus, _seen, _faults, meter = self._stack()
        stack.put("WAL/a", b"12345")
        stack.put("WAL/b", b"123")
        stack.put("DB/keep", b"1234567")
        stack.delete_many(["WAL/a", "WAL/ghost", "WAL/b"])
        assert meter.deletes.count == 1 and meter.deletes.bytes == 8
        assert meter.stored_bytes == 7

    def test_retried_as_a_unit_then_succeeds(self):
        stack, _bus, seen, faults, meter = self._stack()
        for key in ("WAL/a", "WAL/b"):
            stack.put(key, b"x")
        seen.clear()
        faults.fail_next(1)
        stack.delete_many(["WAL/a", "WAL/b"])
        assert len(self._kinds(seen, events.RETRY)) == 1
        assert [(e.key, e.ok, e.attempt) for e in
                self._kinds(seen, events.GC_DELETE)] == [
            ("WAL/a", True, 2), ("WAL/b", True, 2)]
        assert meter.deletes.count == 1  # the refused attempt is not billed
        assert keys_of(stack) == []

    def test_exhausted_request_is_skipped_as_a_unit(self):
        stack, _bus, seen, faults, meter = self._stack()
        for key in ("WAL/a", "WAL/b", "WAL/c"):
            stack.put(key, b"x")
        seen.clear()
        faults.fail_next(2)  # budget is 1 retry: both attempts fail
        stack.delete_many(["WAL/a", "WAL/b", "WAL/c"])  # absorbed, no raise
        gc = self._kinds(seen, events.GC_DELETE)
        assert [(e.key, e.ok) for e in gc] == [
            ("WAL/a", False), ("WAL/b", False), ("WAL/c", False)]
        (end,) = self._kinds(seen, events.DELETE_END)
        assert end.ok  # skipped is not failed: the transport absorbed it
        assert meter.deletes.count == 0
        assert keys_of(stack) == ["WAL/a", "WAL/b", "WAL/c"]

    def test_async_path_counts_the_same(self):
        stack, _bus, seen, faults, meter = self._stack()
        keys = [f"WAL/{i:05d}" for i in range(MAX_DELETE_KEYS + 1)]
        for key in keys:
            stack.put(key, b"ab")
        seen.clear()
        faults.checks.clear()
        asyncio.run(stack.adelete_many(keys))
        assert meter.deletes.count == 2 and meter.stored_bytes == 0
        assert DRAWS == ["DELETE"] * 2 and faults.checks == ["DELETE"] * 2
        assert len(self._kinds(seen, events.GC_DELETE)) == len(keys)
        assert len(self._kinds(seen, events.DELETE_END)) == 2

    def test_a_failing_request_stops_the_ones_behind_it(self):
        """Fatal (non-skippable) semantics below the retry layer: the
        first failing request raises, later slices are not issued."""
        faults = CountingFaults()
        layer = FaultLayer(InMemoryObjectStore(), faults)
        keys = [f"k{i:05d}" for i in range(MAX_DELETE_KEYS + 1)]
        for key in keys:
            layer.put(key, b"x")
        faults.checks.clear()
        faults.fail_next(1)
        with pytest.raises(CloudUnavailable):
            layer.delete_many(keys)
        assert faults.checks == ["DELETE"]
        assert len(keys_of(layer)) == len(keys)


class TestTenantAttribution:
    def test_bank_reconciles_with_batch_deletes(self):
        bus = EventBus()
        bank = TenantMeterBank().attach(bus)
        shared = build_transport(
            InMemoryObjectStore(), policy=RetryPolicy(), metered=True,
            latency=LatencyModel(), bus=bus,
        )
        tenants = {
            name: PrefixedObjectStore(shared, tenant_prefix(name))
            for name in ("a", "b")
        }
        for name, view in tenants.items():
            for i in range(5):
                view.put(f"WAL/{i}", name.encode() * (i + 1))
        shared.put("stray", b"zz")
        tenants["a"].delete_many([f"WAL/{i}" for i in range(5)])
        tenants["b"].delete_many(["WAL/0", "WAL/4"])
        shared.delete_many(["stray"])
        per_tenant = bank.tenants()
        assert per_tenant["a"].deletes.count == 1
        assert per_tenant["a"].deletes.bytes == 15
        assert per_tenant["a"].stored_bytes == 0
        assert per_tenant["b"].deletes.count == 1
        assert per_tenant["b"].deletes.bytes == 6
        assert bank.unattributed.deletes.count == 1
        assert bank.unreconciled() == []
        assert (sum(m.stored_bytes for m in per_tenant.values())
                + bank.unattributed.stored_bytes) == bank.total.stored_bytes


class TestOverriddenDeleteRequest:
    """Test doubles inject DELETE faults by overriding
    ``_delete_request``; the in-memory store's async colour must run
    such an override off the loop — the rule its ``aput`` applies to
    ``put``."""

    def test_memory_runs_an_override_off_the_loop(self):
        caller = threading.current_thread()  # asyncio.run's loop too

        class Recording(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.seen: list[tuple[list[str], bool]] = []

            def _delete_request(self, keys):
                on_caller = threading.current_thread() is caller
                self.seen.append((keys, on_caller))
                super()._delete_request(keys)

        store = Recording()
        store.put("a", b"x")
        store.delete_many(["a", "b"])
        asyncio.run(store.adelete_many(["c"]))
        assert store.seen == [(["a", "b"], True), (["c"], False)]
        assert len(store) == 0

    def test_memory_failing_request_fails(self):
        class Refuses(InMemoryObjectStore):
            def _delete_request(self, keys):
                raise CloudError("refused")

        store = Refuses()
        store.put("a", b"x")
        with pytest.raises(CloudError):
            store.delete("a")
        with pytest.raises(CloudError):
            asyncio.run(store.adelete_many(["a"]))
        assert store.exists("a")


class TestPlacement:
    def _requests(self, store):
        return [provider.meter.deletes.count for provider in store.providers]

    def test_mirror_is_one_request_per_replica(self):
        store = build_placement(3, "mirror-2/q1")
        try:
            keys = [f"WAL/{i}" for i in range(20)]
            for key in keys:
                store.put(key, b"x")
            store.delete_many(keys)
            assert self._requests(store) == [1, 1, 0]
            assert store.list() == []
            assert all(p.backend.list() == [] for p in store.providers)
        finally:
            store.close()

    def test_stripe_is_one_request_per_fragment_provider(self):
        store = build_placement(3, "stripe-2-3")
        try:
            keys = [f"DB/{i}" for i in range(7)]
            for key in keys:
                store.put(key, b"0123456789")
            store.delete_many(keys)
            assert self._requests(store) == [1, 1, 1]
            assert store.list() == []
            assert all(p.backend.list() == [] for p in store.providers)
        finally:
            store.close()

    def test_mixed_policies_share_the_provider_requests(self):
        store = build_placement(3, "wal=mirror-2/q1,db=stripe-2-3")
        try:
            store.put("WAL/0", b"w")
            store.put("DB/0", b"0123456789")
            store.delete_many(["WAL/0", "DB/0"])
            assert self._requests(store) == [1, 1, 1]
            assert store.list() == []
        finally:
            store.close()

    def test_only_total_failure_propagates(self):
        store = build_placement(2, "mirror-2/q1")
        try:
            store.put("WAL/0", b"x")
            store.providers[1].kill()
            store.delete_many(["WAL/0"])  # one replica down: absorbed
            assert store.replica_errors[store.providers[1].name] == 1
            assert store.providers[0].backend.list() == []
            store.put("WAL/1", b"x")  # quorum 1: lands on the survivor
            store.providers[0].kill()
            with pytest.raises(CloudError):
                store.delete_many(["WAL/1"])
            assert [i.key for i in store.providers[0].backend.list()] == ["WAL/1"]
        finally:
            store.close()

    def test_a_key_whose_every_provider_failed_raises_in_a_mixed_request(self):
        """WAL lives on providers 0-1, DB fragments on 0-2: with 0 and 1
        down the DB delete half-works but the WAL key is untouched
        everywhere — the caller must hear about it."""
        store = build_placement(3, "wal=mirror-2/q1,db=stripe-2-3")
        try:
            store.put("WAL/0", b"w")
            store.put("DB/0", b"0123456789")
            store.providers[0].kill()
            store.providers[1].kill()
            with pytest.raises(CloudError):
                store.delete_many(["WAL/0", "DB/0"])
        finally:
            store.close()

    def test_revive_wipe_is_batched_and_metered(self):
        store = build_placement(2, "mirror-2/q1")
        try:
            for i in range(12):
                store.put(f"WAL/{i}", b"abc")
            victim = store.providers[1]
            stored = victim.meter.stored_bytes
            victim.kill()
            victim.revive(wipe=True)
            assert victim.backend.list() == []
            assert victim.meter.deletes.count == 1
            assert victim.meter.deletes.bytes == stored == 36
            assert victim.meter.stored_bytes == 0
        finally:
            store.close()
