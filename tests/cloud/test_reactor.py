"""Unit tests for the shared upload reactor (repro.cloud.reactor).

The reactor is the one event-loop thread driving every tenant's WAL and
checkpoint PUTs and GC batch DELETEs, so these tests pin exactly the
properties the pipeline and fleet rely on: the bounded global window,
per-lane fair-share admission, backoff bookkeeping without parked
threads, the two cancel flavours (poison drops queued work only; abort
interrupts in-flight PUTs), crash poisoning every attached lane, a lane
that goes when its last attachment and its last request have, and a
stop() that leaves no ``ginja-`` threads behind.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.cloud.interface import ObjectStore
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.reactor import UploadReactor
from repro.cloud.retry import RetryLayer, RetryPolicy
from repro.common.clock import ManualClock
from repro.common.errors import CloudUnavailable, GinjaError
from repro.common.events import EventBus


class GatedStore(InMemoryObjectStore):
    """An async store whose PUTs park (as loop timers) until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.concurrent = 0
        self.peak = 0

    async def aput(self, key, data):
        # Runs on the reactor loop thread only, so plain ints are safe.
        self.concurrent += 1
        self.peak = max(self.peak, self.concurrent)
        try:
            while not self.release.is_set():
                await asyncio.sleep(0.001)
        finally:
            self.concurrent -= 1
        self.put(key, data)

    async def _adelete_request(self, keys):
        self.concurrent += 1
        try:
            while not self.release.is_set():
                await asyncio.sleep(0.001)
        finally:
            self.concurrent -= 1
        self._delete_request(keys)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture
def reactor():
    r = UploadReactor(inflight_window=4, io_threads=2)
    r.start()
    yield r
    if r.alive:
        r.stop()


class TestWindows:
    def test_global_window_bounds_inflight(self, reactor):
        store = GatedStore()
        reactor.attach("a", window=64)
        handles = [
            reactor.submit(store, f"k{i}", b"x", tenant="a") for i in range(12)
        ]
        assert wait_for(lambda: reactor.health()["inflight"] == 4)
        health = reactor.health()
        assert health["queued"] == 8
        assert store.peak <= 4
        store.release.set()
        for handle in handles:
            assert handle.wait(5.0) and handle.ok
        assert store.peak == 4
        assert len(store) == 12

    def test_lane_window_caps_one_tenant(self, reactor):
        store = GatedStore()
        reactor.attach("hot", window=2)
        reactor.attach("cold", window=2)
        hot = [
            reactor.submit(store, f"h{i}", b"x", tenant="hot")
            for i in range(10)
        ]
        # The hot tenant may not hog the global window: its lane caps it
        # at 2 even though 4 global slots exist.
        assert wait_for(
            lambda: reactor.health()["tenants"]["hot"]["inflight"] == 2
        )
        cold = reactor.submit(store, "c0", b"x", tenant="cold")
        assert wait_for(
            lambda: reactor.health()["tenants"]["cold"]["inflight"] == 1
        )
        store.release.set()
        for handle in [*hot, cold]:
            assert handle.wait(5.0) and handle.ok

    def test_attach_refcounts_and_window_max(self, reactor):
        reactor.attach("t", window=2)
        reactor.attach("t", window=6)  # pipeline + checkpointer share
        assert reactor.health()["tenants"]["t"]["window"] == 6
        reactor.detach("t")
        assert "t" in reactor.health()["tenants"]
        reactor.detach("t")
        assert "t" not in reactor.health()["tenants"]

    def test_submit_requires_attached_lane(self, reactor):
        with pytest.raises(GinjaError, match="not attached"):
            reactor.submit(InMemoryObjectStore(), "k", b"x", tenant="ghost")


class TestLaneReaping:
    """detach() used to delete a lane only if it was idle *at that
    instant*.  Every crash runs cancel (deferred to the loop) straight
    into detach, so the lane still had work in flight, was skipped, and
    nothing ever reaped it: it stayed in health(), in the round-robin
    order, and handed its window to any successor of the same name."""

    def test_crashed_lane_is_reaped_when_its_last_request_settles(self, reactor):
        store = GatedStore()
        reactor.attach("t1", window=8)
        inflight = reactor.submit(store, "k0", b"x", tenant="t1")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.cancel("t1")
        reactor.detach("t1")
        assert inflight.wait(5.0) and inflight.cancelled
        assert wait_for(lambda: "t1" not in reactor.health()["tenants"])
        assert "t1" not in reactor._order
        # A successor of the same name starts from its own window.
        reactor.attach("t1", window=2)
        assert reactor.health()["tenants"]["t1"]["window"] == 2

    def test_lane_outlives_detach_until_its_work_is_done(self, reactor):
        """No cancel: the detached lane's queued and running requests
        still complete (a stop() that timed out its drain), and only
        then does the lane go."""
        store = GatedStore()
        reactor.attach("t", window=1)
        handles = [
            reactor.submit(store, f"k{i}", b"x", tenant="t") for i in range(3)
        ]
        assert wait_for(lambda: store.concurrent == 1)
        reactor.detach("t")
        assert "t" in reactor.health()["tenants"]
        store.release.set()
        for handle in handles:
            assert handle.wait(5.0) and handle.ok
        assert wait_for(lambda: "t" not in reactor.health()["tenants"])

    def test_reattach_before_the_reap_does_not_inherit_the_window(self, reactor):
        store = GatedStore()
        reactor.attach("t", window=8)
        straggler = reactor.submit(store, "k", b"x", tenant="t")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.detach("t")
        reactor.attach("t", window=2)  # the recovered tenant, same name
        assert reactor.health()["tenants"]["t"]["window"] == 2
        store.release.set()
        assert straggler.wait(5.0) and straggler.ok
        assert "t" in reactor.health()["tenants"]  # attached: not reaped

    def test_poisoned_lane_goes_when_its_wire_request_settles(self, reactor):
        """The poison path (queued-only cancel) lets the PUT on the wire
        run to its own verdict; the detached lane goes with it."""
        store = GatedStore()
        reactor.attach("t", window=1)
        wire = reactor.submit(store, "k0", b"x", tenant="t")
        queued = reactor.submit(store, "k1", b"x", tenant="t")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.cancel("t", queued_only=True)
        reactor.detach("t")
        assert queued.wait(5.0) and queued.cancelled
        assert "t" in reactor.health()["tenants"]  # k0 still in flight
        store.release.set()
        assert wire.wait(5.0) and wire.ok
        assert wait_for(lambda: "t" not in reactor.health()["tenants"])


class TestSubmitDelete:
    """The second verb rides the first one's machinery: same lane queue
    and window, same handle, cancel and on_done settlement."""

    def test_batch_delete_resolves_like_a_put(self, reactor):
        store = InMemoryObjectStore()
        for i in range(5):
            store.put(f"WAL/{i}", b"x")
        reactor.attach("t", window=2)
        seen = []
        handle = reactor.submit_delete(
            store, (f"WAL/{i}" for i in range(4)), tenant="t",
            on_done=seen.append,
        )
        assert handle.wait(5.0) and handle.ok
        assert (handle.key, handle.nbytes, handle.tenant) == ("WAL/0", 0, "t")
        assert wait_for(lambda: seen == [handle])
        assert [info.key for info in store.list()] == ["WAL/4"]

    def test_no_keys_still_settles(self, reactor):
        reactor.attach("t", window=1)
        handle = reactor.submit_delete(InMemoryObjectStore(), [], tenant="t")
        assert handle.wait(5.0) and handle.ok

    def test_deletes_share_the_lane_window_with_puts(self, reactor):
        store = GatedStore()
        store.put("old", b"x")
        reactor.attach("t", window=2)
        first = reactor.submit(store, "k0", b"x", tenant="t")
        gc = reactor.submit_delete(store, ["old"], tenant="t")
        behind = reactor.submit(store, "k1", b"x", tenant="t")
        assert wait_for(lambda: store.concurrent == 2)
        lane = reactor.health()["tenants"]["t"]
        assert (lane["inflight"], lane["queued"]) == (2, 1)
        store.release.set()
        for handle in (first, gc, behind):
            assert handle.wait(5.0) and handle.ok
        assert sorted(store.snapshot()) == ["k0", "k1"]

    def test_cancel_interrupts_a_delete_on_the_wire(self, reactor):
        store = GatedStore()
        store.put("old", b"x")
        reactor.attach("t", window=1)
        handle = reactor.submit_delete(store, ["old"], tenant="t")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.cancel("t")
        assert handle.wait(5.0) and handle.cancelled
        assert store.exists("old")

    def test_sync_only_store_is_bridged(self):
        class SyncOnly(ObjectStore):
            def __init__(self):
                self.inner = InMemoryObjectStore()
                self.threads = []

            def _delete_request(self, keys):
                self.threads.append(threading.current_thread().name)
                self.inner.delete_many(keys)

        reactor = UploadReactor(inflight_window=2, io_threads=2)
        reactor.start()
        try:
            reactor.attach("t", window=2)
            store = SyncOnly()
            store.inner.put("a", b"x")
            handle = reactor.submit_delete(store, ["a"], tenant="t")
            assert handle.wait(5.0) and handle.ok
            assert len(store.inner) == 0
            assert store.threads[0].startswith("ginja-reactor-io")
        finally:
            reactor.stop()

    def test_native_stack_spawns_no_io_thread(self):
        """The benchmark stacks are in-memory end to end: a GC request
        must stay on the loop, or every stack grows an executor thread."""
        from repro.cloud.simulated import SimulatedCloud
        from repro.cloud.transport import build_transport

        reactor = UploadReactor(inflight_window=2, io_threads=2)
        reactor.start()
        try:
            cloud = SimulatedCloud(time_scale=0.0)
            stack = build_transport(cloud, policy=RetryPolicy())
            stack.put("WAL/0", b"x")
            reactor.attach("t", window=2)
            handle = reactor.submit_delete(stack, ["WAL/0"], tenant="t")
            assert handle.wait(5.0) and handle.ok
            assert cloud.meter.deletes.count == 1
            assert not [t.name for t in threading.enumerate()
                        if t.name.startswith("ginja-reactor-io")]
        finally:
            reactor.stop()

    def test_skippable_delete_backs_off_on_a_loop_timer(self, reactor):
        class Flaky(InMemoryObjectStore):
            failures = 2

            def _delete_request(self, keys):
                if self.failures:
                    self.failures -= 1
                    raise CloudUnavailable("injected")
                super()._delete_request(keys)

        store = Flaky()
        store.put("a", b"x")
        bus = EventBus()
        gc = []
        bus.subscribe(gc.append, kinds={"gc_delete"})
        layer = RetryLayer(
            store, RetryPolicy(max_retries=5, base_backoff=1.0, jitter=0.0),
            clock=ManualClock(), bus=bus,
        )
        reactor.attach("t", window=1)
        handle = reactor.submit_delete(layer, ["a"], tenant="t")
        assert handle.wait(5.0) and handle.ok
        lane = reactor.health()["tenants"]["t"]
        assert (lane["retries"], lane["backoffs"]) == (2, 0)
        assert [(e.key, e.ok, e.attempt) for e in gc] == [("a", True, 3)]
        assert len(store) == 0


class TestCancel:
    def test_cancel_queued_only_lets_inflight_finish(self, reactor):
        store = GatedStore()
        reactor.attach("t", window=1)
        seen = []
        handles = [
            reactor.submit(store, f"k{i}", b"x", tenant="t",
                           on_done=seen.append)
            for i in range(3)
        ]
        assert wait_for(lambda: store.concurrent == 1)
        reactor.cancel("t", queued_only=True)
        # The two queued submissions resolve cancelled, with on_done.
        assert handles[1].wait(5.0) and handles[1].cancelled
        assert handles[2].wait(5.0) and handles[2].cancelled
        # The in-flight PUT was not interrupted: it completes once
        # released, to its own verdict.
        assert not handles[0].done
        store.release.set()
        assert handles[0].wait(5.0) and handles[0].ok
        assert wait_for(lambda: len(seen) == 3)

    def test_full_cancel_interrupts_inflight(self, reactor):
        store = GatedStore()
        reactor.attach("t", window=1)
        handle = reactor.submit(store, "k", b"x", tenant="t")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.cancel("t")
        assert handle.wait(5.0)
        assert handle.cancelled and not handle.ok
        assert "k" not in store.snapshot()

    def test_cancel_before_the_first_step_still_resolves(self, reactor):
        """A task cancelled between its admission and its first step
        never runs a line of its coroutine, so the handle used to stay
        unresolved forever (and the window slot leaked): an abort()
        right behind a submit parked the checkpointer in handle.wait()
        — the thread that outlived crash_tenant.  Pin the interleaving
        by queueing the admission and the cancel behind a held loop."""
        store = InMemoryObjectStore()
        reactor.attach("t", window=1)
        hold = threading.Event()
        reactor._loop.call_soon_threadsafe(hold.wait, 5.0)
        seen = []
        handle = reactor.submit(store, "k", b"x", tenant="t",
                                on_done=seen.append)
        reactor.cancel("t")
        hold.set()
        assert handle.wait(5.0), "handle never resolved"
        assert handle.cancelled and seen == [handle]
        assert "k" not in store.snapshot()
        health = reactor.health()
        assert health["inflight"] == 0
        assert health["tenants"]["t"]["inflight"] == 0
        # The slot is free again: the lane still uploads.
        after = reactor.submit(store, "k2", b"y", tenant="t")
        assert after.wait(5.0) and after.ok

    def test_cancel_spares_other_lanes(self, reactor):
        store = GatedStore()
        reactor.attach("a", window=1)
        reactor.attach("b", window=1)
        doomed = reactor.submit(store, "a0", b"x", tenant="a")
        spared = reactor.submit(store, "b0", b"x", tenant="b")
        assert wait_for(lambda: store.concurrent == 2)
        reactor.cancel("a")
        assert doomed.wait(5.0) and doomed.cancelled
        assert not spared.done
        store.release.set()
        assert spared.wait(5.0) and spared.ok


class TestCrash:
    def test_crash_poisons_every_attached_lane(self, reactor):
        store = GatedStore()
        fatals: list[BaseException] = []
        reactor.attach("a", window=1, on_fatal=fatals.append)
        reactor.attach("b", window=1, on_fatal=fatals.append)
        inflight = reactor.submit(store, "a0", b"x", tenant="a")
        reactor.attach("c", window=1)
        queued = [
            reactor.submit(store, f"c{i}", b"x", tenant="c")
            for i in range(3)
        ]
        assert wait_for(lambda: store.concurrent >= 1)
        boom = RuntimeError("loop died")
        reactor.crash(boom)
        assert not reactor.alive
        assert len(fatals) == 2 and all(f is boom for f in fatals)
        assert inflight.wait(5.0) and inflight.error is boom
        for handle in queued:
            assert handle.wait(5.0) and handle.error is boom
        with pytest.raises(GinjaError, match="dead"):
            reactor.submit(store, "k", b"x", tenant="a")


class TestStop:
    def test_stop_fails_queued_and_retires_threads(self):
        reactor = UploadReactor(inflight_window=1, io_threads=2)
        reactor.start()
        store = GatedStore()
        reactor.attach("t", window=1)
        inflight = reactor.submit(store, "k0", b"x", tenant="t")
        queued = reactor.submit(store, "k1", b"x", tenant="t")
        assert wait_for(lambda: store.concurrent == 1)
        reactor.stop()
        assert queued.wait(5.0) and isinstance(queued.error, GinjaError)
        assert inflight.wait(5.0) and not inflight.ok
        assert not reactor.alive
        lingering = [
            t.name for t in threading.enumerate()
            if t.name.startswith("ginja-reactor")
        ]
        assert lingering == []
        with pytest.raises(GinjaError, match="not running"):
            reactor.submit(store, "k2", b"x", tenant="t")

    @pytest.mark.parametrize("end", ["stop", "crash"])
    def test_orphaned_requests_settle_through_on_done(self, end):
        """Every request leaves through the one settle step: a request
        still queued when the loop stops or dies sees its ``on_done``
        (drop accounting depends on it), after the attached lane's
        ``on_fatal`` has fired."""
        reactor = UploadReactor(inflight_window=1, io_threads=1)
        reactor.start()
        store = GatedStore()
        order = []
        reactor.attach("t", window=1,
                       on_fatal=lambda exc: order.append("fatal"))
        handles = [
            reactor.submit(store, f"k{i}", b"x", tenant="t",
                           on_done=lambda handle: order.append(handle.key))
            for i in range(2)
        ]
        assert wait_for(lambda: store.concurrent == 1)
        getattr(reactor, end)()
        assert all(handle.wait(5.0) and not handle.ok for handle in handles)
        assert wait_for(lambda: len(order) == 3)
        assert order.index("fatal") < order.index("k1")
        assert isinstance(handles[1].error, GinjaError)

    def test_blocking_put_override_does_not_wedge_the_loop(self):
        # InMemoryObjectStore.aput inlines the dict insert on the loop
        # thread — but only for the pristine put.  A subclass whose put
        # blocks (every fault-model store in the benchmarks) must be
        # bridged off the loop, or one stalled PUT serializes the whole
        # reactor.
        class StallsFirst(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.release = threading.Event()
                self._n = 0
                self._lock = threading.Lock()

            def put(self, key, data):
                with self._lock:
                    self._n += 1
                    first = self._n == 1
                if first:
                    self.release.wait(timeout=10.0)
                super().put(key, data)

        reactor = UploadReactor(inflight_window=3, io_threads=4)
        reactor.start()
        store = StallsFirst()
        try:
            reactor.attach("t", window=3)
            handles = [
                reactor.submit(store, f"k{i}", b"x", tenant="t")
                for i in range(3)
            ]
            # The stalled first PUT must not stop the other two.
            assert wait_for(lambda: handles[1].done and handles[2].done)
            assert not handles[0].done
        finally:
            store.release.set()
            for handle in handles:
                assert handle.wait(5.0) and handle.ok
            reactor.stop()

    def test_executor_bridges_sync_only_stores(self):
        # A store with no native aput still uploads — through the
        # reactor's bounded executor, not a per-upload thread.
        class SyncOnly(ObjectStore):
            def __init__(self):
                self.inner = InMemoryObjectStore()

            def put(self, key, data):
                self.inner.put(key, data)

        reactor = UploadReactor(inflight_window=2, io_threads=2)
        reactor.start()
        try:
            reactor.attach("t", window=2)
            store = SyncOnly()
            handles = [
                reactor.submit(store, f"k{i}", b"x", tenant="t")
                for i in range(6)
            ]
            for handle in handles:
                assert handle.wait(5.0) and handle.ok
            assert len(store.inner) == 6
        finally:
            reactor.stop()


class TestBackoffBookkeeping:
    def test_retries_ride_loop_timers_and_feed_the_gauge(self, reactor):
        class Flaky(InMemoryObjectStore):
            def __init__(self, failures):
                super().__init__()
                self.failures = failures
                self.attempts = 0

            def put(self, key, data):
                self.attempts += 1
                if self.attempts <= self.failures:
                    raise CloudUnavailable("injected")
                super().put(key, data)

        store = Flaky(2)
        layer = RetryLayer(
            store, RetryPolicy(max_retries=5, base_backoff=1.0, jitter=0.0),
            clock=ManualClock(), bus=EventBus(),
        )
        reactor.attach("t", window=1)
        handle = reactor.submit(layer, "k", b"x", tenant="t")
        assert handle.wait(5.0) and handle.ok
        health = reactor.health()["tenants"]["t"]
        assert health["retries"] == 2
        assert health["backoffs"] == 0  # gauge returns to zero
        assert store.attempts == 3


class TestRetryBudgetsUnderConcurrency:
    def test_same_key_puts_keep_private_budgets(self, reactor):
        """Two concurrent PUTs of the same key: one exhausts its PUT
        budget and fails, the other succeeds — budgets are per-request,
        and the loser's exhaustion neither cancels nor corrupts the
        winner still in flight."""

        class KeyedFailures(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.bad_attempts = 0

            def put(self, key, data):
                if data == b"bad":
                    self.bad_attempts += 1
                    raise CloudUnavailable("permanently failing payload")
                super().put(key, data)

        store = KeyedFailures()
        bus = EventBus()
        retries = []
        bus.subscribe(retries.append, kinds={"retry"})
        layer = RetryLayer(
            store, RetryPolicy(max_retries=2, base_backoff=1.0, jitter=0.0),
            clock=ManualClock(), bus=bus,
        )
        reactor.attach("t", window=2)
        doomed = reactor.submit(layer, "k", b"bad", tenant="t")
        winner = reactor.submit(layer, "k", b"good", tenant="t")
        assert doomed.wait(5.0)
        assert isinstance(doomed.error, CloudUnavailable)
        assert winner.wait(5.0) and winner.ok
        # Exhaustion is exact: budget+1 attempts for the poison PUT.
        assert store.bad_attempts == 3
        assert len(retries) == 2
        assert store.get("k") == b"good"
        # The lane is clean afterwards — the next PUT is unaffected.
        after = reactor.submit(layer, "k2", b"fine", tenant="t")
        assert after.wait(5.0) and after.ok


class TestTimers:
    """``call_at``: deadline timers on the caller's clock, hosted on the
    loop — a commit pipeline's T_B is one."""

    def test_fires_on_the_loop_thread_when_the_clock_gets_there(self, reactor):
        clock = ManualClock()
        fired = []
        reactor.attach("t", window=1)
        reactor.call_at(
            clock, 30.0,
            lambda: fired.append((threading.current_thread().name, clock.now())),
            tenant="t",
        )
        time.sleep(0.05)
        assert fired == []                   # real time is not the clock
        clock.advance(31.0)
        assert wait_for(lambda: fired)
        assert fired == [("ginja-reactor", 31.0)]

    def test_a_real_clock_timer_is_a_loop_timer(self, reactor):
        from repro.common.clock import SYSTEM_CLOCK

        fired = threading.Event()
        reactor.attach("t", window=1)
        started = time.monotonic()
        reactor.call_at(SYSTEM_CLOCK, SYSTEM_CLOCK.now() + 0.05, fired.set,
                        tenant="t")
        assert fired.wait(5.0)
        assert time.monotonic() - started >= 0.045

    def test_cancel_before_and_after_firing(self, reactor):
        clock = ManualClock()
        fired = []
        reactor.attach("t", window=1)
        doomed = reactor.call_at(clock, 5.0, lambda: fired.append("doomed"),
                                 tenant="t")
        kept = reactor.call_at(clock, 5.0, lambda: fired.append("kept"),
                               tenant="t")
        doomed.cancel()
        clock.advance(5.0)
        assert wait_for(lambda: fired)
        time.sleep(0.02)
        assert fired == ["kept"]
        kept.cancel()                        # after the fact: a no-op
        assert wait_for(lambda: not reactor._tasks)
        assert clock._deadlines == []

    def test_a_raising_callback_poisons_its_own_lane_only(self, reactor):
        clock = ManualClock()
        fatals = {"a": [], "b": []}
        reactor.attach("a", window=1, on_fatal=fatals["a"].append)
        reactor.attach("b", window=1, on_fatal=fatals["b"].append)

        def boom():
            raise RuntimeError("timer callback fault")

        reactor.call_at(clock, 1.0, boom, tenant="a")
        clock.advance(1.0)
        assert wait_for(lambda: fatals["a"])
        assert isinstance(fatals["a"][0], RuntimeError)
        assert fatals["b"] == [] and reactor.alive
        handle = reactor.submit(InMemoryObjectStore(), "k", b"v", tenant="b")
        assert handle.wait(5.0) and handle.ok

    def test_timers_need_an_attached_lane_and_a_live_reactor(self, reactor):
        clock = ManualClock()
        with pytest.raises(GinjaError, match="not attached"):
            reactor.call_at(clock, 1.0, lambda: None, tenant="nobody")
        reactor.attach("t", window=1)
        reactor.call_at(clock, 1.0, lambda: None, tenant="t")
        reactor.crash()
        with pytest.raises(GinjaError):
            reactor.call_at(clock, 1.0, lambda: None, tenant="t")

    def test_stop_cancels_armed_timers(self):
        clock = ManualClock()
        fired = []
        r = UploadReactor(inflight_window=2, io_threads=1)
        r.start()
        r.attach("t", window=1)
        r.call_at(clock, 10.0, lambda: fired.append(1), tenant="t")
        assert wait_for(lambda: clock._deadlines)
        r.stop()
        clock.advance(10.0)
        assert fired == [] and clock._deadlines == []


class TestHealth:
    def test_health_shape(self, reactor):
        reactor.attach("t", window=3)
        health = reactor.health()
        assert health["running"] is True
        assert health["window"] == 4
        assert health["io_threads"] == 2
        assert health["inflight"] == 0
        assert health["queued"] == 0
        lane = health["tenants"]["t"]
        assert lane == {
            "queued": 0, "inflight": 0, "backoffs": 0, "retries": 0,
            "window": 3,
        }
