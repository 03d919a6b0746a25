"""Clock behaviour."""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.common.clock import ManualClock, MonotonicClock, SleepAccount


class TestMonotonicClock:
    def test_now_advances(self):
        clock = MonotonicClock()
        a = clock.now()
        time.sleep(0.002)
        assert clock.now() > a

    def test_sleep_zero_and_negative_return_immediately(self):
        clock = MonotonicClock()
        start = time.monotonic()
        clock.sleep(0)
        clock.sleep(-1)
        assert time.monotonic() - start < 0.05


class TestManualClock:
    def test_starts_at_given_time(self):
        assert ManualClock(start=42.0).now() == 42.0

    def test_sleep_advances_instead_of_blocking(self):
        clock = ManualClock()
        wall = time.monotonic()
        clock.sleep(1000)
        assert time.monotonic() - wall < 0.1
        assert clock.now() == 1000

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().sleep(-1)


class SwitchedOffSleeps(MonotonicClock):
    """What the fleet benchmark hands its latency layer while booting."""

    def sleep(self, seconds):
        pass

    async def sleep_async(self, seconds):
        pass


class TestDeadlines:
    """``wait_until_async`` — the one deadline primitive the reactor's
    timers are built on: it waits for the clock, it never moves it."""

    def test_manual_deadline_waits_for_whoever_advances_the_clock(self):
        clock = ManualClock()

        async def main():
            waiter = asyncio.ensure_future(clock.wait_until_async(30.0))
            await asyncio.sleep(0.05)        # real time passes, virtual none
            assert not waiter.done() and clock.now() == 0.0
            clock.advance(29.0)
            await asyncio.sleep(0.02)
            assert not waiter.done()
            # Released from another thread, as a drill's workload would.
            other = threading.Thread(target=clock.advance, args=(1.0,))
            other.start()
            await asyncio.wait_for(waiter, timeout=5.0)
            other.join()
            assert clock.now() == 30.0       # the waiter moved nothing

        asyncio.run(main())

    def test_manual_deadline_already_passed_returns_at_once(self):
        clock = ManualClock(start=10.0)
        asyncio.run(asyncio.wait_for(clock.wait_until_async(5.0), timeout=1.0))
        assert clock.now() == 10.0 and clock._deadlines == []

    def test_sleep_async_releases_deadlines_it_passes(self):
        """The retry layer's backoffs advance a ManualClock from the
        loop thread itself; a T_B waiting on the same loop fires."""
        clock = ManualClock()

        async def main():
            waiter = asyncio.ensure_future(clock.wait_until_async(2.0))
            await asyncio.sleep(0)
            await clock.sleep_async(3.0)
            await asyncio.wait_for(waiter, timeout=5.0)

        asyncio.run(main())
        assert clock.now() == 3.0

    def test_a_cancelled_deadline_leaves_the_heap(self):
        clock = ManualClock()

        async def main():
            early = asyncio.ensure_future(clock.wait_until_async(1.0))
            late = asyncio.ensure_future(clock.wait_until_async(9.0))
            await asyncio.sleep(0)
            assert len(clock._deadlines) == 2
            early.cancel()
            await asyncio.gather(early, return_exceptions=True)
            assert [entry[0] for entry in clock._deadlines] == [9.0]
            clock.advance(9.0)
            await asyncio.wait_for(late, timeout=5.0)

        asyncio.run(main())
        assert clock._deadlines == []

    def test_advancing_after_the_loop_closed_is_harmless(self):
        clock = ManualClock()

        async def main():
            task = asyncio.ensure_future(clock.wait_until_async(5.0))
            await asyncio.sleep(0)
            return task

        loop = asyncio.new_event_loop()
        task = loop.run_until_complete(main())
        task.cancel()
        loop.run_until_complete(asyncio.gather(task, return_exceptions=True))
        loop.close()
        clock.advance(10.0)                  # nobody is waiting; no error

    def test_monotonic_deadline_is_a_real_wait_even_with_sleeps_off(self):
        for clock in (MonotonicClock(), SwitchedOffSleeps()):
            started = time.monotonic()
            asyncio.run(clock.wait_until_async(clock.now() + 0.05))
            assert time.monotonic() - started >= 0.045


class OversleepingClock(MonotonicClock):
    """Fake real time: ``now`` reads a counter, ``sleep`` moves it by the
    request plus a fixed oversleep — a host whose timer granule is
    ``oversleep`` — unless switched off, as the benchmark's clock is
    while tenants boot."""

    GRANULE = 120e-6

    def __init__(self):
        self.t = 0.0
        self.oversleep = self.GRANULE
        self.paced = True
        self.slept: list[float] = []

    def now(self):
        return self.t

    def sleep(self, seconds):
        if self.paced:
            self.slept.append(seconds)
            self.t += seconds + self.oversleep


class TestPace:
    @pytest.mark.parametrize("count, modelled", [
        (4000, 5e-6), (2000, 100e-6), (500, 2e-3),
    ])
    def test_a_modelled_latency_costs_what_it_models(self, count, modelled):
        clock, account = OversleepingClock(), SleepAccount()
        for done in range(1, count + 1):
            clock.pace(account, modelled)
            # Never ahead of the model, never more than a granule behind
            # it — where one raw sleep per request ends count granules
            # behind.
            behind = clock.t - done * modelled
            assert -1e-9 <= behind <= clock.GRANULE + 1e-9

    def test_credit_is_spent_before_sleeping_again(self):
        clock, account = OversleepingClock(), SleepAccount()
        clock.pace(account, 5e-6)
        assert clock.slept == [5e-6]
        for _ in range(24):                     # 24 x 5 us = the 120 us credit
            clock.pace(account, 5e-6)
        assert clock.slept == [5e-6]
        clock.pace(account, 5e-6)
        assert len(clock.slept) == 2
        assert clock.slept[1] == pytest.approx(5e-6)

    def test_one_stall_buys_at_most_the_cap(self):
        clock, account = OversleepingClock(), SleepAccount()
        cap = sys.getswitchinterval()
        assert cap < 0.050
        clock.oversleep = 0.050                 # a 50 ms scheduler hiccup
        clock.pace(account, 100e-6)
        assert account.owed == -cap
        clock.oversleep = clock.GRANULE
        requests = 0
        while len(clock.slept) == 1:
            clock.pace(account, 100e-6)
            requests += 1
        # All but the last rode on the stall; 50 ms would have bought 500.
        assert (requests - 1) * 100e-6 <= cap + 1e-9

    def test_a_switched_off_sleep_accrues_nothing(self):
        clock, account = OversleepingClock(), SleepAccount()
        clock.paced = False
        for _ in range(1000):
            clock.pace(account, 2e-3)
        assert clock.t == 0.0 and account.owed == 0.0
        clock.paced = True
        clock.pace(account, 2e-3)
        assert clock.slept == [2e-3]            # itself, not the 1000 before

    def test_threads_do_not_share_an_account(self):
        clock, account = OversleepingClock(), SleepAccount()

        def one_request():
            clock.pace(account, 100e-6)

        for _ in range(2):
            thread = threading.Thread(target=one_request)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        # The second thread slept its own request: the first one's
        # 120 us of credit was not its to spend.
        assert clock.slept == [100e-6, 100e-6]
        assert account.owed == 0.0              # and neither was this thread's

    def test_sites_do_not_share_an_account(self):
        clock = OversleepingClock()
        fuse, disk = SleepAccount(), SleepAccount()
        clock.pace(fuse, 100e-6)
        clock.pace(disk, 65e-6)
        assert clock.slept == [100e-6, 65e-6]

    def test_zero_and_negative_requests_are_free(self):
        clock, account = OversleepingClock(), SleepAccount()
        clock.pace(account, 0)
        clock.pace(account, -1)
        assert clock.slept == [] and account.owed == 0.0
        manual = ManualClock()
        manual.pace(account, 0)
        manual.pace(account, -1)                # sleep(-1) would raise
        assert manual.now() == 0.0

    def test_manual_clock_advances_exactly_as_sleep_does(self):
        paced, slept, account = ManualClock(), ManualClock(), SleepAccount()
        for request in (100e-6, 2e-3, 5e-6, 0.35, 100e-6):
            paced.pace(account, request)
            slept.sleep(request)
            assert paced.now() == slept.now()
        assert account.owed == 0.0

    def test_paced_short_sleeps_against_a_naive_loop_on_this_host(self):
        """The one real-time check, stated against a raw ``time.sleep``
        loop timed right here so a slow host moves both sides."""
        count, modelled = 2000, 100e-6

        def per_request(step) -> float:
            started = time.perf_counter()
            for _ in range(count):
                step()
            return (time.perf_counter() - started) / count / modelled

        naive = per_request(lambda: time.sleep(modelled))
        if naive < 1.8:
            pytest.skip(f"a raw sleep already costs {naive:.2f}x here")
        clock, account = MonotonicClock(), SleepAccount()
        paced = per_request(lambda: clock.pace(account, modelled))
        # 1.35x modelled where the naive loop sits at 2x.
        assert paced >= 1.0
        assert paced - 1.0 <= 0.35 * (naive - 1.0), (paced, naive)
