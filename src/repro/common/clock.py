"""Clock abstraction.

Two implementations are provided:

* :class:`MonotonicClock` — wall time, used when running the real threaded
  pipeline (the default everywhere).
* :class:`ManualClock` — a hand-advanced clock for deterministic unit
  tests of timeout logic, the chaos drills, and the analytic parts of
  the benchmark harness where *modeled* time (unscaled cloud latencies)
  is accounted without sleeping through it.  Nothing waits for a
  modelled deadline in real seconds (:meth:`Clock.wait_until_async`),
  so advancing this clock is what schedules — from a drill's own
  thread, never from a real-time pump.

The Ginja pipeline itself runs on real threads; simulated components
(FUSE crossing, disk latency, cloud latency) *pace* the calling thread
by ``modeled_latency * time_scale`` through :meth:`Clock.pace` but
*meter* the full modeled latency, so experiments can report the paper's
time units while executing quickly.
"""

from __future__ import annotations

import asyncio
import heapq
import sys
import threading
import time
from itertools import count


class SleepAccount(threading.local):
    """What one modelled-latency site owes the host's sleep, per thread.

    A site (the interposer, the disk model, the latency layer) owns one
    and hands it to :meth:`Clock.pace` with every request.  ``owed`` is
    negative while the calling thread still holds credit from an earlier
    sleep that ran long.  Thread-local, so a thread never coasts on
    another's oversleep; per site, so each layer's measured cost stays
    its own model's.
    """

    owed = 0.0


class Clock:
    """Interface: a source of seconds plus a sleep primitive."""

    def now(self) -> float:
        """Return the current time in seconds (arbitrary epoch)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""
        raise NotImplementedError

    def pace(self, account: SleepAccount, seconds: float) -> None:
        """Charge the calling thread a *modelled* latency of ``seconds``.

        Where :meth:`sleep` promises at least ``seconds``, this promises
        ``seconds`` in the mean over the requests ``account`` sees.  A
        clock whose sleep is exact — this default — just sleeps.
        """
        if seconds > 0:
            self.sleep(seconds)

    async def sleep_async(self, seconds: float) -> None:
        """Pause the calling *task* for ``seconds`` without holding a
        thread."""
        raise NotImplementedError

    async def wait_until_async(self, deadline: float) -> None:
        """Pause the calling *task* until :meth:`now` reaches ``deadline``
        — the one deadline primitive (the reactor's timers are built on
        it).  Unlike the sleeps it must never *move* the clock: on a
        virtual clock it waits for whoever advances it.
        """
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time, via :func:`time.monotonic` / :func:`time.sleep`."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def pace(self, account: SleepAccount, seconds: float) -> None:
        """Sleep only what ``account`` owes, and carry the oversleep.

        ``time.sleep(100 µs)`` takes 200 µs and more on a stock kernel,
        so a model paid one raw sleep per request runs 2x slow.  The
        request is added to the thread's debt; the thread sleeps only
        while it owes, measures what the sleep really took, and keeps
        the overshoot as credit the next requests spend before sleeping
        again — elapsed time never falls below modelled time, and their
        means agree.  Every sleep is measured, so nothing about the
        host's timer granularity is assumed.  No spinning to the
        deadline: on a small box that holds the GIL against the threads
        the model exists to measure.

        Credit is capped at the interpreter's switch interval, the
        longest a woken thread waits to be handed the GIL back: timer
        slack, wake-up and that hand-back are what a sleep costs here;
        anything longer is a stall of the host, and a stall must not
        buy a burst of free requests.

        The sleeping itself is :meth:`sleep`, so a subclass that
        switches its sleeps off keeps its meaning: a sleep that returns
        early counts as paid in full and earns nothing.
        """
        if seconds <= 0:
            return
        owed = account.owed + seconds
        if owed > 0:
            started = self.now()
            self.sleep(owed)
            over = self.now() - started - owed
            owed = -min(max(over, 0.0), sys.getswitchinterval())
        account.owed = owed

    async def sleep_async(self, seconds: float) -> None:
        # A loop timer: a backing-off upload holds zero threads.
        if seconds > 0:
            await asyncio.sleep(seconds)

    async def wait_until_async(self, deadline: float) -> None:
        # Straight onto the loop's timer, not through sleep_async: a
        # subclass that switches its modelled sleeps off must not turn
        # a deadline into a spin.
        while (remaining := deadline - self.now()) > 0:
            await asyncio.sleep(remaining)


class ManualClock(Clock):
    """A clock that only moves when told to.

    ``sleep`` advances the clock instead of blocking, which makes it safe
    to use from a single-threaded test.  ``advance`` may be called from
    any thread; it releases every :meth:`wait_until_async` deadline it
    passes.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._lock = threading.Lock()
        #: Tasks parked in :meth:`wait_until_async`, soonest first:
        #: ``(deadline, tie-break, loop, future)``.
        self._deadlines: list[tuple] = []
        self._tie = count()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        due = []
        with self._lock:
            self._now += seconds
            while self._deadlines and self._deadlines[0][0] <= self._now:
                due.append(heapq.heappop(self._deadlines))
        # Released outside the lock: waking a loop is a self-pipe write,
        # and the woken task's first act may be to read this clock.
        for _deadline, _tie, loop, future in due:
            try:
                loop.call_soon_threadsafe(_release, future)
            except RuntimeError:  # that loop is closed; nobody is waiting
                pass

    async def sleep_async(self, seconds: float) -> None:
        # Virtual time: advance instantly, exactly like :meth:`sleep`,
        # so reactor-driven retries stay deterministic under drills.
        self.sleep(seconds)

    async def wait_until_async(self, deadline: float) -> None:
        # Advancing the clock *is* the scheduler: the task parks on the
        # deadline heap until a sleep/advance from any thread passes it.
        loop = asyncio.get_running_loop()
        entry = None
        with self._lock:
            if self._now < deadline:
                entry = (deadline, next(self._tie), loop, loop.create_future())
                heapq.heappush(self._deadlines, entry)
        if entry is None:
            return
        try:
            await entry[3]
        finally:
            with self._lock:
                if entry in self._deadlines:  # cancelled before its time
                    self._deadlines.remove(entry)
                    heapq.heapify(self._deadlines)

    def advance(self, seconds: float) -> None:
        """Move time forward, releasing every :meth:`wait_until_async`
        deadline now passed."""
        self.sleep(seconds)


def _release(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


#: Process-wide default clock.
SYSTEM_CLOCK = MonotonicClock()
