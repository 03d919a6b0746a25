"""The shared upload reactor: every cloud write in the fleet on one thread.

Before this module, each tenant's :class:`CommitPipeline` held
``uploaders`` blocking PUT threads and its :class:`CheckpointUploader`
one more — 50 tenants ≈ 300 parked threads, most of them asleep in a
latency model or a retry backoff.  The :class:`UploadReactor` replaces
all of them with **one** asyncio event-loop thread:

* WAL and checkpoint PUTs (:meth:`UploadReactor.submit`) and GC batch
  DELETEs (:meth:`UploadReactor.submit_delete`) are submitted from any
  thread and return an :class:`UploadHandle`; both verbs share one
  lane queue, window, cancel and settlement path;
* deadline timers (:meth:`UploadReactor.call_at`) wait on the *caller's*
  clock as loop tasks — a commit pipeline's T_B is one of these, so an
  idle tenant costs a parked task, not a parked thread;
* a commit pipeline's claim job (claim, plan, encode, hand to
  :meth:`UploadReactor.submit`) runs on the loop too
  (:meth:`UploadReactor.call_soon`), so a protected process holds this
  one thread;
* a bounded global in-flight window caps concurrency fleet-wide, and
  per-tenant *lanes* with round-robin admission keep one hot tenant
  from starving the rest;
* retry backoff happens inside :meth:`RetryLayer.aput
  <repro.cloud.retry.RetryLayer.aput>` as an ``await`` on a loop
  timer, so a backing-off PUT holds zero threads;
* a request is the store's own ``aput`` / ``adelete_many``
  (:class:`~repro.cloud.interface.ObjectStore`); a store that speaks
  only the synchronous colour runs it through the interface's default,
  on a small reactor-owned executor pool (``io_threads``), keeping the
  thread count O(1) in the number of tenants either way.

Every request leaves through one settle step — resolve the handle,
then run its ``on_done`` — whether it finished, was cancelled or was
orphaned by :meth:`stop` or the loop's death; an ``on_done`` that
raises fires its lane's ``on_fatal`` hooks.  :meth:`stop` and the
loop's death fire the attached lanes' ``on_fatal`` hooks before they
settle what is left, so attached pipelines fail rather than hang
(DESIGN.md, "Failure discipline").
"""

from __future__ import annotations

import asyncio
import functools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.cloud import aio
from repro.common.errors import GinjaError


class UploadHandle:
    """The future of one submitted request (a PUT, or a batch DELETE
    under its first key with ``nbytes`` 0).

    Resolved exactly once, by :meth:`UploadReactor._settle`; waiters on
    any other thread use :meth:`wait`.  Never call :meth:`wait` *from*
    a reactor callback (``on_done`` / ``on_fatal``) — that would block
    the loop that has to resolve it.
    """

    __slots__ = ("key", "nbytes", "tenant", "error", "cancelled", "_event")

    def __init__(self, key: str, nbytes: int, tenant: str):
        self.key = key
        self.nbytes = nbytes
        self.tenant = tenant
        #: The exception the PUT ultimately failed with, or None.
        self.error: BaseException | None = None
        #: True when the submission was cancelled (tenant abort or
        #: reactor shutdown) rather than attempted to completion.
        self.cancelled = False
        self._event = threading.Event()

    def _resolve(self, error: BaseException | None, cancelled: bool = False) -> None:
        if self._event.is_set():  # first resolution wins (cancel vs finish races)
            return
        self.error = error
        self.cancelled = cancelled
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def ok(self) -> bool:
        """True once the PUT completed successfully."""
        return self._event.is_set() and self.error is None and not self.cancelled

    def wait(self, timeout: float | None = None) -> bool:
        """Block the calling thread until resolution (or timeout)."""
        return self._event.wait(timeout)


class _Submission:
    __slots__ = ("request", "tenant", "on_done", "handle", "task")

    def __init__(self, request, key, nbytes, tenant, on_done):
        #: Zero-argument callable returning the coroutine to await —
        #: the only thing that differs between a PUT and a DELETE.
        self.request = request
        self.tenant = tenant
        self.on_done = on_done
        self.handle = UploadHandle(key=key, nbytes=nbytes, tenant=tenant)
        self.task: asyncio.Task | None = None


class Timer:
    """A pending :meth:`UploadReactor.call_at` callback; :meth:`cancel`
    is safe from any thread, before or after it fired."""

    __slots__ = ("_loop", "_task", "_cancelled")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._task: asyncio.Task | None = None
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        try:
            self._loop.call_soon_threadsafe(self._cancel_task)
        except RuntimeError:  # loop already closed: nothing can fire
            pass

    def _cancel_task(self) -> None:
        if self._task is not None:
            self._task.cancel()


class _Lane:
    """One tenant's admission state (guarded by the reactor lock)."""

    __slots__ = (
        "queue", "active", "inflight", "window", "backoffs", "retries",
        "attachments", "on_fatals",
    )

    def __init__(self, window: int):
        self.queue: deque[_Submission] = deque()
        self.active: set[_Submission] = set()
        self.inflight = 0
        self.window = window
        #: Uploads currently parked in a retry backoff timer.
        self.backoffs = 0
        #: Cumulative retry attempts this lane has absorbed.
        self.retries = 0
        self.attachments = 0
        self.on_fatals: list = []


class _LaneBackoffNote(aio.BackoffNote):
    """Feeds a lane's backoff gauge from the retry layer, via
    :func:`~repro.cloud.aio.install` — the retry layer never learns the
    reactor exists."""

    __slots__ = ("_reactor", "_lane")

    def __init__(self, reactor: "UploadReactor", lane: _Lane):
        self._reactor = reactor
        self._lane = lane

    def backoff_started(self, seconds: float) -> None:
        with self._reactor._lock:
            self._lane.backoffs += 1
            self._lane.retries += 1

    def backoff_ended(self) -> None:
        with self._reactor._lock:
            self._lane.backoffs -= 1


class UploadReactor:
    """One event-loop thread driving all WAL and checkpoint PUTs and
    GC DELETEs.

    Args:
        inflight_window: global cap on concurrently running requests.
        io_threads: size of the executor pool that runs the requests
            of stores speaking only the synchronous colour (and exotic
            ``Clock.sleep_async`` fallbacks).  This bounds the *total*
            thread cost of the upload path regardless of tenant count.
        name: thread-name prefix (``<name>`` for the loop thread,
            ``<name>-io-*`` for the bridge pool) — the CI thread
            census groups by these prefixes.
    """

    def __init__(
        self,
        *,
        inflight_window: int = 64,
        io_threads: int = 4,
        name: str = "ginja-reactor",
    ):
        if inflight_window < 1:
            raise ValueError("inflight_window must be >= 1")
        if io_threads < 1:
            raise ValueError("io_threads must be >= 1")
        self._window = inflight_window
        self._io_threads = io_threads
        self._name = name
        self._lock = threading.Lock()
        self._lanes: dict[str, _Lane] = {}
        self._order: list[str] = []
        self._rr = 0
        self._inflight = 0
        self._queued = 0
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._tasks: set[asyncio.Task] = set()
        self._started = threading.Event()
        self._stop_evt: asyncio.Event | None = None
        self._stopping = False
        self._pump_scheduled = False
        self._crash_exc: BaseException | None = None
        self._fatal: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "UploadReactor":
        if self._thread is not None:
            raise GinjaError("upload reactor already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._io_threads, thread_name_prefix=f"{self._name}-io"
        )
        self._thread = threading.Thread(
            target=self._main, name=self._name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):  # pragma: no cover - never in practice
            raise GinjaError("upload reactor failed to start")
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        loop.set_default_executor(self._executor)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:
            self._die(exc)
        finally:
            try:
                loop.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            # Crash paths never reach stop(); retire the io threads
            # here so a dead reactor leaks nothing.
            if self._executor is not None:
                self._executor.shutdown(wait=True)

    async def _serve(self) -> None:
        self._stop_evt = asyncio.Event()
        self._started.set()
        await self._stop_evt.wait()
        # Teardown: interrupt whatever is still running (in-flight PUTs
        # and their backoff timers) and wait for the bookkeeping to
        # settle before the loop goes away.
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._crash_exc is not None:
            raise self._crash_exc

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop thread; queued submissions fail, in-flight
        PUTs are cancelled.  Callers drain their pipelines first, so a
        healthy shutdown reaches this with nothing pending."""
        if self._thread is None:
            return
        if threading.current_thread() is self._thread:
            # A reactor callback must never join the loop it runs on.
            raise GinjaError("reactor cannot stop itself from its loop thread")
        # Lanes still attached learn first: their clients fail rather
        # than wait on work that will never run.
        self._abandon(GinjaError("upload reactor is not running"),
                      running=False)
        self._signal_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            # Wedged in a callback that never returns (a claim job's
            # codec call): the thread stays on the census, and we name it.
            raise GinjaError(
                f"upload reactor thread failed to stop: {self._thread.name}"
            )
        self._thread = None
        if self._executor is not None:
            # wait=True: the io threads must be gone when stop()
            # returns, or thread-leak checks see them linger.
            self._executor.shutdown(wait=True)

    def crash(self, exc: BaseException | None = None) -> None:
        """Kill the loop thread mid-stream (chaos drills).

        Every pending handle resolves with the error and every lane's
        ``on_fatal`` fires — attached pipelines poison, none hang.
        The loop thread exits; the reactor cannot be restarted.
        """
        with self._lock:
            if self._thread is None or self._fatal is not None:
                return
            self._crash_exc = exc or GinjaError("upload reactor crashed")
            self._stopping = True
        self._signal_stop()
        if threading.current_thread() is not self._thread:
            self._thread.join(10.0)

    def _signal_stop(self) -> None:
        self._started.wait(10.0)
        loop, evt = self._loop, self._stop_evt
        if loop is None or evt is None:
            return
        try:
            loop.call_soon_threadsafe(evt.set)
        except RuntimeError:  # loop already closed
            pass

    def _die(self, exc: BaseException) -> None:
        """The loop thread is gone: fail everyone, settle everything."""
        with self._lock:
            self._fatal = exc
        self._abandon(exc, running=True)

    def _abandon(self, exc: BaseException, *, running: bool) -> None:
        """Take every queued — and, with ``running``, every admitted —
        request off its lane, fire every lane's ``on_fatal`` hooks,
        then settle what was taken with ``exc``."""
        with self._lock:
            self._stopping = True
            lanes = list(self._lanes.values())
            orphans = []
            for lane in lanes:
                orphans += [(lane, sub) for sub in lane.queue]
                lane.queue.clear()
                if running:
                    orphans += [(lane, sub) for sub in lane.active]
                    lane.active.clear()
                    lane.inflight = 0
            self._queued = 0
            if running:
                self._inflight = 0
        for lane in lanes:
            self._fire_fatals(lane, exc)
        for lane, sub in orphans:
            self._settle(lane, sub, exc)

    # -- tenant lanes --------------------------------------------------------

    def attach(self, tenant: str, *, window: int, on_fatal=None) -> None:
        """Register a client (pipeline or checkpointer) on a tenant lane.

        Attachments are refcounted: a pipeline and a checkpointer of
        the same tenant share one lane, whose per-tenant window is the
        max of the attachment windows.  ``on_fatal(exc)`` fires if the
        reactor thread dies.
        """
        if window < 1:
            raise ValueError("per-tenant window must be >= 1")
        with self._lock:
            if self._fatal is not None:
                raise GinjaError("upload reactor is dead") from self._fatal
            lane = self._lanes.get(tenant)
            if lane is None:
                lane = self._lanes[tenant] = _Lane(window=window)
                self._order.append(tenant)
            elif lane.attachments <= 0:
                # Detached but not yet reaped (its last request is
                # still settling): a successor starts from its own
                # window, not the predecessor's.
                lane.window = window
            lane.attachments += 1
            lane.window = max(lane.window, window)
            if on_fatal is not None:
                lane.on_fatals.append(on_fatal)

    def detach(self, tenant: str, on_fatal=None) -> None:
        """Drop one attachment.  The lane goes with its last one — now
        if it is idle, else when its last queued or running request
        settles (a crash cancels and detaches back to back, with the
        cancel still pending on the loop)."""
        with self._lock:
            lane = self._lanes.get(tenant)
            if lane is None:
                return
            lane.attachments -= 1
            if on_fatal is not None and on_fatal in lane.on_fatals:
                lane.on_fatals.remove(on_fatal)
            self._reap_locked(tenant, lane)

    def _reap_locked(self, tenant: str, lane: _Lane) -> None:
        """Forget ``lane`` once nothing is attached to it and nothing
        of it is queued or running."""
        if lane.attachments > 0 or lane.queue or lane.active:
            return
        if self._lanes.get(tenant) is not lane:
            return
        del self._lanes[tenant]
        self._order.remove(tenant)
        self._rr = self._rr % len(self._order) if self._order else 0

    # -- submission ----------------------------------------------------------

    def submit(self, store, key: str, data: bytes, *, tenant: str,
               on_done=None) -> UploadHandle:
        """Queue one PUT; returns immediately with its handle.

        ``on_done(handle)`` runs on the loop thread after resolution,
        one callback at a time — it must be fast and must not block
        (the commit pipeline's consecutive-timestamp unlock runs here).
        """
        return self._enqueue(_Submission(
            lambda: store.aput(key, data), key, len(data), tenant,
            on_done,
        ))

    def submit_delete(self, store, keys, *, tenant: str,
                      on_done=None) -> UploadHandle:
        """Queue one batch DELETE of ``keys`` (``store.adelete_many``);
        same lane, window, handle and ``on_done`` contract as
        :meth:`submit`."""
        keys = list(keys)
        return self._enqueue(_Submission(
            lambda: store.adelete_many(keys), keys[0] if keys else "",
            0, tenant, on_done,
        ))

    def _live_lane_locked(self, tenant: str) -> _Lane:
        """``tenant``'s lane, if the reactor can still take its work."""
        if self._fatal is not None:
            raise GinjaError("upload reactor is dead") from self._fatal
        if self._stopping or self._thread is None:
            raise GinjaError("upload reactor is not running")
        lane = self._lanes.get(tenant)
        if lane is None:
            raise GinjaError(f"tenant {tenant!r} is not attached to the reactor")
        return lane

    def _enqueue(self, sub: _Submission) -> UploadHandle:
        with self._lock:
            lane = self._live_lane_locked(sub.tenant)
            lane.queue.append(sub)
            self._queued += 1
            # Coalesced wakeup: waking the loop is a self-pipe write
            # (a syscall per call), so skip it when a pump is already
            # scheduled or the window is full — every completion
            # re-pumps on the loop thread, which drains the queue.
            need_wake = (
                not self._pump_scheduled and self._inflight < self._window
            )
            if need_wake:
                self._pump_scheduled = True
        if need_wake:
            self._wake()
        return sub.handle

    def call_at(self, clock, deadline: float, fn, *, tenant: str) -> Timer:
        """Run ``fn()`` on the loop thread once ``clock`` reaches
        ``deadline`` (:meth:`Clock.wait_until_async
        <repro.common.clock.Clock.wait_until_async>` — the caller's
        clock, so virtual time fires it exactly when it is advanced
        past the deadline).  ``fn`` must be fast and must not block,
        like ``on_done``; an ``Exception`` escaping it (or the clock)
        fires ``tenant``'s ``on_fatal`` hooks and nobody else's.
        """
        timer = Timer(self._loop)

        def arm(lane: _Lane) -> None:
            if timer._cancelled or self._stopping:
                return
            task = timer._loop.create_task(
                self._run_timer(clock, deadline, fn, lane)
            )
            timer._task = task
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

        self._post(tenant, arm)
        return timer

    def call_soon(self, fn, *, tenant: str) -> None:
        """Run ``fn()`` on the loop thread, behind the callbacks already
        queued there — a commit pipeline's claim job rides here.  Unlike
        ``on_done``, ``fn`` may take a while (it encodes a batch): the
        loop runs nothing else meanwhile.  It must not block on the
        loop's own work.  An ``Exception`` escaping it fires
        ``tenant``'s ``on_fatal`` hooks and nobody else's.
        """
        def run(lane: _Lane) -> None:
            try:
                fn()
            except Exception as exc:
                self._fire_fatals(lane, exc)

        self._post(tenant, run)

    def _post(self, tenant: str, callback) -> None:
        """Queue ``callback(lane)`` on the loop, if ``tenant``'s lane can
        still take work."""
        with self._lock:
            lane = self._live_lane_locked(tenant)
            loop = self._loop
        try:
            loop.call_soon_threadsafe(callback, lane)
        except RuntimeError as exc:  # loop closed between check and call
            raise GinjaError("upload reactor is not running") from exc

    async def _run_timer(self, clock, deadline: float, fn, lane: _Lane) -> None:
        try:
            await clock.wait_until_async(deadline)
            fn()
        except Exception as exc:
            self._fire_fatals(lane, exc)

    def _fire_fatals(self, lane: _Lane, exc: BaseException) -> None:
        """A broken hook fails its own lane, never the loop."""
        with self._lock:
            callbacks = list(lane.on_fatals)
        for cb in callbacks:
            try:
                cb(exc)
            except Exception:
                pass

    def cancel(self, tenant: str, *, queued_only: bool = False) -> None:
        """Drop ``tenant``'s queued submissions and (unless
        ``queued_only``) interrupt its in-flight requests — cancelling
        a backoff await mid-timer — without touching any other tenant's
        work or retry budgets.  Dropped requests settle ``cancelled``,
        so drop accounting (``upload_dropped``) fires.
        ``queued_only=True`` is a blown fuse's path: a failed pipeline
        abandons work it has not started but lets PUTs already on the
        wire run to their own verdict."""
        def _do() -> None:
            with self._lock:
                lane = self._lanes.get(tenant)
                if lane is None:
                    return
                dropped = list(lane.queue)
                lane.queue.clear()
                self._queued -= len(dropped)
                active = [] if queued_only else list(lane.active)
                self._reap_locked(tenant, lane)
            for sub in dropped:
                self._settle(lane, sub, None, cancelled=True)
            for sub in active:
                if sub.task is not None:
                    sub.task.cancel()

        loop = self._loop
        if loop is None:
            return
        if threading.current_thread() is self._thread:
            _do()
            return
        try:
            loop.call_soon_threadsafe(_do)
        except RuntimeError:  # loop already closed; _die handled cleanup
            pass

    def _wake(self) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._pump_entry)
        except RuntimeError:
            pass

    def _pump_entry(self) -> None:
        with self._lock:
            self._pump_scheduled = False
        self._pump()

    # -- loop-thread machinery -----------------------------------------------

    def _pump(self) -> None:
        """Admit queued submissions up to the global and lane windows.

        Round-robin over lanes, one claim per visit, so a tenant with a
        thousand queued PUTs cannot starve one with a single PUT.
        """
        while True:
            with self._lock:
                if self._stopping or self._crash_exc is not None:
                    return
                if self._inflight >= self._window:
                    return
                claimed = self._next_locked()
                if claimed is None:
                    return
                lane, sub = claimed
                lane.inflight += 1
                lane.active.add(sub)
                self._inflight += 1
                self._queued -= 1
            task = self._loop.create_task(self._run_one(lane, sub))
            sub.task = task
            self._tasks.add(task)
            # Settled from a done-callback, not from the coroutine's
            # tail: a task cancelled before its first step never runs
            # a line of its body, and its handle must resolve anyway.
            task.add_done_callback(functools.partial(self._finish, lane, sub))

    def _next_locked(self):
        order = self._order
        n = len(order)
        for i in range(n):
            lane = self._lanes[order[(self._rr + i) % n]]
            if lane.queue and lane.inflight < lane.window:
                self._rr = (self._rr + i + 1) % n
                return lane, lane.queue.popleft()
        return None

    async def _run_one(
        self, lane: _Lane, sub: _Submission
    ) -> BaseException | None:
        """One request; returns the error it ultimately failed with."""
        # The note belongs to this request's task — the retry layer
        # finds it via current_upload() without ever importing the
        # reactor.
        aio.install(_LaneBackoffNote(self, lane))
        try:
            await sub.request()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            return exc
        return None

    def _finish(self, lane: _Lane, sub: _Submission, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        cancelled = task.cancelled()
        error = None if cancelled else task.result()
        with self._lock:
            lane.active.discard(sub)
            lane.inflight -= 1
            self._inflight -= 1
            if cancelled and error is None and self._crash_exc is not None:
                # Interrupted by reactor death, not by a tenant cancel:
                # the handle carries the crash, so waiters see *why*.
                error, cancelled = self._crash_exc, False
            self._reap_locked(sub.tenant, lane)
        self._settle(lane, sub, error, cancelled)
        self._pump()

    def _settle(self, lane: _Lane, sub: _Submission,
                error: BaseException | None, cancelled: bool = False) -> None:
        """The one way a request leaves: resolve its handle, then run
        its ``on_done`` — on the loop thread, or on the thread of a
        :meth:`stop` that orphaned it.  An ``on_done`` that raises
        fails its lane, never the loop."""
        sub.handle._resolve(error, cancelled)
        if sub.on_done is not None:
            try:
                sub.on_done(sub.handle)
            except Exception as exc:
                self._fire_fatals(lane, exc)

    # -- observability -------------------------------------------------------

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive() and self._fatal is None

    def health(self) -> dict:
        """In-flight / queued / backoff gauges, global and per tenant."""
        with self._lock:
            return {
                "running": self.alive and not self._stopping,
                "window": self._window,
                "io_threads": self._io_threads,
                "inflight": self._inflight,
                "queued": self._queued,
                "tenants": {
                    tenant: {
                        "queued": len(lane.queue),
                        "inflight": lane.inflight,
                        "backoffs": lane.backoffs,
                        "retries": lane.retries,
                        "window": lane.window,
                    }
                    for tenant, lane in self._lanes.items()
                },
            }
