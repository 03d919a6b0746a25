"""The restore helper pool: a sized worker pool for blocking jobs.

A disaster recovery fetches and decodes its plan positions on helper
threads beside the restoring one (:mod:`repro.core.recovery`): each
helper blocks in a synchronous GET, so it needs a thread of its own.
A stand-alone restore builds a private pool (``ginja-downloader-*``)
and stops it when the restore ends; a fleet shares one
(``fleet-downloader-*``) across concurrent restores, one fair-share
lane per tenant.  Nothing on the write path runs here: a commit
pipeline's claim jobs run on the upload reactor's loop, and a
checkpoint encodes on the DBMS's checkpointing thread (DESIGN.md,
"Thread anatomy and ownership", says why there is no encoder).

**Workers start on demand.**  :meth:`EncodeStage.start` opens the stage
and starts no thread; :meth:`EncodeStage.submit` starts one, under the
lock, only when the queued jobs outnumber the idle workers and fewer
than ``workers`` exist.  No worker retires before
:meth:`EncodeStage.stop`, so the pool only grows, to the largest
concurrent demand of the run.

**Fair-share lanes.**  Jobs are queued per *lane* (a fleet passes the
tenant id; single-tenant callers use the default lane) and workers pick
lanes round-robin, so a tenant that floods the pool with a burst of
jobs cannot starve its co-tenants: each non-empty lane gets one job
per scheduling turn.  With a single lane this degenerates to a FIFO
queue.

Every job is submitted with the :class:`~repro.common.fuse.Fuse` its
failure goes to — a restore's, a :meth:`map` call's — and runs under
that fuse's ``guard``; a job the crash path discards blows its fuse
instead of running (DESIGN.md, "Failure discipline").  :meth:`submit` on a stage that is not running
raises :class:`~repro.common.errors.GinjaError`, and :meth:`stop`
raises when a worker fails to join (a job blocked forever) instead of
leaking it with ``running`` reporting False.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from typing import Callable

from repro.common.errors import GinjaError
from repro.common.fuse import Fuse


class EncodeStage:
    """At most ``workers`` threads, started on demand and fed from
    per-lane FIFO queues.

    Args:
        workers: most threads the pool starts.
        name: thread-name prefix (the thread census groups by it).
    """

    def __init__(self, workers: int, *, name: str = "ginja-downloader"):
        if workers < 1:
            raise GinjaError("encode stage needs at least one worker")
        self._workers = workers
        self._name = name
        self._cond = threading.Condition()
        #: lane -> queued ``(job, fuse)`` pairs; a lane exists only
        #: while it has jobs.
        self._lanes: dict[str, deque] = {}
        #: Round-robin order over the non-empty lanes.
        self._rr: deque[str] = deque()
        self._pending = 0
        self._running = False
        self._stopping = False
        self._threads: list[threading.Thread] = []
        #: Started workers not running a job.
        self._idle = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Open the stage to :meth:`submit`; no thread starts here."""
        with self._cond:
            if self._running:
                raise GinjaError("encode stage already started")
            self._running = True
            self._stopping = False

    def stop(self, *, discard: bool = False, join_timeout: float = 10.0) -> None:
        """Stop all workers.

        ``discard=False`` (the drain path) lets queued jobs finish first;
        ``discard=True`` (the crash path) drops them, exactly as a power
        failure would: they leave the queue here, under the lock, so no
        worker runs one, and each one's fuse is blown so nobody waits on
        it — even when every worker is wedged in a job.

        Raises:
            GinjaError: when a worker fails to join within
                ``join_timeout`` (a job blocked forever).  The wedged
                threads stay on the roster so ``running`` keeps
                reporting True and a later :meth:`start` cannot double
                the pool.
        """
        dropped = []
        with self._cond:
            if not self._running:
                return
            self._stopping = True
            while discard and self._pending:
                dropped.append(self._claim_locked()[1])
            self._cond.notify_all()
        # Blown outside the lock: a fuse's hook may take its owner's
        # lock, which owners hold while they submit here.
        for fuse in dropped:
            fuse.blow(GinjaError("encode stage stopped before the job ran"))
        wedged = []
        for thread in self._threads:
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                wedged.append(thread)
        if wedged:
            # Keep only the wedged threads: running stays True (start()
            # refuses to stack a second pool on the leak) and _stopping
            # stays set so a worker that ever unwedges exits at once.
            self._threads = wedged
            raise GinjaError(
                "encode stage stop timed out; wedged workers: "
                + ", ".join(thread.name for thread in wedged)
            )
        with self._cond:
            self._threads.clear()
            self._running = False
            self._stopping = False

    # -- job submission ----------------------------------------------------------

    def submit(
        self, job: Callable[[], None], fuse: Fuse, lane: str = ""
    ) -> None:
        """Queue one fire-and-forget job, run as ``fuse.guard(job)``.

        The job owns its own result delivery (e.g. a restore helper
        parks its decoded payload for the applying thread); whatever
        escapes it blows ``fuse`` — its owner's, never the stage's.
        ``lane`` names the fair-share queue — a fleet passes the tenant
        id so one tenant's burst cannot starve the others.

        Raises:
            GinjaError: when the stage is not running.  No worker would
                ever start for the job; callers either hold the stage
                running for the submission's lifetime or must handle
                the error.
        """
        with self._cond:
            if not self._running:
                raise GinjaError("encode stage is not running")
            if self._stopping:
                # Covers both an in-progress drain and a wedged stop()
                # (which leaves the stage in this state deliberately).
                raise GinjaError("encode stage is stopping")
            queue = self._lanes.get(lane)
            if queue is None:
                queue = deque()
                self._lanes[lane] = queue
            if not queue:
                self._rr.append(lane)
            queue.append((job, fuse))
            self._pending += 1
            if (self._pending > self._idle
                    and len(self._threads) < self._workers):
                # Every started worker is busy or spoken for.  The new
                # one counts as idle from here, so the next submit of a
                # burst does not start a second one for the same job.
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"{self._name}-{len(self._threads)}", daemon=True,
                )
                self._threads.append(thread)
                self._idle += 1
                thread.start()
            self._cond.notify()

    def queue_depth(self) -> int:
        """Jobs waiting in the stage (approximate, for events)."""
        with self._cond:
            return self._pending

    def lane_depth(self, lane: str = "") -> int:
        """Jobs waiting in one lane (approximate, for fleet health)."""
        with self._cond:
            queue = self._lanes.get(lane)
            return len(queue) if queue is not None else 0

    def map(
        self, jobs: list[Callable[[], object]], lane: str = ""
    ) -> list[object]:
        """Run ``jobs``, block for all, return results in order.

        The first job runs on the calling thread, which would only wait
        here otherwise, and the rest on the pool — so one job takes no
        worker; when the stage is not running every job runs here, so
        callers never need a fallback path.  The call's own fuse
        carries the first exception any job raised (or the discard of
        one), which is re-raised here, in the calling thread, without
        waiting for the rest.
        """
        if len(jobs) <= 1 or not self._running:
            return [job() for job in jobs]
        results: list[object] = [None] * len(jobs)
        cond = threading.Condition()
        fuse = Fuse(cond)
        left = len(jobs)

        def run(index: int, job: Callable[[], object]) -> None:
            nonlocal left
            results[index] = job()
            with cond:
                left -= 1
                if not left:
                    cond.notify_all()

        for index in range(1, len(jobs)):
            try:
                self.submit(partial(run, index, jobs[index]), fuse, lane)
            except GinjaError:
                # The stage stopped under us: run the rest inline.
                fuse.guard(run, index, jobs[index])
        fuse.guard(run, 0, jobs[0])
        with cond:
            cond.wait_for(lambda: not left or fuse.error is not None)
        if fuse.error is not None:
            raise fuse.error
        return results

    # -- worker ------------------------------------------------------------------

    def _claim_locked(self) -> tuple[Callable[[], None], Fuse]:
        """Pop the next job, rotating the round-robin lane ring."""
        lane = self._rr.popleft()
        queue = self._lanes[lane]
        entry = queue.popleft()
        if queue:
            self._rr.append(lane)
        else:
            del self._lanes[lane]
        self._pending -= 1
        return entry

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while self._pending == 0 and not self._stopping:
                    self._cond.wait()
                self._idle -= 1
                if self._pending == 0:
                    return  # stopping, and the queues are drained
                job, fuse = self._claim_locked()
            fuse.guard(job)
            with self._cond:
                self._idle += 1
