"""The encode stage: a sized worker pool for off-DBMS-thread work.

The paper's Figure 3 gives every database an Aggregator thread that
claims, coalesces, compresses and encrypts serially.  Here that work is
a *job* on this pool::

    submit (DBMS thread)  →  claim job on the EncodeStage  →  upload reactor

A commit pipeline schedules at most one **claim job** at a time on its
lane: claim a batch, plan its WAL objects, assign their timestamps,
then encode and hand each object to the reactor in ts order.  So
everything ordering-sensitive runs on one thread at a time per
pipeline, and the uploads behind it are ordered downstream by the
consecutive-timestamp unlock rule.

**One encoder per process.**  ``Ginja`` and ``FleetManager`` build their
stage with one worker.  A lone pipeline never has two claim jobs in
flight, and a fleet's claim jobs (≈ 0.3 ms each) are GIL-bound: with
six compress+encrypt tenants on a zero-latency cloud (the perf
harness's ``fleet_submit_unlock`` series, 2-core box), shared pools of
6, 2 and 1 workers read 23.2k / 23.4k / 22.7k and 21.1k / 22.7k /
21.5k updates/s over two rounds — one worker is within 3 % of six even
where encoding is the bottleneck.  :meth:`EncodeStage.map` runs one of its
jobs on the calling thread, which blocks there anyway, so a
multi-part checkpoint still encodes two parts at once.  Other pools
are sized by their owners: the recovery engine's download helpers and
a fleet's shared download pool are stages too.

**Workers start on demand.**  :meth:`EncodeStage.start` opens the stage
and starts no thread; :meth:`EncodeStage.submit` starts one, under the
lock, only when the queued jobs outnumber the idle workers and fewer
than ``workers`` exist.  No worker retires before
:meth:`EncodeStage.stop`, so the pool only grows, to the largest
concurrent demand of the run.

**Fair-share lanes.**  Jobs are queued per *lane* (a fleet passes the
tenant id; single-tenant callers use the default lane) and workers pick
lanes round-robin, so a tenant that floods the stage with a burst of
jobs cannot starve its co-tenants: each non-empty lane gets one job
per scheduling turn — a cold tenant's T_B flush waits for at most one
job per busy lane, never for a burst.  With a single lane this
degenerates to the FIFO queue the stage always had.

Every job is submitted with the :class:`~repro.common.fuse.Fuse` its
failure goes to — the submitting pipeline's, a restore's, a
:meth:`map` call's — and runs under that fuse's ``guard``; a job the
crash path discards blows its fuse instead of running (DESIGN.md,
"Failure discipline").  :meth:`submit` on a stage that is not running
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
    """At most ``workers`` encoder threads, started on demand and fed
    from per-lane FIFO queues.

    Args:
        workers: most threads the pool starts.
        name: thread-name prefix (the thread census groups by it).
    """

    def __init__(self, workers: int, *, name: str = "ginja-encoder"):
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

        The job owns its own result delivery (e.g. handing an encoded
        blob to the upload reactor); whatever escapes it blows ``fuse``
        — its owner's, never the stage's.  ``lane`` names the fair-share
        queue — a fleet passes the tenant id so one tenant's burst
        cannot starve the others.

        Raises:
            GinjaError: when the stage is not running.  No worker would
                ever start for the job; callers either hold the stage
                running for the submission's lifetime (the pipeline
                does) or must handle the error.
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

        Used by the checkpoint collector to encode a checkpoint's parts
        in parallel.  The first job runs on the calling thread, which
        would only wait here otherwise, and the rest on the pool — so a
        one-part checkpoint object takes no worker; when the stage is
        not running every job runs here, so callers never need a
        fallback path.  The call's own fuse carries the first exception
        any job raised (or the discard of one), which is re-raised here,
        in the calling thread, without waiting for the rest — the
        collector's caller (the DBMS's checkpointing thread) keeps the
        kill-the-checkpointer discipline it had when encoding inline.
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
