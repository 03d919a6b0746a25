"""The encode stage: a sized worker pool for a tenant's off-DBMS-thread work.

The paper's Figure 3 gives every database an Aggregator thread that
claims, coalesces, compresses and encrypts serially.  Here that work is
a *job* on this pool::

    submit (DBMS thread)  →  claim job on the EncodeStage  →  upload reactor

A commit pipeline schedules at most one **claim job** at a time on its
lane: claim a batch, plan its WAL objects, assign their timestamps,
encode the first object on the spot and hand objects 2…n (rare — the
object cap is 20 MB) back to the same lane for any idle worker.  So
everything ordering-sensitive still runs on one thread at a time per
pipeline, and the codec work behind it is ordered downstream by the
consecutive-timestamp unlock rule.  zlib, ``cryptography``'s AES and
``hmac`` all release the GIL, so the workers achieve real parallelism
in CPython.

The stage is deliberately generic — jobs are plain callables — so the
:class:`~repro.core.checkpointer.CheckpointCollector` reuses the same
pool via :meth:`EncodeStage.map`, the recovery engine borrows one as a
download pool, and a :class:`~repro.fleet.manager.FleetManager` shares
one stage across every tenant's pipeline.

**Fair-share lanes.**  Jobs are queued per *lane* (a fleet passes the
tenant id; single-tenant callers use the default lane) and workers pick
lanes round-robin, so a tenant that floods the stage with a burst of
objects cannot starve its co-tenants: each non-empty lane gets one job
per scheduling turn — a cold tenant's T_B flush waits for at most one
job per busy lane, never for a burst.  With a single lane this
degenerates to the FIFO queue the stage always had.

Failure discipline matches the other worker loops: a job that lets a
``BaseException`` escape is reported to the stage's ``on_error`` hook,
never swallowed (a commit pipeline's jobs catch their own failures and
poison only their own pipeline); :meth:`map` re-raises the first
failure in the caller.
:meth:`submit` on a stage that is not running raises
:class:`~repro.common.errors.GinjaError` — a silently parked job would
otherwise sit in the queue forever, and the batch it belongs to would
never ack.  :meth:`stop` verifies every worker actually joined: a
wedged worker (a job blocked forever) poisons the owner and raises
instead of being silently leaked with ``running`` reporting False.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.common.errors import GinjaError


class _MapJob:
    """One :meth:`EncodeStage.map` unit: runs on a worker, and — unlike a
    fire-and-forget job — must resolve even on the discard path, or the
    mapper would wait forever on a job nobody will run."""

    __slots__ = ("_run",)

    def __init__(self, run: Callable[[bool], None]):
        self._run = run

    def __call__(self) -> None:
        self._run(False)

    def cancel(self) -> None:
        self._run(True)


class EncodeStage:
    """A fixed pool of encoder threads fed from per-lane FIFO queues.

    Args:
        workers: pool size (``GinjaConfig.encoders``).
        on_error: called with the escaping ``BaseException`` when an
            async job dies; installed by the pipeline to poison itself.
            A *shared* stage leaves this ``None`` — each tenant's encode
            jobs catch their own failures and poison only their own
            pipeline.  ``map`` jobs report to their caller instead.
    """

    def __init__(
        self,
        workers: int,
        *,
        on_error: Callable[[BaseException], None] | None = None,
        name: str = "ginja-encoder",
    ):
        if workers < 1:
            raise GinjaError("encode stage needs at least one worker")
        self._workers = workers
        self._name = name
        self._on_error = on_error
        self._cond = threading.Condition()
        #: lane -> queued jobs; a lane exists only while it has jobs.
        self._lanes: dict[str, deque] = {}
        #: Round-robin order over the non-empty lanes.
        self._rr: deque[str] = deque()
        self._pending = 0
        self._stopping = False
        self._threads: list[threading.Thread] = []
        #: Drop queued jobs instead of running them (the crash path).
        #: Written and read only under ``_cond``: a crash racing a drain
        #: must never let one worker run a job another is discarding.
        self._discard = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._threads)

    @property
    def workers(self) -> int:
        return self._workers

    def start(self) -> None:
        if self._threads:
            raise GinjaError("encode stage already started")
        with self._cond:
            self._discard = False
            self._stopping = False
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"{self._name}-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, *, discard: bool = False, join_timeout: float = 10.0) -> None:
        """Stop all workers.

        ``discard=False`` (the drain path) lets queued jobs finish first;
        ``discard=True`` (the crash path) drops them — workers skip every
        remaining job, exactly as a power failure would.

        Raises:
            GinjaError: when a worker fails to join within
                ``join_timeout`` (a job blocked forever).  The wedged
                threads stay on the roster so ``running`` keeps
                reporting True and a later :meth:`start` cannot double
                the pool; the error is also reported to ``on_error``,
                poisoning the owning pipeline.
        """
        if not self._threads:
            return
        with self._cond:
            if discard:
                self._discard = True
            self._stopping = True
            self._cond.notify_all()
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
            exc = GinjaError(
                "encode stage stop timed out; wedged workers: "
                + ", ".join(thread.name for thread in wedged)
            )
            if self._on_error is not None:
                try:
                    self._on_error(exc)
                except Exception:
                    pass
            raise exc
        self._threads.clear()
        with self._cond:
            self._stopping = False
            self._discard = False

    # -- job submission ----------------------------------------------------------

    def _enqueue(self, job, lane: str) -> None:
        with self._cond:
            if not self._threads:
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
            queue.append(job)
            self._pending += 1
            self._cond.notify()

    def submit(self, job: Callable[[], None], lane: str = "") -> None:
        """Queue one fire-and-forget job (the pipeline's per-object path).

        The job owns its own result delivery (e.g. putting an encoded
        blob on the upload queue); an escaping exception goes to
        ``on_error``.  ``lane`` names the fair-share queue — a fleet
        passes the tenant id so one tenant's burst cannot starve the
        others.

        Raises:
            GinjaError: when the stage is not running.  With no worker
                threads the job would sit in the queue forever; callers
                either hold the stage running for the submission's
                lifetime (the pipeline does) or must handle the error.
        """
        self._enqueue(job, lane)

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
        """Run ``jobs`` on the pool, block for all, return results in order.

        Used by the checkpoint collector to encode a checkpoint's parts
        in parallel.  The first exception any job raised is re-raised
        here, in the calling thread — the collector's caller (the DBMS's
        checkpointing thread) keeps the kill-the-checkpointer discipline
        it had when encoding inline.  When the stage is not running the
        jobs execute inline, so callers never need a fallback path.
        """
        if not jobs:
            return []
        if not self._threads:
            return [job() for job in jobs]
        results: list[object] = [None] * len(jobs)
        errors: list[BaseException] = []
        done = threading.Event()
        remaining = len(jobs)
        lock = threading.Lock()

        def run(index: int, job: Callable[[], object], cancelled: bool) -> None:
            nonlocal remaining
            try:
                if cancelled:
                    raise GinjaError("encode stage stopped before the job ran")
                results[index] = job()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with lock:
                    errors.append(exc)
            finally:
                with lock:
                    remaining -= 1
                    if remaining == 0:
                        done.set()

        for index, job in enumerate(jobs):
            map_job = _MapJob(
                lambda cancelled, i=index, j=job: run(i, j, cancelled)
            )
            try:
                self._enqueue(map_job, lane)
            except GinjaError:
                # The stage stopped under us: already-enqueued jobs were
                # drained (or cancelled) by the exiting workers; run the
                # rest inline so the latch always resolves.
                map_job()
        done.wait()
        if errors:
            raise errors[0]
        return results

    # -- worker ------------------------------------------------------------------

    def _claim_locked(self):
        """Pop the next job, rotating the round-robin lane ring."""
        lane = self._rr.popleft()
        queue = self._lanes[lane]
        job = queue.popleft()
        if queue:
            self._rr.append(lane)
        else:
            del self._lanes[lane]
        self._pending -= 1
        return job

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while self._pending == 0 and not self._stopping:
                    self._cond.wait()
                if self._pending == 0:
                    return  # stopping, and the queues are drained
                job = self._claim_locked()
                discard = self._discard
            if discard:
                # Fire-and-forget jobs are simply dropped (the crash
                # semantics), but map jobs must still resolve their
                # latch.
                if isinstance(job, _MapJob):
                    job.cancel()
                continue
            try:
                job()
            except BaseException as exc:  # noqa: BLE001 - worker loop boundary
                # A dead encoder is as fatal as a dead uploader:
                # without this hook the pipeline would wait forever
                # on a blob that will never be enqueued.
                if self._on_error is not None:
                    try:
                        self._on_error(exc)
                    except Exception:
                        pass
