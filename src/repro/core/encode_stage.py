"""The encode stage: a sized worker pool for codec work (CPU parallelism).

The paper's Figure 3 overlaps replication with transaction processing,
and its evaluation runs five parallel uploader threads — but compression,
encryption and MAC work used to run serially on the single Aggregator
thread, so with the Fig. 6 configuration (zlib + AES) the uploaders
starved behind one encoder.  This module is the middle stage of the
three-stage pipeline::

    Aggregator  →  EncodeStage (N workers)  →  Uploaders

Everything ordering-sensitive (batch claim, coalescing, timestamp
assignment) stays on the Aggregator; the encode stage only runs pure
CPU transforms whose outputs are ordered downstream by the
consecutive-timestamp unlock rule.  zlib, ``cryptography``'s AES and ``hmac``
all release the GIL, so the workers achieve real parallelism in CPython.

The stage is deliberately generic — jobs are plain callables — so the
:class:`~repro.core.checkpointer.CheckpointCollector` reuses the same
pool via :meth:`EncodeStage.map`, the recovery engine borrows it as a
download pool, and a :class:`~repro.fleet.manager.FleetManager` shares
one stage across every tenant's pipeline.

**Fair-share lanes.**  Jobs are queued per *lane* (a fleet passes the
tenant id; single-tenant callers use the default lane) and workers pick
lanes round-robin, so a tenant that floods the stage with a burst of
objects cannot starve its co-tenants: each non-empty lane gets one job
per scheduling turn.  With a single lane this degenerates to the FIFO
queue the stage always had.

**Adaptive dispatch.**  Handing a job to a worker thread costs a lock,
a condition wake-up and a scheduler hop — pure loss when there is no
parallelism to win (one core, a contended fleet pool, tiny pages).  The
:class:`DispatchController` makes the inline-vs-pool choice a measured,
per-lane feedback loop instead of a config flag: every pipeline starts
encoding inline on its Aggregator thread, keeps EWMAs of encode time,
batch interval, lane queue depth and submit→unlock latency, and
*promotes* to the pool only when encode time dominates the batch
interval and spare workers exist — demoting back (with an exponentially
growing re-promotion penalty, so it cannot flap) when the pool stops
beating the inline unlock-latency baseline.

Failure discipline matches the other worker loops: a job that lets a
``BaseException`` escape is reported to the stage's ``on_error`` hook
(the commit pipeline installs its poison function there), never
swallowed; :meth:`map` re-raises the first failure in the caller.
:meth:`submit` on a stage that is not running raises
:class:`~repro.common.errors.GinjaError` — a silently parked job would
otherwise sit in the queue forever, and the batch it belongs to would
never ack.  :meth:`stop` verifies every worker actually joined: a
wedged worker (a job blocked forever) poisons the owner and raises
instead of being silently leaked with ``running`` reporting False.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable

from repro.common import events
from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common.events import EventBus, NULL_BUS

#: The two dispatch modes a lane can be in.
DISPATCH_INLINE = "inline"
DISPATCH_POOL = "pool"


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
        #: Workers currently running a claimed job (for spare_workers).
        self._active = 0
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

    def spare_workers(self) -> int:
        """Workers not currently running a claimed job (approximate).

        The dispatch controller's promotion gate: a lane only moves its
        encode work to the pool when there is capacity left to win."""
        with self._cond:
            return max(0, len(self._threads) - self._active)

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
                self._active += 1
            try:
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
            finally:
                with self._cond:
                    self._active -= 1


class DispatchController:
    """Per-lane inline↔pool encode dispatch from measured EWMAs.

    One controller serves one commit pipeline (one lane of a possibly
    shared :class:`EncodeStage`).  The Aggregator calls :meth:`on_batch`
    at every batch claim and dispatches that batch in the returned mode;
    the encode paths report measured durations back via
    :meth:`observe_encode` (per-batch inline, per-object pooled) and the
    unlock rule reports claim→unlock latency via :meth:`observe_unlock`.

    Under the ``"adaptive"`` policy the lane starts **inline** and
    promotes to the pool only when

    * the encode-time EWMA occupies at least :data:`PROMOTE_SHARE` of
      the batch-interval EWMA (encode dominates — there is something to
      overlap), and
    * the stage reports at least one spare worker (a contended fleet
      pool is not worth queueing into), and
    * the machine has more than one CPU.  An idle worker thread with no
      core to run it on is not spare capacity: on a single core the
      pool can only add hand-off overhead to the same serialized codec
      work, so the lane stays inline instead of paying to rediscover
      that every probe window.

    At promotion the current unlock-latency EWMA is snapshotted as the
    *inline baseline*; the lane demotes back when the pooled unlock
    EWMA stops beating ``baseline / hysteresis`` (one core, a fleet
    that got busy), when encode stops dominating (:data:`DEMOTE_SHARE`,
    tiny pages), or when the lane's queue-depth EWMA shows the pool is
    backlogged.  Every demotion doubles a re-promotion penalty (in
    batches, capped at :data:`MAX_PENALTY` windows), so a lane that
    keeps measuring a losing pool probes geometrically less often —
    hysteresis by construction, no flapping.

    The ``"inline"`` and ``"pool"`` policies pin the mode statically
    (telemetry still accumulates, for health reporting).  All decisions
    use durations measured by the *caller's* clock, so virtual-clock
    tests drive the controller deterministically.
    """

    #: Promote when the encode EWMA is at least this share of the batch
    #: interval EWMA.
    PROMOTE_SHARE = 0.5
    #: Demote when it falls below this share (encode became trivial).
    DEMOTE_SHARE = 0.2
    #: Demote when the lane's depth EWMA exceeds this many multiples of
    #: the pool size (the shared stage is backlogged).
    DEPTH_FACTOR = 2.0
    #: Cap on the re-promotion penalty, in decision windows.
    MAX_PENALTY = 64

    def __init__(
        self,
        *,
        policy: str = "adaptive",
        stage: EncodeStage | None = None,
        lane: str = "",
        window: int = 16,
        hysteresis: float = 1.15,
        alpha: float = 0.25,
        clock: Clock = SYSTEM_CLOCK,
        bus: EventBus | None = None,
        cpus: int | None = None,
    ):
        if policy not in ("adaptive", DISPATCH_INLINE, DISPATCH_POOL):
            raise GinjaError(f"unknown encode dispatch policy {policy!r}")
        if policy == DISPATCH_POOL and stage is None:
            raise GinjaError("pool dispatch needs an encode stage")
        self.policy = policy
        self._stage = stage
        self._lane = lane
        self._window = max(1, window)
        self._hysteresis = max(1.0, hysteresis)
        self._alpha = alpha
        self._cpus = cpus if cpus is not None else (os.cpu_count() or 1)
        self._clock = clock
        self._bus = bus or NULL_BUS
        self._lock = threading.Lock()
        self._mode = (
            DISPATCH_POOL if policy == DISPATCH_POOL else DISPATCH_INLINE
        )
        #: EWMAs, all in seconds except ``depth_ewma`` (jobs).  ``None``
        #: until the first sample arrives.
        self.encode_ewma: float | None = None
        self.interval_ewma: float | None = None
        self.unlock_ewma: float | None = None
        self.depth_ewma: float | None = None
        self._encode_acc = 0.0  # encode seconds since the last claim
        self._last_batch_at: float | None = None
        self._in_mode = 0       # batches since the last transition
        self._inline_unlock: float | None = None  # baseline at promotion
        self._demotions = 0
        self._penalty = 0       # inline batches left before re-promoting
        #: Every transition, oldest first: dicts with at/lane/from/to/
        #: reason plus the EWMA snapshot (the CI artifact's raw data).
        self.transitions: list[dict] = []

    # -- telemetry ----------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The lane's current dispatch mode (``"inline"``/``"pool"``)."""
        return self._mode

    @property
    def lane(self) -> str:
        return self._lane

    def _fold(self, name: str, sample: float) -> None:
        old = getattr(self, name)
        if old is None:
            setattr(self, name, sample)
        else:
            setattr(self, name, old + self._alpha * (sample - old))

    def observe_encode(self, seconds: float) -> None:
        """Report measured codec time (a whole batch inline, one object
        from a pool worker); folded into the EWMA at the next claim so
        both paths aggregate per batch."""
        with self._lock:
            self._encode_acc += seconds

    def observe_unlock(self, latency: float) -> None:
        """Report one batch's claim→unlock latency."""
        with self._lock:
            self._fold("unlock_ewma", latency)

    # -- decisions ----------------------------------------------------------------

    def on_batch(self) -> str:
        """Account one batch claim and return the mode to dispatch it in."""
        now = self._clock.now()
        transition = None
        with self._lock:
            if self._last_batch_at is not None:
                self._fold("interval_ewma", max(now - self._last_batch_at, 0.0))
            self._last_batch_at = now
            if self._encode_acc > 0.0:
                self._fold("encode_ewma", self._encode_acc)
                self._encode_acc = 0.0
            stage = self._stage
            if stage is not None and stage.running:
                self._fold("depth_ewma", float(stage.lane_depth(self._lane)))
            self._in_mode += 1
            if self.policy == "adaptive":
                transition = self._decide_locked(now)
            mode = self._mode
        if transition is not None:
            self._emit(transition)
        return mode

    def _decide_locked(self, now: float) -> dict | None:
        if self._mode == DISPATCH_INLINE and self._penalty > 0:
            self._penalty -= 1
            return None
        if self._in_mode < self._window:
            return None
        stage = self._stage
        if self._mode == DISPATCH_INLINE:
            if (
                stage is None or not stage.running
                or self.encode_ewma is None or self.interval_ewma is None
            ):
                return None
            if self._cpus < 2:
                # A worker thread with no core to run on is not spare
                # capacity — pooled dispatch cannot win here, only cost.
                return None
            share = self.encode_ewma / max(self.interval_ewma, 1e-9)
            spare = stage.spare_workers()
            if share >= self.PROMOTE_SHARE and spare >= 1:
                self._inline_unlock = self.unlock_ewma
                return self._switch_locked(
                    DISPATCH_POOL,
                    f"encode share {share:.2f} dominates the batch "
                    f"interval; {spare} spare workers",
                    now,
                )
            return None
        # Pool mode: demote when the pool stops winning.
        reason = None
        if stage is None or not stage.running:
            reason = "encode stage stopped"
        elif self.encode_ewma is not None and self.interval_ewma is not None \
                and (self.encode_ewma / max(self.interval_ewma, 1e-9)
                     < self.DEMOTE_SHARE):
            reason = "encode no longer dominates the batch interval"
        elif self.depth_ewma is not None \
                and self.depth_ewma > self.DEPTH_FACTOR * stage.workers:
            reason = (
                f"lane backlog EWMA {self.depth_ewma:.1f} over a "
                f"{stage.workers}-worker pool"
            )
        elif (
            self._inline_unlock is not None and self._inline_unlock > 0.0
            and self.unlock_ewma is not None
            and self.unlock_ewma > self._inline_unlock / self._hysteresis
        ):
            reason = (
                f"pool unlock EWMA {self.unlock_ewma * 1e6:.0f}us is not "
                f"beating the inline baseline "
                f"{self._inline_unlock * 1e6:.0f}us by {self._hysteresis:.2f}x"
            )
        if reason is None:
            return None
        self._demotions += 1
        self._penalty = self._window * min(2 ** self._demotions, self.MAX_PENALTY)
        return self._switch_locked(DISPATCH_INLINE, reason, now)

    def _switch_locked(self, to: str, reason: str, now: float) -> dict:
        record = {
            "at": now,
            "lane": self._lane,
            "from": self._mode,
            "to": to,
            "reason": reason,
            "encode_ewma": self.encode_ewma,
            "interval_ewma": self.interval_ewma,
            "unlock_ewma": self.unlock_ewma,
            "depth_ewma": self.depth_ewma,
            "batches_in_mode": self._in_mode,
        }
        self._mode = to
        self._in_mode = 0
        self.transitions.append(record)
        return record

    def set_mode(self, mode: str, reason: str = "forced") -> None:
        """Pin the lane to ``mode`` right now (operators and tests).

        The adaptive policy keeps measuring afterwards and may switch
        again; a forced promotion snapshots the unlock baseline exactly
        like a measured one, so demotion logic stays armed.
        """
        if mode not in (DISPATCH_INLINE, DISPATCH_POOL):
            raise GinjaError(f"unknown dispatch mode {mode!r}")
        if mode == DISPATCH_POOL and self._stage is None:
            raise GinjaError("pool dispatch needs an encode stage")
        with self._lock:
            if mode == self._mode:
                return
            if mode == DISPATCH_POOL:
                self._inline_unlock = self.unlock_ewma
            transition = self._switch_locked(mode, reason, self._clock.now())
        self._emit(transition)

    def _emit(self, transition: dict) -> None:
        self._bus.emit(
            events.ENCODE_MODE,
            key=self._lane,
            detail=(
                f"{transition['from']}->{transition['to']}: "
                f"{transition['reason']}"
            ),
            count=transition["batches_in_mode"],
            at=transition["at"],
        )

    def snapshot(self) -> dict:
        """The lane's telemetry at a glance (health endpoints)."""
        with self._lock:
            return {
                "policy": self.policy,
                "mode": self._mode,
                "encode_ewma": self.encode_ewma,
                "interval_ewma": self.interval_ewma,
                "unlock_ewma": self.unlock_ewma,
                "depth_ewma": self.depth_ewma,
                "transitions": len(self.transitions),
            }
