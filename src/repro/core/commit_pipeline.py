"""Algorithm 2: the commit replication pipeline.

Anatomy (the paper's Figure 3 with its per-database threads taken out:
the pipeline owns **no thread** — it is a queue, a timer and jobs on
the upload reactor it borrows):

* DBMS threads call :meth:`CommitPipeline.submit` from the interposer's
  ``after_write`` hook.  The write is already durable locally; submit
  enqueues it and blocks the caller while more than S updates are
  unconfirmed or the oldest unconfirmed update is older than T_S.  It
  never claims: it only notices the moments there is work — the first
  unclaimed update arms the T_B timer, a full batch schedules a claim.
* **T_B is a timer on the upload reactor's loop**, waiting on the
  caller's clock (:meth:`UploadReactor.call_at
  <repro.cloud.reactor.UploadReactor.call_at>`).  When it fires it
  re-reads the deadline — the anchor moves at every claim and every
  unlock, and a schedule or a retune may have changed T_B — and either
  re-arms or schedules a claim job.
  On a :class:`~repro.common.clock.ManualClock`, advancing the clock
  past the deadline *is* what fires it.  A waiting
  :meth:`~CommitPipeline.drain` does not wait for it: while one waits,
  a partial batch is claimed at once.
* The **claim job** runs on the same loop (:meth:`UploadReactor.call_soon
  <repro.cloud.reactor.UploadReactor.call_soon>`), at most one queued or
  running per pipeline — so the loop's FIFO serves each pipeline one
  claim per turn, and a co-tenant's burst cannot starve a cold tenant's
  flush.  It claims up to B queued updates (without removing them),
  coalesces overwritten
  pages, cuts each rewritten page down to the bytes that changed since
  it last shipped (the shared :class:`~repro.core.shadow.Shadow`) and
  leaves out the zero padding the bucket already holds
  (:func:`plan_writes`), splits the result into WAL objects of at most
  ``max_object_bytes`` and assigns timestamps — everything
  ordering-sensitive, on one thread, so the consecutive-timestamps
  unlock rule is untouched.  The job that planned keeps going: it
  encodes each object (more than one only for a batch that spans files
  or exceeds the object cap) and hands it to the reactor in ts order.
  When it finishes it re-checks under the lock and reschedules itself,
  re-arms the timer for a leftover partial batch, or goes idle.  The
  loop runs nothing else while a claim encodes (DESIGN.md, "Thread
  anatomy and ownership", weighs that).
* Encoded objects are submitted to the shared **upload reactor**
  (:class:`~repro.cloud.reactor.UploadReactor`): one event-loop thread
  drives every PUT through the cloud transport's async path, with the
  tenant's ``uploaders`` knob a per-lane in-flight *window* rather
  than a thread count.  The RetryLayer still absorbs transient
  failures; its backoffs are loop timers that hold no threads.
* The **unlock rule** runs in the reactor's completion callback, which
  the loop already serialises: the last object of a batch acks it, and
  acked batches leave the queue head strictly in batch order — the
  "consecutive timestamps" rule that makes S a true bound on loss even
  when parallel uploads complete out of order (§5.3).

Figure 3 draws Aggregator, Uploader and Unlocker threads per database;
each only ever serialised work that a queue already orders, so each
kept its code and lost its thread.

Every failure — a PUT that exhausts its retries or is cancelled, and
anything escaping a claim job or an ack — blows the
pipeline's :class:`~repro.common.fuse.Fuse` (DESIGN.md, "Failure
discipline"): submitters fail fast instead of waiting on work that
died, because a dropped WAL object leaves a timestamp gap recovery
stops at, and :meth:`stop` re-raises it.

The wire path is copy-free: planned runs stay views over the
submitted pages (the cut and the splitter slice ``memoryview``s), the WAL
payload is assembled once into an exactly-sized buffer, and the codec
writes ``flags|iv|body|mac`` into one preallocated ``bytearray`` with a
streaming MAC.

The pipeline narrates itself on the event bus (``commit_blocked``,
``claim_queued``, ``wal_batch``, ``encode_done``,
``wal_object``, ``batch_unlocked``, ``codec``); :class:`~repro.core.stats.GinjaStats`
and the trace recorder subscribe there instead of being threaded
through the constructor.  Per-write emits are guarded with
:meth:`EventBus.wants` so an audience of zero costs nothing.  The one
condition is *space*: the unlock rule (and a poisoning) notifies it,
S-blocked submitters, ``drain`` and ``settle`` wait on it (the timer and
a claim job notify it only when they leave the pipeline settled).
Nothing waits for *work* — a write into a batch that is 1/B-th fuller
schedules nothing and touches no other thread, so at B = 100 the other
98 writes of a batch cost an append.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.common.fuse import Fuse
from repro.common.units import KiB
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import WALObjectMeta, encode_wal_payload
from repro.core.shadow import Shadow, elide_known_zeros, split_runs
from repro.core.tuner import BatchTuner
from repro.cloud.interface import ObjectStore
from repro.cloud.reactor import Timer, UploadHandle, UploadReactor

#: Where the pipeline's one claim job is: not scheduled, queued on the
#: reactor loop, or running there.
_IDLE, _QUEUED, _RUNNING = range(3)


@dataclass(slots=True)
class _Entry:
    path: str
    offset: int
    data: bytes
    enqueued_at: float
    #: The view's shipping epoch when the entry joined the queue (set
    #: under the pipeline lock, so stamps never decrease along it).
    epoch: int = 0


class CommitPipeline:
    """The running Algorithm-2 machinery for one Ginja instance.

    Args:
        config: the B/S/T_B/T_S model and pipeline shape.
        cloud: the store to PUT WAL objects into — normally a transport
            stack from :func:`~repro.cloud.transport.build_transport`,
            whose RetryLayer owns all retry/backoff behaviour.  A raw
            store works too; it just fails on the first error.
        codec: compress/encrypt/MAC encoder.
        view: the shared picture of what the cloud contains.
        reactor: the running :class:`UploadReactor` every PUT rides,
            the T_B timer waits on and the claim jobs run on — the Ginja
            facade's (shared with its checkpointer) or a fleet's.
            Borrowed: the pipeline never starts or stops it, and only
            attaches and detaches its ``lane``.
        bus: event bus for observability (default: events are dropped).
        clock: time source for T_B/T_S accounting.
        lane: fair-share lane on the reactor; a fleet passes the tenant id.
    """

    def __init__(
        self,
        config: GinjaConfig,
        cloud: ObjectStore,
        codec: ObjectCodec,
        view: CloudView,
        reactor: UploadReactor,
        bus: EventBus | None = None,
        clock: Clock = SYSTEM_CLOCK,
        lane: str = "",
    ):
        self._config = config
        self._cloud = cloud
        self._codec = codec
        self._view = view
        self._bus = bus or NULL_BUS
        self._clock = clock
        self._lane = lane
        self._reactor = reactor
        #: Adaptive B/S/T_B controller; ``None`` unless the config sets
        #: a commit-latency target, in which case the wait/claim limits
        #: below consult it instead of the frozen policy values.  The
        #: nominal config stays the ceiling (the tuner only shrinks),
        #: so the S + B + 1 loss bound is unchanged by any retune.
        self.tuner: BatchTuner | None = None
        if config.target_commit_latency is not None:
            self.tuner = BatchTuner(config, clock=clock, bus=self._bus,
                                    lane=lane)

        # One condition, and it means *space*: the unlock rule (and the
        # fuse) notifies it; S-blocked submitters, drain(), settle() and
        # a stop waiting out a running claim wait on it.
        self._cond = threading.Condition(threading.RLock())
        #: Blown by the first failure.  Queued uploads can then never
        #: ack, so they are dropped (their on_done emits
        #: ``upload_dropped``) instead of burning full retry budgets
        #: against a cloud that may be gone; PUTs already on the wire
        #: run to their own verdict.
        self._fuse = Fuse(
            self._cond, partial(reactor.cancel, lane, queued_only=True),
        )
        self._entries: deque[_Entry] = deque()
        self._claimed = 0                      # head entries inside claimed batches
        self._batch_sizes: dict[int, int] = {}
        #: Claim time per batch, so the unlock rule can report
        #: claim→unlock latency to the tuner.
        self._claim_at: dict[int, float] = {}
        self._inflight_objects: dict[int, int] = {}
        self._acked: set[int] = set()
        self._next_batch_id = 0
        self._next_batch_to_remove = 0
        self._last_sync_end = clock.now()
        # T_B anchor: advanced both when a batch is *claimed* (Alg. 2
        # resets TaskTB right after triggering an upload) and when one
        # completes.  Without the claim-time reset, a single timeout
        # would spin out partial batches continuously while the first
        # upload is still in flight.
        self._tb_anchor = self._last_sync_end
        self._started = False
        self._stop = False
        #: The one claim job: ``_IDLE``, ``_QUEUED`` or ``_RUNNING``.
        self._claim = _IDLE
        #: Drains waiting right now; while any is, a partial batch is
        #: claimed at once instead of waiting out T_B.
        self._draining = 0
        #: The armed T_B timer and its deadline.  One that has become
        #: too early (the anchor moved on) is left to fire and re-read
        #: the deadline; only one that is too *late* (T_B shrank) is
        #: replaced.
        self._timer: Timer | None = None
        self._timer_deadline = 0.0
        #: What this pipeline knows the bucket's image to hold — see
        #: :func:`plan_writes`.  Claim jobs only (one at a time); a new
        #: pipeline (boot, reboot, recover) remembers no page and ships
        #: whole, and is told its marks by :meth:`seed_marks`.
        self._shadow = Shadow(_SHADOW_BYTES, lambda _path: _CHUNK_FRAMING)
        self._marks = Marks()

    # -- lifecycle ------------------------------------------------------------------

    def seed_marks(self, marks: dict[str, int]) -> None:
        """Before :meth:`start`: per WAL file, the end of the last
        non-zero byte the bucket may already hold (:class:`Marks`) —
        exact after boot, :data:`UNBOUNDED` for every file an earlier
        pipeline may have shipped."""
        self._marks.update(marks)

    def start(self) -> None:
        if self._started:
            raise GinjaError("pipeline already started")
        # A reactor that dies or stops under us must fail this
        # pipeline, not hang it.
        self._reactor.attach(
            self._lane, window=self._config.uploaders, on_fatal=self._fuse.blow,
        )
        with self._cond:
            self._started = True
            self._schedule_locked()

    def stop(self, drain_timeout: float = 30.0) -> None:
        """Flush pending updates (best effort), then stop claiming.

        Raises the recorded fatal error if the fuse is blown — a
        pipeline that dropped WAL objects must not report a clean
        shutdown (callers that expect the failure catch ``GinjaError``).
        """
        self.drain(timeout=drain_timeout)
        self._halt(join_timeout=10.0)
        self._fuse.check("commit pipeline failed during shutdown")

    def abort(self, reason: Exception | None = None) -> None:
        """Abrupt primary loss: stop *without* draining.

        Unlike :meth:`stop`, queued updates are dropped exactly as a
        power failure would drop them, and any submitter blocked on the
        Safety limit is released with an error.  The pipeline is
        unusable afterwards; chaos drills and failover tests recover
        from the cloud instead.
        """
        self._fuse.blow(reason or GinjaError("primary crashed"))
        # Queued submissions are dropped and in-flight PUTs interrupted
        # mid-backoff — without draining their retry budgets — exactly
        # as a power failure would abandon them.  Only this lane.
        self._reactor.cancel(self._lane)
        self._halt(join_timeout=5.0)

    def _halt(self, join_timeout: float) -> None:
        """No claim of this pipeline runs once this returns: the timer
        is cancelled, a claim still *queued* on the (possibly shared)
        reactor loop will read ``_stop`` and do nothing, and one running
        there right now is waited out — for ``join_timeout`` real
        seconds."""
        with self._cond:
            self._stop = True
            timer, self._timer = self._timer, None
            self._cond.notify_all()
            left = self._cond.wait_for(
                lambda: self._claim != _RUNNING, timeout=join_timeout
            )
            if left:
                self._claim = _IDLE  # one still queued runs as a no-op
        if timer is not None:
            timer.cancel()
        if not left:
            # Wedged (a codec call that never returns): the loop it
            # holds cannot stop either, and the reactor's stop says so.
            self._fuse.blow(GinjaError("claim job failed to stop"))
        # An upload resolving after this point still runs its unlock in
        # the reactor callback; there is no consumer thread to outlive.
        self._reactor.detach(self._lane, self._fuse.blow)

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every queued update is confirmed (or timeout).

        A drain flushes instead of waiting out T_B: while it waits, a
        partial batch is claimed at once — still at most B updates, in
        queue order, one claim at a time — so timestamps and the unlock
        rule are what they always were.  Returns True when the queue
        fully drained.
        """
        deadline = self._clock.now() + timeout
        with self._cond:
            self._draining += 1
            try:
                self._schedule_locked()
                # Woken by the unlock rule each time a batch completes;
                # no poll.
                while self._entries and self._fuse.error is None:
                    remaining = deadline - self._clock.now()
                    if remaining <= 0:
                        return False
                    self._cond.wait(timeout=remaining)
                return not self._entries
            finally:
                self._draining -= 1

    def settle(self) -> None:
        """Block until no work of this pipeline is under way: no claim
        job queued or running, no claimed batch awaiting its ack, no
        armed T_B deadline passed without its timer running.  A thread
        stepping a ManualClock calls it between steps.  Raises
        ``GinjaError`` if the fuse blows; never polls — whatever can
        make this true notifies."""
        with self._cond:
            while True:
                self._fuse.check("commit pipeline failed")
                if self._settled_locked():
                    return
                self._cond.wait()

    def _settled_locked(self) -> bool:
        return self._claim == _IDLE and not self._claimed and (
            self._timer is None or self._clock.now() < self._timer_deadline
        )

    @property
    def failed(self) -> Exception | None:
        return self._fuse.error

    @property
    def claim_queued(self) -> bool:
        """True while this pipeline's claim job waits on the loop."""
        return self._claim == _QUEUED

    def pending_updates(self) -> int:
        with self._cond:
            return len(self._entries)

    @property
    def shadow_bytes(self) -> int:
        """Bytes of log pages the shadow holds."""
        return self._shadow.nbytes

    # Effective knobs: the tuner's view when one is attached, the frozen
    # policy otherwise.  Callers hold the pipeline condition; the tuner
    # lock nests inside it (pipeline cond → tuner lock).

    def _batch_limit(self) -> int:
        return self._config.batch if self.tuner is None else self.tuner.batch()

    def _safety_limit(self) -> int:
        return (
            self._config.safety if self.tuner is None else self.tuner.safety()
        )

    def _batch_deadline(self, now: float) -> float:
        """When T_B expires for the unclaimed updates, read at ``now``
        (a schedule resolves T_B from the hour of the session clock)."""
        timeout = self._config.effective_batch_timeout(now)
        if self.tuner is not None:
            timeout *= self.tuner.timeout_scale()
        return self._tb_anchor + timeout

    # -- DBMS-side entry point ---------------------------------------------------------

    def submit(self, path: str, offset: int, data: bytes) -> None:
        """Enqueue one intercepted WAL write; blocks per S and T_S."""
        now = self._clock.now()
        entry = _Entry(path=path, offset=offset, data=bytes(data), enqueued_at=now)
        blocked_since: float | None = None
        # wants() checks hoisted out of the lock: this runs once per
        # DBMS write, and with only counter subscribers attached the
        # per-write events have no audience — skip building them.
        bus, fuse = self._bus, self._fuse
        with self._cond:
            if fuse.error is not None:
                raise GinjaError("commit pipeline failed") from fuse.error
            entry.epoch = self._view.epoch()
            self._entries.append(entry)
            if self.tuner is not None:
                self.tuner.observe_depth(len(self._entries))
            if bus.wants(events.QUEUE_DEPTH):
                bus.emit(
                    events.QUEUE_DEPTH, key=path, count=len(self._entries), at=now,
                )
            # Only two writes of a batch have anything to schedule: the
            # first unclaimed one (arms T_B — or claims at once, after
            # an idle gap longer than T_B) and the one that fills it.
            # Expiry in between is the timer's business, and a claim
            # already on its way re-checks when it finishes.
            if self._claim == _IDLE:
                available = len(self._entries) - self._claimed
                if available == 1 or available >= self._batch_limit():
                    self._schedule_locked()
            while True:
                if fuse.error is not None:
                    raise GinjaError("commit pipeline failed") from fuse.error
                over_safety = len(self._entries) > self._safety_limit()
                ts_expired = bool(self._entries) and (
                    self._clock.now()
                    >= self._entries[0].enqueued_at + self._config.safety_timeout
                )
                if not over_safety and not ts_expired:
                    break
                if blocked_since is None:
                    blocked_since = self._clock.now()
                    if bus.wants(events.COMMIT_BLOCKED):
                        bus.emit(
                            events.COMMIT_BLOCKED, key=path,
                            count=len(self._entries), at=blocked_since,
                        )
                # Both blocking reasons clear only when entries leave the
                # queue (or the pipeline fails), and every such change
                # notifies this condition — wait without a timeout.
                self._cond.wait()
        if blocked_since is not None:
            blocked_for = self._clock.now() - blocked_since
            bus.emit(
                events.COMMIT_UNBLOCKED, key=path, latency=blocked_for,
                at=self._clock.now(),
            )

    # -- Scheduling: the T_B timer and the claim job -------------------------------------

    def _schedule_locked(self) -> None:
        """Give the unclaimed updates what they are waiting for: a claim
        job if a batch is full, T_B has run out or a drain is waiting,
        else the T_B timer.  Called (lock held) at the only moments that
        can change the answer — a submit that starts or fills a batch,
        the timer firing, a claim job finishing, a drain beginning,
        start."""
        if (self._claim != _IDLE or self._stop or not self._started
                or self._fuse.error is not None):
            return
        available = len(self._entries) - self._claimed
        if available == 0:
            return
        try:
            if available < self._batch_limit() and not self._draining:
                now = self._clock.now()
                deadline = self._batch_deadline(now)
                if now < deadline:
                    if self._timer is None or deadline < self._timer_deadline:
                        if self._timer is not None:
                            self._timer.cancel()
                        self._timer = self._reactor.call_at(
                            self._clock, deadline, self._timer_fired,
                            tenant=self._lane,
                        )
                        self._timer_deadline = deadline
                    return
            self._reactor.call_soon(self._claim_job, tenant=self._lane)
        except GinjaError as exc:
            # The borrowed reactor stopped or died under us.
            self._fuse.blow(exc)
            return
        # The claim job takes this lock first: it cannot run before this.
        self._claim = _QUEUED
        if self._bus.wants(events.CLAIM_QUEUED):
            self._bus.emit(
                events.CLAIM_QUEUED, key=self._lane, at=self._clock.now(),
            )

    def _timer_fired(self) -> None:
        """T_B's deadline, as armed, has passed (reactor loop thread; an
        escaping exception comes back through the lane's ``on_fatal``).
        The deadline is re-read, not trusted: the anchor moved if a
        batch was claimed or unlocked meanwhile."""
        with self._cond:
            self._timer = None
            self._schedule_locked()
            if self._settled_locked():
                self._cond.notify_all()  # settle() may be waiting on it

    def _claim_job(self) -> None:
        """One scheduled claim, on the reactor loop: claim → plan →
        timestamp → encode → upload, then decide what comes next.  A
        failure blows the fuse *before* the claim is released, so no
        second claim can plan a batch behind it."""
        self._fuse.guard(self._claim_and_ship)
        with self._cond:
            self._claim = _IDLE
            if not self._stop:
                self._schedule_locked()
            # _halt may be waiting us out, or settle() for the last ack
            # that came back before this claim left.
            if self._stop or self._settled_locked():
                self._cond.notify_all()

    def _claim_and_ship(self) -> None:
        with self._cond:
            claimed = self._claim_locked()
        if claimed is not None:
            self._ship(*claimed)

    def _claim_locked(self) -> tuple[int, list[_Entry]] | None:
        """Claim the next batch — or nothing: a stopped or failed
        pipeline's queued claim is a no-op (its co-tenants on a shared
        reactor never notice)."""
        if self._stop or self._fuse.error is not None:
            return None
        self._claim = _RUNNING
        count = min(self._batch_limit(), len(self._entries) - self._claimed)
        if count == 0:
            return None
        now = self._tb_anchor = self._clock.now()
        start = self._claimed
        batch = [self._entries[start + i] for i in range(count)]
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._claimed += count
        self._batch_sizes[batch_id] = count
        self._claim_at[batch_id] = now
        return batch_id, batch

    def _ship(self, batch_id: int, batch: list[_Entry]) -> None:
        if self.tuner is not None:
            self.tuner.on_claim()
        objects = self._plan(batch)
        self._bus.emit(
            events.WAL_BATCH, count=len(batch),
            nbytes=sum(
                len(data) for _meta, chunks in objects for _offset, data in chunks
            ),
            total=sum(len(entry.data) for entry in batch),
            at=self._clock.now(),
        )
        if not objects:
            # Every write repeated what was last shipped in its place:
            # there is nothing to upload, and the unlock rule would
            # wait forever on a batch with no object.  It still leaves
            # the queue in batch order, behind the batches whose
            # objects those bytes ride in.
            with self._cond:
                self._acked.add(batch_id)
                self._remove_completed_prefix_locked()
            return
        with self._cond:
            self._inflight_objects[batch_id] = len(objects)
        # In ts order; the loop admits their PUTs once this job returns.
        for meta, chunks in objects:
            self._encode_and_enqueue(batch_id, meta, chunks)

    def _plan(self, batch: list[_Entry]) -> list[tuple[WALObjectMeta, list]]:
        """Plan the batch's WAL objects (Alg. 2 line 12), as ``(meta,
        chunks)`` in ts order.

        The transform itself is :func:`plan_writes`; this is the
        ordering-sensitive rest of the aggregate step: timestamps are
        assigned here, by the pipeline's one claim job, in batch order
        — the uploads behind it may finish objects in any order without
        weakening the S bound.  ``chunks`` are bytes-like runs, often
        ``memoryview`` slices over the submitted pages — safe because
        queue entries outlive their batch: the unlock rule pops them
        only after the batch is acked.
        """
        groups = plan_writes(
            ((e.path, e.offset, e.data, e.epoch) for e in batch),
            self._shadow, self._marks,
            coalesce=self._config.coalesce_writes,
            max_object_bytes=self._config.max_object_bytes,
        )
        return [
            (WALObjectMeta(ts=self._view.next_wal_ts(), filename=path,
                           offset=group[0][0]), group)
            for path, group in groups
        ]

    # -- Encode ---------------------------------------------------------------------------

    def _encode_and_enqueue(self, batch_id: int, meta: WALObjectMeta,
                            chunks: list) -> None:
        payload = encode_wal_payload(chunks)
        blob = self._codec.encode(payload)
        bus = self._bus
        if bus.wants(events.CODEC):
            bus.emit(events.CODEC, nbytes=len(payload), key=meta.filename)
        self._submit_upload(batch_id, meta, blob)
        if bus.wants(events.ENCODE_DONE):
            bus.emit(
                events.ENCODE_DONE, key=meta.key, nbytes=len(blob),
                at=self._clock.now(),
            )

    # -- Uploads (reactor submissions) ---------------------------------------------------

    def _submit_upload(self, batch_id: int, meta: WALObjectMeta, blob: bytes) -> None:
        """Hand one encoded WAL object to the upload reactor.

        Runs in the claim job and returns at once — PUT concurrency is
        the reactor lane's in-flight window, not a thread count.
        """
        if self._fuse.error is not None:
            # Failed (or aborted): the batch can never ack, so drop the
            # blob instead of burning a full retry budget against a
            # cloud that may be gone — every claimed batch is already
            # encoded at crash time, and abort() must not wait out the
            # retry storms.
            self._drop_upload(batch_id, meta, len(blob), "pipeline poisoned")
            return
        try:
            self._reactor.submit(
                self._cloud, meta.key, blob, tenant=self._lane,
                on_done=lambda handle, batch_id=batch_id, meta=meta:
                    self._upload_done(batch_id, meta, handle),
            )
        except GinjaError as exc:
            # Reactor dead or stopped under us: the lane's on_fatal has
            # blown (or will blow) the fuse; account the drop.
            self._fuse.blow(exc)
            self._drop_upload(batch_id, meta, len(blob), "reactor unavailable")

    def _upload_done(self, batch_id: int, meta: WALObjectMeta,
                     handle: UploadHandle) -> None:
        """Completion callback, on the reactor's loop thread.

        An acked object is recorded and acks its batch under the fuse
        (:meth:`_object_acked`).  Any other verdict — retries exhausted, or
        cancelled by an abort, a blown fuse or a stopping reactor —
        blows the fuse, since the batch can never ack, and is accounted
        as dropped.  First error wins, so an abort's ``primary
        crashed`` stays the recorded cause.
        """
        if handle.ok:
            self._fuse.guard(self._object_acked, batch_id, meta, handle.nbytes)
            return
        self._fuse.blow(
            handle.error or GinjaError(f"upload cancelled: {meta.key}")
        )
        self._drop_upload(
            batch_id, meta, handle.nbytes,
            "cancelled" if handle.cancelled else repr(handle.error),
        )

    def _drop_upload(self, batch_id: int, meta: WALObjectMeta, nbytes: int,
                     why: str) -> None:
        # The audit trail for what an abort abandoned: before this
        # event, blobs vanished silently from the poisoned drop path.
        self._bus.emit(
            events.UPLOAD_DROPPED, key=meta.key, count=batch_id,
            nbytes=nbytes, detail=why, at=self._clock.now(),
        )

    # -- Unlock rule ----------------------------------------------------------------------

    def _object_acked(self, batch_id: int, meta: WALObjectMeta,
                      nbytes: int) -> None:
        """One object of ``batch_id`` is durable: view bookkeeping, the
        ``wal_object`` event, then the ack — which unlocks right here:
        the loop runs one callback at a time, so acks are already
        serialised, and the only lock taken is the pipeline condition,
        which a DBMS thread parked on S has released by waiting on it.
        The batch's last object releases whatever prefix it completes."""
        self._view.add_wal(meta)
        self._bus.emit(
            events.WAL_OBJECT, key=meta.key, nbytes=nbytes,
            at=self._clock.now(),
        )
        if self.tuner is not None:
            self.tuner.observe_put()
        with self._cond:
            remaining = self._inflight_objects.get(batch_id)
            if remaining is None:
                return
            if remaining > 1:
                self._inflight_objects[batch_id] = remaining - 1
                return
            del self._inflight_objects[batch_id]
            self._acked.add(batch_id)
            self._remove_completed_prefix_locked()

    def _remove_completed_prefix_locked(self) -> None:
        """Pop acked batches from the queue head strictly in order — the
        consecutive-timestamp unlock rule (Alg. 2 lines 20-22)."""
        removed = False
        while self._next_batch_to_remove in self._acked:
            batch_id = self._next_batch_to_remove
            self._acked.remove(batch_id)
            count = self._batch_sizes.pop(batch_id)
            for _ in range(count):
                self._entries.popleft()
            self._claimed -= count
            self._next_batch_to_remove += 1
            self._last_sync_end = self._clock.now()
            self._tb_anchor = self._last_sync_end
            claimed_at = self._claim_at.pop(batch_id, None)
            if claimed_at is not None:
                # Claim→unlock latency is the end-to-end signal the
                # tuner steers against (lock order is always pipeline
                # cond → tuner lock).
                if self.tuner is not None:
                    self.tuner.observe_commit(
                        self._last_sync_end - claimed_at
                    )
            removed = True
            self._bus.emit(
                events.BATCH_UNLOCKED, count=count, at=self._last_sync_end,
            )
        if removed:
            self._bus.emit(
                events.WAITER_UNLOCK, count=len(self._entries),
                at=self._clock.now(),
            )
        self._cond.notify_all()


class Marks(dict):
    """Each WAL file's **high-water mark**: the end of the last non-zero
    byte any object the bucket may still hold can carry in that file.

    It covers every run this pipeline planned plus a seed for what was
    shipped before it existed, and it only grows — the bucket's image
    sees no unlink, rename or truncate, and GC only removes objects,
    which only adds zeros.  So bytes at or beyond the mark are zero in
    every image any recovery can build, whatever the epoch; a file
    never shipped has mark 0.  One ``int`` per file name.
    """

    __slots__ = ()

    def cover(self, path: str, offset: int, data: bytes) -> int:
        """Raise ``path``'s mark over the last non-zero byte of a run
        being planned, and return it.  Only a run that ends beyond the
        mark in a zero is scanned, so the steady-state cost is one
        ``rstrip`` per *new* padded page."""
        mark = self.get(path, 0)
        end = offset + len(data)
        if end > mark:
            if data[-1:] == b"\0":
                end = offset + len(bytes(data).rstrip(b"\0"))
            if end > mark:
                mark = self[path] = end
        return mark


#: The mark of a file an earlier pipeline may have shipped anything to.
UNBOUNDED = sys.maxsize

#: Most bytes of log pages the WAL shadow keeps: eight 8 KiB pages.  A
#: batch rewrites the tail page the one before it left, and that page
#: must survive a batch that only touched other places (a ring log's
#: next blocks, the lone first write of the next page).
_SHADOW_BYTES = 64 * KiB

#: What one more chunk adds to a WAL payload: its offset and length.
_CHUNK_FRAMING = len(encode_wal_payload([(0, b"")])) - len(encode_wal_payload([]))


def plan_writes(
    writes, shadow: Shadow, marks: Marks, *, coalesce: bool,
    max_object_bytes: int,
) -> list[tuple[str, list[tuple[int, bytes]]]]:
    """The claim job's transform: one claimed batch in, the chunks of
    its WAL objects out, as ``(path, [(offset, data), ...])`` in ts
    order (one object per file, split at ``max_object_bytes``).

    ``writes`` are ``(path, offset, data, epoch)`` in submission order.
    :meth:`Shadow.plan` coalesces them in write order and cuts each
    rewrite down to what changed since this pipeline last planned its
    place in the same epoch; the shadow learns the batch at once — the
    next claim plans against it.  Every planned run, in replay order,
    then raises its file's mark and leaves out the zeros it carries
    beyond it for a length pin (:func:`elide_known_zeros`).

    ``coalesce=False`` (the aggregation ablation) ships every write
    verbatim and touches neither shadow nor marks.  Recovery applies
    chunks in order, so last-write-wins still holds — only the volume
    inflates.
    """
    by_file: dict[str, list[tuple[int, bytes]]] = {}
    if coalesce:
        runs, learned = shadow.plan(writes)
        shadow.learn(learned)
        for path, offset, data in runs:
            by_file.setdefault(path, []).extend(elide_known_zeros(
                offset, data, marks.cover(path, offset, data), _CHUNK_FRAMING,
            ))
    else:
        for path, offset, data, _epoch in writes:
            by_file.setdefault(path, []).append((offset, data))
    return [
        (path, group) for path in sorted(by_file)
        for group in split_runs(by_file[path], max_object_bytes)
    ]
