"""Algorithm 3: checkpoint capture, upload and garbage collection.

Two halves, decoupled by a queue exactly as §5.3 prescribes ("we
decouple as much as possible the (local) DBMS checkpoints from the
writing of checkpoints to the cloud"):

* :class:`CheckpointCollector` runs *on the DBMS's checkpointing
  thread*, inside the interposer hooks.  It snapshots the WAL frontier
  at the begin event, accumulates the checkpoint's page writes
  (coalescing overwrites), and at the end event decides dump vs.
  incremental — a dump whenever the cloud-side DB objects reach
  ``dump_threshold`` (150%) of the local database size — then enqueues
  the finished object.
* :class:`CheckpointUploader` is the Checkpointer thread: it uploads DB
  objects (split at 20 MB), registers them in the cloud view, deletes
  WAL objects up to the object's timestamp and, after a dump,
  superseded DB objects (subject to the PITR retention policy).

All cloud I/O goes through the transport stack, whose RetryLayer
implements the fatal-vs-skippable policy this module used to hand-roll:
a PUT that exhausts its budget raises (and kills the checkpointer — a
missing DB object would corrupt recovery), while a GC DELETE that
exhausts its budget is silently skipped (an orphaned object wastes a
few bytes and is ignored by recovery).  Progress is narrated on the
event bus (``checkpoint_begin``/``checkpoint_end``, ``db_object``,
``dump``, ``codec``); the ``gc_delete`` events come from the transport.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    encode_checkpoint_payload,
    encode_dump_payload,
    split_dump_files,
)
from repro.core.encode_stage import EncodeStage
from repro.core.tuner import BatchTuner
from repro.cloud.interface import ObjectStore
from repro.cloud.reactor import UploadReactor
from repro.db.profiles import DBMSProfile
from repro.storage.interface import FileSystem


@dataclass
class _PendingObject:
    """One finished checkpoint/dump awaiting upload."""

    ts: int
    type: str                 # DUMP or CHECKPOINT
    payloads: list[bytes]     # encoded parts, each <= max_object_bytes


_STOP = object()


class CheckpointCollector:
    """DBMS-thread half: gathers a checkpoint's writes (Alg. 3, 3-16)."""

    def __init__(
        self,
        config: GinjaConfig,
        codec: ObjectCodec,
        view: CloudView,
        fs: FileSystem,
        profile: DBMSProfile,
        out_queue: "queue.Queue",
        bus: EventBus | None = None,
        encode_stage: EncodeStage | None = None,
        lane: str = "",
        tuner: BatchTuner | None = None,
    ):
        self._config = config
        #: The tenant's batch tuner, when one is running: the dump
        #: threshold consults it, so a budget-limited tenant defers the
        #: most PUT-expensive object class (full dumps).
        self._tuner = tuner
        #: Fair-share lane in the (shared) encode stage.
        self._lane = lane
        self._codec = codec
        self._view = view
        self._fs = fs
        self._profile = profile
        self._queue = out_queue
        self._bus = bus or NULL_BUS
        #: Shared encoder pool (the Ginja facade passes the same stage the
        #: commit pipeline uses, so DB-object codec work overlaps WAL
        #: traffic instead of serializing on the DBMS's checkpoint
        #: thread).  ``None`` — or a stopped stage — encodes inline.
        self._stage = encode_stage
        self._active = False
        self._ts = -1
        self._writes: dict[tuple[str, int], bytes] = {}
        self._order: list[tuple[str, int]] = []
        # Dump freeze: while a dump is being assembled, concurrent DB-file
        # writes must block so the dump is internally consistent (§5.3).
        self._freeze = threading.Condition()
        self._frozen = False

    @property
    def in_checkpoint(self) -> bool:
        return self._active

    # -- events from the processor ------------------------------------------------

    def begin(self) -> None:
        """Checkpoint-begin event: snapshot the WAL frontier (Alg. 3 l.5).

        We use the *confirmed* (gap-free uploaded) timestamp rather than
        the last assigned one: every WAL object at or below it exists in
        the cloud and its content is guaranteed to be reflected in the
        pages this checkpoint will flush, so GC at this ts is safe.
        """
        self._active = True
        self._ts = self._view.confirmed_ts()
        self._writes.clear()
        self._order.clear()
        self._bus.emit(events.CHECKPOINT_BEGIN, count=self._ts)

    def add_write(self, path: str, offset: int, data: bytes) -> None:
        key = (path, offset)
        if key not in self._writes:
            self._order.append(key)
        self._writes[key] = bytes(data)

    def end(self) -> None:
        """Checkpoint-end event: build and enqueue the DB object."""
        self._active = False
        local_db_size = self._local_db_bytes()
        cloud_db_size = self._view.total_db_bytes()
        threshold = self._config.dump_threshold
        if self._tuner is not None:
            threshold = self._tuner.dump_threshold(threshold)
        if cloud_db_size >= threshold * local_db_size:
            pending = self._build_dump()
        else:
            pending = self._build_incremental()
        self._bus.emit(
            events.CHECKPOINT_END, count=self._ts,
            detail=pending.type, nbytes=sum(len(p) for p in pending.payloads),
        )
        self._writes.clear()
        self._order.clear()
        self._queue.put(pending)

    # -- freeze protocol ---------------------------------------------------------------

    def wait_if_frozen(self) -> None:
        """Called from ``before_write`` for DB files: blocks while a dump
        snapshot is being assembled."""
        with self._freeze:
            while self._frozen:
                self._freeze.wait()

    def _set_frozen(self, value: bool) -> None:
        with self._freeze:
            self._frozen = value
            if not value:
                self._freeze.notify_all()

    # -- object builders ------------------------------------------------------------------

    def _local_db_bytes(self) -> int:
        total = 0
        for path in self._fs.files():
            if self._profile.is_db_file(path):
                total += self._fs.size(path)
        return total

    def _db_files(self) -> list[str]:
        return [p for p in self._fs.files() if self._profile.is_db_file(p)]

    def _encode_part(self, payload: bytes) -> bytes:
        """Frame→codec one part; runs on an encoder worker (or inline)."""
        if self._bus.wants(events.CODEC):
            self._bus.emit(events.CODEC, nbytes=len(payload))
        return self._codec.encode(payload)

    def _encode_groups(self, groups: list, encode_payload) -> list[bytes]:
        """Encode every part, on the shared stage when one is attached.

        :meth:`EncodeStage.map` preserves order, re-raises the first
        failure in this (the DBMS checkpoint) thread, and degrades to
        inline execution when the stage is not running — the exact
        semantics the old serial loop had.
        """
        jobs = [
            (lambda group=group: self._encode_part(encode_payload(group)))
            for group in groups
        ]
        if self._stage is not None:
            return self._stage.map(jobs, lane=self._lane)
        return [job() for job in jobs]

    def _build_incremental(self) -> _PendingObject:
        writes = [
            (path, offset, self._writes[(path, offset)])
            for path, offset in self._order
        ]
        parts = self._encode_groups(
            _split_writes(writes, self._config.max_object_bytes),
            encode_checkpoint_payload,
        )
        if not parts:
            parts.append(self._codec.encode(encode_checkpoint_payload([])))
        return _PendingObject(ts=self._ts, type=CHECKPOINT, payloads=parts)

    def _build_dump(self) -> _PendingObject:
        """Alg. 3 lines 9-11: full dump from the local files, with DB-file
        writes frozen for consistency."""
        self._set_frozen(True)
        try:
            files: list[tuple[str, bytes]] = []
            for path in self._db_files():
                files.append((path, self._fs.read_all(path)))
            if self._profile.ring_wal:
                # InnoDB's checkpoint pointer lives in the ib_logfile0
                # header, which is not a DB file; a dump must still carry
                # it or the restored engine has no recovery start point.
                header = self._fs.read(
                    self._profile.wal_path(0), 0, self._profile.wal_header_size
                )
                files.append((self._profile.wal_path(0), header))
        finally:
            self._set_frozen(False)
        parts = self._encode_groups(
            split_dump_files(files, self._config.max_object_bytes),
            encode_dump_payload,
        )
        return _PendingObject(ts=self._ts, type=DUMP, payloads=parts)


class CheckpointUploader:
    """The Checkpointer thread (Alg. 3, lines 17-29) plus PITR retention.

    ``cloud`` should be a retry-wrapped transport stack: PUT errors
    surfacing here are treated as budget exhaustion and kill the thread,
    and GC DELETE exhaustion is expected to be absorbed by the transport
    (the skippable-verb policy).  ``reactor`` is the running
    :class:`UploadReactor` the owning Ginja (or fleet) also hands the
    commit pipeline; it is borrowed, never started or stopped here.
    """

    def __init__(
        self,
        config: GinjaConfig,
        cloud: ObjectStore,
        view: CloudView,
        reactor: UploadReactor,
        bus: EventBus | None = None,
        clock: Clock = SYSTEM_CLOCK,
        lane: str = "",
        tuner: BatchTuner | None = None,
    ):
        self._config = config
        self._cloud = cloud
        self._view = view
        #: The tenant's batch tuner, when one is running: every DB-object
        #: PUT is counted toward its monthly spend projection.
        self._tuner = tuner
        self._bus = bus or NULL_BUS
        self._clock = clock
        #: DB-object PUTs ride the same loop as the commit pipeline's
        #: WAL PUTs (same tenant lane, refcounted attachment), and a
        #: multi-part checkpoint uploads its parts concurrently within
        #: the lane window.
        self._reactor = reactor
        self._lane = lane
        self.queue: "queue.Queue" = queue.Queue()
        self._thread: threading.Thread | None = None
        self._fatal: Exception | None = None
        self._aborting = False
        # Signalled by the worker after every task_done (and on death),
        # so drain() can wait instead of polling the queue counter.
        self._idle = threading.Condition()
        #: Monotonic checkpoint sequence; disambiguates DB objects whose
        #: WAL frontier ts coincides.  Continue from the cloud's max after
        #: reboot/recovery via :meth:`seed_sequence`.
        self._next_seq = 1  # seq 0 is the boot dump
        #: Retained PITR generations, oldest first.  Each generation is
        #: the list of DB objects (one dump + its incremental
        #: checkpoints) that restores one superseded snapshot.
        self.snapshots: list[list[DBObjectMeta]] = []

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise GinjaError("checkpoint uploader already started")
        # Reactor death must kill this uploader, not hang its drain();
        # the lane attachment is refcounted with the commit pipeline's
        # (same tenant).
        self._reactor.attach(
            self._lane, window=self._config.uploaders, on_fatal=self._poison,
        )
        self._thread = threading.Thread(
            target=self._loop, name="ginja-checkpointer", daemon=True
        )
        self._thread.start()

    def stop(self, drain_timeout: float = 30.0) -> None:
        self.drain(timeout=drain_timeout)
        self._halt(join_timeout=10.0)

    def abort(self) -> None:
        """Abrupt primary loss: discard queued objects without draining.

        Enqueued-but-not-uploaded checkpoints are dropped, exactly as a
        power failure would drop them, and an upload in progress is
        abandoned at its next step — no further part is submitted, no
        GC DELETE issued: a dead primary must not keep editing the
        bucket.  The uploader is unusable afterwards (see
        :meth:`CommitPipeline.abort`).
        """
        self._aborting = True
        if self._fatal is None:
            self._fatal = GinjaError("primary crashed")
        with self._idle:
            self._idle.notify_all()
        # Resolves the parts the worker has in flight, so its
        # handle.wait() returns; parts it submits after this cancel it
        # cancels itself (it re-reads the flag once they are queued).
        self._reactor.cancel(self._lane)
        self._halt(join_timeout=5.0)

    def _halt(self, join_timeout: float) -> None:
        self.queue.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            if self._thread.is_alive():
                # Keep the handle: a worker that outlives its stop is a
                # failure to report, not a leak to forget.
                self._poison(GinjaError("ginja-checkpointer failed to stop"))
            else:
                self._thread = None
        self._reactor.detach(self._lane, self._poison)

    def _poison(self, exc: BaseException) -> None:
        """Record a fatal error from outside the worker loop (reactor
        death), waking anything blocked in :meth:`drain`."""
        if self._fatal is None:
            self._fatal = (
                exc if isinstance(exc, Exception) else GinjaError(repr(exc))
            )
        with self._idle:
            self._idle.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until the queue is empty AND no upload is in progress.

        ``unfinished_tasks`` only drops when the worker calls
        ``task_done`` *after* finishing an upload, so there is no window
        where a dequeued-but-in-flight object looks drained.
        """
        deadline = self._clock.now() + timeout
        with self._idle:
            # Woken by the worker's task_done path; no 10 ms poll loop
            # (which also *advanced* a ManualClock, silently shrinking
            # virtual-time deadlines in drills).
            while self.queue.unfinished_tasks > 0 and self._fatal is None:
                remaining = deadline - self._clock.now()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
            # A poisoned uploader never drained successfully, even if the
            # failing task was consumed from the queue.
            return self._fatal is None and self.queue.unfinished_tasks == 0

    @property
    def failed(self) -> Exception | None:
        return self._fatal

    # -- worker ---------------------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            try:
                if item is _STOP or self._aborting:
                    return
                self._upload(item)
            except BaseException as exc:  # noqa: BLE001 - worker loop boundary
                # A CloudError here has exhausted the transport's PUT
                # budget; any other fault (codec, view bookkeeping) is
                # equally fatal.  Either way the thread must record it —
                # dying silently would leave drain() waiting forever.
                self._poison(exc)
                return
            finally:
                self.queue.task_done()
                with self._idle:
                    self._idle.notify_all()

    def seed_sequence(self, next_seq: int) -> None:
        self._next_seq = next_seq

    def _upload(self, pending: _PendingObject) -> None:
        nparts = len(pending.payloads)
        seq = self._next_seq
        self._next_seq += 1
        metas: list[DBObjectMeta] = [
            DBObjectMeta(
                ts=pending.ts,
                type=pending.type,
                size=len(blob),
                part=part,
                nparts=nparts,
                seq=seq,
            )
            for part, blob in enumerate(pending.payloads)
        ]
        # All parts in flight at once (bounded by the lane window),
        # confirmed in part order below.  A CloudError resolved into a
        # handle means the transport's PUT budget is exhausted; it
        # propagates and kills the checkpointer.
        self._check_not_aborting()
        handles = [
            self._reactor.submit(
                self._cloud, meta.key, blob, tenant=self._lane,
            )
            for meta, blob in zip(metas, pending.payloads)
        ]
        if self._aborting:
            # abort() raised the flag between the check and the
            # submissions: its lane cancel may have run too early to
            # catch them, and nothing else bounds the waits below.
            self._reactor.cancel(self._lane)
        for meta, handle in zip(metas, handles):
            handle.wait()
            if handle.error is not None:
                raise handle.error
            if handle.cancelled:
                raise GinjaError(f"checkpoint upload cancelled: {meta.key}")
            self._check_not_aborting()
            if self._tuner is not None:
                self._tuner.observe_put()
            self._bus.emit(
                events.DB_OBJECT, key=meta.key, nbytes=handle.nbytes,
                detail=pending.type,
            )
        for meta in metas:
            self._view.add_db(meta)
        if pending.type == DUMP:
            self._bus.emit(events.DUMP_COMPLETE, count=nparts)
        # GC: WAL objects at or below the object's ts are redundant.  The
        # view entry is removed even when the delete was skipped by the
        # transport — the orphan is invisible to recovery either way.
        for wal_meta in self._view.wal_objects_upto(pending.ts):
            self._gc_delete(wal_meta.key)
            self._view.remove_wal(wal_meta.ts)
        if pending.type == DUMP:
            self._gc_after_dump((pending.ts, seq))

    def _gc_after_dump(self, dump_order: tuple[int, int]) -> None:
        """Alg. 3 lines 26-29, with §5.4's PITR modification."""
        superseded = self._view.db_objects_before(dump_order)
        for meta in superseded:
            self._view.remove_db(meta)
        if not superseded:
            return
        if self._config.retention.enabled:
            self.snapshots.append(superseded)
            while len(self.snapshots) > self._config.retention.generations:
                for meta in self.snapshots.pop(0):
                    self._gc_delete(meta.key)
        else:
            for meta in superseded:
                self._gc_delete(meta.key)

    def _check_not_aborting(self) -> None:
        if self._aborting:
            raise GinjaError("checkpoint abandoned: primary crashed")

    def _gc_delete(self, key: str) -> None:
        self._check_not_aborting()
        self._cloud.delete(key)


def _split_writes(
    writes: list[tuple[str, int, bytes]], max_bytes: int
) -> list[list[tuple[str, int, bytes]]]:
    """Group checkpoint writes into <= max_bytes parts (whole writes;
    individual pages are far below the 20 MB cap)."""
    groups: list[list[tuple[str, int, bytes]]] = []
    current: list[tuple[str, int, bytes]] = []
    size = 0
    for path, offset, data in writes:
        if current and size + len(data) > max_bytes:
            groups.append(current)
            current, size = [], 0
        current.append((path, offset, data))
        size += len(data)
    if current:
        groups.append(current)
    return groups
