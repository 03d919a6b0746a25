"""Algorithm 3: checkpoint capture, upload and garbage collection.

Two halves, decoupled exactly as §5.3 prescribes ("we decouple as much
as possible the (local) DBMS checkpoints from the writing of
checkpoints to the cloud"):

* :class:`CheckpointCollector` runs *on the DBMS's checkpointing
  thread*, inside the interposer hooks.  It snapshots the WAL frontier
  at the begin event, accumulates the checkpoint's page writes in
  write order, and at the end event decides dump vs. incremental — a
  dump whenever the cloud-side DB objects reach ``dump_threshold``
  (150%) of the local database size — then hands the finished object
  to the uploader.  An incremental object carries, for a page
  rewritten in place, only the byte runs by which it differs from the
  bytes the bucket's replay holds there: the shared
  :class:`~repro.core.shadow.Shadow`, whose per-file images start from
  the dump this process last handed over and take in every run handed
  over since.
* :class:`CheckpointUploader` is the paper's Checkpointer without its
  thread — a state machine stepped by the upload reactor's completion
  callbacks: it uploads DB objects (split at 20 MB), registers them in
  the cloud view, deletes WAL objects up to the object's timestamp
  and, after a dump, superseded DB objects (subject to the PITR
  retention policy) — one batch DELETE per ``MAX_DELETE_KEYS`` keys
  where Alg. 3 loops one DELETE per object.

All cloud I/O goes through the transport stack, whose RetryLayer
implements the fatal-vs-skippable policy this module used to hand-roll:
a PUT that exhausts its budget fails its handle (and blows the
uploader's fuse — a missing DB object would corrupt recovery), while a GC
DELETE request that exhausts its budget is silently skipped (an
orphaned object wastes a few bytes and is ignored by recovery).
Progress is narrated on the event bus (``checkpoint_begin``/
``checkpoint_end``, ``db_object``, ``dump``, ``codec``); the per-key
``gc_delete`` events come from the transport.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.common.fuse import Fuse
from repro.common.units import MiB
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
from repro.core.shadow import Shadow, split_runs
from repro.core.tuner import BatchTuner
from repro.cloud.interface import ObjectStore, delete_slices
from repro.cloud.reactor import UploadHandle, UploadReactor
from repro.db.profiles import DBMSProfile
from repro.storage.interface import FileSystem


@dataclass
class _PendingObject:
    """One finished checkpoint/dump awaiting upload."""

    ts: int
    type: str                 # DUMP or CHECKPOINT
    payloads: list[bytes]     # encoded parts, each <= max_object_bytes
    planned: int = 0          # pre-codec bytes of page/file content in them


@dataclass
class _Upload:
    """The object in flight: its part metas and how many PUTs are out."""

    pending: _PendingObject
    metas: list[DBObjectMeta]
    parts_left: int


#: Most bytes of page and file images the collector's shadow keeps.
_SHADOW_BYTES = 16 * MiB


@lru_cache(maxsize=None)
def _run_framing(path: str) -> int:
    """What one more run of ``path`` adds to a checkpoint payload."""
    return (len(encode_checkpoint_payload([(path, 0, b"")]))
            - len(encode_checkpoint_payload([])))


class CheckpointCollector:
    """DBMS-thread half: gathers a checkpoint's writes (Alg. 3, 3-16)."""

    def __init__(
        self,
        config: GinjaConfig,
        codec: ObjectCodec,
        view: CloudView,
        fs: FileSystem,
        profile: DBMSProfile,
        enqueue: Callable[[_PendingObject], None],
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
        #: Where a finished object goes: :meth:`CheckpointUploader.enqueue`.
        self._enqueue = enqueue
        self._bus = bus or NULL_BUS
        #: Shared encoder pool (the Ginja facade passes the same stage the
        #: commit pipeline uses, so DB-object codec work overlaps WAL
        #: traffic instead of serializing on the DBMS's checkpoint
        #: thread).  ``None`` — or a stopped stage — encodes inline.
        self._stage = encode_stage
        self._active = False
        self._ts = -1
        #: The checkpoint's writes in write order — which is the order
        #: recovery replays them in.
        self._writes: list[tuple[str, int, bytes]] = []
        #: What the bucket's replay holds: an image of each DB file,
        #: seeded from the dump this process last handed over (the boot
        #: dump, via :meth:`seed`) and fed every run handed over since,
        #: and the last entry handed over at each other place (the ring
        #: profile's log-header slots, or every place while no image
        #: exists).  DB objects are deleted only when a dump supersedes
        #: everything before it, and the uploader puts one object at a
        #: time in hand-off order and dies on the first failure, so
        #: every object in the bucket has all its predecessors since
        #: that dump beside it — a run lands on the bytes it was cut
        #: against.  A dump's hand-off starts the shadow over; a
        #: process that did not boot the bucket starts with none.
        self._shadow = Shadow(_SHADOW_BYTES, _run_framing, profile.is_db_file)
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
        Reading it also opens the view's next shipping epoch, which is
        what keeps changed-range WAL shipping clear of that GC.
        """
        self._active = True
        self._ts = self._view.begin_checkpoint()
        self._writes = []
        self._bus.emit(events.CHECKPOINT_BEGIN, count=self._ts)

    def add_write(self, path: str, offset: int, data: bytes) -> None:
        """One DB-file write, kept in write order; a write outside any
        checkpoint belongs to no object."""
        if self._active:
            self._writes.append((path, offset, bytes(data)))

    def end(self) -> None:
        """Checkpoint-end event: build the DB object, hand it on."""
        self._active = False
        writes, self._writes = self._writes, []
        local_db_size = self._local_db_bytes()
        cloud_db_size = self._view.total_db_bytes()
        threshold = self._config.dump_threshold
        if self._tuner is not None:
            threshold = self._tuner.dump_threshold(threshold)
        if cloud_db_size >= threshold * local_db_size:
            pending, files = self._build_dump()
            hand_off = partial(self.seed, files)
        else:
            pending, learned = self._build_incremental(writes)
            hand_off = partial(self._shadow.learn, learned)
        self._bus.emit(
            events.CHECKPOINT_END, count=self._ts, detail=pending.type,
            nbytes=pending.planned,
            total=sum(len(data) for _path, _offset, data in writes),
        )
        # The hand-off: the shadow takes in what an object carries only
        # once it is built and on its way to the uploader.
        hand_off()
        self._enqueue(pending)

    def seed(self, files: list[tuple[str, bytes]]) -> None:
        """Start the shadow over from a dump's ``(path, content)``
        files, on their way to the bucket: from :meth:`end`, or from
        ``boot()``.  The whole-write ablation keeps no shadow."""
        if self._config.coalesce_writes:
            self._shadow.seed(files)

    @property
    def shadow_bytes(self) -> int:
        """Bytes of page and file images the shadow holds."""
        return self._shadow.nbytes

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

        :meth:`EncodeStage.map` preserves order, encodes the first part
        on this (the DBMS checkpoint) thread — so a one-part object
        takes no worker — re-raises the first failure here, and
        degrades to inline execution when the stage is not running —
        the exact semantics the old serial loop had.
        """
        jobs = [
            (lambda group=group: self._encode_part(encode_payload(group)))
            for group in groups
        ]
        if self._stage is not None:
            return self._stage.map(jobs, lane=self._lane)
        return [job() for job in jobs]

    def _build_incremental(self, writes) -> tuple[_PendingObject, tuple]:
        """The checkpoint object, and what the shadow learns from it
        once it is handed to the uploader.  ``coalesce_writes=False``
        ships every write verbatim, in write order."""
        runs, learned = writes, ({}, ())
        if self._config.coalesce_writes:
            # Every base lives until the next dump's hand-off, which
            # starts the shadow over: one epoch serves.
            runs, learned = self._shadow.plan(
                [(*write, 0) for write in writes]
            )
        parts = self._encode_groups(
            split_runs(runs, self._config.max_object_bytes),
            encode_checkpoint_payload,
        )
        if not parts:
            parts.append(self._codec.encode(encode_checkpoint_payload([])))
        pending = _PendingObject(
            ts=self._ts, type=CHECKPOINT, payloads=parts,
            planned=sum(len(data) for _path, _offset, data in runs),
        )
        return pending, learned

    def _build_dump(self) -> tuple[_PendingObject, list[tuple[str, bytes]]]:
        """Alg. 3 lines 9-11: full dump from the local files, with DB-file
        writes frozen for consistency; the object, and the files it
        holds.

        A dump opens a new generation: every DB object before it is
        deleted (or retained as a PITR generation of its own) once it
        is durable, so nothing after it may be cut against them — only
        against the files it holds.
        """
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
        return _PendingObject(
            ts=self._ts, type=DUMP, payloads=parts,
            planned=sum(len(content) for _path, content in files),
        ), files


class CheckpointUploader:
    """Alg. 3, lines 17-29, plus PITR retention — as a thread-free state
    machine on the tenant's reactor lane::

        enqueue -> parts (PUTs, all in flight within the lane window)
                -> register the whole group in the view
                -> GC request(s): retired WAL + what a dump supersedes
                -> next queued object, or idle (drain() returns)

    :meth:`enqueue` runs on the DBMS checkpoint thread; every later
    step runs in a reactor completion callback, on the loop thread, one
    at a time.  Nothing ever waits on a handle.  One object is in
    flight at a time, so objects reach the bucket in ``seq`` order and
    GC strictly follows the durability of every part it relies on.

    ``cloud`` should be a retry-wrapped transport stack: a PUT error in
    a handle is budget exhaustion and poisons the uploader, and GC
    DELETE exhaustion is expected to be absorbed by the transport (the
    skippable-verb policy).  ``reactor`` is the running
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
        #: DB-object PUTs and GC DELETEs ride the same loop and lane as
        #: the commit pipeline's WAL PUTs (refcounted attachment), so a
        #: tenant's whole cloud traffic shares one window.
        self._reactor = reactor
        self._lane = lane
        # Guards the fields below; notified on every change drain()
        # waits for (object finished, fuse blown).
        self._idle = threading.Condition()
        self._queued: deque[_PendingObject] = deque()
        #: True from the moment an object's parts are submitted until
        #: its last GC request resolved.
        self._busy = False
        self._attached = False
        #: Every transition runs under it; the first failure drops the
        #: queue, and the object in flight stops at its next step.
        self._fuse = Fuse(self._idle, self._drop_queued)
        self._aborting = False
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
        if self._attached:
            raise GinjaError("checkpoint uploader already started")
        # Reactor death must poison this uploader, not hang its drain();
        # the lane attachment is refcounted with the commit pipeline's
        # (same tenant).
        self._reactor.attach(
            self._lane, window=self._config.uploaders, on_fatal=self._fuse.blow,
        )
        self._attached = True

    def stop(self, drain_timeout: float = 30.0) -> None:
        if not self.drain(timeout=drain_timeout):
            # Whatever is still in flight runs to its own verdict, but
            # nothing queued behind it starts after a stop.
            self._fuse.blow(GinjaError("checkpoint uploader stopped undrained"))
        self._detach()

    def abort(self) -> None:
        """Abrupt primary loss: discard queued objects without draining.

        Enqueued-but-not-uploaded checkpoints are dropped, exactly as a
        power failure would drop them, and an upload in progress is
        abandoned at its next step — its in-flight requests are
        cancelled, no further part or GC request is submitted: a dead
        primary must not keep editing the bucket.  The uploader is
        unusable afterwards (see :meth:`CommitPipeline.abort`).
        """
        self._aborting = True
        self._fuse.blow(GinjaError("primary crashed"))
        self._reactor.cancel(self._lane)
        self._detach()

    def _detach(self) -> None:
        if self._attached:
            self._attached = False
            self._reactor.detach(self._lane, self._fuse.blow)

    def _drop_queued(self) -> None:
        with self._idle:
            self._queued.clear()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until nothing is queued AND nothing is in flight — the
        last object's last GC request included, so a meter read right
        after a successful drain has seen every request.  A poisoned
        uploader never drained successfully.
        """
        deadline = self._clock.now() + timeout
        with self._idle:
            # Woken by the state machine; no poll loop (which would
            # *advance* a ManualClock, silently shrinking virtual-time
            # deadlines in drills).
            while (self._busy or self._queued) and self._fuse.error is None:
                remaining = deadline - self._clock.now()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
            return self._fuse.error is None

    @property
    def failed(self) -> Exception | None:
        return self._fuse.error

    def seed_sequence(self, next_seq: int) -> None:
        self._next_seq = next_seq

    # -- the state machine ------------------------------------------------------------------
    #
    # Every step below runs with no lock held across a reactor call,
    # under this uploader's fuse: an exception blows *it*, never the
    # loop or the lane's pipeline.

    def enqueue(self, pending: _PendingObject) -> None:
        """Accept one finished checkpoint (Alg. 3 line 16): start it now
        if the machine is idle, else queue it behind the one in flight."""
        with self._idle:
            if self._fuse.error is not None:
                return  # a dead uploader drops it, as a dead thread did
            if self._busy:
                self._queued.append(pending)
                return
            self._busy = True
        self._fuse.guard(self._submit_parts, pending)

    def _submit_parts(self, pending: _PendingObject) -> None:
        nparts = len(pending.payloads)
        seq = self._next_seq
        self._next_seq += 1
        metas = [
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
        # All parts in flight at once (bounded by the lane window); the
        # last completion, whichever part it is, moves the object on.
        upload = _Upload(pending, metas, parts_left=nparts)
        for meta, blob in zip(metas, pending.payloads):
            self._reactor.submit(
                self._cloud, meta.key, blob, tenant=self._lane,
                on_done=partial(self._fuse.guard, self._part_done, upload),
            )
        if self._aborting:
            # abort() raised the flag while the parts were going in:
            # its lane cancel may have run too early to catch them.
            self._reactor.cancel(self._lane)

    def _part_done(self, upload: _Upload, handle: UploadHandle) -> None:
        pending, metas = upload.pending, upload.metas
        if not handle.ok:
            # Budget exhausted, or cancelled under us: the group stays
            # incomplete (recovery ignores it) and nothing is GC'd.
            raise handle.error or GinjaError(
                f"checkpoint upload cancelled: {handle.key}"
            )
        if self._tuner is not None:
            self._tuner.observe_put()
        self._bus.emit(
            events.DB_OBJECT, key=handle.key, nbytes=handle.nbytes,
            detail=pending.type,
        )
        upload.parts_left -= 1
        if upload.parts_left:
            return
        # Every part is durable: only now does the view (and so the
        # next checkpoint's 150% rule, and GC) learn of the group.
        for meta in metas:
            self._view.add_db(meta)
        if pending.type == DUMP:
            self._bus.emit(events.DUMP_COMPLETE, count=len(metas))
        # GC: WAL objects at or below the object's ts are redundant.
        # Their view entries go first and for good — even when the
        # transport ends up skipping the request, the orphans are
        # invisible to recovery either way.
        doomed = [meta.key for meta in self._view.pop_wal_upto(pending.ts)]
        if pending.type == DUMP:
            doomed += self._superseded_by((pending.ts, metas[0].seq))
        self._gc(delete_slices(doomed))

    def _superseded_by(self, dump_order: tuple[int, int]) -> list[str]:
        """Alg. 3 lines 26-29, with §5.4's PITR modification: the keys
        a completed dump lets GC delete."""
        superseded = self._view.db_objects_before(dump_order)
        for meta in superseded:
            self._view.remove_db(meta)
        if not superseded:
            return []
        if not self._config.retention.enabled:
            return [meta.key for meta in superseded]
        self.snapshots.append(superseded)
        expired: list[str] = []
        while len(self.snapshots) > self._config.retention.generations:
            expired += [meta.key for meta in self.snapshots.pop(0)]
        return expired

    def _gc(self, requests: list[list[str]]) -> None:
        """Issue the remaining GC requests one after another — the flag
        is re-read before each, so an abort between two of them keeps
        the second from ever reaching the bucket — then move on."""
        if not requests:
            self._next()
            return
        if self._aborting:
            raise GinjaError("checkpoint abandoned: primary crashed")
        self._reactor.submit_delete(
            self._cloud, requests[0], tenant=self._lane,
            on_done=partial(self._fuse.guard, self._gc_done, requests[1:]),
        )

    def _gc_done(self, rest: list[list[str]], handle: UploadHandle) -> None:
        if not handle.ok:
            # Exhaustion never gets here (the transport skips it): this
            # is a cancelled lane, or a store failing outside the
            # skippable policy.
            raise handle.error or GinjaError("checkpoint GC cancelled")
        self._gc(rest)

    def _next(self) -> None:
        """The object in flight is finished: start the next one, or go
        idle and let drain() return."""
        with self._idle:
            if not self._queued:
                self._busy = False
                self._idle.notify_all()
                return
            pending = self._queued.popleft()
        self._fuse.guard(self._submit_parts, pending)

