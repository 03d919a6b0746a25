"""The Ginja facade: wire the pipelines together and mount over a FS.

Typical lifecycle (mirrors §5.3's modes)::

    inner = MemoryFileSystem()
    db = MiniDB.create(inner, POSTGRES_PROFILE)   # or an existing DB
    db.close()

    ginja = Ginja(inner, cloud, POSTGRES_PROFILE, GinjaConfig(batch=100,
                                                              safety=1000))
    ginja.start(mode="boot")           # upload segments + dump, then mount
    db = MiniDB.open(ginja.fs, POSTGRES_PROFILE)  # run the DBMS on Ginja
    ...
    ginja.stop()                        # drain and unmount

After a disaster::

    ginja, report = Ginja.recover(cloud, fresh_fs, POSTGRES_PROFILE, config)
    db = MiniDB.open(ginja.fs, POSTGRES_PROFILE)  # DBMS crash recovery
"""

from __future__ import annotations

import threading

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common import events
from repro.common.events import EventBus, Subscriber
from repro.core.bootstrap import (
    RecoveryReport, boot, reboot, recover_files, unbounded_marks,
)
from repro.core.checkpointer import CheckpointCollector, CheckpointUploader
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.data_model import BucketIndex
from repro.core.processors import DatabaseProcessor
from repro.core.stats import GinjaStats
from repro.cloud.interface import ObjectStore
from repro.cloud.reactor import UploadReactor
from repro.cloud.transport import build_transport
from repro.db.profiles import DBMSProfile
from repro.storage.interface import FileSystem
from repro.storage.interposer import InterposedFS

#: The progress events :meth:`Ginja.recover`'s ``on_event`` receives.
RECOVERY_EVENT_KINDS = frozenset({
    events.RECOVERY_PLANNED, events.OBJECT_RESTORED, events.RECOVERY_DONE,
})


class Ginja:
    """One mounted Ginja instance protecting one database directory."""

    def __init__(
        self,
        inner_fs: FileSystem,
        cloud: ObjectStore,
        profile: DBMSProfile,
        config: GinjaConfig | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
        fuse_overhead: float = 0.0,
        tenant: str = "",
        bus: EventBus | None = None,
        transport: ObjectStore | None = None,
        reactor: UploadReactor | None = None,
    ):
        """Stand-alone construction builds (and owns) everything
        privately; a fleet injects the shared halves instead, and each
        injected piece stays the fleet's to start and stop:

        * ``transport`` — an already retry-wrapped store (typically a
          :class:`~repro.cloud.prefix.PrefixedObjectStore` over the
          fleet's shared transport stack).  When given, no private
          transport stack is built and ``cloud`` is treated as raw-store
          access *through the same namespace* (fsck, stale-key deletes).
        * ``reactor`` — the shared upload reactor; this instance
          attaches its ``tenant`` lane.
        * ``bus`` — a tenant-scoped :class:`EventBus` so every event this
          instance emits carries the tenant stamp.
        """
        self.config = config or GinjaConfig()
        self.profile = profile
        self.cloud = cloud
        self.clock = clock
        #: Fleet tenant id; doubles as the fair-share lane name on the
        #: shared reactor.  Empty for a stand-alone instance.
        self.tenant = tenant
        #: Every component narrates itself here; subscribe a
        #: TraceRecorder (or anything callable) to watch a run live.
        self.bus = bus if bus is not None else EventBus(tenant=tenant)
        self.stats = GinjaStats().attach(self.bus)
        #: The retry-wrapped, traced transport all cloud I/O goes through.
        #: Injected by a fleet (shared retry/meter stack under a tenant
        #: prefix); built privately otherwise.
        if transport is not None:
            self.transport = transport
        else:
            self.transport = build_transport(
                cloud, self.config, bus=self.bus, clock=clock
            )
        self.view = CloudView()
        self.codec = ObjectCodec(
            compress=self.config.compress,
            encrypt=self.config.encrypt,
            password=self.config.password,
        )
        #: The file system to hand the DBMS.  Interception activates at
        #: :meth:`start` — Algorithm 1 mounts only after initialization.
        self.fs = InterposedFS(
            inner_fs, None, per_call_overhead=fuse_overhead, clock=clock
        )
        #: One upload reactor runs the claim jobs and drives WAL PUTs,
        #: checkpoint PUTs and GC DELETEs (the tenant's lane on a
        #: fleet-shared loop, or a private loop for a stand-alone
        #: instance) — the process's one thread either way, and never
        #: the tenant's.  A checkpoint encodes on the DBMS's thread.
        self.reactor = reactor or UploadReactor(
            inflight_window=self.config.uploaders
        )
        #: What this instance built it also starts and stops; an
        #: injected reactor belongs to the fleet.  The pipelines below
        #: only ever borrow.
        self._own_reactor = reactor is None
        self.pipeline = CommitPipeline(
            self.config, self.transport, self.codec, self.view,
            self.reactor, self.bus, clock=clock, lane=tenant,
        )
        self.checkpointer = CheckpointUploader(
            self.config, self.transport, self.view, self.reactor, self.bus,
            clock=clock, lane=tenant, tuner=self.pipeline.tuner,
        )
        self.collector = CheckpointCollector(
            self.config,
            self.codec,
            self.view,
            inner_fs,
            profile,
            self.checkpointer.enqueue,
            self.bus,
            tuner=self.pipeline.tuner,
        )
        self.processor = DatabaseProcessor(profile, self.pipeline, self.collector)
        self._running = False
        #: Set once :meth:`start` gets past the bucket: an instance runs
        #: once, and a stopped or crashed one is not restarted.
        self._started = False
        #: The ``upto_ts`` of the point-in-time restore that built this
        #: instance, if one did: it never protects (:meth:`start`).
        self._restored_upto: int | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, mode: str = "boot") -> None:
        """Initialize per Algorithm 1 and activate interception.

        ``mode`` is ``"boot"`` (fresh bucket: upload everything first) or
        ``"reboot"`` (bucket already synchronized with local files).  An
        instance starts once: after :meth:`stop` or :meth:`crash`, build
        a new one (its private reactor cannot run twice).
        """
        if self._started:
            raise GinjaError("Ginja already started")
        if self._restored_upto is not None:
            # The bucket's chain runs past the restored point: shipping
            # from here would write over the latest generation's WAL.
            raise GinjaError(
                f"restored to ts {self._restored_upto}, not the latest "
                "state: protect the restored database in a fresh bucket"
            )
        if mode == "boot":
            marks, files = boot(
                self.fs.inner,
                self.transport,
                self.codec,
                self.view,
                self.profile,
                self.config,
                self.bus,
            )
            # Only the dump this process shipped is a base it knows
            # byte for byte; after reboot or recover, the bucket's
            # newest dump may not be the generation the files restore.
            self.collector.seed(files)
        elif mode == "reboot":
            if reboot(self.transport, self.view, self.config.retention) == 0:
                raise GinjaError("reboot mode found no Ginja objects in the bucket")
            self.checkpointer.seed_sequence(self.view.max_db_seq() + 1)
        elif mode == "attached":
            pass  # view already initialized (the recover() path)
        else:
            raise GinjaError(f"unknown start mode: {mode!r}")
        if mode != "boot":
            # An earlier pipeline shipped into this bucket.
            marks = unbounded_marks(self.fs.inner, self.view, self.profile)
        self.pipeline.seed_marks(marks)
        self._started = True
        if not self.reactor.alive:
            if not self._own_reactor:
                raise GinjaError(
                    "shared upload reactor is not running; start the "
                    "fleet's pools before starting tenants"
                )
            self.reactor.start()
        self.pipeline.start()
        self.checkpointer.start()
        self.fs.set_interceptor(self.processor)
        self._running = True

    def stop(self, drain_timeout: float = 30.0) -> None:
        """Drain both pipelines and deactivate interception.

        ``drain_timeout`` bounds the *whole* shutdown: the checkpointer
        receives whatever deadline budget the pipeline's drain left
        (previously each got the full timeout sequentially, so a stuck
        stop could block ~2x what the caller asked for).

        A poisoned commit pipeline re-raises its recorded failure from
        :meth:`CommitPipeline.stop`; the checkpointer and a private
        reactor are still torn down first, so a failed shutdown never
        leaks threads.
        """
        if not self._running:
            return
        self.fs.set_interceptor(None)
        deadline = self.clock.now() + drain_timeout
        try:
            self.pipeline.stop(drain_timeout=drain_timeout)
        finally:
            remaining = max(0.0, deadline - self.clock.now())
            try:
                self.checkpointer.stop(drain_timeout=remaining)
            finally:
                # Last, after both clients detached: a shared reactor
                # belongs to the fleet and is left untouched.  A private
                # one may raise on a wedged loop; the instance is still
                # marked stopped either way.
                if self._own_reactor:
                    self.reactor.stop()
                self._running = False

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every pending update and checkpoint is in the cloud.

        ``timeout`` bounds the whole wait, as in :meth:`stop`: the
        checkpointer gets what the pipeline's drain left of it.
        """
        deadline = self.clock.now() + timeout
        ok = self.pipeline.drain(timeout=timeout)
        remaining = max(0.0, deadline - self.clock.now())
        return self.checkpointer.drain(timeout=remaining) and ok

    def crash(self) -> None:
        """Simulate abrupt primary loss (the disaster of §5.3).

        Interception stops and both pipelines are torn down *without*
        draining: unconfirmed updates and queued checkpoints are dropped
        exactly as a power failure would drop them, and writers blocked
        on the Safety limit are released with an error.  The instance is
        dead afterwards; the only way forward is :meth:`recover` on a
        fresh file system (chaos drills and failover tests do exactly
        that).
        """
        self.fs.set_interceptor(None)
        if self._running:
            self.pipeline.abort()
            self.checkpointer.abort()
        try:
            # A shared reactor belongs to the fleet: abort() already
            # cancelled this tenant's lane, and one tenant's disaster
            # must not tear down its co-tenants' loop.  Only a private
            # loop dies with its instance.
            if self._own_reactor:
                self.reactor.stop()
        finally:
            self._running = False

    # -- observability ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def pending_updates(self) -> int:
        """Updates not yet confirmed in the cloud — the current exposure
        (bounded by S + in-flight batch)."""
        return self.pipeline.pending_updates()

    def health(self) -> dict:
        """One-glance status for operators and tests."""
        failure = self.pipeline.failed or self.checkpointer.failed
        tuner = self.pipeline.tuner
        # The tuner snapshot is taken under its own lock, so a retune
        # concurrent with this health() can never tear the B/S pair.
        tuner_state = tuner.snapshot() if tuner is not None else None
        return {
            "running": self._running,
            "pending_updates": self.pending_updates(),
            "confirmed_ts": self.view.confirmed_ts(),
            "wal_objects": self.view.wal_object_count(),
            "db_bytes_in_cloud": self.view.total_db_bytes(),
            #: Bytes planned to ship per byte of WAL the DBMS wrote
            #: (pre-codec; ``None`` before the first batch), and what
            #: the last-shipped page shadow behind it holds.
            "wal_shipped_ratio": (
                self.stats.wal_planned_bytes / self.stats.wal_submitted_bytes
                if self.stats.wal_submitted_bytes else None
            ),
            "wal_shadow_bytes": self.pipeline.shadow_bytes,
            #: The same for checkpoints: bytes planned to ship per byte
            #: the DBMS wrote in them (``None`` before the first one).
            "db_shipped_ratio": (
                self.stats.db_planned_bytes / self.stats.db_submitted_bytes
                if self.stats.db_submitted_bytes else None
            ),
            "db_shadow_bytes": self.collector.shadow_bytes,
            "batch": tuner_state["batch"] if tuner_state else self.config.batch,
            "safety": (
                tuner_state["safety"] if tuner_state else self.config.safety
            ),
            "tuner": tuner_state,
            "reactor": self.reactor.health(),
            "failed": repr(failure) if failure else None,
        }

    # -- disaster recovery ---------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        cloud: ObjectStore,
        fresh_fs: FileSystem,
        profile: DBMSProfile,
        config: GinjaConfig | None = None,
        *,
        upto_ts: int | None = None,
        clock: Clock = SYSTEM_CLOCK,
        on_event: Subscriber | None = None,
        tenant: str = "",
        bus: EventBus | None = None,
        transport: ObjectStore | None = None,
        helper_slots: threading.BoundedSemaphore | None = None,
        reactor: UploadReactor | None = None,
    ) -> tuple["Ginja", RecoveryReport]:
        """Rebuild the database files from the cloud and return a mounted
        Ginja ready to protect the recovered database — or, after a
        point-in-time restore (``upto_ts``), one that does not protect:
        interception stays off and :meth:`start` refuses, because the
        bucket's chain goes on past the restored point.  Protect such a
        database in a fresh bucket.

        All restore I/O runs through the instance's transport stack, so
        recovery GETs get the same retry policy, metering and tracing as
        uploads, and the downloads run ``config.downloaders`` wide (the
        recovery engine), on helper threads the restore starts and
        joins itself; a fleet passes ``helper_slots``, its one bound on
        the helpers of all its restores.  ``on_event`` subscribes to
        the recovery progress events
        (``recovery_planned``/``object_restored``/``recovery_done``)
        before the first GET — the CLI's progress narration hangs off
        this.

        The bucket is LISTed once.  The restore plans from that index,
        and after it the fsck repair cleans the bucket from the same
        index: what the audit calls stale (orphans past a timestamp gap
        left by in-flight uploads at disaster time, superseded WAL below
        the newest checkpoint frontier, incomplete multi-part groups,
        groups below the config's retention floor) goes in one batch
        DELETE, riding the transport's skippable-DELETE retry semantics,
        and the view is resynced to the repaired index, so the new
        instance's timestamp sequence is contiguous.  The audit and the
        deletes are ``report.cleanup``.
        """
        # Imported lazily, as in reboot(): repro.fsck imports repro.core.
        from repro.fsck.audit import audit_index
        from repro.fsck.repair import repair_index

        ginja = cls(
            fresh_fs,
            cloud,
            profile,
            config,
            clock=clock,
            tenant=tenant,
            bus=bus,
            transport=transport,
            reactor=reactor,
        )
        if on_event is not None:
            ginja.bus.subscribe(on_event, kinds=RECOVERY_EVENT_KINDS)
        index = BucketIndex.from_store(ginja.transport)
        report = recover_files(
            ginja.transport,
            ginja.codec,
            fresh_fs,
            upto_ts=upto_ts,
            config=ginja.config,
            bus=ginja.bus,
            clock=clock,
            helper_slots=helper_slots,
            index=index,
        )
        # Audit the bucket alone: the fresh view would be all missing.
        report.cleanup = repair_index(
            ginja.transport, index,
            audit_index(index, retention=ginja.config.retention),
            view=ginja.view,
        )
        ginja.checkpointer.seed_sequence(ginja.view.max_db_seq() + 1)
        if upto_ts is None:
            ginja.start(mode="attached")
        else:
            ginja._restored_upto = upto_ts
        return ginja, report
