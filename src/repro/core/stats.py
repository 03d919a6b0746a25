"""Runtime counters the experiments read off a running Ginja.

The counters are fed by events: subscribe a :class:`GinjaStats` to the
run's bus with :meth:`GinjaStats.attach` and every pipeline/checkpointer/
transport event is translated into the matching counter delta.  The
explicit :meth:`GinjaStats.add` remains for callers that account by
hand (and for tests).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.common import events
from repro.common.events import Event, EventBus
from repro.cloud.prefix import tenant_of_event


@dataclass
class GinjaStats:
    """Thread-safe counters; byte counts are post-codec (what actually
    crossed the wire) unless their comment says otherwise."""

    wal_objects: int = 0
    wal_bytes: int = 0
    wal_batches: int = 0
    #: Pre-codec bytes the DBMS's WAL writes submitted, and the bytes
    #: the claim job planned to ship for them (``wal_batch`` events);
    #: their ratio is what coalescing and changed-range shipping save.
    wal_submitted_bytes: int = 0
    wal_planned_bytes: int = 0
    db_objects: int = 0
    db_bytes: int = 0
    #: The same pair for the DB side (``checkpoint_end`` events): the
    #: pre-codec bytes the DBMS wrote inside checkpoints, and the bytes
    #: planned to ship for them — changed runs, or a dump's files.
    db_submitted_bytes: int = 0
    db_planned_bytes: int = 0
    dumps: int = 0
    checkpoints_seen: int = 0
    gc_deletes: int = 0
    gc_delete_failures: int = 0
    upload_retries: int = 0
    #: Encoded WAL objects a poisoned pipeline dropped instead of
    #: uploading (and the bytes that never reached the cloud) — the
    #: audit trail for what an abort abandoned.
    uploads_dropped: int = 0
    uploads_dropped_bytes: int = 0
    #: How many times a DBMS write blocked on the Safety limit, and for
    #: how long in total.
    blocks: int = 0
    blocked_seconds: float = 0.0
    #: Pre-codec bytes fed to codec work (compress/encrypt/MAC), the
    #: sum of ``codec`` events' sizes, for the resource-usage
    #: experiment (Table 4).
    codec_bytes_in: int = 0
    #: Disaster-recovery runs completed on this bus, and what they moved
    #: (fed by the recovery engine's events; Figure 7 territory).
    recoveries: int = 0
    objects_restored: int = 0
    restored_bytes: int = 0
    #: B/S/T_B retunes by the adaptive batch tuner.  A flap
    #: diagnostic: steady workloads should converge and stop.
    retunes: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: Per-tenant rollups, keyed by the ``tenant`` stamp of incoming
        #: events; empty for a single-tenant run (no stamped events).
        self._tenants: dict[str, "GinjaStats"] = {}

    def add(self, **deltas: float) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict[str, float]:
        # Derived from the dataclass fields so a counter added later can
        # never be silently dropped from experiment reports.
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- event-bus subscription ---------------------------------------------

    #: The only kinds :meth:`handle_event` reacts to.  Declared at
    #: subscription time so the bus's ``wants()`` fast path stays False
    #: for per-write events (``queue_depth``, ``encode_done``…) when a
    #: stats counter is the sole subscriber.
    HANDLED_KINDS = frozenset({
        events.RETRY, events.GC_DELETE, events.WAL_OBJECT, events.WAL_BATCH,
        events.DB_OBJECT, events.DUMP_COMPLETE, events.CHECKPOINT_END,
        events.COMMIT_BLOCKED, events.COMMIT_UNBLOCKED, events.CODEC,
        events.OBJECT_RESTORED, events.RECOVERY_DONE,
        events.UPLOAD_DROPPED, events.TUNER_RETUNE,
    })

    def attach(self, bus: EventBus) -> "GinjaStats":
        """Subscribe to a bus; pipeline/transport events feed counters."""
        bus.subscribe(self.handle_event, kinds=self.HANDLED_KINDS)
        return self

    @staticmethod
    def _deltas(event: Event) -> dict[str, float] | None:
        """The counter deltas one observability event translates into."""
        kind = event.kind
        if kind == events.RETRY:
            return {"upload_retries": 1}
        if kind == events.GC_DELETE:
            if event.ok:
                return {"gc_deletes": 1}
            return {"gc_delete_failures": 1}
        if kind == events.WAL_OBJECT:
            return {"wal_objects": 1, "wal_bytes": event.nbytes}
        if kind == events.WAL_BATCH:
            return {
                "wal_batches": 1,
                "wal_submitted_bytes": event.total,
                "wal_planned_bytes": event.nbytes,
            }
        if kind == events.DB_OBJECT:
            return {"db_objects": 1, "db_bytes": event.nbytes}
        if kind == events.DUMP_COMPLETE:
            return {"dumps": 1}
        if kind == events.CHECKPOINT_END:
            return {
                "checkpoints_seen": 1,
                "db_submitted_bytes": event.total,
                "db_planned_bytes": event.nbytes,
            }
        if kind == events.COMMIT_BLOCKED:
            return {"blocks": 1}
        if kind == events.COMMIT_UNBLOCKED:
            return {"blocked_seconds": event.latency}
        if kind == events.CODEC:
            return {"codec_bytes_in": event.nbytes}
        if kind == events.OBJECT_RESTORED:
            return {"objects_restored": 1, "restored_bytes": event.nbytes}
        if kind == events.RECOVERY_DONE:
            return {"recoveries": 1}
        if kind == events.TUNER_RETUNE:
            return {"retunes": 1}
        if kind == events.UPLOAD_DROPPED:
            return {"uploads_dropped": 1, "uploads_dropped_bytes": event.nbytes}
        return None

    def handle_event(self, event: Event) -> None:
        """Translate one observability event into counter deltas.

        An event that belongs to a tenant (:func:`~repro.cloud.prefix
        .tenant_of_event`: stamped, or under a tenant's key) additionally
        rolls into that tenant's own :class:`GinjaStats`, so a fleet
        reads both the process-wide totals and each tenant's share off
        one subscriber.
        """
        deltas = self._deltas(event)
        if deltas is None:
            return
        self.add(**deltas)
        tenant_id = tenant_of_event(event)
        if tenant_id:
            self.tenant(tenant_id).add(**deltas)

    # -- per-tenant rollups ---------------------------------------------------

    def tenant(self, tenant_id: str) -> "GinjaStats":
        """The rollup for ``tenant_id`` (created on first use)."""
        with self._lock:
            rolled = self._tenants.get(tenant_id)
            if rolled is None:
                rolled = self._tenants[tenant_id] = GinjaStats()
            return rolled

    def tenants(self) -> tuple[str, ...]:
        """The tenant ids that have accumulated counters."""
        with self._lock:
            return tuple(self._tenants)

    def tenant_snapshot(self, tenant_id: str) -> dict[str, float]:
        return self.tenant(tenant_id).snapshot()
