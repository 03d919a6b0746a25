"""The repair pass: make a bucket (and optionally a view) recoverable.

Two modes, both driven by a fresh audit:

* ``conservative`` — delete only what is *provably* stale: WAL orphans
  beyond the first gap (recovery can never reach them, and leaving them
  would collide with reassigned timestamps once the counter is
  clamped), WAL at or below the DB frontier (skipped GC deletes),
  incomplete multi-part DB groups (crashed mid-upload; recovery ignores
  them) and, when the retention policy is known, complete groups below
  the retention floor.  The doomed keys go to the store as one batch
  DELETE, so a retry transport's skippable-DELETE policy applies: an
  exhausted request is never fatal — and since such a transport
  absorbs the failure without a word, what was deleted and what was
  skipped is read back from the bucket, not inferred from exceptions.
* ``resync`` — everything ``conservative`` does, plus rebuild the given
  :class:`~repro.core.cloud_view.CloudView` from the repaired LIST and
  clamp ``_next_wal_ts`` to the first gap.  This closes the reboot bug
  where ingesting the LIST key by key advanced the counter past a
  crash-induced gap, stranding the confirmed frontier forever.  The
  deletions are not optional here: a rebuilt view must not reuse a
  timestamp an orphan still holds (two WAL objects at one ts makes
  recovery ambiguous).

:func:`repair_index` acts on an index and audit already in hand:
``Ginja.recover`` LISTs once, plans its restore from that index, and
cleans the bucket and resyncs its view from the same one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CloudError, GinjaError
from repro.core.cloud_view import CloudView
from repro.core.data_model import BucketIndex
from repro.core.pitr import RetentionPolicy
from repro.cloud.interface import ObjectStore
from repro.fsck.audit import AuditReport, audit_index

MODES = ("conservative", "resync")


@dataclass
class RepairReport:
    """What one repair pass did (and what it found first)."""

    mode: str = "conservative"
    #: The audit that drove the repair (pre-repair state).
    audit: AuditReport = field(default_factory=AuditReport)
    #: Doomed keys gone from the bucket after the repair's DELETE.
    deleted: list[str] = field(default_factory=list)
    #: Doomed keys still in the bucket: their DELETE failed or was
    #: skipped (retry-exhausted).
    skipped: list[str] = field(default_factory=list)
    #: Ginja objects present after the repair.
    objects: int = 0
    #: The frontier the view was resynced to (resync mode only).
    frontier_ts: int | None = None
    #: The clamped next-timestamp counter (resync mode only).
    next_wal_ts: int | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "deleted": sorted(self.deleted),
            "skipped": sorted(self.skipped),
            "objects": self.objects,
            "frontier_ts": self.frontier_ts,
            "next_wal_ts": self.next_wal_ts,
            "audit": self.audit.to_json(),
        }


def repair(
    store: ObjectStore,
    *,
    view: CloudView | None = None,
    mode: str = "conservative",
    retention: RetentionPolicy | None = None,
) -> RepairReport:
    """Audit ``store`` and fix what the audit found.

    Returns the :class:`RepairReport`; re-run :func:`~repro.fsck.audit.audit`
    afterwards to verify convergence (the CLI and CI do exactly that).
    """
    if mode not in MODES:
        raise GinjaError(f"unknown repair mode: {mode!r}")
    if mode == "resync" and view is None:
        raise GinjaError("resync repair needs a CloudView to rebuild")
    index = BucketIndex.from_store(store)
    return repair_index(
        store, index, audit_index(index, view, retention=retention),
        view=view if mode == "resync" else None,
    )


def repair_index(
    store: ObjectStore,
    index: BucketIndex,
    audit: AuditReport,
    *,
    view: CloudView | None = None,
) -> RepairReport:
    """Delete what ``audit`` found stale in ``index`` — a LIST of
    ``store`` already read — and, given a ``view``, resync it (the
    ``resync`` mode).  The bucket is LISTed again only to read back a
    DELETE; ``index`` is trimmed to the repaired bucket in place.
    """
    report = RepairReport(
        mode="conservative" if view is None else "resync", audit=audit
    )
    doomed = audit.doomed
    if doomed:
        try:
            store.delete_many(doomed)
        except CloudError:
            # Mirror the GC policy: a DELETE that cannot go through is
            # skipped, never fatal — the orphan wastes bytes but a later
            # fsck run will retry it.
            pass
        left = {info.key for info in store.list()}
        report.skipped = [key for key in doomed if key in left]
        report.deleted = [key for key in doomed if key not in left]

    # Drop doomed keys from the index so the resync below (and the
    # reported object count) reflect the repaired bucket.  Skipped
    # deletes are dropped too, matching the checkpointer's GC: the
    # orphan is invisible to recovery either way, and a view that kept
    # it would advance the frontier across a ts the run never reused.
    removed = set(doomed)
    for ts in [ts for ts, meta in index.wal.items() if meta.key in removed]:
        del index.wal[ts]
    for group in [
        group
        for group, metas in index.groups.items()
        if any(meta.key in removed for meta in metas)
    ]:
        index.groups[group] = [
            meta for meta in index.groups[group] if meta.key not in removed
        ]
        if not index.groups[group]:
            del index.groups[group]
    report.objects = index.object_count

    if view is not None:
        frontier, _gaps, _orphans = index.wal_frontier()
        wal = [index.wal[ts] for ts in sorted(index.wal)]
        db = [
            meta
            for _group, metas in sorted(index.groups.items())
            for meta in metas
        ]
        view.resync(wal, db, frontier_ts=frontier, next_wal_ts=frontier + 1)
        report.frontier_ts = frontier
        report.next_wal_ts = frontier + 1
    return report


def resync_view(store: ObjectStore, view: CloudView) -> RepairReport:
    """Convenience wrapper: full resync repair with an unknown retention
    policy (nothing the policy governs is deleted)."""
    return repair(store, view=view, mode="resync")
