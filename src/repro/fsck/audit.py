"""The audit pass: run the invariant catalog over one bucket.

``audit()`` LISTs the store once, builds a
:class:`~repro.core.data_model.BucketIndex`, evaluates every predicate
in :data:`~repro.fsck.invariants.INVARIANTS` and folds the result into a
typed :class:`AuditReport`.  The report is pure data — deciding what to
do about it belongs to :mod:`repro.fsck.repair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.data_model import BucketIndex
from repro.core.pitr import RetentionPolicy
from repro.cloud.interface import ObjectStore
from repro.cloud.prefix import tenant_of_key, tenant_prefix
from repro.fsck.invariants import (
    DB_BELOW_RETENTION_FLOOR,
    DB_GROUP_INCOMPLETE,
    INVARIANTS,
    VIEW_FRONTIER_DRIFT,
    VIEW_MISSING,
    VIEW_PHANTOM,
    VIEW_TS_DRIFT,
    Violation,
    WAL_GAP,
    WAL_ORPHAN,
    WAL_REDUNDANT,
)


@dataclass
class AuditReport:
    """Everything one audit pass learned about a bucket."""

    #: Ginja objects found (WAL + DB; foreign keys excluded).
    objects: int = 0
    #: Keys in the bucket that are not Ginja objects (left alone).
    foreign: int = 0
    #: Newest complete DB group's WAL-frontier ts (-1 if none).
    db_frontier_ts: int = -1
    #: End of the contiguous WAL run above the DB frontier.
    wal_frontier_ts: int = -1
    #: First unused/unreachable timestamp (``wal_frontier_ts + 1``).
    first_gap_ts: int = -1
    #: Missing timestamps between the frontier and the newest WAL object.
    gaps: list[int] = field(default_factory=list)
    #: WAL keys beyond the first gap — unreachable by recovery.
    orphans: list[str] = field(default_factory=list)
    #: WAL keys at or below the DB frontier — skipped GC deletes.
    redundant_wal: list[str] = field(default_factory=list)
    #: Keys of DB objects in incomplete multi-part groups.
    incomplete_groups: list[str] = field(default_factory=list)
    #: Keys of complete DB groups below the retention floor.
    stale_db: list[str] = field(default_factory=list)
    #: View entries the bucket does not hold.
    view_phantom: list[str] = field(default_factory=list)
    #: Bucket objects the view does not know.
    view_missing: list[str] = field(default_factory=list)
    #: Counter-drift descriptions (frontier / next-ts mismatches).
    view_drift: list[str] = field(default_factory=list)
    #: The flat, ordered list every field above is derived from.
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def doomed(self) -> list[str]:
        """Provably-stale keys — what a repair deletes, in its order."""
        return [*self.orphans, *self.redundant_wal, *self.incomplete_groups,
                *self.stale_db]

    def summary(self) -> str:
        if self.ok:
            return (
                f"ok: {self.objects} objects, WAL frontier "
                f"{self.wal_frontier_ts}, DB frontier {self.db_frontier_ts}"
            )
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        parts = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        return f"{self.violation_count} violations ({parts})"

    def to_json(self) -> dict:
        """A stable dict for ``--json`` output and CI assertions."""
        return {
            "ok": self.ok,
            "violation_count": self.violation_count,
            "objects": self.objects,
            "foreign": self.foreign,
            "db_frontier_ts": self.db_frontier_ts,
            "wal_frontier_ts": self.wal_frontier_ts,
            "first_gap_ts": self.first_gap_ts,
            "gaps": list(self.gaps),
            "orphans": sorted(self.orphans),
            "redundant_wal": sorted(self.redundant_wal),
            "incomplete_groups": sorted(self.incomplete_groups),
            "stale_db": sorted(self.stale_db),
            "view_phantom": sorted(self.view_phantom),
            "view_missing": sorted(self.view_missing),
            "view_drift": list(self.view_drift),
            "violations": [v.as_dict() for v in self.violations],
        }


_FIELD_BY_RULE = {
    WAL_ORPHAN: "orphans",
    WAL_REDUNDANT: "redundant_wal",
    DB_GROUP_INCOMPLETE: "incomplete_groups",
    DB_BELOW_RETENTION_FLOOR: "stale_db",
    VIEW_PHANTOM: "view_phantom",
    VIEW_MISSING: "view_missing",
}


def audit_index(
    index: BucketIndex,
    view=None,
    *,
    retention: RetentionPolicy | None = None,
) -> AuditReport:
    """Run the catalog over an already-built index (no cloud I/O)."""
    report = AuditReport(
        objects=index.object_count,
        foreign=len(index.foreign),
        db_frontier_ts=index.db_frontier_ts(),
    )
    frontier, gaps, _orphans = index.wal_frontier()
    report.wal_frontier_ts = frontier
    report.first_gap_ts = frontier + 1
    report.gaps = gaps
    for check in INVARIANTS.values():
        for violation in check(index, view=view, retention=retention):
            report.violations.append(violation)
            bucket_field = _FIELD_BY_RULE.get(violation.rule)
            if bucket_field is not None:
                getattr(report, bucket_field).append(violation.key)
            elif violation.rule in (VIEW_FRONTIER_DRIFT, VIEW_TS_DRIFT):
                report.view_drift.append(f"{violation.key}: {violation.detail}")
    return report


def audit(
    store: ObjectStore,
    view=None,
    *,
    retention: RetentionPolicy | None = None,
) -> AuditReport:
    """LIST ``store`` and check every recoverability invariant.

    Args:
        store: any :class:`~repro.cloud.interface.ObjectStore` (raw
            backend, transport stack, or a directory image of a bucket).
        view: optional live :class:`~repro.core.cloud_view.CloudView` to
            check agreement against; omit for offline bucket audits.
        retention: the instance's PITR policy when known.  ``None``
            means "unknown" — superseded generations are then assumed to
            be deliberate snapshots and are not flagged.
    """
    return audit_index(BucketIndex.from_store(store), view, retention=retention)


@dataclass
class FleetAuditReport:
    """Per-tenant audits of one shared fleet bucket, plus layout checks.

    ``stray_keys`` are objects outside every ``tenants/<id>/`` keyspace —
    in a fleet bucket nothing should live at the root, so any stray key
    is a namespace violation (a tenant writing past its prefix, or a
    leftover from a pre-fleet run).
    """

    tenants: dict[str, "AuditReport"] = field(default_factory=dict)
    stray_keys: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.stray_keys and all(
            report.ok for report in self.tenants.values()
        )

    def summary(self) -> str:
        clean = sum(1 for r in self.tenants.values() if r.ok)
        lines = [
            f"fleet bucket: {len(self.tenants)} tenants, {clean} clean, "
            f"{len(self.stray_keys)} stray keys"
            + ("" if self.ok else "  [VIOLATIONS]")
        ]
        for key in self.stray_keys:
            lines.append(f"  stray: {key}")
        for tenant_id in sorted(self.tenants):
            report = self.tenants[tenant_id]
            status = "ok" if report.ok else f"{len(report.violations)} violations"
            lines.append(
                f"  {tenant_id}: {report.objects} objects, {status}"
            )
        return "\n".join(lines)


def audit_fleet(
    store: ObjectStore,
    views: dict[str, object] | None = None,
    *,
    retentions: dict[str, RetentionPolicy] | None = None,
) -> FleetAuditReport:
    """Audit every tenant keyspace of a shared fleet bucket.

    One LIST over the shared ``store`` is partitioned by tenant prefix;
    each tenant's keys are audited exactly as a private bucket's would
    be (same invariant catalog, keys stripped of the prefix), with that
    tenant's live view/retention when provided via ``views`` /
    ``retentions`` (keyed by tenant id).
    """
    views = views or {}
    retentions = retentions or {}
    by_tenant: dict[str, list[str]] = {}
    report = FleetAuditReport()
    for info in store.list():
        tenant_id = tenant_of_key(info.key)
        if tenant_id is None:
            report.stray_keys.append(info.key)
        else:
            by_tenant.setdefault(tenant_id, []).append(
                info.key[len(tenant_prefix(tenant_id)):]
            )
    for tenant_id, keys in sorted(by_tenant.items()):
        report.tenants[tenant_id] = audit_index(
            BucketIndex.from_keys(keys),
            views.get(tenant_id),
            retention=retentions.get(tenant_id),
        )
    return report
