"""The recoverability invariant catalog.

Every rule :func:`repro.fsck.audit.audit` checks is stated here as a
checkable predicate over a :class:`~repro.core.data_model.BucketIndex`
(the parsed picture of one bucket's LIST, which recovery plans from)
plus an optional :class:`~repro.core.cloud_view.CloudView` and
:class:`~repro.core.pitr.RetentionPolicy`.  The catalog is the single
source of truth for "what a healthy bucket looks like": the audit pass,
the repair pass, the chaos oracles, reboot and the cleanup after every
recovery all consume it instead of hand-rolling their own variant of
the rules.

The four invariants (§5.2 / Algorithm 1 of the paper, restated as
predicates):

* **wal-contiguity** — WAL timestamps above the newest complete
  DB-object frontier form one contiguous run.  A gap splits the WAL into
  the usable prefix and *orphans* beyond the gap that recovery can never
  apply; timestamps at or below the frontier are *redundant* (their
  content is already reflected in a checkpoint) and only survive a
  skipped GC DELETE.
* **db-groups** — every multi-part DB group carries all of its parts.
  An incomplete group is a crashed-mid-upload checkpoint or dump;
  recovery must (and does) ignore it, so its parts are garbage.
* **retention-floor** — with a known retention policy, no complete DB
  group is older than the retention floor (the policy's oldest retained
  dump generation).  Only checked when a policy is supplied: without
  one, older generations may be deliberately-retained PITR snapshots
  and must not be flagged.
* **view-agreement** — the in-memory ``CloudView`` and the bucket LIST
  agree: no phantom view entries (view says an object exists, LIST does
  not), no missing ones (LIST has it, view does not), and the view's
  timestamp counters match the bucket-derived frontier.  The dangerous
  drift is ``_next_wal_ts`` pointing past a crash-induced gap — every
  timestamp assigned from there is unreachable by recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.core.data_model import BucketIndex
from repro.core.pitr import RetentionPolicy

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.cloud_view import CloudView

# Rule identifiers, as reported in Violation.rule and the CLI's JSON.
WAL_GAP = "wal-gap"
WAL_ORPHAN = "wal-orphan"
WAL_REDUNDANT = "wal-redundant"
DB_GROUP_INCOMPLETE = "db-group-incomplete"
DB_BELOW_RETENTION_FLOOR = "db-below-retention-floor"
VIEW_PHANTOM = "view-phantom"
VIEW_MISSING = "view-missing"
VIEW_FRONTIER_DRIFT = "view-frontier-drift"
VIEW_TS_DRIFT = "view-ts-drift"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributable to one key (or counter)."""

    rule: str
    key: str
    detail: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "key": self.key, "detail": self.detail}


# ---------------------------------------------------------------------------
# The invariant predicates


def check_wal_contiguity(
    index: BucketIndex,
    *,
    view: "CloudView | None" = None,
    retention: RetentionPolicy | None = None,
) -> list[Violation]:
    violations: list[Violation] = []
    frontier, gaps, orphans = index.wal_frontier()
    for ts in gaps:
        violations.append(
            Violation(
                rule=WAL_GAP,
                key=f"WAL ts {ts}",
                detail=f"missing WAL timestamp above frontier {frontier}",
            )
        )
    for meta in orphans:
        violations.append(
            Violation(
                rule=WAL_ORPHAN,
                key=meta.key,
                detail=(
                    f"beyond the first gap at ts {frontier + 1}; "
                    "unreachable by recovery"
                ),
            )
        )
    for meta in index.redundant_wal():
        violations.append(
            Violation(
                rule=WAL_REDUNDANT,
                key=meta.key,
                detail=(
                    f"at or below the DB frontier {index.db_frontier_ts()}; "
                    "superseded by a checkpoint (skipped GC delete)"
                ),
            )
        )
    return violations


def check_db_groups(
    index: BucketIndex,
    *,
    view: "CloudView | None" = None,
    retention: RetentionPolicy | None = None,
) -> list[Violation]:
    violations: list[Violation] = []
    for (ts, seq, type_), metas in sorted(index.incomplete_groups().items()):
        have = [m.part for m in metas]
        for meta in metas:
            violations.append(
                Violation(
                    rule=DB_GROUP_INCOMPLETE,
                    key=meta.key,
                    detail=(
                        f"group ({ts},{seq},{type_}) has parts {have} "
                        f"of {metas[0].nparts}; crashed mid-upload"
                    ),
                )
            )
    return violations


def check_retention_floor(
    index: BucketIndex,
    *,
    view: "CloudView | None" = None,
    retention: RetentionPolicy | None = None,
) -> list[Violation]:
    floor = index.retention_floor(retention)
    if floor is None:
        return []
    violations: list[Violation] = []
    for (ts, seq, _type), metas in sorted(index.complete_groups().items()):
        if (ts, seq) >= floor:
            continue
        for meta in metas:
            violations.append(
                Violation(
                    rule=DB_BELOW_RETENTION_FLOOR,
                    key=meta.key,
                    detail=(
                        f"order ({ts},{seq}) is below the retention floor "
                        f"{floor}; superseded and outside every kept snapshot"
                    ),
                )
            )
    return violations


def check_view_agreement(
    index: BucketIndex,
    *,
    view: "CloudView | None" = None,
    retention: RetentionPolicy | None = None,
) -> list[Violation]:
    if view is None:
        return []
    violations: list[Violation] = []
    bucket_db = {meta.key for metas in index.groups.values() for meta in metas}
    for meta in view.wal_objects():
        if meta.ts not in index.wal or index.wal[meta.ts].key != meta.key:
            violations.append(
                Violation(
                    rule=VIEW_PHANTOM,
                    key=meta.key,
                    detail="view records a WAL object the bucket does not hold",
                )
            )
    for meta in view.db_objects():
        if meta.key not in bucket_db:
            violations.append(
                Violation(
                    rule=VIEW_PHANTOM,
                    key=meta.key,
                    detail="view records a DB object the bucket does not hold",
                )
            )
    view_wal = {meta.ts: meta for meta in view.wal_objects()}
    view_db = {meta.key for meta in view.db_objects()}
    for ts in sorted(index.wal):
        if ts not in view_wal:
            violations.append(
                Violation(
                    rule=VIEW_MISSING,
                    key=index.wal[ts].key,
                    detail="bucket holds a WAL object the view does not know",
                )
            )
    for key in sorted(bucket_db):
        if key not in view_db:
            violations.append(
                Violation(
                    rule=VIEW_MISSING,
                    key=key,
                    detail="bucket holds a DB object the view does not know",
                )
            )
    frontier, _gaps, _orphans = index.wal_frontier()
    if view.confirmed_ts() != frontier:
        violations.append(
            Violation(
                rule=VIEW_FRONTIER_DRIFT,
                key="confirmed_ts",
                detail=(
                    f"view frontier {view.confirmed_ts()} != bucket "
                    f"frontier {frontier}"
                ),
            )
        )
    if view.last_assigned_ts() > frontier:
        violations.append(
            Violation(
                rule=VIEW_TS_DRIFT,
                key="next_wal_ts",
                detail=(
                    f"next assigned ts {view.last_assigned_ts() + 1} points "
                    f"past the first gap at {frontier + 1}; new WAL objects "
                    "would be stranded beyond it forever"
                ),
            )
        )
    return violations


#: The catalog: rule-family name -> predicate.  Iterated by audit() in
#: this order so reports are stable.
INVARIANTS: dict[str, Callable[..., list[Violation]]] = {
    "wal-contiguity": check_wal_contiguity,
    "db-groups": check_db_groups,
    "retention-floor": check_retention_floor,
    "view-agreement": check_view_agreement,
}
