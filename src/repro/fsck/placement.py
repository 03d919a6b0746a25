"""Cross-provider fsck: placement invariants over a multi-cloud layout.

The single-bucket catalog (:mod:`repro.fsck.invariants`) answers "is
this bucket recoverable?".  With placement in front, recoverability has
a second axis: *where* the bytes live.  This module reports that axis
by naming the findings of one :func:`~repro.placement.survey
.survey_layout` pass —

* **fragment-set-incomplete** — no generation of a striped object has K
  fragments reachable: the object is unrecoverable until a provider
  returns (data loss if none does).
* **replica-disagreement** — full copies of one mirrored key differ in
  size across providers, or a stripe-placed key has full copies.
* **fragment-orphan** — a fragment nothing can use: a malformed key, a
  fragment whose logical key is mirror-placed, a generation newer than
  the best complete one that never completed (a failed PUT's
  leftovers), or a fragment sitting on the wrong provider.
* **replica-stale** — fragments of generations older than the best
  complete one (an overwrite's un-GC'd leftovers).
* **replica-underreplicated** — a *reachable* provider in the policy
  set is missing its copy/fragment while survivors can still serve it.
  Unreachable providers are never flagged: survivors of an outage must
  audit clean, and the verdict must not change when a provider is down.

On top of the placement axis, the merged *logical* view (what recovery
LISTs) is run through the existing invariant catalog, so one report
answers both questions.

:func:`repair_placement` runs
:meth:`~repro.placement.store.PlacementStore.repair` — which acts on the
same findings — and re-audits, so "repair converges" is checkable as
``repair_placement(...)[1].ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CloudError
from repro.core.data_model import BucketIndex
from repro.core.pitr import RetentionPolicy
from repro.fsck.audit import AuditReport, audit_index
from repro.fsck.invariants import Violation
from repro.placement import survey
from repro.placement.store import PlacementStore, RepairReport

# -- the placement rule catalog ----------------------------------------------

FRAGMENT_SET_INCOMPLETE = "fragment-set-incomplete"
REPLICA_DISAGREEMENT = "replica-disagreement"
FRAGMENT_ORPHAN = "fragment-orphan"
REPLICA_STALE = "replica-stale"
REPLICA_UNDERREPLICATED = "replica-underreplicated"


@dataclass
class PlacementAuditReport:
    """One audit pass over every reachable provider."""

    #: Reachability at audit time (name -> answered our LIST).
    providers: dict[str, bool] = field(default_factory=dict)
    #: Placement-axis violations, ordered by (rule, key).
    violations: list[Violation] = field(default_factory=list)
    #: The merged logical view run through the single-bucket catalog.
    logical: AuditReport = field(default_factory=AuditReport)

    @property
    def ok(self) -> bool:
        return not self.violations and self.logical.ok

    @property
    def violation_count(self) -> int:
        return len(self.violations) + self.logical.violation_count

    def by_rule(self, rule: str) -> list[Violation]:
        return [v for v in self.violations if v.rule == rule]

    def summary(self) -> str:
        reachable = sum(1 for up in self.providers.values() if up)
        place = "placement ok" if not self.violations else (
            f"{len(self.violations)} placement violation(s)"
        )
        return (
            f"{reachable}/{len(self.providers)} providers reachable, "
            f"{place}; logical: {self.logical.summary()}"
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "providers": dict(sorted(self.providers.items())),
            "placement_violations": [
                v.as_dict()
                for v in sorted(self.violations, key=lambda v: (v.rule, v.key))
            ],
            "logical": self.logical.to_json(),
        }


#: The rule each survey finding is reported under.
_RULES = {
    survey.INCOMPLETE: FRAGMENT_SET_INCOMPLETE,
    survey.DISAGREEING: REPLICA_DISAGREEMENT,
    survey.ORPHAN: FRAGMENT_ORPHAN,
    survey.UNFINISHED: FRAGMENT_ORPHAN,
    survey.MISPLACED: FRAGMENT_ORPHAN,
    survey.STALE: REPLICA_STALE,
    survey.MISSING: REPLICA_UNDERREPLICATED,
}


def audit_placement(
    store: PlacementStore,
    *,
    retention: RetentionPolicy | None = None,
) -> PlacementAuditReport:
    """Audit placement invariants across the reachable providers."""
    found = survey.survey_layout(store)
    # One violation per fragment key: a fragment several providers hold
    # is one finding per holder with the same detail.
    violations = {
        Violation(_RULES[f.kind], f.key, f.detail) for f in found.findings
    }
    try:
        logical_keys = [info.key for info in store.list("")]
    except CloudError:
        logical_keys = []
    return PlacementAuditReport(
        providers=found.reachable,
        violations=sorted(violations, key=lambda v: (v.rule, v.key, v.detail)),
        logical=audit_index(
            BucketIndex.from_keys(logical_keys), retention=retention
        ),
    )


def repair_placement(
    store: PlacementStore,
    *,
    retention: RetentionPolicy | None = None,
) -> tuple[RepairReport, PlacementAuditReport]:
    """Re-replicate from survivors, then re-audit.

    Returns the store's repair report and the *post-repair* audit; the
    audit is clean iff repair converged (every reachable provider holds
    what its policies say it should, and the logical view passes the
    single-bucket catalog).
    """
    repair_report = store.repair()
    return repair_report, audit_placement(store, retention=retention)
