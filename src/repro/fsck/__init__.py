"""Bucket-integrity audit & repair (the ``ginja-repro fsck`` subsystem).

The recoverability rules live in :mod:`repro.fsck.invariants` as one
catalog of checkable predicates; :func:`audit` evaluates them over any
:class:`~repro.cloud.interface.ObjectStore` (plus an optional live
:class:`~repro.core.cloud_view.CloudView`), and :func:`repair` fixes
what the audit found — conservatively deleting provably-stale objects
and, in ``resync`` mode, rebuilding the view with its timestamp counter
clamped to the first WAL gap.
"""

from repro.fsck.audit import (
    AuditReport,
    FleetAuditReport,
    audit,
    audit_fleet,
    audit_index,
)
from repro.core.data_model import BucketIndex
from repro.fsck.invariants import INVARIANTS, Violation
from repro.fsck.repair import (
    MODES, RepairReport, repair, repair_index, resync_view,
)

__all__ = [
    "AuditReport",
    "FleetAuditReport",
    "BucketIndex",
    "INVARIANTS",
    "MODES",
    "RepairReport",
    "Violation",
    "audit",
    "audit_fleet",
    "audit_index",
    "repair",
    "repair_index",
    "resync_view",
]
