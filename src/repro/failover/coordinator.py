"""Failover coordination: detect, recover, promote.

Runs on the standby site.  The coordinator polls the failure detector;
when the primary is declared dead it executes the Ginja recovery flow
into the standby's file system, opens the database (the DBMS's own
crash recovery), and calls the user-supplied promotion callback — the
application-specific part the paper says must come from "the procedures
defined in the organization disaster recovery plan".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import ReproError
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.cloud.interface import ObjectStore
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile
from repro.failover.heartbeat import FailureDetector
from repro.storage.memory import MemoryFileSystem

#: Called with the recovered database once failover completes.
PromotionCallback = Callable[[MiniDB, Ginja], None]


@dataclass
class FailoverResult:
    """What happened during one coordinator run."""

    failed_over: bool = False
    polls: int = 0
    recovered_rows: int = 0
    files_restored: int = 0
    #: False when a multi-provider cloud reported that no read quorum
    #: was reachable, which aborts promotion before any recovery I/O.
    quorum_ok: bool = True
    #: The recovery's bucket audit: violations found and keys repaired.
    audit_violations: int = 0
    repaired_keys: list[str] = field(default_factory=list)
    error: str | None = None
    #: Set when failover succeeded — the standby's live pieces.
    ginja: Ginja | None = field(default=None, repr=False)
    db: MiniDB | None = field(default=None, repr=False)


class FailoverCoordinator:
    """Poll → detect → recover → promote."""

    def __init__(
        self,
        cloud: ObjectStore,
        profile: DBMSProfile,
        *,
        ginja_config: GinjaConfig | None = None,
        engine_config: EngineConfig | None = None,
        detector: FailureDetector | None = None,
        poll_interval: float = 5.0,
        on_promote: PromotionCallback | None = None,
        clock: Clock = SYSTEM_CLOCK,
        transport: ObjectStore | None = None,
        tenant: str = "",
        download_pool=None,
    ):
        """``transport`` injects an already retry-wrapped store (a fleet's
        prefixed view over its shared stack); the coordinator then never
        builds a private transport — double-wrapping a retrying store
        would square the retry budget.  ``tenant`` / ``download_pool``
        pass straight through to
        :meth:`~repro.core.ginja.Ginja.recover` for fleet failovers.
        """
        self._cloud = cloud
        self._profile = profile
        self._ginja_config = ginja_config
        self._engine_config = engine_config
        self._detector = detector or FailureDetector(cloud)
        self._poll_interval = poll_interval
        self._on_promote = on_promote
        self._clock = clock
        self._transport = transport
        self._tenant = tenant
        self._download_pool = download_pool

    def run(self, max_polls: int = 0) -> FailoverResult:
        """Poll until failure is declared (or ``max_polls`` exhausted),
        then fail over.  ``max_polls=0`` polls until detection."""
        result = FailoverResult()
        while True:
            result.polls += 1
            if self._detector.poll():
                break
            if max_polls and result.polls >= max_polls:
                return result
            self._clock.sleep(self._poll_interval)
        return self._failover(result)

    def _failover(self, result: FailoverResult) -> FailoverResult:
        # Multi-provider gate: a placement-backed cloud knows whether the
        # surviving providers still form a read quorum for every policy
        # (any replica for mirrors, k fragments for stripes).  Promoting
        # without one would fail mid-recovery at best and promote a stale
        # standby at worst — refuse up front instead.  Duck-typed, so any
        # store can veto promotion by growing a ``read_quorum_ok()``.
        quorum_check = getattr(self._cloud, "read_quorum_ok", None)
        if quorum_check is not None and not quorum_check():
            result.quorum_ok = False
            result.error = (
                "read quorum unavailable: surviving providers cannot "
                "serve every placement policy"
            )
            return result
        try:
            standby_fs = MemoryFileSystem()
            ginja, report = Ginja.recover(
                self._cloud,
                standby_fs,
                self._profile,
                self._ginja_config,
                transport=self._transport,
                tenant=self._tenant,
                download_pool=self._download_pool,
            )
            try:
                # Open through Ginja's mount: the promoted standby is itself
                # protected from the moment it starts.
                db = MiniDB.open(ginja.fs, self._profile, self._engine_config)
            except BaseException:
                # recover() started the pipelines; if the DBMS's own crash
                # recovery then fails, tear the instance down or its
                # reactor thread leaks on the standby.
                ginja.crash()
                raise
        except ReproError as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        # The primary died mid-flight, so the bucket may hold orphans
        # beyond a WAL gap or half-uploaded DB groups: the recovery's
        # own cleanup audited and removed them, and the operator sees
        # what the disaster left behind.
        result.audit_violations = report.cleanup.audit.violation_count
        result.repaired_keys = list(report.cleanup.deleted)
        result.failed_over = True
        result.files_restored = report.files_restored
        result.recovered_rows = sum(db.row_count(t) for t in db.tables())
        result.ginja = ginja
        result.db = db
        if self._on_promote is not None:
            self._on_promote(db, ginja)
        return result
