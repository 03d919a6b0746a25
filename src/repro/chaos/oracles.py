"""Post-drill invariant oracles.

A drill hands the oracles one :class:`Disaster` — the frozen state of
the world at the instant the primary died (bucket snapshot, the set of
acknowledged updates, the event record, the request meter) — and each
oracle checks one guarantee the paper makes:

* **rpo** — bounded loss: acknowledged-but-unrecoverable updates never
  exceed the analytic ``S + B + 1`` bound of §5.3, *measured against
  the scenario's nominal S* (so a pipeline whose back-pressure is
  disabled fails the oracle — the mutation check relies on this).
* **recovery** — :meth:`Ginja.recover` plus the DBMS's own crash
  recovery produce a consistent database with no phantom rows, and
  independent :func:`verify_backup` validation passes.
* **gc** — no object still needed for recovery was garbage-collected:
  every deleted WAL object was covered by a complete DB-object group in
  the disaster image, every deleted DB object superseded by a complete
  dump.
* **billing** — metered spend stays inside the drill's cost envelope
  and every uploaded batch respects the configured B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common import events
from repro.common.errors import ReproError
from repro.common.events import Event
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter
from repro.cloud.pricing import PriceBook, S3_STANDARD_2017
from repro.core.data_model import (
    BucketIndex, DBObjectMeta, WALObjectMeta, parse_any,
)
from repro.core.ginja import Ginja
from repro.core.verification import verify_backup
from repro.chaos.scenarios import Scenario
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile
from repro.storage.memory import MemoryFileSystem


@dataclass
class Disaster:
    """Everything frozen at the instant the primary died."""

    scenario: Scenario
    seed: int
    #: Atomic copy of the bucket — what the standby gets to recover from.
    snapshot: dict[str, bytes]
    #: Updates acknowledged to the client *before* the snapshot,
    #: key -> expected value.
    committed: dict[str, bytes]
    #: Bus events recorded between arming and the snapshot.
    events: list[Event] = field(default_factory=list)
    #: The drill's request meter and its store-clock duration.
    meter: RequestMeter | None = None
    elapsed: float = 0.0


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's ruling on one drill."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# recovery plumbing: the rpo/recovery oracles and every phased drill's
# standby check read a recovered database through ``standby_rows``


def _restore(snapshot: dict[str, bytes]) -> InMemoryObjectStore:
    bucket = InMemoryObjectStore()
    for key, body in snapshot.items():
        bucket.put(key, body)
    return bucket


def standby_rows(
    recover: Callable[[MemoryFileSystem], tuple[Ginja, object]],
    keys: Iterable[str],
    profile: DBMSProfile,
    engine: EngineConfig,
    *,
    drain_timeout: float = 120.0,
) -> tuple[dict[str, bytes], str | None]:
    """Recover a standby and read back the rows it holds.

    ``recover`` rebuilds the database into the fresh file system it is
    handed and returns the mounted ``(ginja, report)`` pair —
    :meth:`Ginja.recover` over a bucket, or a fleet's
    ``recover_tenant``.  Returns the values present among ``keys`` of
    table ``"t"`` and ``None``, or ``({}, error)`` if the recovery or
    the reopen failed.  The standby is stopped once read, or crashed
    if reading it failed, so it never outlives the check.
    """
    try:
        standby, _report = recover(MemoryFileSystem())
    except ReproError as exc:
        return {}, f"{type(exc).__name__}: {exc}"
    try:
        db = MiniDB.open(standby.fs, profile, engine)
        rows = {
            key: value for key in keys
            if (value := db.get("t", key)) is not None
        }
        standby.stop(drain_timeout=drain_timeout)
    except ReproError as exc:
        standby.crash()
        return {}, f"{type(exc).__name__}: {exc}"
    except BaseException:
        standby.crash()
        raise
    return rows, None


def row_value(index: int, seed: int) -> bytes:
    """The deterministic value drills write for row ``index``."""
    return f"v{index}:{seed}".encode()


# ---------------------------------------------------------------------------
# the four oracles


def _rpo_oracle(
    disaster: Disaster,
    recovered: dict[str, bytes],
    error: str | None,
) -> OracleVerdict:
    if error is not None:
        return OracleVerdict("rpo", False, f"recovery failed: {error}")
    bound = disaster.scenario.loss_bound()
    lost = [k for k in disaster.committed if k not in recovered]
    detail = (
        f"lost {len(lost)} of {len(disaster.committed)} acknowledged "
        f"updates (bound S+B+1 = {bound})"
    )
    return OracleVerdict("rpo", len(lost) <= bound, detail)


def _recovery_oracle(
    disaster: Disaster,
    recovered: dict[str, bytes],
    error: str | None,
) -> OracleVerdict:
    if error is not None:
        return OracleVerdict("recovery", False, error)
    scenario = disaster.scenario
    # No phantoms: every recovered value must be one the workload wrote
    # (acknowledged or not — an uploaded-but-unacked row is legal).
    phantoms = [
        key for key, value in recovered.items()
        if value != row_value(int(key[1:]), disaster.seed)
    ]
    if phantoms:
        return OracleVerdict(
            "recovery", False, f"phantom/corrupt rows: {sorted(phantoms)[:3]}"
        )
    # Acknowledged rows that did survive must carry the acknowledged value.
    stale = [
        key for key, value in disaster.committed.items()
        if key in recovered and recovered[key] != value
    ]
    if stale:
        return OracleVerdict(
            "recovery", False, f"rows lost their committed value: {stale[:3]}"
        )
    # Independent validation path (§5.4) on a second pristine copy.
    report = verify_backup(
        _restore(disaster.snapshot), scenario.profile,
        scenario.ginja_config(disaster.seed),
        engine_config=scenario.engine_config(),
    )
    if not report.ok:
        return OracleVerdict(
            "recovery", False, f"verify_backup: {report.errors[:2]}"
        )
    return OracleVerdict(
        "recovery", True,
        f"{len(recovered)} rows, verify_backup {report.objects_verified} "
        f"objects",
    )


def _gc_oracle(disaster: Disaster) -> OracleVerdict:
    """No object a recovery would need may have been deleted.

    Audited from the event record: every successful ``gc_delete`` before
    the disaster must have been covered — WAL objects by a *complete*
    DB-object group at an equal-or-later frontier present in the
    snapshot, DB objects by a complete later dump.
    """
    # The completeness/frontier arithmetic is the fsck invariant
    # catalog's — one definition of "covered by a checkpoint" for the
    # oracles, the audit pass and reboot alike.
    index = BucketIndex.from_keys(disaster.snapshot)
    covered_ts = index.db_frontier_ts()
    dump_orders = index.complete_dump_orders()
    bad: list[str] = []
    deletes = 0
    for event in disaster.events:
        if event.kind != events.GC_DELETE or not event.ok:
            continue
        deletes += 1
        meta = parse_any(event.key)
        if isinstance(meta, WALObjectMeta):
            if meta.ts > covered_ts:
                bad.append(event.key)
        elif isinstance(meta, DBObjectMeta):
            if not any(order >= meta.order for order in dump_orders):
                bad.append(event.key)
    if bad:
        return OracleVerdict(
            "gc", False,
            f"{len(bad)} object(s) needed for recovery were deleted: "
            f"{bad[:3]}",
        )
    return OracleVerdict(
        "gc", True, f"{deletes} GC delete(s), all covered by checkpoints"
    )


def _billing_oracle(
    disaster: Disaster, prices: PriceBook = S3_STANDARD_2017
) -> OracleVerdict:
    scenario = disaster.scenario
    if disaster.meter is None:
        return OracleVerdict("billing", False, "no request meter attached")
    # Batches must respect B regardless of queue pressure.
    oversized = [
        event.count for event in disaster.events
        if event.kind == events.WAL_BATCH and event.count > scenario.batch
    ]
    if oversized:
        return OracleVerdict(
            "billing", False,
            f"batch exceeded B={scenario.batch}: {oversized[:3]}",
        )
    spend = prices.bill_window(disaster.meter, max(disaster.elapsed, 0.0))
    detail = (
        f"${spend:.6f} for {disaster.elapsed:.1f}s of store time "
        f"(envelope ${scenario.budget_dollars})"
    )
    return OracleVerdict("billing", spend <= scenario.budget_dollars, detail)


#: Canonical oracle order (reports key on these names).
ORACLE_NAMES: tuple[str, ...] = ("rpo", "recovery", "gc", "billing")


def run_oracles(disaster: Disaster) -> list[OracleVerdict]:
    """Judge one disaster; returns verdicts in :data:`ORACLE_NAMES` order."""
    scenario = disaster.scenario
    recovered, error = standby_rows(
        lambda fs: Ginja.recover(
            _restore(disaster.snapshot), fs, scenario.profile,
            scenario.ginja_config(disaster.seed),
        ),
        (f"k{index}" for index in range(scenario.rows)),
        scenario.profile, scenario.engine_config(),
        drain_timeout=5.0,
    )
    return [
        _rpo_oracle(disaster, recovered, error),
        _recovery_oracle(disaster, recovered, error),
        _gc_oracle(disaster),
        _billing_oracle(disaster),
    ]
