"""Backup verification (§5.4).

"G INJA allows the verification of a database backup in an easy and
cheap way, without interfering with the production system" — by starting
a replica in recovery mode and running checks.  The three validations:

1. every downloaded object's MAC is verified (the codec raises
   :class:`~repro.common.errors.IntegrityError` otherwise);
2. the DBMS itself validates the rebuilt tables and WAL (MiniDB's
   control-file CRCs, page magics and record CRCs during redo);
3. caller-supplied check functions run service-specific queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ReproError
from repro.core.bootstrap import recover_files
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import BucketIndex
from repro.cloud.interface import ObjectStore
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile
from repro.storage.memory import MemoryFileSystem

#: A service-specific check: receives the recovered database, returns a
#: list of problem descriptions (empty = pass).
BackupCheck = Callable[[MiniDB], list[str]]


@dataclass
class VerificationReport:
    """Outcome of one backup verification run."""

    ok: bool = False
    objects_verified: int = 0
    bytes_downloaded: int = 0
    files_restored: int = 0
    tables: list[str] = field(default_factory=list)
    total_rows: int = 0
    redo_ops: int = 0
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.objects_verified} objects verified, "
            f"{self.files_restored} files, {len(self.tables)} tables, "
            f"{self.total_rows} rows, {len(self.errors)} error(s)"
        )


def verify_backup(
    cloud: ObjectStore,
    profile: DBMSProfile,
    config: GinjaConfig | None = None,
    *,
    engine_config: EngineConfig | None = None,
    checks: list[BackupCheck] | None = None,
    upto_ts: int | None = None,
) -> VerificationReport:
    """Restore the cloud backup into a scratch replica and validate it.

    Never touches the production file system; the 'replica' lives in a
    throwaway in-memory file system, so the only cost is the downloads
    (§5.4: "basically the cost of downloading the database objects").

    ``upto_ts`` verifies a retained PITR snapshot instead of the latest
    state (see :func:`verify_all_snapshots`).
    """
    config = config or GinjaConfig()
    codec = ObjectCodec(
        compress=config.compress,
        encrypt=config.encrypt,
        password=config.password,
    )
    report = VerificationReport()
    scratch = MemoryFileSystem()
    try:
        # Steps 1 (MAC, inside the codec) + file reconstruction.
        recovery = recover_files(cloud, codec, scratch, upto_ts=upto_ts)
        report.bytes_downloaded = recovery.bytes_downloaded
        report.objects_verified = (
            recovery.dump_parts
            + recovery.checkpoints_applied
            + recovery.wal_objects_applied
        )
        report.files_restored = recovery.files_restored
        # Step 2: the DBMS's own crash recovery validates structures.
        db = MiniDB.open(scratch, profile, engine_config)
        report.tables = db.tables()
        report.total_rows = sum(db.row_count(t) for t in report.tables)
        report.redo_ops = db.recovered_ops
        # Step 3: service-specific checks.
        for check in checks or []:
            report.errors.extend(check(db))
    except ReproError as exc:
        report.errors.append(f"{type(exc).__name__}: {exc}")
    report.ok = not report.errors
    return report


def verify_all_snapshots(
    cloud: ObjectStore,
    profile: DBMSProfile,
    config: GinjaConfig | None = None,
    *,
    engine_config: EngineConfig | None = None,
    checks: list[BackupCheck] | None = None,
) -> dict[int, VerificationReport]:
    """Verify every restorable point in the bucket.

    The timestamp of each complete DB group anchors a restore point
    (the latest dump at or below it plus its checkpoints); PITR
    retention keeps several.  A part of a crashed upload anchors
    nothing: it restores no point of its own.  Returns
    ``{anchor_ts: report}``, newest last.
    """
    index = BucketIndex.from_keys(info.key for info in cloud.list("DB/"))
    anchors = {ts for ts, _seq, _type in index.complete_groups()}
    reports: dict[int, VerificationReport] = {}
    for ts in sorted(anchors):
        reports[ts] = verify_backup(
            cloud, profile, config,
            engine_config=engine_config, checks=checks, upto_ts=ts,
        )
    return reports
