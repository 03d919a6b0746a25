"""PITR-aware verification (verify_all_snapshots)."""

from __future__ import annotations

import pytest

from repro.common.units import KiB
from repro.cloud.memory import InMemoryObjectStore
from repro.core.config import GinjaConfig
from repro.core.data_model import CHECKPOINT, DBObjectMeta
from repro.core.ginja import Ginja
from repro.core.pitr import RetentionPolicy
from repro.core.verification import verify_all_snapshots, verify_backup
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem

ENGINE = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)


@pytest.fixture
def retained_bucket():
    """A bucket holding two restorable generations with different data."""
    bucket = InMemoryObjectStore()
    disk = MemoryFileSystem()
    MiniDB.create(disk, POSTGRES_PROFILE, ENGINE).close()
    config = GinjaConfig(batch=5, safety=50, batch_timeout=0.02,
                         safety_timeout=5.0,
                         retention=RetentionPolicy.keep(3),
                         dump_threshold=1.0)
    ginja = Ginja(disk, bucket, POSTGRES_PROFILE, config)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, ENGINE)
    db.put("t", "k", b"old")
    ginja.drain(timeout=10.0)
    db.checkpoint()
    ginja.drain(timeout=10.0)
    db.put("t", "k", b"new")
    ginja.drain(timeout=10.0)
    db.checkpoint()
    ginja.drain(timeout=10.0)
    ginja.stop()
    return bucket, config


class TestVerifyAllSnapshots:
    def test_every_anchor_verifies(self, retained_bucket):
        bucket, config = retained_bucket
        reports = verify_all_snapshots(bucket, POSTGRES_PROFILE, config,
                                       engine_config=ENGINE)
        assert len(reports) >= 2
        assert all(report.ok for report in reports.values()), {
            ts: r.errors for ts, r in reports.items() if not r.ok
        }

    def test_anchors_hold_different_generations(self, retained_bucket):
        bucket, config = retained_bucket
        reports = verify_all_snapshots(bucket, POSTGRES_PROFILE, config,
                                       engine_config=ENGINE)
        anchors = sorted(reports)
        # The boot dump (ts 0) is the empty pre-workload database; every
        # later generation carries the row.
        assert reports[anchors[0]].total_rows == 0
        assert all(reports[ts].total_rows == 1 for ts in anchors[1:])

    def test_upto_ts_verification_of_one_point(self, retained_bucket):
        bucket, config = retained_bucket
        anchors = sorted(
            {int(i.key.split("/")[1].split("_")[0])
             for i in bucket.list("DB/")}
        )
        report = verify_backup(bucket, POSTGRES_PROFILE, config,
                               engine_config=ENGINE, upto_ts=anchors[0])
        assert report.ok, report.errors

    def test_corrupted_generation_reported(self, retained_bucket):
        bucket, config = retained_bucket
        # Corrupt exactly one DB object; only its generation(s) fail.
        keys = sorted(i.key for i in bucket.list("DB/"))
        victim = keys[0]
        blob = bytearray(bucket.get(victim))
        blob[len(blob) // 2] ^= 0xFF
        bucket.put(victim, bytes(blob))
        reports = verify_all_snapshots(bucket, POSTGRES_PROFILE, config,
                                       engine_config=ENGINE)
        assert any(not r.ok for r in reports.values())

    def test_crashed_upload_anchors_no_snapshot(self, retained_bucket):
        """Regression: any DB key's ts used to anchor a snapshot, so a
        part of a checkpoint that crashed mid-upload at ts 99 added a
        third "verified" point that repeated ts 6's full restore.  Only
        complete groups anchor restore points."""
        bucket, config = retained_bucket
        anchors = sorted(
            {DBObjectMeta.parse(info.key).ts for info in bucket.list("DB/")}
        )
        assert len(anchors) >= 2
        partial = DBObjectMeta(ts=99, type=CHECKPOINT, size=1, part=0,
                               nparts=2)
        bucket.put(partial.key, b"crashed mid-upload")
        reports = verify_all_snapshots(bucket, POSTGRES_PROFILE, config,
                                       engine_config=ENGINE)
        assert sorted(reports) == anchors
        assert all(report.ok for report in reports.values())
