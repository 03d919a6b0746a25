"""Seeded corruptions: audit detects, repair converges, recovery works."""

from __future__ import annotations

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import CloudError, GinjaError
from repro.common.units import KiB
from repro.cloud.memory import InMemoryObjectStore
from repro.core.bootstrap import reboot, recover_files
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    encode_dump_payload,
    encode_wal_payload,
)
from repro.core.ginja import Ginja
from repro.core.pitr import RetentionPolicy
from repro.core.verification import verify_backup
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.failover import FailoverCoordinator, FailureDetector, HeartbeatWriter
from repro.fsck import audit, repair, resync_view
from repro.fsck.invariants import (
    DB_GROUP_INCOMPLETE,
    VIEW_PHANTOM,
    VIEW_TS_DRIFT,
    WAL_GAP,
    WAL_ORPHAN,
)
from repro.storage.memory import MemoryFileSystem

CODEC = ObjectCodec()
SEG = "pg_xlog/seg"


def put_wal(store, ts: int, data: bytes, offset: int) -> WALObjectMeta:
    meta = WALObjectMeta(ts=ts, filename=SEG, offset=offset)
    store.put(meta.key, CODEC.encode(encode_wal_payload([(offset, data)])))
    return meta


def put_dump(store, ts: int, files, *, part: int = 0, nparts: int = 1,
             seq: int = 0) -> DBObjectMeta:
    meta = DBObjectMeta(ts=ts, type=DUMP, size=1, part=part, nparts=nparts,
                        seq=seq)
    store.put(meta.key, CODEC.encode(encode_dump_payload(files)))
    return meta


def healthy_bucket() -> InMemoryObjectStore:
    """Dump at ts 0 plus a contiguous WAL run 1..6 tiling one segment."""
    store = InMemoryObjectStore()
    put_dump(store, 0, [("base/t", b"v0"), ("global/pg_control", b"c0")])
    for ts in range(1, 7):
        put_wal(store, ts, f"w{ts}".encode(), offset=(ts - 1) * 2)
    return store


def wal_key(ts: int) -> str:
    return WALObjectMeta(ts=ts, filename=SEG, offset=(ts - 1) * 2).key


class TestAuditDetects:
    def test_clean_bucket_is_ok(self):
        report = audit(healthy_bucket())
        assert report.ok
        assert report.objects == 7
        assert report.db_frontier_ts == 0
        assert report.wal_frontier_ts == 6
        assert report.first_gap_ts == 7

    def test_wal_gap_and_orphans(self):
        store = healthy_bucket()
        store.delete(wal_key(3))
        report = audit(store)
        assert not report.ok
        assert report.gaps == [3]
        assert report.orphans == [wal_key(4), wal_key(5), wal_key(6)]
        assert {v.rule for v in report.violations} == {WAL_GAP, WAL_ORPHAN}

    def test_incomplete_multipart_group(self):
        store = healthy_bucket()
        crashed = put_dump(store, 9, [("base/t", b"half")], part=0, nparts=2)
        report = audit(store)
        assert report.incomplete_groups == [crashed.key]
        assert {v.rule for v in report.violations} == {DB_GROUP_INCOMPLETE}

    def test_phantom_view_entry(self):
        store = healthy_bucket()
        view = CloudView()
        resync_view(store, view)
        assert audit(store, view).ok
        phantom = WALObjectMeta(ts=7, filename=SEG, offset=12)
        view.add_wal(phantom)  # acked in memory, never reached the bucket
        report = audit(store, view)
        assert report.view_phantom == [phantom.key]
        assert VIEW_PHANTOM in {v.rule for v in report.violations}

    def test_stale_db_below_retention_floor(self):
        store = InMemoryObjectStore()
        old = put_dump(store, 0, [("base/t", b"old")])
        put_dump(store, 4, [("base/t", b"new")], seq=1)
        put_wal(store, 5, b"w5", offset=0)
        flagged = audit(store, retention=RetentionPolicy.none())
        assert flagged.stale_db == [old.key]
        # Unknown policy: the old generation may be a kept PITR snapshot.
        assert audit(store, retention=None).ok


class TestRepair:
    def test_gap_repair_then_recovery(self):
        store = healthy_bucket()
        store.delete(wal_key(3))
        report = repair(store, mode="conservative")
        assert sorted(report.deleted) == [wal_key(4), wal_key(5), wal_key(6)]
        assert report.skipped == []
        assert report.objects == 3  # dump + WAL 1..2
        second = audit(store)
        assert second.ok and second.wal_frontier_ts == 2
        fs = MemoryFileSystem()
        recovery = recover_files(store, CODEC, fs)
        assert recovery.last_applied_wal_ts == 2
        assert fs.read_all(SEG) == b"w1w2"

    def test_repair_converges_on_every_seeded_corruption(self):
        store = healthy_bucket()
        view = CloudView()
        resync_view(store, view)  # agree first, then corrupt
        store.delete(wal_key(3))  # gap + orphans + a view phantom
        put_dump(store, 9, [("base/t", b"half")], part=0, nparts=2)
        retention = RetentionPolicy.none()
        report = repair(store, view=view, mode="resync", retention=retention)
        assert report.audit.violation_count > 0
        assert audit(store, view, retention=retention).ok
        # Idempotent: a second pass finds nothing left to do.
        again = repair(store, view=view, mode="resync", retention=retention)
        assert again.audit.ok and again.deleted == []

    def test_resync_clamps_counters_to_first_gap(self):
        store = healthy_bucket()
        store.delete(wal_key(3))
        view = CloudView()
        # The buggy ingest: every listed WAL object recorded, and the
        # counter advanced past the gap to 7.
        for info in store.list("WAL/"):
            view.add_wal(WALObjectMeta.parse(info.key))
        while view.last_assigned_ts() < 6:
            view.next_wal_ts()
        assert view.last_assigned_ts() == 6
        report = repair(store, view=view, mode="resync")
        assert report.frontier_ts == 2
        assert report.next_wal_ts == 3
        assert view.confirmed_ts() == 2
        assert view.last_assigned_ts() == 2

    def test_skipped_delete_is_not_fatal(self):
        class NoDeleteStore(InMemoryObjectStore):
            def _delete_request(self, keys: list[str]) -> None:
                raise CloudError("delete refused")

        store = NoDeleteStore()
        put_dump(store, 0, [("base/t", b"v0")])
        for ts in range(1, 3):
            put_wal(store, ts, f"w{ts}".encode(), offset=(ts - 1) * 2)
        put_wal(store, 4, b"w4", offset=6)  # orphan beyond the gap at 3
        view = CloudView()
        report = repair(store, view=view, mode="resync")
        assert report.deleted == []
        assert report.skipped == [wal_key(4)]
        # The undeletable orphan must still leave the resynced view: the
        # counter is clamped below it and the frontier cannot cross it.
        assert view.last_assigned_ts() == 2
        assert all(meta.ts != 4 for meta in view.wal_objects())

    def test_skipped_delete_behind_a_retry_transport_is_reported_skipped(self):
        """reboot and failover hand repair the retry-wrapped transport,
        whose RetryLayer absorbs an exhausted DELETE and returns None —
        so every doomed key used to land in ``deleted`` while still
        sitting in the bucket.  The verdict is read from the bucket."""
        from repro.cloud.faults import FaultPolicy
        from repro.cloud.metering import RequestMeter
        from repro.cloud.retry import RetryPolicy
        from repro.cloud.transport import build_transport
        from repro.common.errors import CloudUnavailable
        from repro.common.events import EventBus

        class DeleteAlwaysFails(FaultPolicy):
            def check(self, op, now, rng):
                if op == "DELETE":
                    raise CloudUnavailable("DELETE: refused")

        backend = healthy_bucket()
        backend.delete(wal_key(3))  # gap: 4, 5 and 6 become orphans
        bus = EventBus()
        meter = RequestMeter().attach(bus)
        transport = build_transport(
            backend, policy=RetryPolicy(max_retries=0),
            faults=DeleteAlwaysFails(), metered=True, bus=bus,
        )
        view = CloudView()
        report = repair(transport, view=view, mode="resync")
        orphans = [wal_key(ts) for ts in (4, 5, 6)]
        assert report.deleted == []
        assert report.skipped == orphans
        assert all(backend.exists(key) for key in orphans)
        assert view.last_assigned_ts() == 2  # still resynced below them
        # Through a transport that works, the same keys are deleted —
        # and a clean bucket costs one LIST, not two.
        healthy = build_transport(
            backend, policy=RetryPolicy(max_retries=0), metered=True, bus=bus,
        )
        lists = meter.lists.count
        again = repair(healthy, view=view, mode="resync")
        assert again.deleted == orphans and again.skipped == []
        assert meter.lists.count == lists + 2
        assert meter.deletes.count == 1  # one batch request
        clean = repair(healthy, view=view, mode="resync")
        assert clean.deleted == [] and clean.skipped == []
        assert meter.lists.count == lists + 3

    def test_mode_validation(self):
        store = InMemoryObjectStore()
        with pytest.raises(GinjaError):
            repair(store, mode="aggressive")
        with pytest.raises(GinjaError):
            repair(store, mode="resync")  # needs a view to rebuild


class TestRebootGapRegression:
    """``reboot()`` on a gapped bucket used to strand the frontier."""

    def test_reboot_resyncs_and_continues_below_the_gap(self):
        store = healthy_bucket()
        store.delete(wal_key(3))
        view = CloudView()
        count = reboot(store, view)
        assert count == 6  # every Ginja object the LIST found, pre-repair
        assert view.confirmed_ts() == 2
        assert view.last_assigned_ts() == 2
        # The next upload reuses ts 3 — the gap closes instead of growing.
        ts = view.next_wal_ts()
        assert ts == 3
        meta = put_wal(store, ts, b"w3", offset=4)
        view.add_wal(meta)
        assert view.confirmed_ts() == 3
        fs = MemoryFileSystem()
        recovery = recover_files(store, CODEC, fs)
        assert recovery.last_applied_wal_ts == 3
        assert fs.read_all(SEG) == b"w1w2w3"

    def test_reboot_on_clean_bucket_unchanged(self):
        store = healthy_bucket()
        view = CloudView()
        assert reboot(store, view) == 7
        assert view.confirmed_ts() == 6
        assert view.next_wal_ts() == 7
        assert store.exists(wal_key(6))


class TestFailoverAudit:
    ENGINE = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
    CONFIG = GinjaConfig(batch=5, safety=50, batch_timeout=0.02,
                         safety_timeout=5.0)

    def test_coordinator_repairs_before_promoting(self):
        bucket = InMemoryObjectStore()
        disk = MemoryFileSystem()
        MiniDB.create(disk, POSTGRES_PROFILE, self.ENGINE).close()
        ginja = Ginja(disk, bucket, POSTGRES_PROFILE, self.CONFIG)
        ginja.start(mode="boot")
        db = MiniDB.open(ginja.fs, POSTGRES_PROFILE, self.ENGINE)
        for i in range(25):
            db.put("t", f"k{i}", b"v")
        assert ginja.drain(timeout=10.0)
        HeartbeatWriter(bucket).beat_once()
        ginja.stop()
        # The disaster: one mid-run WAL object vanishes, stranding the
        # uploads beyond it.
        wal_ts = sorted(
            int(info.key[len("WAL/"):len("WAL/") + 12])
            for info in bucket.list("WAL/")
        )
        assert len(wal_ts) >= 3
        victim = wal_ts[len(wal_ts) // 2]
        doomed = [
            info.key for info in bucket.list("WAL/")
            if int(info.key[len("WAL/"):len("WAL/") + 12]) == victim
        ]
        bucket.delete(doomed[0])

        coordinator = FailoverCoordinator(
            bucket, POSTGRES_PROFILE,
            ginja_config=self.CONFIG, engine_config=self.ENGINE,
            detector=FailureDetector(bucket, misses_allowed=2),
            poll_interval=0.01, clock=ManualClock(),
        )
        result = coordinator.run()
        assert result.failed_over, result.error
        assert result.audit_violations > 0
        assert result.repaired_keys  # the orphans beyond the gap
        assert all(key.startswith("WAL/") for key in result.repaired_keys)
        # The promoted standby sits on a bucket a fresh audit calls clean.
        assert audit(bucket, retention=self.CONFIG.retention).ok
        result.ginja.stop()


class TestDrillImageConvergence:
    """fsck over real crash-point disaster images: repair converges and
    the repaired bucket recovers and verifies."""

    @pytest.mark.parametrize("crash_point", [
        "pre-put", "mid-batch", "post-ack", "during-checkpoint", "during-gc",
    ])
    def test_repair_converges_on_disaster_image(self, crash_point):
        from repro.chaos.drill import run_drill
        from repro.chaos.scenarios import SCENARIOS

        scenario = SCENARIOS["baseline"]
        result = run_drill(scenario, crash_point, seed=0)
        assert result.snapshot, "drill produced an empty disaster image"
        bucket = InMemoryObjectStore()
        for key, body in result.snapshot.items():
            bucket.put(key, body)
        config = scenario.ginja_config(0)
        repair(bucket, mode="conservative", retention=config.retention)
        assert audit(bucket, retention=config.retention).ok
        ginja, report = Ginja.recover(
            bucket, MemoryFileSystem(), scenario.profile, config
        )
        assert report.files_restored > 0
        ginja.stop(drain_timeout=5.0)
        verification = verify_backup(
            bucket, scenario.profile, config,
            engine_config=scenario.engine_config(),
        )
        assert verification.ok, verification.errors
