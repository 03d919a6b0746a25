"""End-to-end Ginja: the full disaster-recovery story.

Each test walks the paper's lifecycle on a real MiniDB engine with real
threads and an in-memory cloud: initialize → boot Ginja → run commits
and checkpoints through the interposer → disaster → recover on a fresh
machine → verify the state.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import GinjaError
from repro.common.units import KiB
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.core.pitr import RetentionPolicy
from repro.core.verification import verify_backup
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


def engine_config(profile):
    seg = 64 * KiB if not profile.ring_wal else 16 * KiB
    return EngineConfig(wal_segment_size=seg, auto_checkpoint=False)


def ginja_config(**overrides):
    defaults = dict(
        batch=4, safety=40, batch_timeout=0.05, safety_timeout=2.0,
        uploaders=3, retry_backoff=0.01,
    )
    defaults.update(overrides)
    return GinjaConfig(**defaults)


def fresh_protected_db(profile, cloud, config=None):
    """Initialize a database and mount Ginja over it (Boot mode)."""
    inner = MemoryFileSystem()
    db = MiniDB.create(inner, profile, engine_config(profile))
    db.close()
    ginja = Ginja(inner, cloud, profile, config or ginja_config())
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, profile, engine_config(profile))
    return ginja, db


def recover_db(cloud, profile, config=None, upto_ts=None):
    target = MemoryFileSystem()
    ginja, report = Ginja.recover(
        cloud, target, profile, config or ginja_config(), upto_ts=upto_ts
    )
    db = MiniDB.open(ginja.fs, profile, engine_config(profile))
    return ginja, db, report


@pytest.fixture(params=["postgres", "mysql"])
def profile(request):
    return POSTGRES_PROFILE if request.param == "postgres" else MYSQL_PROFILE


@pytest.fixture
def cloud():
    return SimulatedCloud(backend=InMemoryObjectStore(), time_scale=0.0)


class TestHappyPath:
    def test_all_drained_commits_survive_disaster(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            for i in range(60):
                db.put("t", f"k{i}", f"v{i}".encode())
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        # Disaster: the whole primary site is gone; only `cloud` remains.
        ginja2, db2, report = recover_db(cloud, profile)
        try:
            for i in range(60):
                assert db2.get("t", f"k{i}") == f"v{i}".encode()
            assert report.dump_ts >= 0
        finally:
            ginja2.stop()

    def test_checkpoint_then_more_commits_then_disaster(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            for i in range(30):
                db.put("t", f"pre{i}", b"1")
            db.checkpoint()
            for i in range(30):
                db.put("t", f"post{i}", b"2")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        ginja2, db2, _ = recover_db(cloud, profile)
        try:
            for i in range(30):
                assert db2.get("t", f"pre{i}") == b"1"
                assert db2.get("t", f"post{i}") == b"2"
        finally:
            ginja2.stop()

    def test_deletes_replicate(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            db.put("t", "keep", b"1")
            db.put("t", "drop", b"2")
            db.delete("t", "drop")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        ginja2, db2, _ = recover_db(cloud, profile)
        try:
            assert db2.get("t", "keep") == b"1"
            assert db2.get("t", "drop") is None
        finally:
            ginja2.stop()

    def test_checkpoint_garbage_collects_wal_objects(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            for i in range(40):
                db.put("t", f"k{i}", b"x" * 100)
            assert ginja.drain(timeout=10.0)
            before = len(cloud.list("WAL/"))
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
            after = len(cloud.list("WAL/"))
            assert after < before
        finally:
            ginja.stop()

    def test_health_report(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            db.put("t", "k", b"v")
            ginja.drain(timeout=10.0)
            health = ginja.health()
            assert health["running"]
            assert health["failed"] is None
            assert health["confirmed_ts"] >= 0
        finally:
            ginja.stop()


class TestRPO:
    def test_loss_bounded_by_safety(self, profile):
        """The core guarantee: after a disaster at ANY moment, at most
        S updates (plus one in-flight batch) are lost."""
        class FreezableStore(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.frozen = False

            def put(self, key, data):
                if self.frozen and key.startswith("WAL/"):
                    from repro.common.errors import CloudUnavailable
                    raise CloudUnavailable("frozen")
                super().put(key, data)

        backend = FreezableStore()
        safety = 10
        config = ginja_config(batch=2, safety=safety, safety_timeout=30.0,
                              max_retries=2, retry_backoff=0.01)
        ginja, db = fresh_protected_db(profile, backend, config)
        committed = 0
        try:
            for i in range(20):
                db.put("t", f"k{i}", b"v")
                committed += 1
            assert ginja.drain(timeout=10.0)
            backend.frozen = True  # network to the cloud partitions
            # Keep committing until Ginja blocks us (or pipeline poisons).
            from repro.common.errors import GinjaError
            import threading

            def commit_until_blocked():
                nonlocal committed
                try:
                    for i in range(20, 20 + safety * 3):
                        db.put("t", f"k{i}", b"v")
                        committed += 1
                except GinjaError:
                    pass

            writer = threading.Thread(target=commit_until_blocked, daemon=True)
            writer.start()
            writer.join(timeout=5.0)
            # Disaster strikes now.  The recovered DB may miss at most
            # S + B updates (queue bound plus the batch in flight).
        finally:
            # The frozen cloud exhausted the PUT budget and poisoned the
            # pipeline; stop() re-raises that failure after teardown.
            try:
                ginja.stop(drain_timeout=0.2)
            except GinjaError:
                pass
        ginja2, db2, _ = recover_db(backend, profile)
        try:
            recovered = sum(
                1 for i in range(committed) if db2.get("t", f"k{i}") is not None
            )
            lost = committed - recovered
            assert lost <= safety + config.batch
        finally:
            ginja2.stop()

    def test_no_loss_configuration(self, profile, cloud):
        """S = B = 1: every acknowledged commit beyond the previous one
        is already uploaded — synchronous replication (Figure 5's last
        column)."""
        config = GinjaConfig.no_loss(batch_timeout=0.01, safety_timeout=5.0,
                                     uploaders=1)
        ginja, db = fresh_protected_db(profile, cloud, config)
        try:
            for i in range(10):
                db.put("t", f"k{i}", b"v")
            # At any instant at most 1 update is unconfirmed.
            assert ginja.pending_updates() <= 1
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        ginja2, db2, _ = recover_db(cloud, profile)
        try:
            for i in range(10):
                assert db2.get("t", f"k{i}") == b"v"
        finally:
            ginja2.stop()


class TestCodecIntegration:
    @pytest.mark.parametrize("compress,encrypt", [
        (True, False), (False, True), (True, True),
    ])
    def test_roundtrip_with_codec(self, cloud, compress, encrypt):
        config = ginja_config(
            compress=compress, encrypt=encrypt,
            password="s3cret" if encrypt else None,
        )
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud, config)
        try:
            for i in range(20):
                db.put("t", f"k{i}", b"payload " * 10)
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        config2 = ginja_config(
            compress=compress, encrypt=encrypt,
            password="s3cret" if encrypt else None,
        )
        ginja2, db2, _ = recover_db(cloud, POSTGRES_PROFILE, config2)
        try:
            for i in range(20):
                assert db2.get("t", f"k{i}") == b"payload " * 10
        finally:
            ginja2.stop()

    def test_compression_shrinks_cloud_bytes(self):
        plain_cloud = SimulatedCloud(time_scale=0.0)
        comp_cloud = SimulatedCloud(time_scale=0.0)
        for compress, cloud in ((False, plain_cloud), (True, comp_cloud)):
            config = ginja_config(compress=compress)
            ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud, config)
            try:
                for i in range(30):
                    db.put("t", f"k{i}", b"A" * 200)
                assert ginja.drain(timeout=10.0)
            finally:
                ginja.stop()
        assert comp_cloud.meter.puts.bytes < plain_cloud.meter.puts.bytes

    def test_wrong_password_cannot_recover(self, cloud):
        config = ginja_config(encrypt=True, password="right")
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud, config)
        try:
            db.put("t", "k", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        from repro.common.errors import IntegrityError
        bad = ginja_config(encrypt=True, password="wrong")
        with pytest.raises(IntegrityError):
            Ginja.recover(cloud, MemoryFileSystem(), POSTGRES_PROFILE, bad)


class TestRebootMode:
    def test_stop_and_reboot_continues_protection(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        inner = ginja.fs.inner
        try:
            db.put("t", "before", b"1")
            assert ginja.drain(timeout=10.0)
            db.close()
        finally:
            ginja.stop()
        # Safe stop, then reboot on the same local files.
        ginja2 = Ginja(inner, cloud, profile, ginja_config())
        ginja2.start(mode="reboot")
        db2 = MiniDB.open(ginja2.fs, profile, engine_config(profile))
        try:
            db2.put("t", "after", b"2")
            assert ginja2.drain(timeout=10.0)
        finally:
            ginja2.stop()
        ginja3, db3, _ = recover_db(cloud, profile)
        try:
            assert db3.get("t", "before") == b"1"
            assert db3.get("t", "after") == b"2"
        finally:
            ginja3.stop()

    def test_reboot_empty_bucket_fails(self, profile, cloud):
        from repro.common.errors import GinjaError
        ginja = Ginja(MemoryFileSystem(), cloud, profile, ginja_config())
        with pytest.raises(GinjaError):
            ginja.start(mode="reboot")


    @pytest.mark.parametrize("end", ["stop", "crash"])
    def test_a_stopped_or_crashed_instance_is_not_restarted(self, cloud, end):
        """``start`` refuses an instance that ran, before it LISTs the
        bucket or starts the private reactor, so no ``ginja-`` thread
        outlives it."""
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud)
        db.put("t", "k", b"v")
        assert ginja.drain(timeout=10.0)
        getattr(ginja, end)()
        lists = cloud.meter.lists.count
        with pytest.raises(GinjaError, match="already started"):
            ginja.start(mode="reboot")
        assert cloud.meter.lists.count == lists
        assert not ginja.running and not ginja.reactor.alive
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("ginja-")] == []


class TestPITR:
    def test_restore_superseded_generation(self, cloud):
        """Keep snapshots across dumps, then restore the database to the
        older generation — ransomware protection (§5.4)."""
        config = ginja_config(retention=RetentionPolicy.keep(2),
                              dump_threshold=1.0)  # dump on every ckpt
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud, config)
        try:
            db.put("t", "k", b"generation-1")
            assert ginja.drain(timeout=10.0)  # distinct WAL frontier per dump
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
            # The snapshot anchor: the newest DB object covering gen-1
            # (the first checkpoint is incremental — the cloud holds less
            # DB data than the local database at that point).
            gen1_ts = max(m.ts for m in ginja.view.db_objects())
            db.put("t", "k", b"RANSOMWARED")
            assert ginja.drain(timeout=10.0)
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        # Latest state has the bad value...
        g_latest, db_latest, _ = recover_db(cloud, POSTGRES_PROFILE, config)
        try:
            assert db_latest.get("t", "k") == b"RANSOMWARED"
        finally:
            g_latest.stop()
        # ...but the retained generation restores the good one.
        g_old, db_old, report = recover_db(
            cloud, POSTGRES_PROFILE, config, upto_ts=gen1_ts
        )
        try:
            assert db_old.get("t", "k") == b"generation-1"
        finally:
            g_old.stop()

    @staticmethod
    def two_generations_and_a_wal_tail(cloud, config) -> int:
        """Protect a database through two dumps, then commit one row
        that only the WAL tail holds; return generation 1's anchor."""
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud, config)
        try:
            db.put("t", "k", b"generation-1")
            assert ginja.drain(timeout=10.0)
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
            gen1_ts = max(m.ts for m in ginja.view.db_objects())
            db.checkpoint()
            assert ginja.drain(timeout=10.0)
            # This commit lives ONLY in the WAL tail — no checkpoint or
            # dump ever covers it before the disaster.
            db.put("t", "tail", b"wal-only")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        return gen1_ts

    def test_snapshot_restore_does_not_destroy_the_latest_state(self, cloud):
        """Regression for the PITR data-loss bug: a snapshot restore's
        stale-key cleanup must leave the latest generation's WAL tail in
        the bucket, so recovering the *latest* state afterwards still
        sees commits that only exist as WAL."""
        config = ginja_config(retention=RetentionPolicy.keep(2),
                              dump_threshold=1.0)
        gen1_ts = self.two_generations_and_a_wal_tail(cloud, config)
        # Restore the retained snapshot first; its cleanup pass deletes
        # whatever recovery reported stale (this destroyed the tail
        # before the fix)...
        g_old, db_old, _ = recover_db(
            cloud, POSTGRES_PROFILE, config, upto_ts=gen1_ts
        )
        try:
            assert db_old.get("t", "tail") is None
        finally:
            g_old.stop()
        # ...then the latest state must still include the WAL-only commit.
        g_new, db_new, report = recover_db(cloud, POSTGRES_PROFILE, config)
        try:
            assert db_new.get("t", "tail") == b"wal-only"
            assert report.wal_objects_applied > 0
        finally:
            g_new.stop()

    def test_a_snapshot_restore_does_not_resume_protection(self, cloud):
        """Regression: the instance a snapshot restore returned used to
        protect on the *latest* generation's WAL chain, so its first
        object wrote over segment 0 and the next latest-state recovery
        lost the WAL-only tail.  It now ships nothing, and refuses to
        start."""
        config = ginja_config(retention=RetentionPolicy.keep(2),
                              dump_threshold=1.0)
        gen1_ts = self.two_generations_and_a_wal_tail(cloud, config)
        g_old, db_old, _ = recover_db(
            cloud, POSTGRES_PROFILE, config, upto_ts=gen1_ts
        )
        try:
            for i in range(12):
                db_old.put("t", f"restored-{i}", b"written after the restore")
            db_old.close()
            assert not g_old.running
            with pytest.raises(GinjaError, match="fresh bucket"):
                g_old.start(mode="attached")
        finally:
            g_old.stop()
        g_new, db_new, _ = recover_db(cloud, POSTGRES_PROFILE, config)
        try:
            assert db_new.get("t", "tail") == b"wal-only"
            assert db_new.get("t", "restored-0") is None
        finally:
            g_new.stop()

    def test_recovery_gets_are_metered(self, cloud):
        """Recovery I/O rides the transport stack, so the simulated
        cloud's RequestMeter must see its GET (and LIST) traffic."""
        ginja, db = fresh_protected_db(POSTGRES_PROFILE, cloud)
        try:
            for i in range(20):
                db.put("t", f"k{i}", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        before = cloud.meter.gets.count
        g2, db2, report = recover_db(
            cloud, POSTGRES_PROFILE, ginja_config(downloaders=4)
        )
        try:
            gets = cloud.meter.gets.count - before
            assert gets > 0
            assert report.bytes_downloaded > 0
        finally:
            g2.stop()


class TestVerification:
    def test_verify_good_backup(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            for i in range(10):
                db.put("t", f"k{i}", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()

        def check_rows(replica):
            missing = [
                f"missing k{i}" for i in range(10)
                if replica.get("t", f"k{i}") != b"v"
            ]
            return missing

        report = verify_backup(
            cloud, profile,
            engine_config=engine_config(profile),
            checks=[check_rows],
        )
        assert report.ok, report.errors
        assert report.total_rows == 10
        assert "PASS" in report.summary()

    def test_verify_detects_corruption(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            db.put("t", "k", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        # Corrupt every object in the bucket.
        backend = cloud.backend
        for info in cloud.list():
            blob = bytearray(backend.get(info.key))
            blob[len(blob) // 2] ^= 0xFF
            backend.put(info.key, bytes(blob))
        report = verify_backup(cloud, profile,
                               engine_config=engine_config(profile))
        assert not report.ok
        assert report.errors

    def test_verify_failed_check_reported(self, profile, cloud):
        ginja, db = fresh_protected_db(profile, cloud)
        try:
            db.put("t", "k", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
        report = verify_backup(
            cloud, profile,
            engine_config=engine_config(profile),
            checks=[lambda replica: ["service check failed"]],
        )
        assert not report.ok
        assert "service check failed" in report.errors


class TestMultiCloud:
    def test_recovery_from_surviving_provider(self, profile):
        """§6: objects replicated to several clouds (``mirror-2/q1``
        placement) tolerate a provider-scale outage."""
        from repro.placement import build_placement

        multi = build_placement(2, "mirror-2/q1", time_scale=0.0)
        provider_a, provider_b = (p.backend for p in multi.providers)
        ginja, db = fresh_protected_db(profile, multi)
        try:
            for i in range(15):
                db.put("t", f"k{i}", b"v")
            assert ginja.drain(timeout=10.0)
        finally:
            ginja.stop()
            multi.close()
        # Provider A suffers a catastrophic loss; recover from B alone.
        provider_a.clear()
        ginja2, db2, _ = recover_db(provider_b, profile)
        try:
            for i in range(15):
                assert db2.get("t", f"k{i}") == b"v"
        finally:
            ginja2.stop()


class TestReactorCrashMidStream:
    def test_reactor_crash_poisons_pipeline_and_rpo_holds(self, cloud):
        """Chaos drill: the upload reactor's loop thread dies with work
        in motion.  The pipeline must poison (no hang, no silent loss of
        the error), further commits must fail fast, and every batch that
        was acked before the crash must recover from the cloud alone."""
        profile = POSTGRES_PROFILE
        ginja, db = fresh_protected_db(profile, cloud)
        # Phase 1: acked work — the RPO promise covers exactly this.
        for i in range(40):
            db.put("t", f"acked{i}", b"1")
        assert ginja.drain(timeout=10.0)
        # Phase 2: more commits in motion, then the loop thread dies.
        for i in range(10):
            db.put("t", f"limbo{i}", b"2")
        boom = RuntimeError("reactor loop died mid-stream")
        ginja.reactor.crash(boom)
        assert not ginja.reactor.alive
        # The lane's on_fatal poisons the pipeline; commits now raise.
        deadline = time.monotonic() + 5
        while ginja.pipeline.failed is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ginja.pipeline.failed is not None
        with pytest.raises(GinjaError):
            for i in range(100):
                db.put("t", f"after{i}", b"3")
        assert not ginja.drain(timeout=0.5)
        # Declare the primary lost; a dead reactor must not wedge crash()
        # or leave its loop/io threads behind.
        ginja.crash()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(
            t.name.startswith("ginja-") for t in threading.enumerate()
        ):
            time.sleep(0.01)
        assert not any(
            t.name.startswith("ginja-") for t in threading.enumerate()
        )
        # RPO: everything acked before the crash survives the disaster.
        ginja2, db2, _ = recover_db(cloud, profile)
        try:
            for i in range(40):
                assert db2.get("t", f"acked{i}") == b"1"
        finally:
            ginja2.stop()
