"""FleetManager: shared pools, tenant isolation, metering, recovery.

The isolation suite (S3) is the heart of this file: one tenant's codec
fault must poison only that tenant's pipeline — never the shared
reactor or its co-tenants — and one tenant's crash() must leak no
shared-pool threads.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.common.errors import ConfigError, GinjaError
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import _SHADOW_BYTES
from repro.core.config import SharedPoolConfig, TenantPolicy
from repro.cloud.memory import InMemoryObjectStore
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.fleet import FleetManager
from repro.storage.memory import MemoryFileSystem

from tests.core.test_claim_jobs import hold_loop

ENGINE = EngineConfig(wal_segment_size=64 * 1024)
POLICY = TenantPolicy(
    batch=3, safety=50, batch_timeout=0.05, safety_timeout=10.0, uploaders=1
)


@pytest.fixture
def fleet():
    backend = InMemoryObjectStore()
    manager = FleetManager(backend, SharedPoolConfig(downloaders=2))
    manager.start()
    yield manager
    # Tests that poison a tenant clean it off the roster themselves;
    # anything left here must stop cleanly.
    manager.stop_all()


def admit(fleet, tenant_id, policy=POLICY):
    """Create a fresh database and admit it; returns (ginja, db)."""
    disk = MemoryFileSystem()
    MiniDB.create(disk, POSTGRES_PROFILE, ENGINE).close()
    ginja = fleet.add_tenant(tenant_id, disk, POSTGRES_PROFILE, policy)
    return ginja, MiniDB.open(ginja.fs, POSTGRES_PROFILE, ENGINE)


def commit_rows(db, tenant_id, n, start=0):
    for row in range(start, start + n):
        db.put("t", f"row-{row}", f"{tenant_id}-{row}".encode())


class TestFleetLifecycle:
    def test_add_tenant_requires_started_fleet(self):
        manager = FleetManager(InMemoryObjectStore())
        with pytest.raises(GinjaError, match="start the fleet"):
            manager.add_tenant("a", MemoryFileSystem(), POSTGRES_PROFILE)

    def test_tenant_ids_validated(self, fleet):
        for bad in ("", "a/b", "tenants/x"):
            with pytest.raises(GinjaError, match="invalid tenant id"):
                fleet.add_tenant(bad, MemoryFileSystem(), POSTGRES_PROFILE)

    def test_duplicate_tenant_rejected(self, fleet):
        _, db = admit(fleet, "dup")
        try:
            with pytest.raises(GinjaError, match="already exists"):
                fleet.add_tenant(
                    "dup", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
                )
        finally:
            db.close()

    def test_bad_policy_rejected_at_admission(self, fleet):
        with pytest.raises(ConfigError):
            fleet.add_tenant(
                "bad", MemoryFileSystem(), POSTGRES_PROFILE,
                TenantPolicy(batch=100, safety=10),  # B > S
            )
        assert fleet.tenants() == ()

    def test_keyspaces_are_isolated(self, fleet):
        ginja_a, db_a = admit(fleet, "alpha")
        ginja_b, db_b = admit(fleet, "beta")
        commit_rows(db_a, "alpha", 10)
        commit_rows(db_b, "beta", 10)
        assert ginja_a.drain(timeout=30.0)
        assert ginja_b.drain(timeout=30.0)
        backend = fleet.transport
        keys = [info.key for info in backend.list()]
        assert keys  # something was uploaded
        assert all(
            key.startswith(("tenants/alpha/", "tenants/beta/"))
            for key in keys
        )
        assert any(key.startswith("tenants/alpha/WAL/") for key in keys)
        assert any(key.startswith("tenants/beta/WAL/") for key in keys)
        db_a.close()
        db_b.close()

    def test_remove_tenant_purge_clears_keyspace(self, fleet):
        ginja, db = admit(fleet, "gone")
        _, db_keep = admit(fleet, "keep")
        commit_rows(db, "gone", 5)
        commit_rows(db_keep, "keep", 5)
        assert ginja.drain(timeout=30.0)
        assert fleet.tenant("keep").drain(timeout=30.0)
        db.close()
        assert ginja.drain(timeout=30.0)  # the closing checkpoint and its GC
        deletes = fleet.meters.total.deletes.count
        fleet.remove_tenant("gone", purge=True)
        # The whole keyspace goes in one batch DELETE, billed to its owner.
        assert fleet.meters.total.deletes.count == deletes + 1
        keys = [info.key for info in fleet.transport.list()]
        assert keys  # keep's objects survive
        assert not any(key.startswith("tenants/gone/") for key in keys)
        assert "gone" not in fleet.tenants()
        with pytest.raises(GinjaError, match="unknown tenant"):
            fleet.tenant("gone")
        db_keep.close()

    def test_stop_all_stops_tenants_and_pools(self):
        manager = FleetManager(InMemoryObjectStore(), SharedPoolConfig())
        manager.start()
        _, db = admit(manager, "only")
        commit_rows(db, "only", 5)
        db.close()
        manager.stop_all()
        assert manager.tenants() == ()
        assert not manager.reactor.alive
        assert not manager.download_pool.running


class TestSharedPoolIsolation:
    """S3: faults and crashes stay inside the tenant that caused them."""

    def test_codec_fault_poisons_only_the_faulty_tenant(self, fleet):
        ginja_bad, db_bad = admit(fleet, "faulty")
        ginja_ok, db_ok = admit(fleet, "healthy")

        class FaultyCodec(ObjectCodec):
            def encode(self, payload):
                raise RuntimeError("injected codec fault")

        # Swap the faulty tenant's codec under its pipeline: every claim
        # job it queues on the *shared* reactor now raises.
        ginja_bad.pipeline._codec = FaultyCodec()
        try:
            commit_rows(db_bad, "faulty", 5)
        except GinjaError:
            pass  # the loop ran the first claim before the last commit
        deadline = time.monotonic() + 5
        while ginja_bad.pipeline.failed is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert isinstance(ginja_bad.pipeline.failed, RuntimeError)

        # The shared pools are untouched and the co-tenant still commits.
        assert fleet.reactor.alive
        commit_rows(db_ok, "healthy", 10)
        assert ginja_ok.drain(timeout=30.0)
        assert ginja_ok.pipeline.failed is None
        keys = [info.key for info in fleet.transport.list("tenants/healthy/")]
        assert any(key.startswith("tenants/healthy/WAL/") for key in keys)

        # Clean the poisoned tenant off the roster so the fixture's
        # stop_all is clean: crash first (detaches interception, so the
        # DB's close-time checkpoint doesn't hit the dead pipeline),
        # then remove (a no-op stop for a crashed instance).
        fleet.crash_tenant("faulty")
        db_bad.close()
        db_ok.close()
        fleet.remove_tenant("faulty")

    def test_tenant_crash_leaks_no_shared_pool_threads(self, fleet):
        def alive_names():
            return sorted(
                t.name for t in threading.enumerate() if t.is_alive()
            )

        def tenant_side():
            # Everything but the shared reactor's loop: a leaked
            # downloader or any other fleet thread still shows.
            return [n for n in alive_names() if n != "ginja-reactor"]

        baseline = tenant_side()
        ginja, db = admit(fleet, "victim")
        commit_rows(db, "victim", 10)
        assert ginja.drain(timeout=30.0)
        db.close()
        fleet.crash_tenant("victim")

        # Shared pools survive the crash: the one loop the tenant's
        # claim jobs ran on stays...
        assert fleet.reactor.alive
        assert alive_names().count("ginja-reactor") == 1

        # ...and every tenant-owned thread dies: the roster entry is the
        # only trace left.  Poll — uploader threads exit asynchronously.
        deadline = time.monotonic() + 5
        while tenant_side() != baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert tenant_side() == baseline
        fleet.remove_tenant("victim")

    def test_crashed_tenant_blocks_reuse_until_recovered(self, fleet):
        ginja, db = admit(fleet, "dead")
        commit_rows(db, "dead", 5)
        assert ginja.drain(timeout=30.0)
        db.close()
        fleet.crash_tenant("dead")
        # The dead instance stays on the roster, so re-admission under
        # the same id is refused until remove/recover decides its fate.
        with pytest.raises(GinjaError, match="already exists"):
            fleet.add_tenant(
                "dead", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
            )
        ginja2, report = fleet.recover_tenant(
            "dead", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
        )
        assert report.files_restored > 0
        assert fleet.tenant("dead") is ginja2
        db2 = MiniDB.open(ginja2.fs, POSTGRES_PROFILE, ENGINE)
        assert db2.get("t", "row-4") == b"dead-4"
        db2.close()

    def test_recover_refuses_running_tenant(self, fleet):
        _, db = admit(fleet, "live")
        try:
            with pytest.raises(GinjaError, match="still running"):
                fleet.recover_tenant(
                    "live", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
                )
        finally:
            db.close()


class TestFleetRecovery:
    def test_rpo_zero_recovery_through_shared_download_pool(self, fleet):
        ginja, db = admit(fleet, "phoenix")
        _, db_co = admit(fleet, "bystander")
        commit_rows(db, "phoenix", 20)
        commit_rows(db_co, "bystander", 20)
        assert ginja.drain(timeout=30.0)
        db.close()
        fleet.crash_tenant("phoenix")

        # The restore must run through the shared download pool — whose
        # threads exist only while it does.  The restoring thread
        # fetches too, and on an in-memory bucket it could outrun the
        # pool's thread start: its first GET waits for a helper's.
        fetched_on = set()
        helper_fetched = threading.Event()

        def on_get(event):
            name = threading.current_thread().name
            fetched_on.add(name)
            if name.startswith("fleet-downloader-"):
                helper_fetched.set()
            else:
                helper_fetched.wait(timeout=5)

        fleet.bus.subscribe(on_get, kinds={"get_end"})
        assert not fleet.download_pool.running
        ginja2, report = fleet.recover_tenant(
            "phoenix", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
        )
        assert any(n.startswith("fleet-downloader-") for n in fetched_on)
        assert not fleet.download_pool.running
        assert ginja2.running
        assert report.files_restored > 0
        db2 = MiniDB.open(ginja2.fs, POSTGRES_PROFILE, ENGINE)
        for row in range(20):
            assert db2.get("t", f"row-{row}") == f"phoenix-{row}".encode()

        # The recovered tenant keeps committing through the shared pools,
        # and the bystander never noticed.
        commit_rows(db2, "phoenix", 5, start=20)
        assert ginja2.drain(timeout=30.0)
        assert fleet.tenant("bystander").drain(timeout=30.0)
        assert db_co.get("t", "row-19") == b"bystander-19"
        db2.close()
        db_co.close()

    def test_a_point_in_time_restore_does_not_protect(self, fleet):
        ginja, db = admit(fleet, "rewind")
        commit_rows(db, "rewind", 5)
        assert ginja.drain(timeout=30.0)
        anchor = max(meta.ts for meta in ginja.view.db_objects())
        db.close()
        fleet.crash_tenant("rewind")
        ginja2, _ = fleet.recover_tenant(
            "rewind", MemoryFileSystem(), POSTGRES_PROFILE, POLICY,
            upto_ts=anchor,
        )
        assert fleet.tenant("rewind") is ginja2 and not ginja2.running
        with pytest.raises(GinjaError, match="fresh bucket"):
            ginja2.start(mode="attached")

    def test_fsck_sweep_clean_and_detects_strays(self, fleet):
        _, db_a = admit(fleet, "a")
        _, db_b = admit(fleet, "b")
        commit_rows(db_a, "a", 10)
        commit_rows(db_b, "b", 10)
        assert fleet.tenant("a").drain(timeout=30.0)
        assert fleet.tenant("b").drain(timeout=30.0)
        sweep = fleet.fsck_sweep()
        assert sweep.ok
        assert set(sweep.tenants) == {"a", "b"}
        assert sweep.stray_keys == []

        # A key outside every tenant keyspace is a namespace violation.
        fleet.transport.put("WAL/999", b"stray")
        sweep = fleet.fsck_sweep()
        assert not sweep.ok
        assert sweep.stray_keys == ["WAL/999"]
        fleet.transport.delete("WAL/999")
        db_a.close()
        db_b.close()


def bucket_bytes(store):
    """Bytes held by the backend at the bottom of a transport stack."""
    while getattr(store, "inner", None) is not None:
        store = store.inner
    return sum(info.size for info in store.list())


class TestFleetMetering:
    def test_storage_integral_sees_overwrites_and_deletes(self):
        # The shared stack has no latency model beneath its meter; the
        # meter still reads what each request replaces or removes.
        fleet = FleetManager(InMemoryObjectStore())
        key = "tenants/acme/WAL/1"
        fleet.transport.put(key, b"x" * 1000)
        fleet.transport.put(key, b"y" * 1000)
        fleet.transport.delete_many([key])
        assert bucket_bytes(fleet.transport) == 0
        assert fleet.meters.total.stored_bytes == 0
        assert fleet.meters.tenant("acme").stored_bytes == 0

    def test_checkpointing_tenant_is_billed_for_what_the_bucket_holds(
        self, fleet
    ):
        _, db = admit(fleet, "ck")
        for round_ in range(3):
            commit_rows(db, "ck", 10, start=10 * round_)
            db.checkpoint()
            assert fleet.tenant("ck").drain(timeout=30.0)
        db.close()
        assert fleet.stats.gc_deletes > 0
        held = bucket_bytes(fleet.transport)
        assert fleet.meters.tenant("ck").stored_bytes == held > 0
        assert fleet.meters.total.stored_bytes == held

    def test_meters_reconcile_exactly(self, fleet):
        dbs = {}
        for tenant_id in ("m1", "m2", "m3"):
            _, dbs[tenant_id] = admit(fleet, tenant_id)
            commit_rows(dbs[tenant_id], tenant_id, 10)
        for tenant_id, db in dbs.items():
            assert fleet.tenant(tenant_id).drain(timeout=30.0)
            db.close()
        bank = fleet.meters
        assert set(bank.tenants()) == {"m1", "m2", "m3"}
        assert bank.unreconciled() == []
        assert bank.unattributed.puts.count == 0
        assert all(m.puts.count > 0 for m in bank.tenants().values())

    def test_bill_attributes_dollars_per_tenant(self, fleet):
        _, db_small = admit(fleet, "small")
        _, db_big = admit(fleet, "big")
        commit_rows(db_small, "small", 5)
        commit_rows(db_big, "big", 50)
        assert fleet.tenant("small").drain(timeout=30.0)
        assert fleet.tenant("big").drain(timeout=30.0)
        bill = fleet.bill(elapsed=3600.0)
        assert {entry.tenant for entry in bill.tenants} == {"small", "big"}
        assert bill.total_dollars > 0
        assert (
            pytest.approx(bill.total_dollars)
            == bill.attributed_dollars + bill.unattributed_dollars
        )
        assert bill.tenant("big").dollars > bill.tenant("small").dollars
        assert bill.tenant("big").puts > bill.tenant("small").puts
        db_small.close()
        db_big.close()

    def test_per_tenant_stats_rollup(self, fleet):
        _, db = admit(fleet, "statty")
        commit_rows(db, "statty", 10)
        assert fleet.tenant("statty").drain(timeout=30.0)
        db.checkpoint()
        assert fleet.tenant("statty").drain(timeout=30.0)
        db.close()
        rollup = fleet.stats.tenant("statty")
        assert rollup.wal_batches > 0
        assert rollup.wal_objects > 0
        # The fleet totals include everything the tenants did.
        assert fleet.stats.wal_batches >= rollup.wal_batches
        # GC narration comes from the shared stack, unstamped, under
        # full keys: it is the one tenant's all the same.
        assert rollup.gc_deletes == fleet.stats.gc_deletes > 0

    def test_health_reports_tenants_and_pools(self, fleet):
        ginja, db = admit(fleet, "h1")
        health = fleet.health()
        # From boot on, a tenant's checkpoint shadow holds the image of
        # the dump it shipped: its DB files, byte for byte.
        disk = ginja.fs.inner
        assert health["tenants"]["h1"]["db_shadow_bytes"] == sum(
            len(disk.read_all(path)) for path in disk.files()
            if POSTGRES_PROFILE.is_db_file(path)
        ) > 0
        assert health["started"]
        assert "h1" in health["tenants"]
        assert health["tenants"]["h1"]["running"]
        commit_rows(db, "h1", 10)
        assert fleet.tenant("h1").drain(timeout=30.0)
        # Each tenant's own planned ÷ submitted WAL bytes: ten commits
        # rewrote one tail page, and only what changed was planned —
        # against a shadow that holds that page, within its bound.
        assert 0 < fleet.health()["tenants"]["h1"]["wal_shipped_ratio"] < 0.5
        assert 0 < fleet.health()["tenants"]["h1"]["wal_shadow_bytes"] <= _SHADOW_BYTES
        # ... and, per tenant too, the checkpoint side of the same ledger.
        assert fleet.health()["tenants"]["h1"]["db_shipped_ratio"] is None
        db.checkpoint()
        assert fleet.tenant("h1").drain(timeout=30.0)
        tenant = fleet.health()["tenants"]["h1"]
        assert 0 < tenant["db_shipped_ratio"] <= 1
        assert tenant["db_shadow_bytes"] > 0
        assert "encode_queue_depth" in health
        assert "puts_observed" in health["uploads"]
        reactor = health["reactor"]
        assert reactor["running"]
        assert "h1" in reactor["tenants"]
        lane = reactor["tenants"]["h1"]
        assert {"queued", "inflight", "backoffs", "retries"} <= set(lane)
        db.close()


class TestReactorOwnership:
    """The fleet owns ONE upload reactor; tenants get lanes, not threads."""

    def test_a_queued_claim_shows_in_its_lane_depth(self, fleet):
        ginja, db = admit(fleet, "q")
        gate = hold_loop(fleet.reactor)
        try:
            ginja.pipeline.submit("probe", 0, b"u")
            assert ginja.pipeline.drain(timeout=0.05) is False
            health = fleet.health()
            assert fleet.encode_pool.lane_depth("q") == 1
            assert health["encode_lanes"] == {"q": 1}
            assert health["encode_queue_depth"] == 1
        finally:
            gate.set()
        assert ginja.pipeline.drain(timeout=10.0)
        assert fleet.encode_pool.lane_depth("q") == 0
        assert fleet.encode_pool.lane_depth("gone") == 0
        db.close()

    def test_upload_threads_stay_constant_as_tenants_scale(self, fleet):
        def named(prefix):
            return [
                t.name for t in threading.enumerate()
                if t.is_alive() and t.name.startswith(prefix)
            ]

        def census():
            # Executor-bridge workers spawn lazily; they are checked
            # below, not part of what must stay identical.
            return sorted(
                n for n in named("ginja-") + named("fleet-")
                if not n.startswith("ginja-reactor-io")
            )

        tenants = [admit(fleet, f"s{i}") for i in range(2)]
        for i, (_, db) in enumerate(tenants):
            commit_rows(db, f"s{i}", 8)
        at_two = census()
        tenants += [admit(fleet, f"s{i}") for i in range(2, 6)]
        for i, (_, db) in enumerate(tenants):
            commit_rows(db, f"s{i}", 8)
        # A tenant costs no thread: its claim jobs, its T_B timer, its
        # PUTs, its unlock rule and its checkpoint state machine all
        # ride the one reactor loop.
        assert census() == at_two == ["ginja-reactor"]
        for ginja, _ in tenants:
            assert ginja.drain(timeout=30.0)

        # One event-loop thread drives every tenant's PUTs; the old
        # design would be holding 6 x uploaders dedicated threads here.
        reactorish = named("ginja-reactor")
        assert reactorish.count("ginja-reactor") == 1
        assert named("ginja-uploader") == []
        assert named("ginja-aggregator") == []
        assert named("ginja-checkpointer") == []
        # The executor bridge is a fixed-size pool, not one per tenant
        # (and idle with a native-async store: workers spawn lazily).
        io = [n for n in reactorish if n.startswith("ginja-reactor-io")]
        assert len(io) <= fleet.reactor.health()["io_threads"]

        # Downloaders exist only inside a recover.
        assert named("fleet-downloader") == []
        during = []
        fleet.bus.subscribe(
            lambda event: during.append(len(named("fleet-downloader"))),
            kinds={"get_end"},
        )
        ginja, db = tenants[0]
        db.close()
        fleet.crash_tenant("s0")
        fleet.recover_tenant(
            "s0", MemoryFileSystem(), POSTGRES_PROFILE, POLICY
        )
        # Started on demand, up to SharedPoolConfig.downloaders: the
        # first GET may land before a second job was ever queued.
        assert during and 1 <= min(during) and max(during) <= 2
        assert named("fleet-downloader") == []

        for _, db in tenants[1:]:
            db.close()

    def test_crash_then_remove_leaves_no_lane_behind(self):
        """crash_tenant cancels the lane (deferred to the loop) and
        detaches it straight after, with PUTs still on the wire; the
        lane used to be skipped by that detach and never reaped."""

        class SlowToUnwind(InMemoryObjectStore):
            """A PUT that takes its time, also to give up when cancelled
            (a connection being torn down)."""

            slow = False

            async def aput(self, key, data):
                if self.slow and "/victim/" in key:
                    try:
                        await asyncio.sleep(0.3)
                    except asyncio.CancelledError:
                        await asyncio.sleep(0.3)
                        raise
                self.put(key, data)

        backend = SlowToUnwind()
        manager = FleetManager(backend, SharedPoolConfig())
        manager.start()
        try:
            _ginja, db = admit(manager, "victim")
            _other, db_other = admit(manager, "bystander")
            backend.slow = True
            commit_rows(db, "victim", 6)  # two batches of slow PUTs

            def busy():
                lane = manager.reactor.health()["tenants"]["victim"]
                return lane["inflight"] + lane["queued"] > 0

            deadline = time.monotonic() + 5.0
            while not busy() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert busy()
            manager.crash_tenant("victim")
            manager.remove_tenant("victim")
            deadline = time.monotonic() + 5.0
            while ("victim" in manager.reactor.health()["tenants"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            lanes = manager.reactor.health()["tenants"]
            assert "victim" not in lanes and "bystander" in lanes
            # The bystander's lane is untouched and still uploads.
            commit_rows(db_other, "bystander", 3)
            assert manager.tenant("bystander").drain(timeout=30.0)
            db_other.close()
        finally:
            manager.stop_all()
