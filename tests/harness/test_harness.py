"""Stack builder and experiment runners."""

from __future__ import annotations

import pytest

from repro.common import events
from repro.common.errors import ConfigError
from repro.common.units import MiB
from repro.cloud.latency import LOCAL_LATENCY, SAME_REGION_LATENCY, WAN_LATENCY
from repro.core.config import GinjaConfig
from repro.harness import (
    StackConfig,
    build_stack,
    measure_recovery,
    run_tpcc,
)
from repro.storage.disk import NO_DISK_LATENCY
from repro.workloads.tpcc import TPCCConfig

FAST_TPCC = TPCCConfig(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=5,
    items=50,
    stock_per_warehouse=50,
    initial_orders_per_district=4,
)


def fast_config(**overrides):
    defaults = dict(
        fs_mode="native",
        disk=NO_DISK_LATENCY,
        cloud_latency=LOCAL_LATENCY,
        cloud_time_scale=0.0,
        wal_segment_size=1 * MiB,
        ginja=GinjaConfig(batch=50, safety=500, batch_timeout=0.05,
                          safety_timeout=5.0),
    )
    defaults.update(overrides)
    return StackConfig(**defaults)


class TestBuildStack:
    def test_native_mode_has_no_cloud(self):
        stack = build_stack(fast_config(fs_mode="native"))
        assert stack.cloud is None and stack.ginja is None
        assert stack.fs is stack.inner_fs

    def test_fuse_mode_wraps_without_interceptor(self):
        stack = build_stack(fast_config(fs_mode="fuse"))
        assert stack.ginja is None
        assert stack.fs is not stack.inner_fs

    def test_ginja_mode_builds_everything(self):
        stack = build_stack(fast_config(fs_mode="ginja"))
        assert stack.cloud is not None and stack.ginja is not None
        db = stack.create_db()
        db.put("t", "k", b"v")
        assert stack.ginja.drain(timeout=10.0)
        assert len(stack.cloud.list()) > 0
        stack.stop()

    def test_a_harness_stack_has_no_per_write_audience(self):
        """``submit`` guards its per-write events with ``bus.wants``; a
        stack that subscribed an all-kinds recorder made every guard
        true on every benchmark cell."""
        stack = build_stack(fast_config(fs_mode="ginja"))
        assert not stack.ginja.bus.wants(events.QUEUE_DEPTH)
        assert not stack.ginja.bus.wants(events.ENCODE_DONE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_stack(fast_config(fs_mode="zfs"))

    def test_unknown_dbms_rejected(self):
        with pytest.raises(ConfigError):
            build_stack(fast_config(dbms="oracle")).create_db()

    def test_overrides_shortcut(self):
        stack = build_stack(fs_mode="native", disk=NO_DISK_LATENCY)
        assert stack.config.fs_mode == "native"

    def test_config_and_overrides_conflict(self):
        with pytest.raises(ConfigError):
            build_stack(fast_config(), fs_mode="native")


class TestPlacementStack:
    PLACEMENT = GinjaConfig(
        batch=50, safety=500, batch_timeout=0.05, safety_timeout=5.0,
        providers=3, placement="wal=mirror-2,db=stripe-2-3,default=mirror-2",
    )

    def test_ginja_mode_builds_a_placement_store(self):
        from repro.placement import PlacementStore

        stack = build_stack(fast_config(fs_mode="ginja",
                                        ginja=self.PLACEMENT))
        assert isinstance(stack.cloud, PlacementStore)
        assert stack.owned_stores == [stack.cloud]
        db = stack.create_db()
        db.put("t", "k", b"v")
        assert stack.ginja.drain(timeout=10.0)
        db.close()
        stack.stop()

    @pytest.mark.parametrize("teardown", ["stop", "crash"])
    def test_teardown_closes_the_owned_store(self, teardown):
        from repro.common.errors import CloudUnavailable

        stack = build_stack(fast_config(fs_mode="ginja",
                                        ginja=self.PLACEMENT))
        db = stack.create_db()
        db.put("t", "k", b"v")
        if teardown == "stop":
            db.close()
        getattr(stack, teardown)()
        with pytest.raises(CloudUnavailable):
            stack.cloud.get("anything")
        # Idempotent: a crash after a stop (or vice versa) must not
        # trip over the already-closed pool.
        getattr(stack, teardown)()

    def test_single_provider_cloud_is_not_owned(self):
        stack = build_stack(fast_config(fs_mode="ginja"))
        assert stack.owned_stores == []
        stack.stop()


class TestRunTpcc:
    @pytest.mark.parametrize("mode", ["native", "fuse", "ginja"])
    def test_run_produces_report(self, mode):
        stack = build_stack(fast_config(fs_mode=mode))
        report = run_tpcc(stack, duration=0.6, warmup=0.1, terminals=2,
                          tpcc_config=FAST_TPCC)
        assert report.tpm_total > 0
        assert report.engine_commits > 0
        assert not report.tpcc.errors
        if mode == "ginja":
            assert report.cloud_puts > 0
            assert report.ginja_stats["wal_objects"] > 0

    def test_mysql_stack_runs(self):
        stack = build_stack(fast_config(dbms="mysql", fs_mode="ginja",
                                        wal_segment_size=1 * MiB))
        report = run_tpcc(stack, duration=0.6, warmup=0.1, terminals=2,
                          tpcc_config=FAST_TPCC)
        assert report.tpm_total > 0
        assert not report.tpcc.errors

    def test_mid_run_checkpoint(self):
        stack = build_stack(fast_config(fs_mode="ginja"))
        report = run_tpcc(stack, duration=0.8, warmup=0.1, terminals=2,
                          tpcc_config=FAST_TPCC, checkpoint_mid_run=True)
        assert report.engine_checkpoints >= 1


class TestMeasureRecovery:
    def _populated_bucket(self):
        stack = build_stack(fast_config(fs_mode="ginja"))
        run_tpcc(stack, duration=0.6, warmup=0.1, terminals=2,
                 tpcc_config=FAST_TPCC)
        return stack.cloud.backend, stack.config

    def test_recovery_reports_time_and_rows(self):
        bucket, config = self._populated_bucket()
        report = measure_recovery(
            bucket, config.profile,
            ginja_config=config.ginja,
            engine_config=config.engine_config(),
            network=WAN_LATENCY,
        )
        assert report.total_seconds > 0
        assert report.bytes_downloaded > 0
        assert report.recovered_rows > 0

    def test_same_region_faster_than_wan(self):
        """Figure 7's second series: recovery in an EC2 VM colocated with
        the bucket is markedly faster than on-premises over WAN."""
        bucket, config = self._populated_bucket()
        wan = measure_recovery(bucket, config.profile,
                               ginja_config=config.ginja,
                               engine_config=config.engine_config(),
                               network=WAN_LATENCY)
        ec2 = measure_recovery(bucket, config.profile,
                               ginja_config=config.ginja,
                               engine_config=config.engine_config(),
                               network=SAME_REGION_LATENCY)
        assert ec2.modeled_network_seconds < wan.modeled_network_seconds


class TestStackCrash:
    def test_ginja_crash_leaves_recoverable_disaster_image(self):
        from repro.core.ginja import Ginja
        from repro.db.engine import MiniDB
        from repro.storage.memory import MemoryFileSystem

        stack = build_stack(fast_config(fs_mode="ginja"))
        db = stack.create_db()
        for i in range(30):
            db.put("t", f"k{i}", f"v{i}".encode())
        stack.crash()
        assert stack.ginja is not None and not stack.ginja.running
        stack.crash()  # idempotent

        ginja, _report = Ginja.recover(
            stack.cloud, MemoryFileSystem(), stack.config.profile,
            stack.config.ginja,
        )
        recovered_db = MiniDB.open(ginja.fs, stack.config.profile,
                                   stack.config.engine_config())
        recovered = sum(
            1 for i in range(30)
            if recovered_db.get("t", f"k{i}") == f"v{i}".encode()
        )
        bound = stack.config.ginja.safety + stack.config.ginja.batch + 1
        assert 30 - recovered <= bound
        ginja.stop(drain_timeout=5.0)

    def test_crash_is_noop_for_unprotected_modes(self):
        build_stack(fast_config(fs_mode="native")).crash()
        build_stack(fast_config(fs_mode="fuse")).crash()
