"""Capstone integration: everything at once.

TPC-C terminals drive a MySQL-profile MiniDB through Ginja (compression
and encryption on) against a flaky cloud; a
checkpoint runs mid-flight; the primary dies without draining; the
standby verifies the backup, recovers, and continues the workload.
"""

from __future__ import annotations

import pytest

from repro.common.units import KiB
from repro.cloud.faults import FaultPolicy
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.core.inspect import bucket_inventory
from repro.core.verification import verify_backup
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE
from repro.storage.memory import MemoryFileSystem
from repro.workloads.tpcc import TPCCConfig, TPCCDatabase, TPCCDriver

ENGINE = EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)
GINJA = GinjaConfig(
    batch=20, safety=400, batch_timeout=0.05, safety_timeout=10.0,
    uploaders=3, compress=True, encrypt=True, password="capstone",
    max_retries=30, retry_backoff=0.002,
)
TPCC = TPCCConfig(
    warehouses=1, districts_per_warehouse=4, customers_per_district=10,
    items=100, stock_per_warehouse=100, initial_orders_per_district=5,
)


def test_capstone_end_to_end():
    backend = InMemoryObjectStore()
    cloud = SimulatedCloud(
        backend=backend, time_scale=0.0,
        faults=FaultPolicy(error_rate=0.02),  # a mildly unreliable provider
    )
    disk = MemoryFileSystem()
    MiniDB.create(disk, MYSQL_PROFILE, ENGINE).close()
    ginja = Ginja(disk, cloud, MYSQL_PROFILE, GINJA)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, MYSQL_PROFILE, ENGINE)
    tpcc = TPCCDatabase(db, TPCC)
    tpcc.load(seed=5)
    db.checkpoint()
    assert ginja.drain(timeout=30.0)

    # Phase 1: concurrent terminals + a mid-run checkpoint.
    driver = TPCCDriver(tpcc, terminals=3, seed=5)
    result = driver.run(duration=1.5, warmup=0.2)
    assert result.total > 0 and not result.errors
    db.checkpoint()
    assert ginja.drain(timeout=30.0)
    orders_before = db.row_count(tpcc.ORDERS)

    # A few more commits that we do NOT drain — the disaster exposure.
    for i in range(10):
        db.put("side", f"k{i}", b"v")

    # Disaster: primary gone, bucket survives as-is.
    ginja.stop(drain_timeout=30.0)
    health_failed = ginja.health()["failed"]
    assert health_failed is None, health_failed

    # The standby first checks the backup's health without downloading...
    inventory = bucket_inventory(backend)
    assert inventory.recoverable, inventory.summary()
    # ...then verifies it fully (MAC + engine recovery + a service check).
    report = verify_backup(
        backend, MYSQL_PROFILE, GINJA, engine_config=ENGINE,
        checks=[lambda replica: []
                if replica.row_count("orders") >= orders_before * 0.5
                else ["order table implausibly small"]],
    )
    assert report.ok, report.errors

    # Recover and continue the workload on the standby.
    standby = MemoryFileSystem()
    ginja2, _rep = Ginja.recover(backend, standby, MYSQL_PROFILE, GINJA)
    db2 = MiniDB.open(ginja2.fs, MYSQL_PROFILE, ENGINE)
    assert db2.row_count(tpcc.ORDERS) > 0
    tpcc2 = TPCCDatabase(db2, TPCC)
    driver2 = TPCCDriver(tpcc2, terminals=2, seed=6)
    result2 = driver2.run(duration=0.5, warmup=0.1)
    assert result2.total > 0 and not result2.errors
    assert ginja2.drain(timeout=30.0)
    ginja2.stop()
