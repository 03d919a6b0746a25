"""Experiment runners: TPC-C over a stack, and timed recovery.

These are the verbs every benchmark is written in terms of:

* :func:`run_tpcc` — load TPC-C, drive it for a duration, return the
  paper's metrics (Tpm-C / Tpm-Total) plus cloud usage and resources;
* :func:`measure_recovery` — rebuild a database from a bucket under a
  chosen network profile and report the modeled recovery time, the way
  §8.3 measures it from an on-premises server vs. a same-region VM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cloud.interface import ObjectStore
from repro.cloud.latency import LatencyModel
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile
from repro.harness.stack import Stack
from repro.metrics.resources import ResourceMonitor, ResourceUsage, current_rss_bytes
from repro.storage.memory import MemoryFileSystem
from repro.workloads.tpcc import TPCCConfig, TPCCDatabase, TPCCDriver, TPCCResult


@dataclass
class TpccRunReport:
    """Everything one Figure-5/6 or Table-3/4 cell needs."""

    tpcc: TPCCResult
    resources: ResourceUsage
    rss_bytes: int
    engine_commits: int
    engine_checkpoints: int
    ginja_stats: dict[str, float] = field(default_factory=dict)
    cloud_puts: int = 0
    cloud_put_bytes: int = 0
    cloud_mean_object_bytes: float = 0.0
    cloud_mean_put_latency: float = 0.0

    @property
    def tpm_c(self) -> float:
        return self.tpcc.tpm_c

    @property
    def tpm_total(self) -> float:
        return self.tpcc.tpm_total


def run_tpcc(
    stack: Stack,
    *,
    duration: float = 4.0,
    warmup: float = 0.5,
    terminals: int = 5,
    tpcc_config: TPCCConfig | None = None,
    checkpoint_mid_run: bool = False,
    seed: int = 11,
) -> TpccRunReport:
    """Build, load and drive TPC-C on an assembled stack.

    The stack is shut down (drained) before the report is produced, so
    cloud counters include everything the run generated.
    """
    db = stack.create_db()
    tpcc = TPCCDatabase(db, tpcc_config or TPCCConfig())
    tpcc.load(seed=seed)
    db.checkpoint()  # persist the initial population before measuring
    if stack.ginja is not None:
        stack.ginja.drain(timeout=60.0)
        stack.cloud.meter.reset()  # measure only the driven workload
    driver = TPCCDriver(tpcc, terminals=terminals, seed=seed)
    monitor = ResourceMonitor()
    monitor.start()
    if checkpoint_mid_run:
        result = _run_with_mid_checkpoint(driver, db, duration, warmup)
    else:
        result = driver.run(duration=duration, warmup=warmup)
    usage = monitor.stop()
    report = TpccRunReport(
        tpcc=result,
        resources=usage,
        rss_bytes=current_rss_bytes(),
        engine_commits=db.stats.commits,
        engine_checkpoints=db.stats.checkpoints,
    )
    if stack.ginja is not None:
        stack.ginja.drain(timeout=60.0)
        report.ginja_stats = stack.ginja.stats.snapshot()
        meter = stack.cloud.meter
        report.cloud_puts = meter.puts.count
        report.cloud_put_bytes = meter.puts.bytes
        report.cloud_mean_object_bytes = meter.puts.mean_bytes
        report.cloud_mean_put_latency = meter.puts.mean_latency
    stack.stop()
    return report


def _run_with_mid_checkpoint(driver, db, duration, warmup) -> "TPCCResult":
    """Drive TPC-C with one checkpoint kicked at mid-run, approximating
    the periodic checkpoints of a five-minute paper run."""
    import threading

    def kick():
        time.sleep(warmup + duration / 2)
        try:
            db.checkpoint()
        except Exception:
            pass

    kicker = threading.Thread(target=kick, daemon=True)
    kicker.start()
    result = driver.run(duration=duration, warmup=warmup)
    kicker.join(timeout=30.0)
    return result


@dataclass
class RecoveryTimeReport:
    """§8.3's metric: how long until the DBMS is running again."""

    modeled_network_seconds: float
    compute_seconds: float
    bytes_downloaded: int
    objects_downloaded: int
    files_restored: int
    recovered_rows: int

    @property
    def total_seconds(self) -> float:
        return self.modeled_network_seconds + self.compute_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


def measure_recovery(
    source_bucket: ObjectStore,
    profile: DBMSProfile,
    *,
    ginja_config: GinjaConfig | None = None,
    engine_config: EngineConfig | None = None,
    network: LatencyModel,
    row_table: str | None = None,
) -> RecoveryTimeReport:
    """Recover a database from ``source_bucket`` over ``network``.

    Network time is fully modeled (metered, not slept): the GETs of a
    recovery are sequential, so the modeled recovery time is the sum of
    the modeled request latencies plus the measured local compute time.
    """
    cloud = SimulatedCloud(
        backend=source_bucket, latency=network, time_scale=0.0
    )
    target = MemoryFileSystem()
    started = time.monotonic()
    ginja, report = Ginja.recover(cloud, target, profile, ginja_config)
    db = MiniDB.open(target, profile, engine_config)
    compute = time.monotonic() - started
    meter = cloud.meter
    modeled = (
        meter.gets.latency_total
        + meter.lists.latency_total
        + meter.deletes.latency_total
    )
    rows = db.row_count(row_table) if row_table else sum(
        db.row_count(t) for t in db.tables()
    )
    ginja.stop(drain_timeout=5.0)
    return RecoveryTimeReport(
        modeled_network_seconds=modeled,
        compute_seconds=compute,
        bytes_downloaded=meter.gets.bytes,
        objects_downloaded=meter.gets.count,
        files_restored=report.files_restored,
        recovered_rows=rows,
    )
