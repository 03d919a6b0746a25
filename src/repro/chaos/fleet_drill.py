"""Multi-tenant fleet drill: one tenant's disaster inside a busy fleet.

The acceptance drill for :mod:`repro.fleet`: N tenants commit
concurrently through one shared bucket and one encode/transport pool
set, and the drill proves, in order:

1. **victim_drained** / **victim_rpo_zero** — one tenant drains, suffers
   a disaster while its co-tenants keep committing, and a standby
   recovered through the fleet holds every row it acknowledged;
2. **fleet_drained** — every co-tenant drains after the concurrent
   commit phase;
3. **co_tenant_integrity** — sampled co-tenants read back their own
   last row through the shared pools;
4. **fsck_sweep_clean** — the per-tenant fsck sweep is clean and finds
   no stray keys;
5. **meters_reconcile** / **no_unattributed_puts** — per-tenant request
   meters sum exactly to the shared-store totals, the metered storage
   equals the bytes the bucket holds, and every PUT has an owner;
6. **thread_budget** (with ``thread_budget``) — a census sampling the
   live thread set through the whole run never exceeds the budget.
   All PUT and GC DELETE traffic and every T_B timer multiplex onto the
   shared reactor, every claim job onto the fleet's one encoder, and
   downloaders exist only while the victim is recovered — so
   the peak is the same at 5 tenants as at 50.

The census, the bill and the upload-overlap snapshot are diagnostics in
``extras``; the fleet runs on the system clock, so they vary run to run.
"""

from __future__ import annotations

import threading

from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.cloud.memory import InMemoryObjectStore
from repro.core.config import SharedPoolConfig, TenantPolicy
from repro.chaos.drill import PhasedDrillResult
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile, POSTGRES_PROFILE
from repro.fleet import FleetManager
from repro.storage.memory import MemoryFileSystem


class _ThreadCensus:
    """Samples the live thread set every 10 ms on a ``fleet-census``
    thread; ``data`` holds the peak count, its breakdown by thread-name
    prefix, and the number of samples."""

    def __init__(self) -> None:
        self.data = {"peak": 0, "peak_by_prefix": {}, "samples": 0}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-census", daemon=True,
        )

    def sample(self) -> None:
        threads = threading.enumerate()
        self.data["samples"] += 1
        if len(threads) > self.data["peak"]:
            self.data["peak"] = len(threads)
            breakdown: dict[str, int] = {}
            for thread in threads:
                # "ginja-reactor-io-3" -> "ginja-reactor-io"
                prefix = thread.name.rstrip("0123456789").rstrip("-_")
                breakdown[prefix] = breakdown.get(prefix, 0) + 1
            self.data["peak_by_prefix"] = dict(sorted(breakdown.items()))

    def _run(self) -> None:
        while not self._stop.wait(0.01):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_fleet_drill(
    *,
    tenants: int = 50,
    rows: int = 30,
    batch: int = 5,
    safety: int = 50,
    downloaders: int = SharedPoolConfig.downloaders,
    jobs: int = 8,
    seed: int = 0,
    profile: DBMSProfile = POSTGRES_PROFILE,
    segment_size: int = 64 * KiB,
    thread_budget: int = 0,
) -> PhasedDrillResult:
    """Run the fleet drill end to end; ``seed`` picks the victim.

    Raises :class:`ConfigError` without starting anything unless there
    is at least one tenant and one row.  Every other failure — an
    exception included — tears the fleet down (driver threads joined,
    census stopped, databases closed, pools stopped) before it returns
    or propagates.
    """
    if tenants < 1 or rows < 1:
        raise ConfigError(
            f"a fleet drill needs at least one tenant and one row "
            f"(got {tenants} tenants, {rows} rows)"
        )
    tenant_ids = [f"tenant-{i:03d}" for i in range(tenants)]
    victim = tenant_ids[seed % tenants]
    result = PhasedDrillResult("fleet", {
        "tenants": tenants, "rows": rows, "batch": batch, "safety": safety,
        "downloaders": downloaders, "jobs": jobs,
        "seed": seed, "victim": victim,
    })
    census = _ThreadCensus()
    result.extras["census"] = census.data
    census.data.update(tenants=tenants, thread_budget=thread_budget)
    bucket = InMemoryObjectStore()
    fleet = FleetManager(bucket, SharedPoolConfig(downloaders=downloaders))
    policy = TenantPolicy(
        batch=batch, safety=safety, batch_timeout=0.2, safety_timeout=10.0,
        # In-flight window per tenant lane, not threads: the shared
        # reactor multiplexes every tenant's PUTs onto one event loop,
        # so a wider window costs nothing at the thread census.
        uploaders=4,
    )
    engine = EngineConfig(wal_segment_size=segment_size)
    databases: dict[str, MiniDB] = {}
    drivers: list[threading.Thread] = []
    acked: list[str] = []  # appended from several drivers: atomic

    def value(tenant_id: str, row: int) -> bytes:
        return f"{tenant_id}-value-{row}".encode()

    def drive(slice_ids: list[str]) -> None:
        for row in range(rows):
            for tenant_id in slice_ids:
                databases[tenant_id].put("t", f"k{row}", value(tenant_id, row))
                acked.append(tenant_id)

    fleet.start()
    census.start()
    try:
        for tenant_id in tenant_ids:
            disk = MemoryFileSystem()
            MiniDB.create(disk, profile, engine).close()
            ginja = fleet.add_tenant(tenant_id, disk, profile, policy)
            databases[tenant_id] = MiniDB.open(ginja.fs, profile, engine)

        # Concurrent commit phase: a few driver threads sweep tenant
        # slices so commits from different tenants genuinely interleave
        # in the shared pools.  The victim is driven on this thread.
        others = [tid for tid in tenant_ids if tid != victim]
        workers = max(1, min(jobs, len(others)))
        for index in range(workers):
            slice_ids = others[index::workers]
            if slice_ids:
                drivers.append(threading.Thread(
                    target=drive, args=(slice_ids,),
                    name=f"fleet-driver-{index}", daemon=True,
                ))
                drivers[-1].start()

        # The victim commits its rows, drains (so RPO 0 is well-defined),
        # then suffers a disaster while its co-tenants still commit.
        drive([victim])
        drained = fleet.tenant(victim).drain(timeout=60.0)
        result.check("victim_drained", drained)
        fleet.crash_tenant(victim)
        databases.pop(victim).close()
        result.check_standby(
            "victim_rpo_zero",
            lambda fs: fleet.recover_tenant(victim, fs, profile, policy),
            {f"k{row}": value(victim, row) for row in range(rows)},
            profile, engine,
        )

        for thread in drivers:
            thread.join()
        result.committed = len(acked)
        sample = others[:: max(1, len(others) // 8)]
        intact = all(
            databases[tenant_id].get("t", f"k{rows - 1}")
            == value(tenant_id, rows - 1)
            for tenant_id in sample
        )
        # A clean close checkpoints: every co-tenant overwrites and
        # collects objects before the bucket is swept and reconciled.
        for tenant_id in others:
            databases.pop(tenant_id).close()
        result.check("fleet_drained", all(
            fleet.tenant(tenant_id).drain(timeout=60.0) for tenant_id in others
        ))
        result.check("co_tenant_integrity", intact, f"{len(sample)} sampled")

        sweep = fleet.fsck_sweep()
        result.check(
            "fsck_sweep_clean", sweep.ok and len(sweep.tenants) == tenants,
            f"{len(sweep.tenants)} tenants, "
            f"{len(sweep.stray_keys)} stray keys",
        )
        bank = fleet.meters
        unreconciled = bank.unreconciled()
        held = sum(info.size for info in bucket.list())
        stored = bank.total.stored_bytes
        result.check(
            "meters_reconcile", not unreconciled and stored == held,
            f"unreconciled (verb, field): {unreconciled}"
            + ("" if stored == held
               else f"; metered {stored} B, bucket holds {held} B"),
        )
        result.check("no_unattributed_puts", bank.unattributed.puts.count == 0,
                     f"{bank.unattributed.puts.count} unattributed PUTs")
        result.extras["bill"] = fleet.bill()
        result.extras["uploads"] = fleet.uploads.snapshot()

        census.sample()  # one steady-state sample before teardown
        census.stop()
        if thread_budget:
            result.check(
                "thread_budget", census.data["peak"] <= thread_budget,
                f"peak {census.data['peak']} threads, budget {thread_budget}",
            )
    finally:
        for thread in drivers:
            thread.join()
        census.stop()
        try:
            for db in databases.values():
                db.close()
        finally:
            fleet.stop_all()
    return result
