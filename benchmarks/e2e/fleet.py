"""``fleet_ingest``: sixteen thin tenants on one set of shared pools.

The same write layers as the TPC-C cells, used differently: many lanes,
timer-flushed partial batches (T_B = 0.2 s), three threads per tenant.
Throughput has almost no headroom (the 2 ms fsync paces it); the movers
are threads, CPU per op, the cold-tenant tail and dollars.
"""

from __future__ import annotations

import random
import time

from repro.chaos.oracles import OracleVerdict
from repro.cloud.latency import WAN_LATENCY
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.transport import build_transport
from repro.common import events
from repro.common.clock import MonotonicClock
from repro.common.units import KiB, MiB
from repro.core.config import SharedPoolConfig, TenantPolicy
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.fleet import FleetManager
from repro.storage.disk import HDD_15K
from repro.storage.memory import MemoryFileSystem

from benchmarks.e2e.common import CLOUD_TIME_SCALE, Bench, bill, lane_sum
from benchmarks.e2e.measure import Sampler, Shipped, Slice, closed_loop
from benchmarks.e2e.trace import DISK, INTERPOSER, FsProxy

TENANTS = 16
DRIVERS = 2                         # = nproc
HOT_WEIGHT = 4                      # the hot third is scheduled 4x
ROW_BYTES = 200
ROWS_PER_TENANT = 2000              # keys cycle: tables stop growing
ENGINE = EngineConfig(wal_segment_size=1 * MiB,
                      auto_checkpoint_bytes=128 * KiB)
POLICY = TenantPolicy(
    batch=20, safety=200, batch_timeout=0.2, safety_timeout=10.0,
    uploaders=4, compress=True, encrypt=True, password="e2e-bench",
)


TRANSPORT_KINDS = frozenset({
    events.PUT_START, events.PUT_END, events.LIST_START, events.LIST_END,
    events.DELETE_START, events.DELETE_END, events.GET_START, events.GET_END,
    events.METER, events.RETRY, events.GC_DELETE,
})


class PacedClock(MonotonicClock):
    """Real time whose *sleeps* can be switched off.

    Handed only to the bucket's latency layer: tenants boot with the WAN
    round trips unslept (set-up is CPU work, not 50 paced PUTs), then
    ``paced`` flips on and every request sleeps its modelled latency.
    """

    paced = False

    def sleep(self, seconds: float) -> None:
        if self.paced:
            super().sleep(seconds)

    async def sleep_async(self, seconds: float) -> None:
        if self.paced:
            await super().sleep_async(seconds)


def _value_pool(rng: random.Random) -> list[bytes]:
    """256 semi-structured ~200 B rows (text compresses about 2x)."""
    words = [f"{rng.getrandbits(32):08x}" for _ in range(64)]
    return [
        " ".join(rng.choice(words) for _ in range(ROW_BYTES // 9)).encode()
        for _ in range(256)
    ]


class Driver:
    """One load thread sweeping its tenants in a fixed weighted order."""

    def __init__(self, dbs: list[MiniDB], tenants: list[int], hot: set[int],
                 seed: int):
        rng = random.Random(seed)
        self.schedule = [
            t for t in tenants for _ in range(HOT_WEIGHT if t in hot else 1)
        ]
        rng.shuffle(self.schedule)
        self._dbs = dbs
        self._values = _value_pool(rng)
        self._cursor = 0
        #: Tenant of every op completed in the current slice, in step with
        #: the slice's per-thread latencies.
        self.served: list[int] = []

    def step(self) -> bool:
        n = self._cursor
        self._cursor = n + 1
        tenant = self.schedule[n % len(self.schedule)]
        self._dbs[tenant].put(
            "rows", f"r{n % ROWS_PER_TENANT}", self._values[n % 256]
        )
        self.served.append(tenant)
        return True


class FleetBench(Bench):
    name = "fleet_ingest"
    own_threads = 2 + DRIVERS       # main, sampler, drivers

    def __init__(self, seed: int, scale: float, traced: bool):
        super().__init__(seed, scale, traced)
        self.tenants = max(4, DRIVERS * round(TENANTS * scale / DRIVERS))
        self.hot = set(range(0, self.tenants, 3))
        self.fleet: FleetManager | None = None
        self.clock = PacedClock()
        self._native_dbs: list[MiniDB] = []
        self._dbs: list[MiniDB] = []
        self._disks: list[MemoryFileSystem] = []
        self._native: list[Driver] = []
        self._protected: list[Driver] = []
        self._drained = True
        self.hot_latencies: list[float] = []
        self.cold_latencies: list[float] = []

    def _tenant_id(self, index: int) -> str:
        return f"t{index:02d}"

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self.clock.paced = False
        self._drained = True
        bucket = build_transport(
            InMemoryObjectStore(), latency=WAN_LATENCY, tracing=False,
            time_scale=CLOUD_TIME_SCALE, seed=self.seed, clock=self.clock,
        )
        self.fleet = FleetManager(bucket, SharedPoolConfig(seed=self.seed))
        self.fleet.start()
        self._dbs, self._native_dbs, self._disks = [], [], []
        for index in range(self.tenants):
            disk = MemoryFileSystem(disk=HDD_15K)
            MiniDB.create(disk, POSTGRES_PROFILE, ENGINE).close()
            ginja = self.fleet.add_tenant(
                self._tenant_id(index), disk, POSTGRES_PROFILE, POLICY
            )
            started = time.perf_counter()
            self._dbs.append(MiniDB.open(
                FsProxy(ginja.fs, self.tracer, INTERPOSER),
                POSTGRES_PROFILE, ENGINE,
            ))
            self.facts["db.open_s"] = time.perf_counter() - started
            self._disks.append(disk)
            bare = MemoryFileSystem(disk=HDD_15K)
            MiniDB.create(bare, POSTGRES_PROFILE, ENGINE).close()
            self._native_dbs.append(MiniDB.open(
                FsProxy(bare, self.tracer, DISK), POSTGRES_PROFILE, ENGINE,
            ))
        self._drain()
        self.clock.paced = True
        bank = self.fleet.meters
        for meter in (bank.total, bank.unattributed, *bank.tenants().values()):
            meter.reset()
        self._native = self._drivers(self._native_dbs)
        self._protected = self._drivers(self._dbs)
        if self.traced:
            self._instrument()

    def _drivers(self, dbs: list[MiniDB]) -> list[Driver]:
        share = self.tenants // DRIVERS
        return [
            Driver(dbs, list(range(k * share, (k + 1) * share)), self.hot,
                   self.seed * 100 + k)
            for k in range(DRIVERS)
        ]

    def _ginjas(self):
        return [self.fleet.tenant(tid) for tid in self.fleet.tenants()]

    def _instrument(self) -> None:
        tracer = self.tracer
        # The shared transport narrates on the fleet bus; the tenants'
        # own events are watched at the source (the fleet bus only sees a
        # curated forward of them, which would arrive twice).
        tracer.watch(self.fleet.bus, TRANSPORT_KINDS)
        for ginja, disk in zip(self._ginjas(), self._disks):
            self.instrument(ginja, disk)
        fleet = self.fleet
        self.sampler = Sampler({
            "pending": lambda: sum(g.pending_updates() for g in self._ginjas()),
            "inflight": lambda: fleet.reactor.health()["inflight"],
            "queued": lambda: fleet.reactor.health()["queued"],
            "lane_depth": lambda: max(
                fleet.encode_pool.lane_depth(tid) for tid in fleet.tenants()
            ),
            "backoffs": lambda: lane_sum(fleet.reactor, "backoffs"),
            "retries": lambda: lane_sum(fleet.reactor, "retries"),
        })

    def _drain(self) -> None:
        self._drained = all(
            [ginja.drain(timeout=60.0) for ginja in self._ginjas()]
        ) and self._drained

    def teardown(self) -> None:
        self.tracer.forget()
        self.fleet.stop_all(drain_timeout=30.0)
        self.fleet = None

    # -- slices ------------------------------------------------------------------

    def native_slice(self, seconds: float) -> Slice:
        result = closed_loop("native", [d.step for d in self._native], seconds)
        for driver in self._native:
            driver.served.clear()
        return result

    def protected_slice(self, seconds: float, traced: bool) -> Slice:
        stats = [db.stats for db in self._dbs]
        ginjas = self._ginjas()
        result = self.drive_protected(
            [d.step for d in self._protected], seconds, traced,
            counters=lambda: (
                sum(s.commits for s in stats),
                sum(s.checkpoints for s in stats),
                sum(s.wal_bytes for s in stats),
                sum(g.fs.calls for g in ginjas),
            ),
            drain=self._drain,
        )
        for driver, latencies in zip(self._protected, result.by_thread):
            for tenant, latency in zip(driver.served, latencies):
                (self.hot_latencies if tenant in self.hot
                 else self.cold_latencies).append(latency)
            driver.served.clear()
        return result

    # -- closing the books ---------------------------------------------------------

    def finish(self) -> Shipped:
        for db in self._dbs:
            db.checkpoint()
        self._drain()
        bank = self.fleet.meters
        shipped = bill(bank.total, self.fleet.elapsed())
        self.facts["fleet.unattributed_puts"] = bank.unattributed.puts.count
        return shipped

    # -- oracle ----------------------------------------------------------------------

    def oracle(self) -> list[OracleVerdict]:
        fleet = self.fleet
        bank = fleet.meters
        audit = fleet.fsck_sweep()

        def counts(meter):
            return (meter.puts.count, meter.puts.bytes, meter.gets.count,
                    meter.lists.count, meter.deletes.count)

        tenant_sum = tuple(
            sum(column) for column in
            zip(*(counts(m) for m in bank.tenants().values()))
        )
        stray = counts(bank.unattributed)
        reconciled = tuple(a + b for a, b in zip(tenant_sum, stray))
        return [
            OracleVerdict("drain", self._drained,
                          "every tenant drained after every slice"),
            OracleVerdict("fsck", audit.ok, audit.summary().splitlines()[0]),
            OracleVerdict(
                "meters",
                reconciled == counts(bank.total) and stray[0] == 0,
                f"tenants {tenant_sum} + unattributed {stray} vs total "
                f"{counts(bank.total)}",
            ),
        ]
