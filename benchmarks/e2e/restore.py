"""``restore``: Figure 7's same-region recovery against the network floor.

Set-up writes one bucket deterministically (TPC-C, two warehouses, one
thread, a fixed number of transactions at B=10 with compress+encrypt and
no auto-checkpoint: a dump plus a WAL chain).  Each pair then runs, on
fresh clones of that bucket behind ``SAME_REGION_LATENCY`` slept in
full:

* the **reference pass** — LIST, plan, then GET every planned key from a
  fixed window of four threads, no decode, no apply: what the network
  alone costs;
* the **protected pass** — ``Ginja.recover`` plus ``MiniDB.open``.

An op is one planned object.  Its latency is GET issued → object
applied (protected) against GET issued → GET returned (reference).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.chaos.oracles import OracleVerdict
from repro.cloud.latency import LOCAL_LATENCY, SAME_REGION_LATENCY
from repro.cloud.simulated import SimulatedCloud
from repro.common.errors import ReproError
from repro.core.codec import ObjectCodec
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.core.recovery import plan_recovery
from repro.db.engine import MiniDB
from repro.harness.stack import StackConfig, build_stack
from repro.storage.disk import NO_DISK_LATENCY
from repro.storage.memory import MemoryFileSystem
from repro.workloads.tpcc import TPCCConfig, TPCCDatabase, TransactionMix

from benchmarks.e2e.common import (
    Bench, bill, clone_bucket, tpcc_differences, tpcc_image,
)
from benchmarks.e2e.measure import Shipped, Slice
from benchmarks.e2e.tpcc import _PROFILES
from benchmarks.e2e.trace import APPLY, DECODE, FsProxy, StoreProxy

TRANSACTIONS = 2500
WAREHOUSES = 2
REFERENCE_WINDOW = 4                # = GinjaConfig.downloaders' default
TPCC = TPCCConfig(warehouses=WAREHOUSES)


@dataclass
class Pass:
    """Timeline of one protected pass, for the per-layer fold."""

    number: int
    traced: bool
    started: float
    planned: float          # recovery_planned arrived
    done: float             # recovery_done arrived
    recovered: float        # Ginja.recover returned
    wall: float             # ... plus MiniDB.open
    requests: list          # StoreProxy.requests
    restored: list          # (arrival, key) of object_restored


class RestoreBench(Bench):
    name = "restore"
    own_threads = 2                 # main, sampler
    #: Writing the bucket is ~3 s of single-threaded CPU: once per run.
    setup_repeats = 1

    def __init__(self, seed: int, scale: float, traced: bool):
        super().__init__(seed, scale, traced)
        self.transactions = max(100, round(TRANSACTIONS * scale))
        self.config = GinjaConfig(
            batch=10, safety=1000, compress=True, encrypt=True,
            password="e2e-bench", seed=seed,
        )
        #: The bucket every pass clones (key -> body).
        self.bucket: dict[str, bytes] = {}
        self._cell: StackConfig | None = None
        self._image = None
        self._passes = 0
        self._meters: list[tuple] = []
        self._problems: list[str] = []
        self.passes: list[Pass] = []
        #: The bucket proxy of the pass in flight (decode spans ask it
        #: which object the calling thread just fetched).
        self._store: StoreProxy | None = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Write the bucket with no modelled latency anywhere: it is
        input, and its cost is CPU that ``setup_s`` reports."""
        cell = self._cell = StackConfig(
            dbms="postgres", fs_mode="ginja", ginja=self.config,
            auto_checkpoint=False, disk=NO_DISK_LATENCY,
            cloud_latency=LOCAL_LATENCY, cloud_time_scale=0.0,
            fuse_overhead=0.0, seed=self.seed,
        )
        stack = build_stack(cell)
        db = MiniDB.create(stack.inner_fs, cell.profile, cell.engine_config())
        TPCCDatabase(db, TPCC).load(seed=self.seed)
        db.close()
        stack.ginja.start(mode="boot")
        tp = TPCCDatabase(stack.open_db(), TPCC)
        rng = random.Random(self.seed)
        mix = TransactionMix()
        for index in range(self.transactions):
            _PROFILES[mix.pick(rng)](tp, rng, 1 + index % WAREHOUSES)
        stack.ginja.drain(timeout=60.0)
        self._image = tpcc_image(tp)
        self.bucket = stack.cloud.backend.snapshot()
        stack.stop()
        if self.traced:
            # The codec is built inside Ginja.recover, out of reach of an
            # instance wrapper; time the class method while tracing.
            self.tracer.wrap(
                ObjectCodec, "decode", DECODE,
                note=lambda _a, _r: (
                    self._passes, getattr(self._store.last_get, "key", "")
                ),
            )

    def teardown(self) -> None:
        self.tracer.forget()
        self.bucket = {}

    def _cloud(self) -> tuple[SimulatedCloud, StoreProxy]:
        self._passes += 1
        cloud = SimulatedCloud(
            backend=clone_bucket(self.bucket), latency=SAME_REGION_LATENCY,
            time_scale=1.0, seed=self.seed * 1000 + self._passes,
        )
        return cloud, StoreProxy(cloud)

    # -- the two passes ------------------------------------------------------------

    def native_slice(self, seconds: float) -> Slice:
        _cloud, store = self._cloud()
        result = Slice(kind="native")
        cpu0 = time.process_time()
        started = time.perf_counter()
        plan = plan_recovery(store.list(""))
        keys = iter([step.meta.key for step in plan.steps])
        lock = threading.Lock()

        def fetch() -> None:
            while True:
                with lock:
                    key = next(keys, None)
                if key is None:
                    return
                store.get(key)

        threads = [
            threading.Thread(target=fetch, name=f"e2e-reference-{i}")
            for i in range(REFERENCE_WINDOW)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall = time.perf_counter() - started
        result.cpu = time.process_time() - cpu0
        result.latencies = [
            returned - issued
            for _v, _k, issued, returned, _n in store.of("GET")
        ]
        return result

    def protected_slice(self, seconds: float, traced: bool) -> Slice:
        cloud, store = self._cloud()
        self._store = store
        target = FsProxy(MemoryFileSystem(), self.tracer, APPLY)
        result = Slice(kind="protected", traced=traced)
        restored: list[tuple[float, str]] = []
        marks: dict[str, float] = {}

        def on_event(event) -> None:
            now = time.perf_counter()
            if event.kind == "object_restored":
                restored.append((now, event.key))
            else:
                marks[event.kind] = now

        if traced:
            self.tracer.start()
        ginja = None
        cpu0 = time.process_time()
        started = time.perf_counter()
        try:
            with self.sampler:
                ginja, _report = Ginja.recover(
                    store, target, self._cell.profile, self.config,
                    on_event=on_event,
                )
                recovered = time.perf_counter()
                db = MiniDB.open(ginja.fs, self._cell.profile,
                                 self._cell.engine_config())
            result.wall = time.perf_counter() - started
            result.cpu = time.process_time() - cpu0
        except ReproError as exc:
            result.raised = 1
            result.errors.append(f"{type(exc).__name__}: {exc}")
            return result
        finally:
            self.tracer.stop()
            if ginja is not None:
                ginja.stop(drain_timeout=5.0)
        issued = {key: at for _v, key, at, _r, _n in store.of("GET")}
        result.latencies = [at - issued[key] for at, key in restored]
        # Outside timing: this repeat's database against the primary.
        try:
            self._problems.extend(tpcc_differences(db, self._image))
        except ReproError as exc:
            self._problems.append(f"{type(exc).__name__}: {exc}")
        self._meters.append((cloud.meter, cloud.elapsed()))
        self.passes.append(Pass(
            number=self._passes, traced=traced, started=started,
            planned=marks.get("recovery_planned", started),
            done=marks.get("recovery_done", recovered),
            recovered=recovered, wall=result.wall,
            requests=store.requests, restored=restored,
        ))
        return result

    # -- closing the books ---------------------------------------------------------

    def finish(self) -> Shipped:
        total = Shipped()
        for meter, elapsed in self._meters:
            total.add(bill(meter, elapsed, moved=meter.gets.bytes))
        return total

    def oracle(self) -> list[OracleVerdict]:
        return [OracleVerdict(
            "restore_rows", not self._problems,
            self._problems[0] if self._problems
            else f"{len(self._meters)} restores equal the drained primary",
        )]
