"""``tpcc_relaxed`` and ``tpcc_tight``: the paper's Figure 5 cells.

Both run the same TPC-C (1 warehouse, PostgreSQL profile, 2 terminals,
HDD_15K disk, WAN latency slept at 0.1) on a ``fs_mode="native"`` stack
and on a ``fs_mode="ginja"`` stack built by the repo's own
:func:`repro.harness.build_stack`; only (B, S) and the codec differ.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from repro.chaos.oracles import Disaster, OracleVerdict, row_value, run_oracles
from repro.chaos.scenarios import Scenario
from repro.cloud.latency import WAN_LATENCY
from repro.common import events
from repro.common.units import MiB
from repro.core.config import GinjaConfig
from repro.core.verification import verify_backup
from repro.db.engine import MiniDB
from repro.harness.stack import Stack, StackConfig, build_stack
from repro.storage.disk import HDD_15K
from repro.workloads.tpcc import TPCCConfig, TPCCDatabase, TransactionMix
from repro.workloads.tpcc import transactions as tx

from benchmarks.e2e import spec
from benchmarks.e2e.common import (
    CLOUD_TIME_SCALE, Bench, bill, clone_bucket, lane_sum, tpcc_differences,
    tpcc_image,
)
from benchmarks.e2e.measure import Sampler, Shipped, Slice, closed_loop
from benchmarks.e2e.trace import DISK, INTERPOSER, FsProxy

TERMINALS = 2                       # = nproc: one process, two load threads
#: WAL bytes between checkpoints, per cell, so that each completes >= 5
#: checkpoint cycles in a run's 16 protected seconds (the database
#: sheet's "several cycles of background work"): relaxed writes ~0.7 MB/s
#: of WAL, tight ~0.26 MB/s.  Tight also needs GC to keep pace: every
#: checkpoint retires one WAL object per update and the checkpointer
#: deletes them serially at 8 ms each, so the DELETEs left over when a
#: slice ends — which every drain waits out — grow with the interval
#: (2 MiB: an 8 s final drain; 512 KiB: under 2 s).
AUTO_CHECKPOINT_BYTES = {
    spec.TPCC_RELAXED: 2 * MiB,
    spec.TPCC_TIGHT: 512 * 1024,
}
#: Seconds of marker commits before the crash (outside timing).
CRASH_BURST_SECONDS = 0.6

CELLS = {
    spec.TPCC_RELAXED: dict(batch=100, safety=1000, compress=True,
                            encrypt=True, password="e2e-bench"),
    # No dump inside a run: at the default 1.5 the plain-codec cell sits
    # on the threshold's edge, and whether the last checkpoint happens to
    # ship as a 1.6 MB dump or a 0.6 MB increment moved
    # shipped_bytes_per_op by 5 % from run to run.
    spec.TPCC_TIGHT: dict(batch=1, safety=10, dump_threshold=4.0),
}

#: TransactionMix.pick() names -> the workload layer's profiles.
_PROFILES = {
    fn.__name__: fn
    for fn in (tx.new_order, tx.payment, tx.order_status, tx.delivery,
               tx.stock_level)
}


@dataclass(frozen=True)
class CellScenario(Scenario):
    """Lets :func:`repro.chaos.oracles.run_oracles` recover a bucket
    written by a harness stack: same oracles, this cell's codec/engine."""

    cell: StackConfig | None = None

    def ginja_config(self, seed: int) -> GinjaConfig:
        return self.cell.ginja

    def engine_config(self):
        return self.cell.engine_config()


class DeckMix:
    """The TPC-C mix dealt from a shuffled deck (spec clause 5.2.4.2).

    ``TransactionMix.pick`` draws independently, so a 2 s slice's share
    of 4 % deliveries — ten times the cost of a payment — swings by a
    fifth; a deck of 100 cards holds the exact mix over any 100
    transactions and leaves only the order to chance.
    """

    def __init__(self, rng: random.Random, mix: TransactionMix):
        self._rng = rng
        self._cards = [
            name for name in _PROFILES
            for _ in range(round(getattr(mix, name) * 100))
        ]
        self._left: list[str] = []

    def pick(self) -> str:
        if not self._left:
            self._left = self._cards[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


class Side:
    """One loaded stack with its database and terminals."""

    def __init__(self, stack: Stack, db: MiniDB, seed: int):
        self.stack = stack
        self.db = db
        self.tp = TPCCDatabase(db, TPCCConfig())
        self.steps = [
            self._terminal(random.Random(seed * 1000 + index))
            for index in range(TERMINALS)
        ]

    def _terminal(self, rng: random.Random):
        tp = self.tp
        deck = DeckMix(rng, TransactionMix())

        def step() -> bool:
            return _PROFILES[deck.pick()](tp, rng, 1)

        return step


class TpccBench(Bench):
    own_threads = 2 + TERMINALS     # main, sampler, terminals

    def __init__(self, name: str, seed: int, scale: float, traced: bool):
        super().__init__(seed, scale, traced)
        self.name = name
        self.ginja_config = GinjaConfig(
            batch_timeout=1.0, safety_timeout=10.0, uploaders=5, seed=seed,
            **CELLS[name],
        )
        self.native: Side | None = None
        self.protected: Side | None = None
        self.fuse: Side | None = None
        self._disaster_events: list = []

    # -- set-up ----------------------------------------------------------------

    def _cell(self, fs_mode: str) -> StackConfig:
        return StackConfig(
            dbms="postgres", fs_mode=fs_mode, ginja=self.ginja_config,
            auto_checkpoint_bytes=AUTO_CHECKPOINT_BYTES[self.name],
            disk=HDD_15K,
            cloud_latency=WAN_LATENCY, cloud_time_scale=CLOUD_TIME_SCALE,
            seed=self.seed,
        )

    def _side(self, fs_mode: str) -> Side:
        """Load on the bare inner disk, then mount: set-up is a second of
        single-threaded work, not hundreds of paced one-update PUTs."""
        cell = self._cell(fs_mode)
        stack = build_stack(cell)
        db = MiniDB.create(stack.inner_fs, cell.profile, cell.engine_config())
        TPCCDatabase(db, TPCCConfig()).load(seed=self.seed)
        db.close()
        if stack.ginja is not None:
            stack.ginja.start(mode="boot")
        span = DISK if fs_mode == "native" else INTERPOSER
        fs = FsProxy(stack.fs, self.tracer, span)
        started = time.perf_counter()
        db = MiniDB.open(fs, cell.profile, cell.engine_config())
        if fs_mode == "ginja":
            self.facts["db.open_s"] = time.perf_counter() - started
        return Side(stack, db, self.seed)

    def setup(self) -> None:
        self.native = self._side("native")
        self.protected = self._side("ginja")
        if self.traced:
            self.fuse = self._side("fuse")
        stack = self.protected.stack
        stack.ginja.drain(timeout=60.0)
        stack.cloud.meter.reset()
        self._disaster_events = []
        stack.ginja.bus.subscribe(
            self._disaster_events.append,
            kinds={events.GC_DELETE, events.WAL_BATCH},
        )
        if self.traced:
            self._instrument()

    def _instrument(self) -> None:
        stack = self.protected.stack
        ginja = stack.ginja
        self.instrument(ginja, stack.inner_fs)
        self.tracer.watch(stack.cloud.bus)      # the bucket's meter events
        self.sampler = Sampler({
            "pending": ginja.pending_updates,
            "inflight": lambda: ginja.reactor.health()["inflight"],
            "queued": lambda: ginja.reactor.health()["queued"],
            "backoffs": lambda: lane_sum(ginja.reactor, "backoffs"),
            "retries": lambda: lane_sum(ginja.reactor, "retries"),
        })

    def teardown(self) -> None:
        self.tracer.forget()
        for side in (self.native, self.protected, self.fuse):
            if side is not None:
                side.stack.stop(drain_timeout=30.0)
        self.native = self.protected = self.fuse = None

    # -- slices ------------------------------------------------------------------

    def native_slice(self, seconds: float) -> Slice:
        return closed_loop("native", self.native.steps, seconds)

    def fuse_slice(self, seconds: float) -> Slice:
        return closed_loop("fuse", self.fuse.steps, seconds)

    def protected_slice(self, seconds: float, traced: bool) -> Slice:
        side = self.protected
        ginja = side.stack.ginja
        stats = side.db.stats
        return self.drive_protected(
            side.steps, seconds, traced,
            counters=lambda: (stats.commits, stats.checkpoints,
                              stats.wal_bytes, ginja.fs.calls),
            drain=lambda: ginja.drain(timeout=60.0),
        )

    # -- closing the books ---------------------------------------------------------

    def finish(self) -> Shipped:
        """Ship everything the measured ops dirtied, then read the meter.

        The final checkpoint closes the books: without it the bytes of
        the last partial checkpoint interval would be shipped or not
        depending on where the run happened to stop.
        """
        side = self.protected
        side.db.checkpoint()
        side.stack.ginja.drain(timeout=60.0)
        cloud = side.stack.cloud
        return bill(cloud.meter, cloud.elapsed())

    # -- oracle ----------------------------------------------------------------------

    def oracle(self) -> list[OracleVerdict]:
        """Crash the primary mid-flight and judge what the bucket holds.

        The measured TPC-C history is fully drained by ``finish``, so the
        recovered TPC-C tables must equal the primary's row for row.  The
        bounded-loss half needs an *acknowledged history with known
        values*, which TPC-C does not give from outside, so a short burst
        of marker commits (the chaos drills' ``t``/``k<i>`` rows) runs on
        the same terminals and the stack is crashed under it without a
        drain: the four chaos oracles then judge the image exactly as
        they judge a drill (loss <= S + B + 1, no phantoms, GC covered,
        batches <= B and the bill inside the envelope).
        """
        side = self.protected
        stack = side.stack
        cell = stack.config
        image = tpcc_image(side.tp)
        committed: dict[str, bytes] = {}
        ids = itertools.count()

        def marker() -> bool:
            index = next(ids)
            value = row_value(index, self.seed)
            side.db.put("t", f"k{index}", value)
            committed[f"k{index}"] = value
            return True

        closed_loop("protected", [marker] * TERMINALS, CRASH_BURST_SECONDS)
        meter, elapsed = stack.cloud.meter, stack.cloud.elapsed()
        stack.crash()
        snapshot = stack.cloud.backend.snapshot()
        scenario = CellScenario(
            name=self.name, rows=next(ids), checkpoint_at=None,
            batch=cell.ginja.batch, safety=cell.ginja.safety, cell=cell,
        )
        verdicts = run_oracles(Disaster(
            scenario=scenario, seed=self.seed, snapshot=snapshot,
            committed=committed, events=list(self._disaster_events),
            meter=meter, elapsed=elapsed,
        ))
        report = verify_backup(
            clone_bucket(snapshot), cell.profile, cell.ginja,
            engine_config=cell.engine_config(),
            checks=[lambda db: tpcc_differences(db, image)],
        )
        verdicts.append(OracleVerdict(
            "tpcc_rows", report.ok,
            report.errors[0] if report.errors
            else f"{report.total_rows} rows equal the drained primary",
        ))
        return verdicts
