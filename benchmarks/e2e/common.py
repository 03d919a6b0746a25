"""Pieces more than one workload uses: the bench interface, billing,
bucket cloning and the TPC-C row walk the oracles compare with."""

from __future__ import annotations

import time
from typing import Iterator

from repro.chaos.oracles import OracleVerdict
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter
from repro.cloud.pricing import S3_STANDARD_2017
from repro.workloads.tpcc import TPCCDatabase
from repro.workloads.tpcc.schema import ck, dk, hk, ik, nok, ok, olk, sk, wk

from benchmarks.e2e.measure import Sampler, Shipped, Slice, closed_loop
from benchmarks.e2e.trace import DISK, ENCODE, FS_VERBS, SUBMIT, Tracer

PRICES = S3_STANDARD_2017
#: Share of the modelled WAN latency the write workloads really sleep.
CLOUD_TIME_SCALE = 0.1
#: What ``drive_protected`` counts over traced slices, in the order its
#: ``counters`` callable returns them.
WRITE_FACTS = ("db.commits", "db.checkpoints", "db.wal_bytes",
               "interposer.calls")


class Bench:
    """One workload: two pre-loaded stacks and the slices run on them.

    The runner calls ``setup`` (possibly several times, each followed by
    ``teardown``, to take the median set-up time), then alternates
    ``native_slice``/``protected_slice``, then ``finish`` (final drain,
    meters), ``oracle`` (outside timing) and ``teardown``.
    """

    name: str
    #: Benchmark-owned threads alive during a protected slice (main,
    #: sampler, load threads) — subtracted from ``threads_peak``.
    own_threads: int
    #: Set-ups per run; ``setup_s`` reports their median.
    setup_repeats = 3

    def __init__(self, seed: int, scale: float, traced: bool):
        self.seed = seed
        self.scale = scale
        self.traced = traced
        self.tracer = Tracer()
        self.sampler = Sampler()
        #: Per-layer facts the slices accumulate (traced runs read them).
        self.facts: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def native_slice(self, seconds: float) -> Slice:
        raise NotImplementedError

    def protected_slice(self, seconds: float, traced: bool) -> Slice:
        raise NotImplementedError

    def finish(self) -> Shipped:
        raise NotImplementedError

    def oracle(self) -> list[OracleVerdict]:
        raise NotImplementedError

    def add_fact(self, name: str, value: float) -> None:
        self.facts[name] = self.facts.get(name, 0.0) + value

    # -- shared by the write workloads -----------------------------------------

    def instrument(self, ginja, disk) -> None:
        """Traced runs: watch one Ginja's bus and time its inner disk,
        ``pipeline.submit`` and ``codec.encode`` (instance wrappers)."""
        self.tracer.watch(ginja.bus)
        for verb in FS_VERBS:
            self.tracer.wrap(disk, verb, DISK)
        self.tracer.wrap(ginja.pipeline, "submit", SUBMIT,
                         note=lambda args, _r: len(args[2]))
        self.tracer.wrap(ginja.codec, "encode", ENCODE,
                         note=lambda args, blob: (len(args[0]), len(blob or b"")))

    def drive_protected(self, steps, seconds: float, traced: bool,
                        counters, drain) -> Slice:
        """One protected slice: load, then ``drain`` what it left behind.

        The tail of the slice is still on its way to the cloud when the
        load stops: its CPU belongs to these ops, its wall does not (the
        DB did not wait for it).  ``counters`` returns the
        :data:`WRITE_FACTS` totals; their growth over traced slices is
        kept for the per-layer fold.
        """
        before = counters()
        if traced:
            self.tracer.start()
        cpu0 = time.process_time()
        with self.sampler:
            result = closed_loop("protected", steps, seconds,
                                 self.tracer if traced else None)
        drain()
        result.cpu = time.process_time() - cpu0
        self.tracer.stop()
        if traced:
            for name, after, start in zip(WRITE_FACTS, counters(), before):
                self.add_fact(name, after - start)
        return result


def bill(meter: RequestMeter, elapsed: float,
         moved: int | None = None) -> Shipped:
    """Price one metered window on the S3 book; ``moved`` overrides the
    shipped byte count (restore moves GET bytes, not PUT bytes)."""
    requests = (meter.puts.count + meter.lists.count + meter.gets.count
                + meter.deletes.count)
    return Shipped(
        nbytes=meter.puts.bytes if moved is None else moved,
        requests=requests,
        puts=meter.puts.count,
        dollars=PRICES.bill_window(meter, elapsed),
        request_dollars=(
            PRICES.put_cost(meter.puts.count + meter.lists.count)
            + PRICES.get_cost(meter.gets.count)
        ),
        month_dollars=PRICES.monthly_run_rate(meter, elapsed),
        lists=meter.lists.count,
        deletes=meter.deletes.count,
    )


def lane_sum(reactor, gauge: str) -> int:
    """One ``UploadReactor.health()`` per-lane gauge, summed over lanes."""
    return sum(lane[gauge] for lane in reactor.health()["tenants"].values())


def clone_bucket(objects: dict[str, bytes]) -> InMemoryObjectStore:
    bucket = InMemoryObjectStore()
    for key, body in objects.items():
        bucket.put(key, body)
    return bucket


def tpcc_rows(tp: TPCCDatabase) -> Iterator[tuple[str, str]]:
    """Every (table, key) a TPC-C database holds, from its own counters."""
    cfg = tp.config
    for i in range(1, cfg.items + 1):
        yield tp.ITEM, ik(i)
    for w in range(1, cfg.warehouses + 1):
        yield tp.WAREHOUSE, wk(w)
        for i in range(1, cfg.items + 1):
            yield tp.STOCK, sk(w, i)
        for d in range(1, cfg.districts_per_warehouse + 1):
            yield tp.DISTRICT, dk(w, d)
            district = tp.read(tp.DISTRICT, dk(w, d))
            for c in range(1, cfg.customers_per_district + 1):
                yield tp.CUSTOMER, ck(w, d, c)
            for seq in range(1, district["d_history_seq"] + 1):
                yield tp.HISTORY, hk(w, d, seq)
            for o in range(1, district["d_next_o_id"]):
                yield tp.ORDERS, ok(w, d, o)
                order = tp.read(tp.ORDERS, ok(w, d, o))
                for line in range(1, order["o_ol_cnt"] + 1):
                    yield tp.ORDER_LINE, olk(w, d, o, line)
                if tp.db.get(tp.NEW_ORDER, nok(w, d, o)) is not None:
                    yield tp.NEW_ORDER, nok(w, d, o)


def tpcc_image(tp: TPCCDatabase) -> tuple[dict, dict]:
    """(rows, per-table counts) of a quiescent TPC-C database."""
    rows = {(t, k): tp.db.get(t, k) for t, k in tpcc_rows(tp)}
    counts = {t: tp.db.row_count(t) for t in tp.TABLES}
    return rows, counts


def tpcc_differences(db, image: tuple[dict, dict]) -> list[str]:
    """How a recovered MiniDB differs from ``image`` (empty = equal)."""
    rows, counts = image
    problems = [
        f"{table}: {db.row_count(table)} rows, expected {count}"
        for table, count in counts.items() if db.row_count(table) != count
    ]
    wrong = [key for key, value in rows.items() if db.get(*key) != value]
    if wrong:
        problems.append(f"{len(wrong)} rows differ, e.g. {wrong[:3]}")
    return problems


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
