"""The benchmark's declarations: workloads, metrics, bounds.

This module is the single source of every metric name.  The runner
emits exactly these names, ``BENCHMARK.json`` at the repo root is
``benchmark_json()`` written to disk (the smoke test compares them),
and README.md's tables are written from the same rows.

Per-layer rows carry what the contract's ``BENCHMARK.json`` has no room
for — the layer a metric belongs to (its name up to the last dot), the
workloads it is defined on and the end-to-end metric and workload it is
expected to move — so later issues look those up here (or in
README.md), not in the JSON.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Measured seconds of one run: four (native 2 s, protected 4 s) pairs.
#: The driver makes 4 + 22 x 4 = 92 runs inside 3420 s, i.e. 37 s per run
#: *including* set-up, drains and oracles; 24 s of slices leaves ~8 s
#: for those and a margin.
RUN_SECONDS = 24

TPCC_RELAXED = "tpcc_relaxed"
TPCC_TIGHT = "tpcc_tight"
FLEET_INGEST = "fleet_ingest"
RESTORE = "restore"

WORKLOADS: dict[str, str] = {
    TPCC_RELAXED: (
        "TPC-C at B=100 S=1000 compress+encrypt: the DB almost never "
        "blocks, so the gap to native is Ginja's own cost (interposer, "
        "submit, coalesce, codec, checkpointer, GIL)"
    ),
    TPCC_TIGHT: (
        "TPC-C at B=1 S=10 plain: the DB blocks on cloud acks, so "
        "per-object overhead, reactor admission and the unlock path do "
        "the work and the codec does almost none"
    ),
    FLEET_INGEST: (
        "16 tenants (hot third 4x) on shared pools at B=20 S=200 "
        "T_B=0.2s: many thin lanes and timer-flushed partial batches; "
        "moves threads, CPU, tail latency and dollars, not throughput"
    ),
    RESTORE: (
        "Ginja.recover of a dump + WAL chain over same-region latency "
        "vs the LIST+GET network floor: the read side (GET, decode, "
        "recovery engine) of the layers the other three write through"
    ),
}
TPCC_WORKLOADS = (TPCC_RELAXED, TPCC_TIGHT)
WRITE_WORKLOADS = (TPCC_RELAXED, TPCC_TIGHT, FLEET_INGEST)
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Workloads the metric is defined on; elsewhere it is reported 0.
    applies: tuple[str, ...]
    #: "end-to-end metric (workload)" it should move, or "diagnostic".
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "interpreter start to first measured slice: imports plus the "
             "median of the repeated set-ups (build stacks, load, boot, "
             "drain, reset meters)"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "protected ops / protected slice wall, mean over the faster "
             "half of the run's protected slices"),
    EndToEnd("vs_native", "ratio", "higher", 0.25,
             "ops_per_s / the same figure of the native slices (Fig. 5's "
             "y-axis)"),
    EndToEnd("p95_vs_native", "ratio", "lower", 0.25,
             "protected op-latency p95 / native op-latency p95, each over "
             "the samples of all of that side's slices: the highest "
             "percentile that repeats (>= 75 samples beyond it on every "
             "workload)"),
    EndToEnd("shipped_bytes_per_op", "B", "lower", 0.10,
             "metered PUT bytes / ops after a final checkpoint + drain "
             "(restore: GET bytes / ops) (Table 3)"),
    EndToEnd("requests_per_kop", "1/kop", "lower", 0.10,
             "metered PUT+LIST+GET+DELETE x 1000 / ops"),
    EndToEnd("usd_per_mop", "usd", "lower", 0.10,
             "PriceBook.bill_window(meter, elapsed) on the S3 book x 1e6 / "
             "ops: the one-dollar claim per unit of work"),
    EndToEnd("threads_peak", "count", "lower", 0.10,
             "max threading.active_count() sampled at 20 Hz during "
             "protected slices, minus the benchmark's own threads"),
)


def _rows(prefix: str, applies, rows) -> tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{prefix}.{name}", unit, better, tuple(applies), moves)
        for name, unit, better, moves in rows
    )


PER_LAYER: tuple[PerLayer, ...] = (
    *_rows("workloads", ALL, (
        ("op_wall_us", "us", "lower", "absolute companion of ops_per_s"),
        ("native_ops_per_s", "1/s", "higher", "base of vs_native"),
        ("native_p50_ms", "ms", "lower", "base of workloads.p50_vs_native"),
        ("native_p95_ms", "ms", "lower", "base of p95_vs_native"),
        ("native_p99_ms", "ms", "lower", "base of workloads.p99_vs_native"),
        ("protected_p50_ms", "ms", "lower", "absolute p50"),
        ("protected_p95_ms", "ms", "lower", "absolute p95"),
        ("protected_p99_ms", "ms", "lower", "absolute p99"),
        ("p50_vs_native", "ratio", "lower",
         "diagnostic.  Demoted from end-to-end: two terminals on one commit "
         "lock make TPC-C's native latencies bimodal (~4 ms and ~10 ms, "
         "about half each), so the median sits on the edge between the "
         "modes and ranged over 17-23 % between identical runs"),
        ("p99_vs_native", "ratio", "lower",
         "diagnostic.  Demoted from end-to-end: ~15 samples beyond it on "
         "tpcc_tight; spread 8-20 % of its median on every workload (the "
         "driver measured 25 %)"),
    )),
    *_rows("workloads", TPCC_WORKLOADS, (
        ("rollbacks_share", "ratio", "lower",
         "diagnostic: by-spec aborts, not failures"),
    )),
    *_rows("db", ALL, (
        ("self_us_per_op", "us", "lower",
         "ops_per_s everywhere; must leave vs_native flat (the guard "
         "against optimising the test double)"),
        ("open_s", "s", "lower", "setup_s; ops_per_s (restore)"),
    )),
    *_rows("db", WRITE_WORKLOADS, (
        ("commits", "count", "higher", "diagnostic"),
        ("checkpoints", "count", "higher", "diagnostic"),
        ("wal_bytes_per_op", "B", "lower", "shipped_bytes_per_op"),
    )),
    *_rows("storage", ALL, (
        ("disk_us_per_op", "us", "lower",
         "ops_per_s; flat vs_native (shared by both sides)"),
    )),
    *_rows("storage.interposer", WRITE_WORKLOADS, (
        ("calls_per_op", "count", "lower",
         "vs_native, p95_vs_native (tpcc_relaxed)"),
        ("cross_us_per_op", "us", "lower",
         "vs_native, p95_vs_native (tpcc_relaxed); flat ops_per_s "
         "(tpcc_tight: paced by PUTs)"),
    )),
    *_rows("storage.interposer", TPCC_WORKLOADS, (
        ("fuse_vs_native", "ratio", "higher",
         "ceiling of vs_native (Fig. 5's FUSE bar)"),
    )),
    *_rows("core.commit_pipeline", WRITE_WORKLOADS, (
        ("submit_us_per_op", "us", "lower",
         "vs_native, process.cpu_vs_native (tpcc_relaxed)"),
        ("blocked_share", "ratio", "lower",
         "ops_per_s, p95_vs_native (tpcc_tight)"),
        ("blocked_events_per_kop", "1/kop", "lower",
         "ops_per_s (tpcc_tight)"),
        ("updates_per_batch", "count", "higher",
         "requests_per_kop, usd_per_mop (fleet_ingest)"),
        ("claim_to_unlock_p50_ms", "ms", "lower",
         "ops_per_s, workloads.p50_vs_native (tpcc_tight)"),
        ("claim_to_unlock_p99_ms", "ms", "lower",
         "p95_vs_native (tpcc_tight)"),
        ("pending_mean", "count", "lower",
         "exposure vs S: must not rise when throughput does"),
        ("pending_p99", "count", "lower",
         "exposure vs S: must not rise when throughput does"),
        ("coalesce_ratio", "ratio", "higher",
         "shipped_bytes_per_op (tpcc_relaxed, fleet_ingest)"),
    )),
    *_rows("core.codec", WRITE_WORKLOADS, (
        ("encode_us_per_op", "us", "lower", "process.cpu_vs_native (tpcc_relaxed)"),
        ("encode_mb_per_s", "MB/s", "higher", "process.cpu_vs_native (tpcc_relaxed)"),
        ("compress_ratio", "ratio", "higher",
         "shipped_bytes_per_op (tpcc_relaxed); 1.0 on tpcc_tight"),
    )),
    *_rows("core.codec", (RESTORE,), (
        ("decode_us_per_op", "us", "lower", "process.cpu_vs_native (restore)"),
    )),
    *_rows("core.encode_stage", WRITE_WORKLOADS, (
        ("queue_wait_p99_ms", "ms", "lower",
         "p95_vs_native (fleet_ingest)"),
        ("pooled_share", "ratio", "higher", "diagnostic: dispatch mode"),
        ("mode_switches", "count", "lower", "diagnostic: controller flap"),
    )),
    *_rows("core.checkpointer", WRITE_WORKLOADS, (
        ("checkpoints", "count", "higher", "diagnostic: cycles per run"),
        ("db_objects_per_checkpoint", "count", "lower",
         "requests_per_kop (tpcc_relaxed)"),
        ("db_bytes_share", "ratio", "lower",
         "shipped_bytes_per_op (tpcc_relaxed)"),
        ("checkpoint_p50_ms", "ms", "lower",
         "p95_vs_native (tpcc_relaxed): background work shows in the tail"),
        ("dumps", "count", "lower", "shipped_bytes_per_op (tpcc_relaxed)"),
        ("gc_deletes_per_kop", "1/kop", "lower", "requests_per_kop"),
    )),
    *_rows("cloud.reactor", WRITE_WORKLOADS, (
        ("inflight_mean", "count", "higher", "ops_per_s (tpcc_tight)"),
        ("inflight_max", "count", "higher", "ops_per_s (tpcc_tight)"),
        ("queued_max", "count", "lower", "p95_vs_native (fleet_ingest)"),
        ("retries", "count", "lower", "diagnostic: must stay 0"),
        ("backoffs", "count", "lower", "diagnostic: must stay 0"),
    )),
    *_rows("cloud.transport", WRITE_WORKLOADS, (
        ("put_p50_ms", "ms", "lower", "ops_per_s (tpcc_tight)"),
        ("put_p99_ms", "ms", "lower", "p95_vs_native (tpcc_tight)"),
        ("put_overhead_us", "us", "lower",
         "ops_per_s, process.cpu_vs_native (tpcc_tight)"),
        ("put_bytes_mean", "B", "lower", "shipped_bytes_per_op"),
    )),
    *_rows("cloud.transport", ALL, (
        ("lists_per_kop", "1/kop", "lower", "requests_per_kop"),
        ("deletes_per_kop", "1/kop", "lower", "requests_per_kop"),
    )),
    *_rows("cloud.transport", (RESTORE,), (
        ("get_p50_ms", "ms", "lower", "ops_per_s (restore)"),
        ("get_p99_ms", "ms", "lower", "p95_vs_native (restore)"),
    )),
    *_rows("core.recovery", (RESTORE,), (
        ("plan_ms", "ms", "lower", "ops_per_s (restore)"),
        ("get_busy_share", "ratio", "higher", "ops_per_s (restore)"),
        ("decode_busy_share", "ratio", "lower", "process.cpu_vs_native (restore)"),
        ("apply_busy_share", "ratio", "lower", "ops_per_s (restore)"),
        ("inorder_wait_p99_ms", "ms", "lower", "p95_vs_native (restore)"),
        ("stale_deletes", "count", "lower", "requests_per_kop (restore)"),
        ("reboot_ms", "ms", "lower", "ops_per_s (restore)"),
        ("mb_per_s", "MB/s", "higher", "ops_per_s, vs_native (restore)"),
    )),
    *_rows("fleet", (FLEET_INGEST,), (
        ("threads_per_tenant", "count", "lower",
         "threads_peak (fleet_ingest)"),
        ("cold_p99_vs_hot", "ratio", "lower",
         "p95_vs_native (fleet_ingest)"),
        ("share_error_max", "ratio", "lower",
         "diagnostic: lane fair share"),
        ("encode_lane_depth_max", "count", "lower",
         "p95_vs_native, process.cpu_vs_native (fleet_ingest)"),
        ("unattributed_puts", "count", "lower", "diagnostic: must stay 0"),
    )),
    *_rows("costmodel", ALL, (
        ("usd_request_share", "ratio", "lower", "usd_per_mop"),
        ("usd_month_at_run_rate", "usd", "lower", "usd_per_mop"),
    )),
    *_rows("process", ALL, (
        ("rss_peak_mb", "MB", "lower", "diagnostic"),
        ("cpu_ms_per_op", "ms", "lower", "diagnostic: absolute Table 4"),
        ("cpu_vs_native", "ratio", "lower",
         "Table 4's ratio: protected / native process-CPU per op, each over "
         "the cheaper half of its slices.  Demoted from end-to-end: it "
         "ranges over more than a tenth between identical runs (restore's "
         "reference burns almost no CPU, so there it is absolute CPU)"),
    )),
    *_rows("trace", ALL, (
        ("overhead_share", "ratio", "lower",
         "diagnostic: 1 - traced ops/s / untraced ops/s, same run"),
    )),
)


def benchmark_json() -> dict:
    """The contract document; ``BENCHMARK.json`` is this, serialised."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def lint_spec() -> list[str]:
    """Problems with the declarations themselves (empty = clean)."""
    problems: list[str] = []
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    names += list(WORKLOADS)
    for name in names:
        if not _NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is declared twice")
    for metric in (*END_TO_END, *PER_LAYER):
        if not _UNIT.fullmatch(metric.unit):
            problems.append(f"bad unit {metric.unit!r} on {metric.name}")
        if metric.better not in ("lower", "higher"):
            problems.append(f"bad direction on {metric.name}")
    if not 1 <= len(END_TO_END) <= 16:
        problems.append("need 1..16 end-to-end metrics")
    if not 1 <= len(PER_LAYER) <= 128:
        problems.append("need 1..128 per-layer metrics")
    if not any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END):
        problems.append("setup_s (s, lower) is mandatory")
    for metric in END_TO_END:
        if not 0 < metric.bound <= 0.25:
            problems.append(f"bound of {metric.name} outside (0, 0.25]")
    for why in WORKLOADS.values():
        if len(why) > 200 or "\n" in why:
            problems.append("a workload's why is not one line of <= 200")
    return problems


def lint_metrics(workload: str, traced: bool, metrics: dict) -> list[str]:
    """Problems with one run's emitted metrics (empty = clean).

    Every declared name must be present and finite.  An end-to-end
    metric may never be zero; a per-layer metric may be (a counter that
    must stay 0, or a layer the workload does not exercise).
    """
    declared = PER_LAYER if traced else END_TO_END
    problems = [
        f"undeclared metric {name}"
        for name in metrics if name not in {m.name for m in declared}
    ]
    for metric in declared:
        entry = metrics.get(metric.name)
        if entry is None:
            problems.append(f"missing {metric.name}")
            continue
        value = entry["value"]
        if entry["unit"] != metric.unit:
            problems.append(f"unit of {metric.name} drifted")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric.name} is not finite: {value!r}")
        elif not traced and value == 0:
            problems.append(f"end-to-end {metric.name} is zero on {workload}")
    return problems
