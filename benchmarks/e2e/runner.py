"""One run: set up, interleave slices, close the books, judge, fold.

``run_bench`` is the whole life of one benchmark process minus argument
parsing and printing; the smoke test drives it directly so it can hand
in a sabotaged bench.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.oracles import OracleVerdict

from benchmarks.e2e import layers, spec
from benchmarks.e2e.common import Bench, timed
from benchmarks.e2e.fleet import FleetBench
from benchmarks.e2e.measure import Shipped, Slice, end_to_end
from benchmarks.e2e.restore import RestoreBench
from benchmarks.e2e.tpcc import TpccBench
from benchmarks.e2e.trace import derived_spans, share_sum_error

OUT = Path(__file__).resolve().parent / "out"
#: One (native, protected) pair at scale 1: 2 s + 4 s, four pairs in the
#: contract's 24 s.  Interference on the shared box comes in bursts of a
#: few seconds; four pairs let the better-half fold shrug one off, two
#: pairs of 4 s + 8 s could not.
PAIR_SECONDS = 6.0
#: One traced round (native, [fuse,] protected traced, protected
#: untraced): two in 24 s.  Every protected slice ends in a drain that
#: waits out T_B, so a traced run cannot afford four rounds of those.
TRACED_ROUND_SECONDS = 12.0
SHARE_SUM_TOLERANCE = 0.05


def make_bench(workload: str, seed: int, scale: float, traced: bool) -> Bench:
    if workload in spec.TPCC_WORKLOADS:
        return TpccBench(workload, seed, scale, traced)
    if workload == spec.FLEET_INGEST:
        return FleetBench(seed, scale, traced)
    if workload == spec.RESTORE:
        return RestoreBench(seed, scale, traced)
    raise SystemExit(f"unknown workload {workload!r}; one of {spec.ALL}")


@dataclass
class Run:
    """Everything one run measured, before it is folded into metrics."""

    bench: Bench
    setup_s: float = 0.0
    native: list[Slice] = field(default_factory=list)
    protected: list[Slice] = field(default_factory=list)
    fuse: list[Slice] = field(default_factory=list)
    shipped: Shipped = field(default_factory=Shipped)
    verdicts: list[OracleVerdict] = field(default_factory=list)

    @property
    def slices(self) -> list[Slice]:
        return [*self.native, *self.protected, *self.fuse]

    def protected_where(self, traced: bool) -> list[Slice]:
        return [s for s in self.protected if s.traced == traced]


@dataclass
class Result:
    workload: str
    traced: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    notes: list[str]

    def contract(self) -> dict:
        """The one JSON object the driver reads off the last line."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _set_up(bench: Bench, import_s: float, repeats: int) -> float:
    """Set up ``repeats`` times, keep the last; imports + median build."""
    times = []
    for attempt in range(repeats):
        times.append(timed(bench.setup))
        if attempt < repeats - 1:
            bench.teardown()
    return import_s + statistics.median(times)


def _interleave(run: Run, seconds: float) -> None:
    """native, [fuse,] protected, [protected untraced,] … for ``seconds``.

    An untraced run is (native, protected) pairs of 2 s + 4 s.  A traced
    run spends the same budget on rounds of native, fuse (where the bench
    has one), protected *traced* and protected *untraced*, 3 s each: the
    last two give ``trace.overhead_share`` from inside one run.  Restore
    passes last as long as they last; rounds repeat until the budget is
    used.
    """
    bench = run.bench
    traced = bench.traced
    has_fuse = traced and hasattr(bench, "fuse_slice")
    rounds = max(1, round(
        seconds / (TRACED_ROUND_SECONDS if traced else PAIR_SECONDS)
    ))
    budget = seconds / rounds
    if not traced:
        native_s, protected_s = budget / 3, budget * 2 / 3
    elif has_fuse:
        native_s = protected_s = budget / 4
    else:
        native_s, protected_s = budget / 4, budget * 3 / 8
    used = 0.0
    while True:
        spent = [bench.native_slice(native_s)]
        run.native.append(spent[0])
        if has_fuse:
            spent.append(bench.fuse_slice(native_s))
            run.fuse.append(spent[-1])
        for flag in ((True, False) if traced else (False,)):
            spent.append(bench.protected_slice(protected_s, flag))
            run.protected.append(spent[-1])
        last = sum(s.wall for s in spent)
        used += last
        if used + last / 2 >= seconds:
            return


def run_bench(bench: Bench, seconds: float, *, import_s: float = 0.0,
              setup_repeats: int | None = None) -> Result:
    """Measure ``bench`` for ``seconds`` and fold the result."""
    run = Run(bench)
    repeats = setup_repeats
    if repeats is None:
        # A traced run does not report setup_s: one set-up is enough.
        repeats = 1 if bench.traced else bench.setup_repeats
    marks = [time.perf_counter()]
    run.setup_s = _set_up(bench, import_s, repeats)
    marks.append(time.perf_counter())
    try:
        _interleave(run, seconds * bench.scale)
        marks.append(time.perf_counter())
        run.shipped = bench.finish()
        marks.append(time.perf_counter())
        run.verdicts = bench.oracle()
        marks.append(time.perf_counter())
        result = _fold(run)
    finally:
        bench.teardown()
    phases = [b - a for a, b in zip(marks, marks[1:])]
    result.notes.append(
        "wall: {:.1f}s set-up x{}, {:.1f}s slices+drains ({:.1f}s measured), "
        "{:.1f}s final drain, {:.1f}s oracle".format(
            phases[0], repeats, phases[1], sum(s.wall for s in run.slices),
            phases[2], phases[3],
        )
    )
    return result


def _fold(run: Run) -> Result:
    bench = run.bench
    notes = [str(v) for v in run.verdicts]
    for piece in run.slices:
        notes.extend(f"{piece.kind} op raised: {e}" for e in piece.errors)
    attempted = sum(s.attempted for s in run.slices)
    failed = sum(s.raised for s in run.slices)
    if not all(v.ok for v in run.verdicts):
        failed = attempted      # nothing a run with a bad image did counts
    peak = max(bench.sampler.threads or [bench.own_threads])
    if bench.traced:
        values = layers.per_layer(run)
        declared = spec.PER_LAYER
        if bench.name in spec.TPCC_WORKLOADS:
            gap = share_sum_error(values)
            notes.append(f"write-path shares vs op wall: {gap:.1%} apart")
            if gap > SHARE_SUM_TOLERANCE:
                notes.append("FAIL: shares do not sum to the op wall")
                failed = attempted
        rows = bench.tracer.write(
            OUT / f"trace_{bench.name}.jsonl",
            derived_spans(bench.tracer.events),
        )
        notes.append(f"{rows} spans in out/trace_{bench.name}.jsonl")
    else:
        pairs = list(zip(run.native, run.protected))
        values = end_to_end(pairs, run.shipped, run.setup_s,
                            peak - bench.own_threads)
        declared = spec.END_TO_END
        samples = sum(p.ops for _n, p in pairs)
        notes.append(f"{len(pairs)} pairs, {samples} protected latency "
                     f"samples ({samples // 20} beyond p95)")
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in declared
    }
    problems = spec.lint_metrics(bench.name, bench.traced, metrics)
    notes.extend(f"FAIL: {p}" for p in problems)
    if problems:
        failed = attempted
    return Result(
        workload=bench.name, traced=bench.traced,
        correct=failed == 0 and attempted > 0,
        attempted=max(1, attempted), failed=failed, metrics=metrics,
        notes=notes,
    )
