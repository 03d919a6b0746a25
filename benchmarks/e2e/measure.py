"""Slices, the closed-loop load generator, the sampler and the folds
that turn a run's slices into the end-to-end metrics.

One run alternates slices **native, protected, native, protected…** on
two pre-loaded stacks in one process, and reports every timing against
the native slices of the same run: absolute CPU per op drifts 10-25 %
with the host, the ratio to interleaved native holds a few percent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ReproError

from benchmarks.e2e.trace import OP, Tracer

#: One load step: perform one op; True = committed, False = a by-spec
#: rollback (not an op, not a failure).  Raising ReproError = failed op.
Step = Callable[[], bool]

SAMPLE_HZ = 20


@dataclass
class Slice:
    """What one uninterrupted stretch of load on one stack produced."""

    kind: str                       # "native" | "protected" | "fuse"
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: The same latencies kept apart per load thread, in op order.
    by_thread: list[list[float]] = field(default_factory=list)
    rollbacks: int = 0
    raised: int = 0
    traced: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.ops + self.rollbacks + self.raised

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall if self.wall > 0 else 0.0


def closed_loop(kind: str, steps: list[Step], seconds: float,
                tracer: Tracer | None = None) -> Slice:
    """Drive ``steps`` (one thread each) back to back for ``seconds``.

    Closed loop: a thread issues its next op only when the previous one
    returned, so a slower stack receives less load.  An op in flight at
    the deadline completes and counts; the slice wall runs to the last
    thread's finish.  A raising op is counted and ends its thread (a
    poisoned pipeline would otherwise spin on the same error).
    """
    result = Slice(kind=kind, traced=tracer is not None)
    gate = threading.Barrier(len(steps) + 1)
    finished = [0.0] * len(steps)
    per_thread = [Slice(kind=kind) for _ in steps]

    def drive(index: int, step: Step) -> None:
        mine = per_thread[index]
        latencies = mine.latencies
        clock = time.perf_counter
        gate.wait()
        deadline = clock() + seconds
        while True:
            started = clock()
            if started >= deadline:
                break
            token = tracer.begin(OP) if tracer is not None else None
            try:
                committed = step()
            except ReproError as exc:
                mine.raised += 1
                mine.errors.append(f"{type(exc).__name__}: {exc}")
                break
            finally:
                if token is not None:
                    tracer.end(token)
            if committed:
                latencies.append(clock() - started)
            else:
                mine.rollbacks += 1
        finished[index] = clock()

    threads = [
        threading.Thread(target=drive, args=(i, step), name=f"e2e-load-{i}",
                         daemon=True)
        for i, step in enumerate(steps)
    ]
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    gate.wait()
    wall0 = time.perf_counter()
    for thread in threads:
        thread.join()
    result.wall = max(finished) - wall0
    result.cpu = time.process_time() - cpu0
    for mine in per_thread:
        result.latencies.extend(mine.latencies)
        result.by_thread.append(mine.latencies)
        result.rollbacks += mine.rollbacks
        result.raised += mine.raised
        result.errors.extend(mine.errors)
    return result


class Sampler:
    """A 20 Hz background probe, alive only while a ``with`` block runs.

    ``threads`` is always sampled; ``probes`` (name → callable returning
    a number) only where the caller asks, i.e. in traced runs.
    """

    def __init__(self, probes: dict[str, Callable[[], float]] | None = None):
        self._probes = probes or {}
        self.threads: list[int] = []
        self.samples: dict[str, list[float]] = {n: [] for n in self._probes}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "Sampler":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="e2e-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(1.0 / SAMPLE_HZ):
            self.threads.append(threading.active_count())
            for name, probe in self._probes.items():
                self.samples[name].append(probe())

    def peak(self, name: str) -> float:
        return max(self.samples.get(name) or [0.0])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[rank]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Shipped:
    """What the protected side moved to/from the cloud, metered after
    the final drain, and what it would be billed."""

    nbytes: int = 0
    requests: int = 0
    puts: int = 0
    dollars: float = 0.0
    request_dollars: float = 0.0
    month_dollars: float = 0.0
    lists: int = 0
    deletes: int = 0

    def add(self, other: "Shipped") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def undisturbed(values: list[float], better: str) -> float:
    """Mean of the better half of per-slice ``values``.

    On a shared box interference comes in bursts and only ever makes a
    slice slower or costlier, so the better half tracks the undisturbed
    figure where a median flips as soon as half the slices are hit.  A
    real regression slows every slice and moves this just the same.
    """
    keep = sorted(values, reverse=better == "higher")[:(len(values) + 1) // 2]
    return mean(keep)


def pooled_latencies(slices: list[Slice]) -> list[float]:
    """Op latencies of every one of ``slices``.

    A tail percentile needs all the samples a run has: pooling only the
    faster half, as :func:`undisturbed` does for rates, doubled the
    spread of the p95 ratio on three workloads of four.
    """
    return [x for s in slices for x in s.latencies]


def latency_vs_native(protected: list[float], native: list[float],
                      q: float) -> float:
    """Percentile ``q`` of the protected latencies / of the native ones."""
    return ratio(percentile(protected, q), percentile(native, q))


def end_to_end(pairs: list[tuple[Slice, Slice]], shipped: Shipped,
               setup_s: float, threads_peak: int) -> dict[str, float]:
    """Fold the run's (native, protected) pairs into the end-to-end
    metrics."""
    native = [n for n, _p in pairs]
    protected = [p for _n, p in pairs]
    ops = sum(p.ops for p in protected)
    ops_per_s = undisturbed([p.ops_per_s for p in protected], "higher")
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "vs_native": ratio(
            ops_per_s, undisturbed([n.ops_per_s for n in native], "higher")
        ),
        "p95_vs_native": latency_vs_native(
            pooled_latencies(protected), pooled_latencies(native), 95
        ),
        "shipped_bytes_per_op": ratio(shipped.nbytes, ops),
        "requests_per_kop": ratio(shipped.requests * 1000.0, ops),
        "usd_per_mop": ratio(shipped.dollars * 1e6, ops),
        "threads_peak": float(threads_peak),
    }
