"""The event bus: typed observability events from the cloud path.

Every interesting moment in Ginja's cloud traffic — a PUT starting or
finishing, a retry, an outage, a DBMS write blocking on the Safety
limit, a checkpoint, a GC delete — is published as an
:class:`~repro.common.events.Event` on an
:class:`~repro.common.events.EventBus`.  Consumers subscribe instead of
being threaded through constructors:

* :class:`~repro.core.stats.GinjaStats` translates events into its
  counters (``GinjaStats.attach``);
* :class:`~repro.cloud.metering.RequestMeter` feeds its per-verb
  request/latency/storage accounting from ``meter`` events
  (``RequestMeter.attach``);
* :class:`TraceRecorder` (below) keeps a bounded in-memory trace that
  ``repro.cli`` can dump for the EXPERIMENTS tables.

The dependency-free kernel (the :class:`Event` type, the bus and the
kind constants) lives in :mod:`repro.common.events` so the cloud
transport can emit without importing :mod:`repro.core`; this module is
the public API and re-exports all of it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.common.events import (  # noqa: F401  (re-exported taxonomy)
    BATCH_UNLOCKED,
    CHECKPOINT_BEGIN,
    CHECKPOINT_END,
    CLAIM_QUEUED,
    CODEC,
    COMMIT_BLOCKED,
    COMMIT_UNBLOCKED,
    DB_OBJECT,
    DELETE_END,
    DELETE_START,
    DUMP_COMPLETE,
    ENCODE_DONE,
    ENCODE_MODE,
    ENCODE_QUEUED,
    Event,
    EventBus,
    GC_DELETE,
    GET_END,
    GET_START,
    LIST_END,
    LIST_START,
    METER,
    NULL_BUS,
    OUTAGE,
    OBJECT_RESTORED,
    PUT_END,
    PUT_START,
    QUEUE_DEPTH,
    RECOVERY_DONE,
    RECOVERY_PLANNED,
    RETRY,
    Subscriber,
    VERB_END_EVENTS,
    WAITER_UNLOCK,
    WAL_BATCH,
    WAL_OBJECT,
)


@dataclass
class VerbTrace:
    """Per-verb aggregate the trace recorder derives from end events."""

    count: int = 0
    errors: int = 0
    nbytes: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0
    retries: int = 0

    @property
    def mean_latency(self) -> float:
        return self.latency_total / self.count if self.count else 0.0


class TraceRecorder:
    """Bounded in-memory event trace, dumpable from ``repro.cli``.

    Keeps the last ``capacity`` events verbatim (for timelines) plus
    unbounded per-verb and per-kind aggregates, so summary tables stay
    exact even after the ring buffer wraps.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self._lock = threading.Lock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._verbs: dict[str, VerbTrace] = {}
        self._kinds: dict[str, int] = {}
        self.seen = 0

    def attach(self, bus: EventBus) -> "TraceRecorder":
        bus.subscribe(self)
        return self

    def __call__(self, event: Event) -> None:
        with self._lock:
            self.seen += 1
            self._ring.append(event)
            self._kinds[event.kind] = self._kinds.get(event.kind, 0) + 1
            if event.kind in VERB_END_EVENTS:
                trace = self._verbs.setdefault(
                    VERB_END_EVENTS[event.kind], VerbTrace()
                )
                if event.ok:
                    trace.count += 1
                    trace.nbytes += event.nbytes
                    trace.latency_total += event.latency
                    if event.latency > trace.latency_max:
                        trace.latency_max = event.latency
                else:
                    trace.errors += 1
            elif event.kind == RETRY:
                trace = self._verbs.setdefault(event.verb, VerbTrace())
                trace.retries += 1

    @property
    def dropped(self) -> int:
        """Events that fell off the ring buffer (aggregates keep them)."""
        with self._lock:
            return self.seen - len(self._ring)

    def events(self, kind: str | None = None) -> list[Event]:
        """The retained events, oldest first, optionally one kind only."""
        with self._lock:
            if kind is None:
                return list(self._ring)
            return [e for e in self._ring if e.kind == kind]

    def kind_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._kinds)

    def per_verb(self) -> dict[str, VerbTrace]:
        """Per-verb latency/retry aggregates (PUT/GET/LIST/DELETE)."""
        with self._lock:
            return {
                verb: VerbTrace(**vars(trace))
                for verb, trace in self._verbs.items()
            }

    def render(self) -> str:
        """Human-readable summary for the CLI (per-verb, then per-kind)."""
        lines = ["cloud trace (from events)"]
        lines.append(
            f"  {'verb':8} {'count':>6} {'errors':>6} {'retries':>7} "
            f"{'bytes':>10} {'mean lat':>9} {'max lat':>9}"
        )
        per_verb = self.per_verb()
        for verb in ("PUT", "GET", "LIST", "DELETE"):
            trace = per_verb.get(verb)
            if trace is None:
                continue
            lines.append(
                f"  {verb:8} {trace.count:>6} {trace.errors:>6} "
                f"{trace.retries:>7} {trace.nbytes:>10} "
                f"{trace.mean_latency:>8.3f}s {trace.latency_max:>8.3f}s"
            )
        counts = self.kind_counts()
        interesting = (
            COMMIT_BLOCKED, BATCH_UNLOCKED, CHECKPOINT_END, DUMP_COMPLETE,
            GC_DELETE, RETRY, OUTAGE,
        )
        shown = {k: counts[k] for k in interesting if k in counts}
        if shown:
            lines.append("  events: " + ", ".join(
                f"{kind}={count}" for kind, count in shown.items()
            ))
        if self.dropped:
            lines.append(f"  ({self.dropped} events beyond the ring buffer; "
                         "aggregates include them)")
        return "\n".join(lines)
