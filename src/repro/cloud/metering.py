"""Request and storage metering.

Everything the cost model (§7) and Table 3 need is collected here: how
many requests of each verb ran, how many bytes moved, the latency of
each PUT, and the integral of stored bytes over time (for $/GB-month
billing).

The meter is fed by ``meter`` events from the transport stack's
:class:`~repro.cloud.transport.MeterLayer` (subscribe with
:meth:`RequestMeter.attach`), the layer that models each request's
latency and reads the bytes it replaces or removes from the store
beneath it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common import events
from repro.common.events import Event, EventBus
from repro.cloud.prefix import tenant_of_event


@dataclass
class OpStats:
    """Aggregate statistics for one verb."""

    count: int = 0
    bytes: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0

    def record(self, nbytes: int, latency: float) -> None:
        self.count += 1
        self.bytes += nbytes
        self.latency_total += latency
        if latency > self.latency_max:
            self.latency_max = latency

    @property
    def mean_latency(self) -> float:
        return self.latency_total / self.count if self.count else 0.0

    @property
    def mean_bytes(self) -> float:
        return self.bytes / self.count if self.count else 0.0


@dataclass
class RequestMeter:
    """Thread-safe meter a :class:`~repro.cloud.simulated.SimulatedCloud`
    feeds on every request.

    Storage is integrated over *store time* (the modeled clock the store
    passes in), producing ``byte_seconds`` from which GB-month charges
    follow directly.
    """

    puts: OpStats = field(default_factory=OpStats)
    gets: OpStats = field(default_factory=OpStats)
    lists: OpStats = field(default_factory=OpStats)
    deletes: OpStats = field(default_factory=OpStats)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._stored_bytes = 0
        self._byte_seconds = 0.0
        self._last_change: float | None = None
        self._peak_stored = 0

    # -- storage integral ---------------------------------------------------

    def _accrue(self, now: float) -> None:
        if self._last_change is not None and now > self._last_change:
            self._byte_seconds += self._stored_bytes * (now - self._last_change)
        self._last_change = now

    def _adjust_storage(self, delta: int, now: float) -> None:
        self._accrue(now)
        self._stored_bytes += delta
        if self._stored_bytes > self._peak_stored:
            self._peak_stored = self._stored_bytes

    # -- event-bus subscription ---------------------------------------------

    def attach(self, bus: EventBus) -> "RequestMeter":
        """Subscribe to a bus; ``meter`` events feed the accounting.

        The subscription is filtered to ``meter`` so a bus whose only
        listeners are meters/counters reports ``wants() == False`` for
        the pipeline's per-write events and never builds them.
        """
        bus.subscribe(self.handle_event, kinds={events.METER})
        return self

    def handle_event(self, event: Event) -> None:
        """Account one ``meter`` event.

        The MeterLayer's vocabulary: ``nbytes`` is the payload size
        (bytes removed, for DELETE), ``latency`` the modeled latency,
        ``at`` the store-clock completion time, and ``count`` the bytes
        a PUT replaced.
        """
        if event.kind != events.METER:
            return
        with self._lock:
            if event.verb == "PUT":
                self.puts.record(event.nbytes, event.latency)
                self._adjust_storage(event.nbytes - event.count, event.at)
            elif event.verb == "GET":
                self.gets.record(event.nbytes, event.latency)
                self._accrue(event.at)
            elif event.verb == "LIST":
                self.lists.record(0, event.latency)
                self._accrue(event.at)
            elif event.verb == "DELETE":
                self.deletes.record(event.nbytes, event.latency)
                self._adjust_storage(-event.nbytes, event.at)

    # -- reading ------------------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        """Bytes currently stored (as tracked through this meter)."""
        with self._lock:
            return self._stored_bytes

    @property
    def peak_stored_bytes(self) -> int:
        with self._lock:
            return self._peak_stored

    def byte_seconds(self, now: float) -> float:
        """Integral of stored bytes over store time up to ``now``."""
        with self._lock:
            self._accrue(now)
            return self._byte_seconds

    def average_stored_bytes(self, start: float, now: float) -> float:
        """Mean stored bytes over the window ``[start, now]``."""
        if now <= start:
            return float(self.stored_bytes)
        return self.byte_seconds(now) / (now - start)

    def reset(self) -> None:
        """Zero the request counters (storage tracking continues)."""
        with self._lock:
            self.puts = OpStats()
            self.gets = OpStats()
            self.lists = OpStats()
            self.deletes = OpStats()


class TenantMeterBank:
    """Per-tenant request metering over one shared transport stack.

    A fleet runs every tenant's I/O through a single
    :class:`~repro.cloud.transport.MeterLayer`, whose ``meter`` events
    carry fully-qualified keys (``tenants/<id>/WAL/...``).  The bank
    routes each event twice: into ``total`` (exactly what a single
    shared :class:`RequestMeter` would have seen) and into the owning
    tenant's meter (:func:`~repro.cloud.prefix.tenant_of_event`).  Events belonging to no tenant (fleet-level LISTs,
    stray keys) land in ``unattributed``, so the invariant

        sum(per-tenant meters) + unattributed == total

    holds for every counter (:meth:`unreconciled` checks it) —
    per-tenant dollar attribution
    (:func:`repro.costmodel.attribute_fleet_costs`) reconciles exactly
    against the shared bill.
    """

    def __init__(self) -> None:
        self.total = RequestMeter()
        self.unattributed = RequestMeter()
        self._lock = threading.Lock()
        self._tenants: dict[str, RequestMeter] = {}

    def attach(self, bus: EventBus) -> "TenantMeterBank":
        bus.subscribe(self.handle_event, kinds={events.METER})
        return self

    def tenant(self, tenant_id: str) -> RequestMeter:
        """The meter for ``tenant_id`` (created on first use)."""
        with self._lock:
            meter = self._tenants.get(tenant_id)
            if meter is None:
                meter = self._tenants[tenant_id] = RequestMeter()
            return meter

    def tenants(self) -> dict[str, RequestMeter]:
        """Snapshot of the per-tenant meters."""
        with self._lock:
            return dict(self._tenants)

    def unreconciled(self) -> list[tuple[str, str]]:
        """The ``(verb, field)`` counters whose per-tenant meters plus
        ``unattributed`` do not sum to ``total``; empty when exact."""
        meters = [*self.tenants().values(), self.unattributed]
        return [
            (verb, name)
            for verb in ("puts", "gets", "lists", "deletes")
            for name in ("count", "bytes")
            if sum(getattr(getattr(m, verb), name) for m in meters)
            != getattr(getattr(self.total, verb), name)
        ]

    def handle_event(self, event: Event) -> None:
        if event.kind != events.METER:
            return
        self.total.handle_event(event)
        tenant_id = tenant_of_event(event)
        meter = self.tenant(tenant_id) if tenant_id else self.unattributed
        meter.handle_event(event)
