"""The fleet manager: shared pools, per-tenant Ginjas, one bucket.

Ownership is split exactly along :class:`~repro.core.config
.SharedPoolConfig` / :class:`~repro.core.config.TenantPolicy` lines:

* **Fleet-owned (one per process):** the upload reactor (one
  event-loop thread running every tenant's claim jobs and driving its
  WAL and checkpoint PUTs, GC DELETEs and T_B timers, one fair-share
  lane each), the bound on restore helper threads (one semaphore; the
  threads are each restore's own and exist only while it runs), the
  transport stack
  (tracing → retry → meter over the shared backend), the fleet event
  bus, the per-tenant meter bank and stats rollup.
* **Tenant-owned (one per database):** the commit pipeline, the
  checkpointer, the codec (per-tenant keys), the cloud view, and a
  tenant-scoped event bus — queues, state machines and a timer; no
  thread.  The fleet's thread count does not depend on its tenant count.

Each tenant sees the shared bucket through a
:class:`~repro.cloud.prefix.PrefixedObjectStore` under
``tenants/<id>/``, so the per-tenant machinery is completely unaware it
is co-hosted; the shared transport layers observe fully-qualified keys,
which is what lets the :class:`~repro.cloud.metering.TenantMeterBank`
attribute every request (and later every dollar) back to its tenant.

Event flow: each tenant bus stamps its events with the tenant id and
forwards the counter-feeding kinds (:data:`FLEET_FORWARD_KINDS`) to the
fleet bus via ``publish`` (which preserves the stamp).  Forwarding is
deliberately curated — a wildcard forwarder would force every tenant's
hot path to build its per-write events even when nobody listens.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common import events
from repro.common.errors import GinjaError
from repro.common.events import Event, EventBus
from repro.core.config import GinjaConfig, SharedPoolConfig, TenantPolicy
from repro.core.ginja import Ginja
from repro.core.stats import GinjaStats
from repro.cloud.interface import ObjectStore
from repro.cloud.metering import TenantMeterBank
from repro.cloud.prefix import (
    PrefixedObjectStore,
    tenant_of_event,
    tenant_prefix,
)
from repro.cloud.pricing import PriceBook, S3_STANDARD_2017
from repro.cloud.reactor import UploadReactor
from repro.cloud.transport import build_transport
from repro.costmodel.attribution import FleetBill, attribute_fleet_costs
from repro.db.profiles import DBMSProfile
from repro.fsck.audit import FleetAuditReport, audit_fleet
from repro.storage.interface import FileSystem

#: Tenant-bus event kinds forwarded to the fleet bus: exactly what the
#: fleet's :class:`~repro.core.stats.GinjaStats` rollup consumes.  The
#: transport-side kinds (meter, put_start/put_end, retry…) never ride
#: this path — the shared stack emits them on the fleet bus directly.
FLEET_FORWARD_KINDS = frozenset(GinjaStats.HANDLED_KINDS)


class UploadOverlapTracker:
    """Cross-tenant upload batching statistics.

    Watches the shared transport's ``put_start``/``put_end`` events and
    measures how much the fleet actually overlaps its PUT traffic: the
    peak number of in-flight PUTs, the peak number of *distinct tenants*
    uploading at once, and how many PUTs began while another tenant's
    PUT was already in flight (the cross-tenant batching the shared
    process buys over N isolated ones).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}
        self._inflight_total = 0
        self.puts_observed = 0
        self.peak_inflight = 0
        self.peak_tenants = 0
        self.cross_tenant_puts = 0

    def attach(self, bus: EventBus) -> "UploadOverlapTracker":
        bus.subscribe(
            self.handle_event, kinds={events.PUT_START, events.PUT_END}
        )
        return self

    def handle_event(self, event: Event) -> None:
        tenant = tenant_of_event(event) or ""
        with self._lock:
            if event.kind == events.PUT_START:
                self.puts_observed += 1
                if any(t != tenant for t, n in self._inflight.items() if n > 0):
                    self.cross_tenant_puts += 1
                self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
                self._inflight_total += 1
                self.peak_inflight = max(self.peak_inflight, self._inflight_total)
                active = sum(1 for n in self._inflight.values() if n > 0)
                self.peak_tenants = max(self.peak_tenants, active)
            elif event.kind == events.PUT_END:
                count = self._inflight.get(tenant, 0)
                if count > 0:
                    self._inflight[tenant] = count - 1
                    self._inflight_total -= 1
                    if count == 1:
                        del self._inflight[tenant]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "puts_observed": self.puts_observed,
                "peak_inflight_puts": self.peak_inflight,
                "peak_concurrent_tenants": self.peak_tenants,
                "cross_tenant_puts": self.cross_tenant_puts,
            }


class FleetManager:
    """Run many tenant databases over one shared bucket, reactor and
    transport.

    Lifecycle::

        fleet = FleetManager(backend, SharedPoolConfig(downloaders=8))
        fleet.start()
        ginja = fleet.add_tenant("acme", fs, POSTGRES_PROFILE,
                                 TenantPolicy(batch=50, safety=500))
        ...
        fleet.stop_all()

    Tenant ids become key-prefix components (``tenants/<id>/``) and
    fair-share lane names on the shared reactor, so they must be
    non-empty and slash-free.
    """

    def __init__(
        self,
        backend: ObjectStore,
        shared: SharedPoolConfig | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.shared = shared or SharedPoolConfig()
        self.clock = clock
        #: The fleet-level bus: shared-transport events (full keys) plus
        #: the curated forward of every tenant bus (tenant-stamped).
        self.bus = EventBus()
        #: Fleet totals with per-tenant rollups (``stats.tenant(id)``).
        self.stats = GinjaStats().attach(self.bus)
        #: Per-tenant request metering with exact reconciliation.
        self.meters = TenantMeterBank().attach(self.bus)
        self.uploads = UploadOverlapTracker().attach(self.bus)
        #: A shim for the frozen benchmark's fleet sampler, which reads
        #: ``encode_pool.lane_depth(tid)``: 1 while that tenant's claim
        #: job waits on the reactor loop.  Goes with Benchmark v2.
        self.encode_pool = SimpleNamespace(lane_depth=self._claim_depth)
        #: The fleet-wide helper bound: its concurrent restores together
        #: hold at most ``downloaders`` helper threads.
        self._helper_slots = threading.BoundedSemaphore(
            self.shared.downloaders
        )
        #: One upload reactor for every tenant's claim jobs, WAL and
        #: checkpoint PUTs (tenants attach fair-share lanes, the event
        #: loop owns the reactor's default in-flight window).
        self.reactor = UploadReactor()
        #: Store-time zero of the fleet's metering window (billing
        #: ``at`` stamps and :meth:`elapsed` are relative to this).
        self.epoch = clock.now()
        #: One transport stack for every tenant's I/O.
        self.transport = build_transport(
            backend, self.shared, bus=self.bus, clock=clock, metered=True,
            epoch=self.epoch,
        )
        self._tenants: dict[str, Ginja] = {}
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the shared reactor.  A fleet runs once, like its
        reactor: build a new one to start again after :meth:`stop_all`."""
        if self._stopped:
            raise GinjaError("fleet was stopped; a stopped fleet cannot restart")
        if self._started:
            raise GinjaError("fleet already started")
        self.reactor.start()
        self._started = True

    def stop_all(self, drain_timeout: float = 30.0) -> None:
        """Drain and stop every tenant, then the shared pools.

        Tenant failures don't stop the sweep; the first one is re-raised
        after the pools are down, so a poisoned tenant can never leak
        the fleet's threads.
        """
        first_failure: BaseException | None = None
        for tenant_id in list(self.tenants()):
            try:
                self.remove_tenant(tenant_id, drain_timeout=drain_timeout)
            except BaseException as exc:  # noqa: BLE001 - keep sweeping
                if first_failure is None:
                    first_failure = exc
        if self.reactor.alive:
            self.reactor.stop()
        self._started = False
        self._stopped = True
        if first_failure is not None:
            raise first_failure

    # -- tenant management -------------------------------------------------------

    @staticmethod
    def _check_id(tenant_id: str) -> None:
        if not tenant_id or "/" in tenant_id:
            raise GinjaError(
                f"invalid tenant id {tenant_id!r}: must be non-empty and "
                "slash-free (it becomes a key-prefix component)"
            )

    def _tenant_store(self, tenant_id: str) -> PrefixedObjectStore:
        return PrefixedObjectStore(self.transport, tenant_prefix(tenant_id))

    def _tenant_bus(self, tenant_id: str) -> EventBus:
        bus = EventBus(tenant=tenant_id)
        bus.subscribe(self.bus.publish, kinds=FLEET_FORWARD_KINDS)
        return bus

    def add_tenant(
        self,
        tenant_id: str,
        inner_fs: FileSystem,
        profile: DBMSProfile,
        policy: TenantPolicy | None = None,
        *,
        mode: str = "boot",
    ) -> Ginja:
        """Admit one database under ``tenants/<tenant_id>/`` and start it.

        The tenant's flat :class:`GinjaConfig` is a view over the
        fleet's shared settings and ``policy``; a bad policy (B > S,
        encryption without a password) cannot get this far — its own
        constructor already rejected it.
        """
        self._check_id(tenant_id)
        if not self._started:
            raise GinjaError("start the fleet before adding tenants")
        config = GinjaConfig.compose(self.shared, policy)
        store = self._tenant_store(tenant_id)
        with self._lock:
            if tenant_id in self._tenants:
                raise GinjaError(f"tenant {tenant_id!r} already exists")
            ginja = Ginja(
                inner_fs,
                store,
                profile,
                config,
                clock=self.clock,
                tenant=tenant_id,
                bus=self._tenant_bus(tenant_id),
                transport=store,
                reactor=self.reactor,
            )
            self._tenants[tenant_id] = ginja
        try:
            ginja.start(mode=mode)
        except BaseException:
            with self._lock:
                self._tenants.pop(tenant_id, None)
            raise
        return ginja

    def remove_tenant(
        self,
        tenant_id: str,
        *,
        drain_timeout: float = 30.0,
        purge: bool = False,
    ) -> None:
        """Drain and stop one tenant; ``purge`` also deletes its keyspace.

        A tenant that died via :meth:`crash_tenant` (or whose pipeline
        poisoned itself) is simply dropped from the roster — its stop is
        a no-op, and its objects stay in the bucket for recovery unless
        ``purge`` says otherwise.
        """
        with self._lock:
            ginja = self._tenants.pop(tenant_id, None)
        if ginja is None:
            raise GinjaError(f"unknown tenant {tenant_id!r}")
        try:
            ginja.stop(drain_timeout=drain_timeout)
        finally:
            if purge:
                store = self._tenant_store(tenant_id)
                store.delete_many([info.key for info in store.list()])

    def crash_tenant(self, tenant_id: str) -> Ginja:
        """Simulate one tenant's disaster (§5.3) without touching its
        co-tenants or the shared pools; the instance stays on the roster
        (dead) so :meth:`recover_tenant` can replace it."""
        ginja = self.tenant(tenant_id)
        ginja.crash()
        return ginja

    def recover_tenant(
        self,
        tenant_id: str,
        fresh_fs: FileSystem,
        profile: DBMSProfile,
        policy: TenantPolicy | None = None,
        *,
        upto_ts: int | None = None,
    ):
        """Disaster-recover one tenant from its keyspace (Alg. 1).

        The restore's helper threads come out of the fleet-wide bound
        (``SharedPoolConfig.downloaders``) shared by every concurrent
        restore; one that finds no slot free fetches on its own
        thread.  Returns the new ``(ginja, report)`` pair and installs
        the instance on the roster, replacing any crashed predecessor.
        After a point-in-time restore (``upto_ts``) the instance does
        not protect (:meth:`Ginja.recover`).
        """
        self._check_id(tenant_id)
        if not self._started:
            raise GinjaError("start the fleet before recovering tenants")
        with self._lock:
            previous = self._tenants.get(tenant_id)
            if previous is not None and previous.running:
                raise GinjaError(
                    f"tenant {tenant_id!r} is still running; crash or "
                    "remove it before recovering"
                )
        config = GinjaConfig.compose(self.shared, policy)
        store = self._tenant_store(tenant_id)
        ginja, report = Ginja.recover(
            store,
            fresh_fs,
            profile,
            config,
            upto_ts=upto_ts,
            clock=self.clock,
            tenant=tenant_id,
            bus=self._tenant_bus(tenant_id),
            transport=store,
            helper_slots=self._helper_slots,
            reactor=self.reactor,
        )
        with self._lock:
            self._tenants[tenant_id] = ginja
        return ginja, report

    # -- introspection -----------------------------------------------------------

    def tenant(self, tenant_id: str) -> Ginja:
        with self._lock:
            ginja = self._tenants.get(tenant_id)
        if ginja is None:
            raise GinjaError(f"unknown tenant {tenant_id!r}")
        return ginja

    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._tenants)

    def _claim_depth(self, tenant_id: str) -> int:
        """Claim jobs of ``tenant_id`` queued on the reactor: 0 or 1."""
        with self._lock:
            ginja = self._tenants.get(tenant_id)
        return int(ginja is not None and ginja.pipeline.claim_queued)

    def health(self) -> dict:
        """Fleet-wide one-glance status: shared pools plus every tenant."""
        with self._lock:
            tenants = dict(self._tenants)
        return {
            "started": self._started,
            "tenants": {tid: g.health() for tid, g in sorted(tenants.items())},
            "encode_queue_depth": sum(map(self._claim_depth, tenants)),
            #: Each tenant's own share of that depth: its queued claim
            #: job.
            "encode_lanes": {
                tid: self._claim_depth(tid) for tid in sorted(tenants)
            },
            #: Each tenant's adaptive B/S controller, where one runs
            #: (``None`` for tenants without a latency target).  Each
            #: snapshot is taken under that tuner's lock, so concurrent
            #: retunes never tear a B/S pair mid-read.
            "tuners": {
                tid: (
                    g.pipeline.tuner.snapshot()
                    if g.pipeline.tuner is not None else None
                )
                for tid, g in sorted(tenants.items())
            },
            "uploads": self.uploads.snapshot(),
            #: In-flight / queued / backoff counts per tenant lane, from
            #: the shared upload reactor.
            "reactor": self.reactor.health(),
        }

    def fsck_sweep(self) -> FleetAuditReport:
        """Audit every tenant keyspace plus the bucket layout itself.

        Live tenants are audited against their own view and retention
        policy; keys outside every tenant keyspace are reported as
        strays (cross-tenant violations).
        """
        with self._lock:
            tenants = dict(self._tenants)
        return audit_fleet(
            self.transport,
            views={tid: g.view for tid, g in tenants.items() if g.running},
            retentions={tid: g.config.retention for tid, g in tenants.items()},
        )

    def elapsed(self) -> float:
        """Store-clock seconds since the fleet's metering epoch."""
        return self.clock.now() - self.epoch

    def bill(
        self,
        elapsed: float | None = None,
        prices: PriceBook = S3_STANDARD_2017,
    ) -> FleetBill:
        """Price the metered window per tenant (§7 economics, fleet form)."""
        if elapsed is None:
            elapsed = self.elapsed()
        return attribute_fleet_costs(self.meters, prices, elapsed)
