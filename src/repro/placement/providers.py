"""Simulated cloud providers for the placement subsystem.

Each :class:`Provider` is one independent cloud: its own backend bucket
under its own Fault→Meter transport stack (the same portion of
the chain :class:`~repro.cloud.simulated.SimulatedCloud` assembles),
with an independent :class:`~repro.cloud.faults.FaultPolicy`,
:class:`~repro.cloud.latency.LatencyModel`, RNG seed and
:class:`~repro.cloud.pricing.PriceBook`.  Retry/tracing stay *above*
the placement layer, exactly where they sit for a single cloud.

A provider can be killed wholesale (an unbounded outage — the paper's
§6 provider-scale failure) and later replaced; the placement store and
chaos drills drive both transitions.  Each provider's
:class:`~repro.cloud.metering.RequestMeter` hangs off a private bus, so
per-provider bills and the observed GET latency that ranks read sources
come straight from the existing metering layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.events import EventBus
from repro.common.units import GB
from repro.cloud.faults import FaultPolicy, Outage
from repro.cloud.interface import ObjectStore
from repro.cloud.latency import LOCAL_LATENCY, LatencyModel
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter
from repro.cloud.pricing import (
    AZURE_BLOB_2017,
    GOOGLE_STORAGE_2017,
    PriceBook,
    S3_STANDARD_2017,
)
from repro.cloud.transport import build_transport


@dataclass(frozen=True)
class ProviderSpec:
    """Declarative description of one provider's simulation knobs.

    ``faults`` is deliberately *not* shared between specs: FaultPolicy
    is mutable (outages are appended at kill time), so each spec must
    own a fresh instance.
    """

    name: str
    prices: PriceBook
    latency: LatencyModel = LOCAL_LATENCY
    faults: FaultPolicy = field(default_factory=FaultPolicy)
    seed: int = 0
    time_scale: float = 1.0


#: Price books cycled by :func:`default_provider_specs` — the three
#: providers the paper names (§5: "G INJA can be used with any of them").
_DEFAULT_BOOKS: tuple[tuple[str, PriceBook], ...] = (
    ("s3", S3_STANDARD_2017),
    ("azure", AZURE_BLOB_2017),
    ("gcs", GOOGLE_STORAGE_2017),
)


def default_provider_specs(
    n: int,
    *,
    seed: int = 0,
    latency: LatencyModel = LOCAL_LATENCY,
    time_scale: float = 1.0,
) -> list[ProviderSpec]:
    """``n`` provider specs cycling the S3/Azure/GCS price books.

    Names are suffixed past the first cycle (``s3``, ``azure``, ``gcs``,
    ``s3-2``, ...) so every provider is addressable.  Seeds derive from
    the base seed so stacks draw from distinct deterministic streams.
    """
    if n < 1:
        raise ValueError("need at least one provider")
    specs = []
    for i in range(n):
        base_name, book = _DEFAULT_BOOKS[i % len(_DEFAULT_BOOKS)]
        cycle = i // len(_DEFAULT_BOOKS)
        name = base_name if cycle == 0 else f"{base_name}-{cycle + 1}"
        specs.append(ProviderSpec(
            name=name,
            prices=book,
            latency=latency,
            faults=FaultPolicy(),
            seed=seed * 1009 + i,
            time_scale=time_scale,
        ))
    return specs


class Provider:
    """One live simulated provider: backend + transport + meter.

    The transport is the Fault→Meter stack over the backend;
    ``store`` is what the placement layer issues verbs against.
    """

    def __init__(
        self,
        spec: ProviderSpec,
        *,
        clock: Clock = SYSTEM_CLOCK,
        backend: ObjectStore | None = None,
        epoch: float | None = None,
    ):
        self.spec = spec
        self.name = spec.name
        self.prices = spec.prices
        self.clock = clock
        self.backend = backend if backend is not None else InMemoryObjectStore()
        self.epoch = clock.now() if epoch is None else epoch
        self.bus = EventBus()
        self.meter = RequestMeter().attach(self.bus)
        self.faults = spec.faults
        self.store = build_transport(
            self.backend,
            bus=self.bus,
            clock=clock,
            tracing=False,
            latency=spec.latency,
            faults=self.faults,
            metered=True,
            time_scale=spec.time_scale,
            seed=spec.seed,
            epoch=self.epoch,
        )

    # -- store time -----------------------------------------------------------

    def now(self) -> float:
        """Store-clock seconds since this provider's epoch."""
        return self.clock.now() - self.epoch

    # -- lifecycle ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """False while a scheduled outage covers the current store time."""
        return self.faults.active_outage(self.now()) is None

    def kill(self) -> None:
        """Take the whole provider down, permanently (until revived)."""
        self.faults.outages.append(Outage(self.now(), math.inf))

    def revive(self, *, wipe: bool = False) -> None:
        """Bring the provider back.  ``wipe=True`` models a *replacement*
        provider: same name and prices, empty bucket (repair must
        re-populate it from the survivors).  The wipe runs through the
        metered store so the storage integral sees the bytes leave —
        the replacement's bill must not keep charging for the dead
        provider's data."""
        self.faults.outages.clear()
        if wipe:
            self.store.delete_many([info.key for info in self.backend.list()])

    # -- read-source ranking ---------------------------------------------------

    def read_cost(self, nbytes: int) -> float:
        """Dollars to GET one object of ``nbytes`` from this provider."""
        return self.prices.get_cost(1) + self.prices.egress_cost(nbytes / GB)

    def observed_get_latency(self, nbytes: int) -> float:
        """Expected GET latency: the metering layer's observed mean when
        requests have completed, else the latency model's deterministic
        prediction (no jitter draw, so ranking never consumes RNG)."""
        if self.meter.gets.count:
            return self.meter.gets.mean_latency
        return self.spec.latency.get_latency(nbytes)


def build_providers(
    specs: list[ProviderSpec],
    *,
    clock: Clock = SYSTEM_CLOCK,
    epoch: float | None = None,
) -> list[Provider]:
    """Instantiate one :class:`Provider` per spec on a shared clock/epoch."""
    if epoch is None:
        epoch = clock.now()
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate provider names: {names}")
    return [Provider(spec, clock=clock, epoch=epoch) for spec in specs]
