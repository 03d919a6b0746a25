"""Simulated cloud: backend + latency + faults + metering.

This is the store Ginja talks to in every offline experiment.  It is
the MeterLayer of its own slice of the composable transport stack
(:mod:`repro.cloud.transport`)::

    SimulatedCloud (MeterLayer) -> FaultLayer -> LatencyLayer -> backend

It separates *modeled* time from *real* time:

* the latency model yields the latency the request would have had
  against the real provider (calibrated to the paper's Table 3);
* the store sleeps for ``modeled_latency * time_scale`` so a five-minute
  paper experiment can run in seconds;
* the meter always records the full modeled latency, so reports keep the
  paper's units.

The :class:`~repro.cloud.metering.RequestMeter` is a subscriber on the
store's event bus (it is no longer called directly); pass your own
``bus`` to observe ``meter`` and ``outage`` events from outside.
"""

from __future__ import annotations

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.events import EventBus
from repro.cloud.faults import FaultPolicy, NO_FAULTS
from repro.cloud.interface import ObjectStore
from repro.cloud.latency import LatencyModel, LOCAL_LATENCY
from repro.cloud.metering import RequestMeter
from repro.cloud.transport import MeterLayer, build_transport


class SimulatedCloud(MeterLayer):
    """Wraps any backend with the behaviours of a real storage cloud.

    Args:
        backend: where object bodies actually live.
        latency: modeled request latency (default: none).
        faults: failure injection policy (default: never fails).
        time_scale: fraction of the modeled latency to actually sleep.
            ``1.0`` reproduces real pacing; ``0.01`` runs 100x faster
            while metering unscaled latencies; ``0`` never sleeps.
        clock: source of time for sleeping and storage accounting.
        seed: RNG seed for jitter and fault sampling (deterministic runs).
        bus: event bus the layers publish to (default: a private bus).
    """

    def __init__(
        self,
        backend: ObjectStore | None = None,
        *,
        latency: LatencyModel = LOCAL_LATENCY,
        faults: FaultPolicy = NO_FAULTS,
        time_scale: float = 1.0,
        clock: Clock = SYSTEM_CLOCK,
        seed: int = 0,
        bus: EventBus | None = None,
    ):
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        from repro.cloud.memory import InMemoryObjectStore

        self._backend = backend if backend is not None else InMemoryObjectStore()
        epoch = clock.now()
        bus = bus if bus is not None else EventBus()
        super().__init__(
            build_transport(
                self._backend,
                bus=bus,
                clock=clock,
                tracing=False,
                latency=latency,
                faults=faults,
                time_scale=time_scale,
                seed=seed,
                epoch=epoch,
            ),
            clock=clock,
            epoch=epoch,
            bus=bus,
        )
        self.bus = bus
        self.meter = RequestMeter().attach(bus)

    @property
    def backend(self) -> ObjectStore:
        return self._backend

    @property
    def clock(self) -> Clock:
        return self._clock

    def elapsed(self) -> float:
        """Store-clock seconds since this store was created."""
        return self._now()
