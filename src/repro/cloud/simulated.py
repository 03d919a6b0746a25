"""Simulated cloud: backend + faults + latency and metering.

This is the store Ginja talks to in every offline experiment.  It is
the FaultLayer of its own slice of the composable transport stack
(:mod:`repro.cloud.transport`)::

    SimulatedCloud (FaultLayer) -> MeterLayer -> backend

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

import random

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.events import EventBus
from repro.cloud.faults import FaultPolicy, NO_FAULTS
from repro.cloud.interface import ObjectStore
from repro.cloud.latency import LatencyModel, LOCAL_LATENCY
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter
from repro.cloud.transport import FaultLayer, MeterLayer


class SimulatedCloud(FaultLayer):
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
        self._backend = backend if backend is not None else InMemoryObjectStore()
        self.bus = bus if bus is not None else EventBus()
        self.meter = RequestMeter().attach(self.bus)
        rng = random.Random(seed)
        epoch = clock.now()
        super().__init__(
            MeterLayer(
                self._backend, latency, clock=clock, time_scale=time_scale,
                rng=rng, epoch=epoch, bus=self.bus,
            ),
            faults, clock=clock, rng=rng, epoch=epoch, bus=self.bus,
        )

    @property
    def backend(self) -> ObjectStore:
        return self._backend

    @property
    def clock(self) -> Clock:
        return self._clock

    def elapsed(self) -> float:
        """Store-clock seconds since this store was created."""
        return self._clock.now() - self._epoch
