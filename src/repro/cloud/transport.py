"""The composable cloud-transport stack.

Every byte Ginja moves to or from the cloud goes through a chain of
transport layers (:class:`~repro.cloud.interface.TransportLayer`), each
adding one concern and delegating the request to the layer beneath it::

    TracingLayer        start/end events per verb (observability)
      RetryLayer        the one retry/backoff loop (repro.cloud.retry)
        FaultLayer      injected outages, throttling, transient errors
          MeterLayer    modeled latency + billing-grade accounting
            backend     InMemoryObjectStore / DirectoryObjectStore / S3

:func:`build_transport` assembles the chain declaratively — from a
:class:`~repro.core.config.GinjaConfig` for the retry policy, and from
the simulation knobs (latency model, fault policy) for the lower
layers.  :class:`~repro.cloud.simulated.SimulatedCloud` *is* the
FaultLayer of its own Fault/Meter stack, and
:class:`~repro.core.ginja.Ginja` wraps whatever store it is given with
the Tracing/Retry portion.

A layer writes no verb: the primitive requests live once, on
:class:`~repro.cloud.interface.TransportLayer`, and each passes through
a layer's one hook per colour, ``_call`` / ``_acall``.  The layer that
models a request's latency is the one that bills it, so layers
communicate *sideways* only through the event bus
(:mod:`repro.common.events`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.common import events
from repro.common.clock import Clock, SYSTEM_CLOCK, SleepAccount
from repro.common.errors import CloudUnavailable
from repro.common.events import EventBus, NULL_BUS
from repro.cloud.faults import FaultPolicy
from repro.cloud.interface import REQUEST_CLASS, ObjectStore, TransportLayer
from repro.cloud.latency import LOCAL_LATENCY, LatencyModel
from repro.cloud.retry import RetryLayer, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import GinjaConfig


class FaultLayer(TransportLayer):
    """Injects failures per a :class:`~repro.cloud.faults.FaultPolicy`.

    Consults the policy *before* delegating, so a failed request costs
    neither latency nor billing — matching a connection that is refused
    outright.  Requests failing inside a scheduled outage window emit an
    ``outage`` event so traces can distinguish provider downtime from
    transient errors.  STAT fails under the same conditions a LIST
    would (it reads the same index), so the RetryLayer above has
    something real to retry.
    """

    def __init__(
        self,
        inner: ObjectStore,
        faults: FaultPolicy,
        *,
        clock: Clock = SYSTEM_CLOCK,
        rng: random.Random | None = None,
        epoch: float | None = None,
        bus: EventBus | None = None,
    ):
        super().__init__(inner)
        self._faults = faults
        self._clock = clock
        self._rng = rng or random.Random(0)
        self._epoch = clock.now() if epoch is None else epoch
        self._bus = bus or NULL_BUS

    @property
    def faults(self) -> FaultPolicy:
        return self._faults

    def _call(self, verb, key, nbytes, request, keys=()):
        self._check(verb, key)
        return request()

    async def _acall(self, verb, key, nbytes, request, keys=()):
        self._check(verb, key)
        return await request()

    def _check(self, verb: str, key: str) -> None:
        verb = REQUEST_CLASS.get(verb, verb)
        now = self._clock.now() - self._epoch
        try:
            self._faults.check(verb, now, self._rng)
        except CloudUnavailable as exc:
            outage = self._faults.active_outage(now)
            if outage is not None:
                self._bus.emit(
                    events.OUTAGE, verb=verb, key=key, at=now,
                    detail=f"{outage.start:.0f}s-{outage.end:.0f}s",
                )
            raise exc


class MeterLayer(TransportLayer):
    """Models every request that reaches the backend, and bills it.

    The layer nearest the backend.  It draws each request's modeled
    latency from ``model`` (calibrated to the paper's Table 3; the
    default :data:`~repro.cloud.latency.LOCAL_LATENCY` is zero and
    draws nothing), paces the calling thread by ``modeled *
    time_scale`` (:meth:`Clock.pace`, so the mean cost is the model's,
    not the host's sleep granularity; the async colour is a loop
    timer), and publishes one ``meter`` event carrying the *unscaled*
    latency, so ``time_scale`` never distorts the cost model.  It reads
    the bytes a PUT replaces / a DELETE removes with ``stat`` on the
    store beneath it, the state the request acts on.  A FaultLayer
    above refuses a request before it gets here, so a failed attempt is
    neither paced nor billed; every attempt that reaches the backend
    is.  STAT passes untouched.  A
    :class:`~repro.cloud.metering.RequestMeter` subscribed to the bus
    turns the events into the bill.

    Event vocabulary: ``nbytes`` is the payload size (bytes removed, for
    DELETE — all of them, for a batch DELETE, whose ``key`` is its
    first key), ``latency`` the modeled request latency, ``at`` the
    store-clock time of completion, and ``count`` the bytes a PUT
    replaced (for the storage integral).
    """

    def __init__(
        self,
        inner: ObjectStore,
        model: LatencyModel = LOCAL_LATENCY,
        *,
        clock: Clock = SYSTEM_CLOCK,
        time_scale: float = 1.0,
        rng: random.Random | None = None,
        epoch: float | None = None,
        bus: EventBus | None = None,
    ):
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        super().__init__(inner)
        self._model = model
        self._clock = clock
        self._time_scale = time_scale
        self._account = SleepAccount()
        self._rng = rng or random.Random(0)
        self._epoch = clock.now() if epoch is None else epoch
        self._bus = bus or NULL_BUS

    @property
    def model(self) -> LatencyModel:
        return self._model

    def _now(self) -> float:
        return self._clock.now() - self._epoch

    # The order inside a request is the model's: a GET pays once its
    # size is known; a PUT pays, then reads what it replaces just
    # before it lands; a DELETE reads what it removes, then pays.  A
    # batch DELETE is one request: one draw however many keys it
    # carries, and every byte they held.

    def _call(self, verb, key, nbytes, request, keys=()):
        if verb == "STAT":
            return request()
        if verb == "GET":
            data = request()
            self._bill(verb, key, len(data), self._pay(verb, len(data)))
            return data
        removed = self._stored(keys)
        latency = self._pay(verb, nbytes)
        replaced = self._stored([key]) if verb == "PUT" else 0
        result = request()
        self._bill(verb, key, nbytes + removed, latency, replaced)
        return result

    async def _acall(self, verb, key, nbytes, request, keys=()):
        # A thousand in-flight PUTs park zero threads while paying
        # their modeled WAN latency.
        removed = self._stored(keys)
        latency = self._draw(verb, nbytes)
        if latency > 0 and self._time_scale > 0:
            await self._clock.sleep_async(latency * self._time_scale)
        replaced = self._stored([key]) if verb == "PUT" else 0
        result = await request()
        self._bill(verb, key, nbytes + removed, latency, replaced)
        return result

    def _draw(self, verb: str, nbytes: int) -> float:
        model, rng = self._model, self._rng
        if verb == "PUT":
            return model.put_latency(nbytes, rng)
        if verb == "GET":
            return model.get_latency(nbytes, rng)
        if verb == "LIST":
            return model.list_latency(rng)
        return model.delete_latency(rng)

    def _pay(self, verb: str, nbytes: int) -> float:
        latency = self._draw(verb, nbytes)
        self._clock.pace(self._account, latency * self._time_scale)
        return latency

    def _stored(self, keys) -> int:
        """Bytes ``keys`` hold in the store beneath."""
        infos = [self._inner.stat(key) for key in keys]
        return sum(info.size for info in infos if info is not None)

    def _bill(self, verb: str, key: str, nbytes: int, latency: float,
              replaced: int = 0) -> None:
        self._bus.emit(
            events.METER, verb=verb, key=key, nbytes=nbytes,
            latency=latency, at=self._now(), count=replaced,
        )


#: start/end event kinds per verb, for the TracingLayer.
_TRACE_EVENTS = {
    "PUT": (events.PUT_START, events.PUT_END),
    "GET": (events.GET_START, events.GET_END),
    "LIST": (events.LIST_START, events.LIST_END),
    "DELETE": (events.DELETE_START, events.DELETE_END),
}


class TracingLayer(TransportLayer):
    """Emits start/end events with wall-clock timing for every verb.

    Outermost layer: its latencies include retries and backoff, i.e.
    what the commit pipeline actually experienced.  Every start gets
    its end: a request that leaves any other way than by succeeding —
    the RetryLayer gave up, a striped read failed its integrity check,
    a tenant abort cancelled the task mid-await — produces an end event
    with ``ok=False`` before the exception propagates.  A batch DELETE
    is one start/end pair under its first key; STAT is not traced.
    """

    def __init__(
        self,
        inner: ObjectStore,
        *,
        bus: EventBus | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        super().__init__(inner)
        self._bus = bus or NULL_BUS
        self._clock = clock

    def _start(self, verb: str, key: str, nbytes: int) -> float:
        t0 = self._clock.now()
        self._bus.emit(
            _TRACE_EVENTS[verb][0], verb=verb, key=key, nbytes=nbytes, at=t0
        )
        return t0

    def _end(self, verb: str, key: str, nbytes: int, t0: float,
             ok: bool = True) -> None:
        now = self._clock.now()
        self._bus.emit(
            _TRACE_EVENTS[verb][1], verb=verb, key=key, nbytes=nbytes,
            ok=ok, latency=now - t0, at=now,
        )

    def _call(self, verb, key, nbytes, request, keys=()):
        if verb == "STAT":
            return request()
        t0 = self._start(verb, key, nbytes)
        try:
            result = request()
        except BaseException:
            self._end(verb, key, nbytes, t0, ok=False)
            raise
        self._end(verb, key, len(result) if verb == "GET" else nbytes, t0)
        return result

    async def _acall(self, verb, key, nbytes, request, keys=()):
        t0 = self._start(verb, key, nbytes)
        try:
            result = await request()
        except BaseException:
            self._end(verb, key, nbytes, t0, ok=False)
            raise
        self._end(verb, key, nbytes, t0)
        return result


# -- assembly ----------------------------------------------------------------

def build_transport(
    backend: ObjectStore,
    config: "GinjaConfig | None" = None,
    *,
    bus: EventBus | None = None,
    clock: Clock = SYSTEM_CLOCK,
    policy: RetryPolicy | None = None,
    tracing: bool = True,
    latency: LatencyModel | None = None,
    faults: FaultPolicy | None = None,
    metered: bool = False,
    time_scale: float = 1.0,
    seed: int | None = None,
    epoch: float | None = None,
    rng: random.Random | None = None,
) -> ObjectStore:
    """Assemble a transport stack over ``backend``, declaratively.

    Only the layers whose knobs are provided are included, always in the
    canonical order (outermost first)::

        Tracing -> Retry -> Fault -> Meter -> backend

    Args:
        backend: the store at the bottom of the stack.
        config: source of the :class:`RetryPolicy` (via
            :meth:`RetryPolicy.from_config`) when ``policy`` is not
            given explicitly.  ``None`` with no ``policy`` omits the
            RetryLayer.
        bus: event bus all layers publish to (default: none listen).
        clock: time source for sleeps, tracing and store-time epochs.
        policy: explicit retry policy; overrides ``config``.
        tracing: include the TracingLayer (outermost).
        latency: the MeterLayer's latency model; implies ``metered``.
        faults: include a FaultLayer with this policy.
        metered: include the MeterLayer (billing events); with no
            ``latency`` it models every request as free.
        time_scale: MeterLayer sleep scaling.
        seed: RNG seed when ``rng`` is not shared in by the caller;
            defaults to ``config.seed`` so every layer of a
            config-assembled stack draws from one deterministic stream.
        epoch: store-time zero for fault windows and billing timestamps
            (default: ``clock.now()`` at build time).
        rng: shared RNG for latency jitter and fault sampling — one
            stream, so composed runs are reproducible.
    """
    bus = bus or NULL_BUS
    if rng is None:
        if seed is None:
            seed = config.seed if config is not None else 0
        rng = random.Random(seed)
    if epoch is None:
        epoch = clock.now()
    store = backend
    if metered or latency is not None:
        store = MeterLayer(
            store, latency or LOCAL_LATENCY, clock=clock,
            time_scale=time_scale, rng=rng, epoch=epoch, bus=bus,
        )
    if faults is not None:
        store = FaultLayer(
            store, faults, clock=clock, rng=rng, epoch=epoch, bus=bus,
        )
    if policy is None and config is not None:
        policy = RetryPolicy.from_config(config)
    if policy is not None:
        store = RetryLayer(store, policy, clock=clock, bus=bus)
    if tracing:
        store = TracingLayer(store, bus=bus, clock=clock)
    return store


def describe_transport(store: ObjectStore) -> list[str]:
    """The class names of a stack's layers, outermost first.

    Follows ``inner`` references down to the backend; useful in tests
    and for debugging which layers a config actually assembled.
    """
    names = []
    current = store
    while True:
        names.append(type(current).__name__)
        inner = getattr(current, "inner", None)
        if inner is None or inner is current:
            return names
        current = inner
