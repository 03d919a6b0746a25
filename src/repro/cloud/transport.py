"""The composable cloud-transport stack.

Every byte Ginja moves to or from the cloud goes through a chain of
:class:`~repro.cloud.interface.ObjectStore` *layers*, each adding one
concern and delegating the verb to the layer beneath it::

    TracingLayer        start/end events per verb (observability)
      RetryLayer        the one retry/backoff loop (repro.cloud.retry)
        MeterLayer      billing-grade request/storage accounting
          FaultLayer    injected outages, throttling, transient errors
            LatencyLayer  calibrated WAN latency model (+ time_scale)
              backend   InMemoryObjectStore / DirectoryObjectStore / S3

:func:`build_transport` assembles the chain declaratively — from a
:class:`~repro.core.config.GinjaConfig` for the retry policy, and from
the simulation knobs (latency model, fault policy) for the lower
layers.  :class:`~repro.cloud.simulated.SimulatedCloud` *is* the
MeterLayer of its own Fault/Latency stack, and
:class:`~repro.core.ginja.Ginja` wraps whatever store it is given with
the Tracing/Retry portion.

Each layer implements the primitive requests of
:class:`~repro.cloud.interface.ObjectStore` it adds behaviour to —
``put`` / ``aput``, ``get``, ``list``, ``stat`` and the batch DELETE
``_delete_request`` / ``_adelete_request`` — and inherits every derived
verb (``delete``, ``delete_many``, ``adelete_many``, ``exists``).

Layers communicate *sideways* only through the event bus
(:mod:`repro.common.events`) and through a small context-variable record
the LatencyLayer leaves for the MeterLayer (the modeled latency of the
request that just completed, which billing must use instead of wall
time so ``time_scale`` does not distort the cost model).
"""

from __future__ import annotations

import contextvars
import random
from typing import TYPE_CHECKING

from repro.common import events
from repro.common.clock import Clock, SYSTEM_CLOCK, SleepAccount
from repro.common.errors import CloudUnavailable
from repro.common.events import EventBus, NULL_BUS
from repro.cloud.faults import FaultPolicy
from repro.cloud.interface import ObjectInfo, ObjectStore
from repro.cloud.latency import LatencyModel
from repro.cloud.retry import RetryLayer, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import GinjaConfig


class TransportLayer(ObjectStore):
    """Base class for layers: delegates the synchronous primitive
    requests to the inner store.  The async colour is the interface's
    executor default, so a subclass that overrides only ``put`` is
    still honoured on the reactor's path.

    Subclasses override only the requests they add behaviour to.
    ``stat`` (and ``exists`` through it) is a *listing-class* read:
    the RetryLayer retries it under the LIST budget and the FaultLayer
    subjects it to LIST faults, but it is neither metered nor
    latency-modeled (real providers answer it from the same index a
    LIST reads, and billing counts only the four verbs).
    """

    def __init__(self, inner: ObjectStore):
        self._inner = inner

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    def put(self, key: str, data: bytes) -> None:
        self._inner.put(key, data)

    def get(self, key: str) -> bytes:
        return self._inner.get(key)

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        return self._inner.list(prefix)

    def stat(self, key: str) -> ObjectInfo | None:
        return self._inner.stat(key)

    def _delete_request(self, keys: list[str]) -> None:
        self._inner.delete_many(keys)


# -- LatencyLayer → MeterLayer context handoff -------------------------------
#
# The meter must record the *modeled* latency (what the request would
# have cost against the real provider), not the scaled wall time the
# LatencyLayer actually slept.  The layers may be separated by a
# FaultLayer, so the value travels in a context variable the
# LatencyLayer writes and the MeterLayer consumes.  ``adjusted``
# carries the bytes a PUT replaced / a DELETE removed, for the storage
# integral.
#
# A ContextVar, not a thread-local: the upload reactor multiplexes many
# concurrent PUTs on one event-loop thread, and each asyncio task runs
# in its own copied context, so interleaved requests cannot corrupt
# each other's billing.  Plain threads keep per-thread semantics (each
# thread has an independent context), so the synchronous path is
# unchanged.

_modeled: contextvars.ContextVar[tuple[float, int]] = contextvars.ContextVar(
    "repro_modeled_latency", default=(0.0, 0)
)


def _set_modeled(latency: float, adjusted: int = 0) -> None:
    _modeled.set((latency, adjusted))


def _take_modeled() -> tuple[float, int]:
    latency, adjusted = _modeled.get()
    _modeled.set((0.0, 0))
    return latency, adjusted


class LatencyLayer(TransportLayer):
    """Models request latency: a synchronous verb paces its thread by
    ``modeled * time_scale`` seconds (:meth:`Clock.pace`, so the mean
    cost is the model's, not the host's sleep granularity); the async
    twins are loop timers.

    Also measures the bytes a PUT replaces / a DELETE removes (it is the
    layer closest to the backend, so its listing reflects the state the
    verb actually acts on) and publishes both through the
    context-variable handoff for the MeterLayer above.
    """

    def __init__(
        self,
        inner: ObjectStore,
        model: LatencyModel,
        *,
        clock: Clock = SYSTEM_CLOCK,
        time_scale: float = 1.0,
        rng: random.Random | None = None,
        epoch: float | None = None,
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

    @property
    def model(self) -> LatencyModel:
        return self._model

    def _pay(self, modeled_latency: float) -> float:
        self._clock.pace(self._account, modeled_latency * self._time_scale)
        return modeled_latency

    def _existing_size(self, key: str) -> int:
        info = self._inner.stat(key)
        return 0 if info is None else info.size

    def put(self, key: str, data: bytes) -> None:
        latency = self._pay(self._model.put_latency(len(data), self._rng))
        replaced = self._existing_size(key)
        self._inner.put(key, data)
        _set_modeled(latency, replaced)

    async def aput(self, key: str, data: bytes) -> None:
        # Async twin of :meth:`put`: the latency sleep is a loop timer
        # (``sleep_async``), so a thousand in-flight PUTs park zero
        # threads while paying their modeled WAN latency.
        modeled = self._model.put_latency(len(data), self._rng)
        if modeled > 0 and self._time_scale > 0:
            await self._clock.sleep_async(modeled * self._time_scale)
        replaced = self._existing_size(key)
        await self._inner.aput(key, data)
        _set_modeled(modeled, replaced)

    def get(self, key: str) -> bytes:
        data = self._inner.get(key)
        latency = self._pay(self._model.get_latency(len(data), self._rng))
        _set_modeled(latency)
        return data

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        latency = self._pay(self._model.list_latency(self._rng))
        infos = self._inner.list(prefix)
        _set_modeled(latency)
        return infos

    # A batch DELETE is one request: one latency draw however many keys
    # it carries, and the exact bytes it removes for the meter above.

    def _delete_request(self, keys: list[str]) -> None:
        removed = sum(self._existing_size(key) for key in keys)
        latency = self._pay(self._model.delete_latency(self._rng))
        self._inner.delete_many(keys)
        _set_modeled(latency, removed)

    async def _adelete_request(self, keys: list[str]) -> None:
        removed = sum(self._existing_size(key) for key in keys)
        modeled = self._model.delete_latency(self._rng)
        if modeled > 0 and self._time_scale > 0:
            await self._clock.sleep_async(modeled * self._time_scale)
        await self._inner.adelete_many(keys)
        _set_modeled(modeled, removed)


class FaultLayer(TransportLayer):
    """Injects failures per a :class:`~repro.cloud.faults.FaultPolicy`.

    Consults the policy *before* delegating, so a failed request costs
    neither latency nor billing — matching a connection that is refused
    outright.  Requests failing inside a scheduled outage window emit an
    ``outage`` event so traces can distinguish provider downtime from
    transient errors.
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

    def _check(self, verb: str, key: str) -> None:
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

    def put(self, key: str, data: bytes) -> None:
        self._check("PUT", key)
        self._inner.put(key, data)

    async def aput(self, key: str, data: bytes) -> None:
        self._check("PUT", key)
        await self._inner.aput(key, data)

    def get(self, key: str) -> bytes:
        self._check("GET", key)
        return self._inner.get(key)

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        self._check("LIST", prefix)
        return self._inner.list(prefix)

    def _delete_request(self, keys: list[str]) -> None:
        self._check("DELETE", keys[0])
        self._inner.delete_many(keys)

    async def _adelete_request(self, keys: list[str]) -> None:
        self._check("DELETE", keys[0])
        await self._inner.adelete_many(keys)

    # STAT fails under the same conditions a LIST would (it reads the
    # same index), so the RetryLayer's LIST budget above has something
    # real to retry.
    def stat(self, key: str) -> ObjectInfo | None:
        self._check("LIST", key)
        return self._inner.stat(key)


class MeterLayer(TransportLayer):
    """Publishes one ``meter`` event per *successful* request.

    Sits above the FaultLayer so failed requests are never billed, and
    reads the modeled latency the LatencyLayer left in the
    context-variable handoff.  A
    :class:`~repro.cloud.metering.RequestMeter` subscribed to the bus
    turns these events into the bill.

    Event vocabulary: ``nbytes`` is the payload size (bytes removed, for
    DELETE — all of them, for a batch DELETE, whose ``key`` is its
    first key), ``latency`` the modeled request latency, ``at`` the
    store-clock time of completion, and ``count`` the bytes a PUT
    replaced (for the storage integral).
    """

    def __init__(
        self,
        inner: ObjectStore,
        *,
        clock: Clock = SYSTEM_CLOCK,
        epoch: float | None = None,
        bus: EventBus | None = None,
    ):
        super().__init__(inner)
        self._clock = clock
        self._epoch = clock.now() if epoch is None else epoch
        self._bus = bus or NULL_BUS

    def _now(self) -> float:
        return self._clock.now() - self._epoch

    def put(self, key: str, data: bytes) -> None:
        _set_modeled(0.0)
        self._inner.put(key, data)
        latency, replaced = _take_modeled()
        self._bus.emit(
            events.METER, verb="PUT", key=key, nbytes=len(data),
            latency=latency, at=self._now(), count=replaced,
        )

    async def aput(self, key: str, data: bytes) -> None:
        # The handoff is a ContextVar, so the set→await→take window is
        # safe even with many PUTs interleaved on one loop thread.
        _set_modeled(0.0)
        await self._inner.aput(key, data)
        latency, replaced = _take_modeled()
        self._bus.emit(
            events.METER, verb="PUT", key=key, nbytes=len(data),
            latency=latency, at=self._now(), count=replaced,
        )

    def get(self, key: str) -> bytes:
        _set_modeled(0.0)
        data = self._inner.get(key)
        latency, _ = _take_modeled()
        self._bus.emit(
            events.METER, verb="GET", key=key, nbytes=len(data),
            latency=latency, at=self._now(),
        )
        return data

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        _set_modeled(0.0)
        infos = self._inner.list(prefix)
        latency, _ = _take_modeled()
        self._bus.emit(
            events.METER, verb="LIST", key=prefix,
            latency=latency, at=self._now(),
        )
        return infos

    def _delete_request(self, keys: list[str]) -> None:
        _set_modeled(0.0)
        self._inner.delete_many(keys)
        self._deleted(keys[0])

    async def _adelete_request(self, keys: list[str]) -> None:
        _set_modeled(0.0)
        await self._inner.adelete_many(keys)
        self._deleted(keys[0])

    def _deleted(self, key: str) -> None:
        """One DELETE request completed — however many keys it carried,
        it is metered as one: ``key`` (its first key) attributes it to
        its tenant, ``nbytes`` is every byte it removed."""
        latency, removed = _take_modeled()
        self._bus.emit(
            events.METER, verb="DELETE", key=key, nbytes=removed,
            latency=latency, at=self._now(),
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
    is one start/end pair under its first key.
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

    def _traced(self, verb: str, key: str, nbytes: int, request):
        t0 = self._start(verb, key, nbytes)
        try:
            result = request()
        except BaseException:
            self._end(verb, key, nbytes, t0, ok=False)
            raise
        self._end(verb, key, len(result) if verb == "GET" else nbytes, t0)
        return result

    async def _atraced(self, verb: str, key: str, nbytes: int, request):
        t0 = self._start(verb, key, nbytes)
        try:
            await request()
        except BaseException:
            self._end(verb, key, nbytes, t0, ok=False)
            raise
        self._end(verb, key, nbytes, t0)

    def put(self, key: str, data: bytes) -> None:
        self._traced("PUT", key, len(data), lambda: self._inner.put(key, data))

    async def aput(self, key: str, data: bytes) -> None:
        await self._atraced(
            "PUT", key, len(data), lambda: self._inner.aput(key, data)
        )

    def get(self, key: str) -> bytes:
        return self._traced("GET", key, 0, lambda: self._inner.get(key))

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        return self._traced("LIST", prefix, 0, lambda: self._inner.list(prefix))

    def _delete_request(self, keys: list[str]) -> None:
        self._traced(
            "DELETE", keys[0], 0, lambda: self._inner.delete_many(keys)
        )

    async def _adelete_request(self, keys: list[str]) -> None:
        await self._atraced(
            "DELETE", keys[0], 0, lambda: self._inner.adelete_many(keys)
        )


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

        Tracing -> Retry -> Meter -> Fault -> Latency -> backend

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
        latency: include a LatencyLayer with this model.
        faults: include a FaultLayer with this policy.
        metered: include the MeterLayer (billing events).
        time_scale: LatencyLayer sleep scaling.
        seed: RNG seed when ``rng`` is not shared in by the caller;
            defaults to ``config.seed`` so every layer of a
            config-assembled stack draws from one deterministic stream.
        epoch: store-time zero for fault windows and billing timestamps
            (default: ``clock.now()`` at build time).
        rng: shared RNG for latency jitter, fault sampling and retry
            jitter — one stream, so composed runs are reproducible.
    """
    bus = bus or NULL_BUS
    if rng is None:
        if seed is None:
            seed = config.seed if config is not None else 0
        rng = random.Random(seed)
    if epoch is None:
        epoch = clock.now()
    store = backend
    if latency is not None:
        store = LatencyLayer(
            store, latency, clock=clock, time_scale=time_scale,
            rng=rng, epoch=epoch,
        )
    if faults is not None:
        store = FaultLayer(
            store, faults, clock=clock, rng=rng, epoch=epoch, bus=bus,
        )
    if metered:
        store = MeterLayer(store, clock=clock, epoch=epoch, bus=bus)
    if policy is None and config is not None:
        policy = RetryPolicy.from_config(config)
    if policy is not None:
        store = RetryLayer(store, policy, clock=clock, bus=bus, rng=rng)
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
