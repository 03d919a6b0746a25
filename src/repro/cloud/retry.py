"""The single retry/backoff implementation for all cloud I/O.

Before the transport refactor this logic was copy-pasted three times
(commit-pipeline PUT, checkpointer PUT, checkpointer DELETE) with the
backoff cap hardcoded at two seconds.  It now lives in exactly one
place: :class:`RetryPolicy` describes the schedule, :class:`RetryLayer`
applies it to every verb of an :class:`~repro.cloud.interface.ObjectStore`.

The policy distinguishes *fatal* and *skippable* verbs, exactly as the
checkpointer comments prescribe: a PUT that exhausts its budget must
raise (silently dropping a WAL object would leave a permanent timestamp
gap that recovery stops at), while a GC DELETE that exhausts its budget
is skipped (an orphaned object wastes a few bytes of storage and is
ignored by recovery, whereas killing the Checkpointer would stop all
future checkpoint replication).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, TYPE_CHECKING

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import CloudError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.cloud.aio import current_upload
from repro.cloud.interface import ObjectStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import GinjaConfig

#: The verbs a policy can budget individually.
VERBS = ("PUT", "GET", "LIST", "DELETE")


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with per-verb budgets.

    Attributes:
        max_retries: default retry budget per request (attempts allowed
            beyond the first = ``max_retries``).
        base_backoff: seconds before the first retry.
        multiplier: backoff growth factor per attempt.
        backoff_cap: upper bound on any single backoff sleep — the
            knob that used to be a hardcoded ``min(backoff, 2.0)``.
        jitter: fraction of the backoff randomized symmetrically
            (``0.25`` means +-25%); ``0`` keeps retries deterministic.
        budgets: per-verb overrides of ``max_retries``.
        skippable: verbs whose exhaustion is absorbed (the request is
            skipped) instead of raised.  GC DELETE by default.
    """

    max_retries: int = 5
    base_backoff: float = 0.1
    multiplier: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.0
    budgets: Mapping[str, int] = field(default_factory=dict)
    skippable: frozenset[str] = frozenset({"DELETE"})

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff < 0 or self.backoff_cap <= 0:
            raise ValueError("backoff values must be positive")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        for verb, budget in self.budgets.items():
            if verb not in VERBS:
                raise ValueError(f"unknown verb in retry budgets: {verb!r}")
            if budget < 0:
                raise ValueError(f"negative retry budget for {verb}")

    @classmethod
    def from_config(cls, config: "GinjaConfig") -> "RetryPolicy":
        """The policy a :class:`~repro.core.config.GinjaConfig` declares."""
        return cls(
            max_retries=config.max_retries,
            base_backoff=config.retry_backoff,
            backoff_cap=config.retry_backoff_cap,
            jitter=config.retry_jitter,
            budgets=dict(config.retry_budgets),
        )

    def budget(self, verb: str) -> int:
        """Retries allowed for ``verb`` (per-verb override wins)."""
        return self.budgets.get(verb, self.max_retries)

    def is_skippable(self, verb: str) -> bool:
        return verb in self.skippable

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        # Clamp the exponent before the power: at large attempt counts
        # (long outage drills) float ** overflows well before min() runs.
        exponent = min(attempt - 1, 128)
        delay = min(
            self.base_backoff * self.multiplier ** exponent,
            self.backoff_cap,
        )
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class RetryLayer(ObjectStore):
    """Transport layer applying one :class:`RetryPolicy` to every verb.

    This is the only retry loop in the codebase.  DELETE is mostly the
    GC verb — checkpoint GC, plus the stale-key, purge and fsck deletes
    that share its skippable semantics — so the layer also emits the
    ``gc_delete`` success/failure events the stats counters are built
    from: **one per key**, also for a batch DELETE, which is retried,
    exhausted and skipped as the single request it is (every key of the
    slice reports the request's verdict).
    """

    def __init__(
        self,
        inner: ObjectStore,
        policy: RetryPolicy | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
        bus: EventBus | None = None,
        rng: random.Random | None = None,
    ):
        self._inner = inner
        self._policy = policy or RetryPolicy()
        self._clock = clock
        self._bus = bus or NULL_BUS
        self._rng = rng or random.Random(0)

    @property
    def inner(self):
        return self._inner

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    # -- verbs ---------------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        self._run("PUT", key, lambda: self._inner.put(key, data))

    async def aput(self, key: str, data: bytes) -> None:
        await self._arun("PUT", key, lambda: self._inner.aput(key, data))

    def get(self, key: str) -> bytes:
        return self._run("GET", key, lambda: self._inner.get(key))

    def list(self, prefix: str = ""):
        return self._run("LIST", prefix, lambda: self._inner.list(prefix))

    def _delete_request(self, keys: list[str]) -> None:
        self._run(
            "DELETE", keys[0], lambda: self._inner.delete_many(keys),
            gc_keys=keys,
        )

    async def _adelete_request(self, keys: list[str]) -> None:
        await self._arun(
            "DELETE", keys[0], lambda: self._inner.adelete_many(keys),
            gc_keys=keys,
        )

    # STAT (and ``exists`` through it) is a listing-class read: it
    # shares the LIST budget and its non-skippable exhaustion
    # semantics, and the fault layer classifies it the same way.
    def stat(self, key: str):
        return self._run("LIST", key, lambda: self._inner.stat(key))

    # -- the one retry loop --------------------------------------------------
    #
    # Written twice only because Python colours functions: ``_run``
    # sleeps its backoff on the calling thread, ``_arun`` awaits it as
    # a loop timer (a backing-off request holds zero threads, and a
    # tenant abort cancels it mid-timer without draining any other
    # request's budget).  Schedule, budget, exhaustion verdict and
    # events live once, in ``_failed`` and ``_emit_gc``.

    def _run(self, verb: str, key: str, request, gc_keys=()):
        attempts = 0
        while True:
            try:
                result = request()
            except CloudError as exc:
                attempts += 1
                delay = self._failed(verb, key, attempts, exc, gc_keys)
                if delay is None:
                    return None
                self._clock.sleep(delay)
                continue
            self._emit_gc(gc_keys, ok=True, attempt=attempts + 1)
            return result

    async def _arun(self, verb: str, key: str, request, gc_keys=()):
        attempts = 0
        while True:
            try:
                result = await request()
            except CloudError as exc:
                attempts += 1
                delay = self._failed(verb, key, attempts, exc, gc_keys)
                if delay is None:
                    return None
                note = current_upload()
                note.backoff_started(delay)
                try:
                    await self._clock.sleep_async(delay)
                finally:
                    note.backoff_ended()
                continue
            self._emit_gc(gc_keys, ok=True, attempt=attempts + 1)
            return result

    def _failed(self, verb: str, key: str, attempts: int, exc: CloudError,
                gc_keys) -> float | None:
        """Attempt number ``attempts`` failed: the backoff to take
        before the next one, or ``None`` when a skippable verb has
        spent its budget and the request is absorbed.  A fatal verb's
        exhaustion re-raises."""
        if attempts > self._policy.budget(verb):
            if not self._policy.is_skippable(verb):
                raise exc
            self._emit_gc(gc_keys, ok=False, attempt=attempts, detail=repr(exc))
            return None
        self._bus.emit(
            events.RETRY, verb=verb, key=key, attempt=attempts,
            detail=repr(exc),
        )
        return self._policy.backoff(attempts, self._rng)

    def _emit_gc(self, keys, **verdict) -> None:
        if not self._bus.wants(events.GC_DELETE):
            return  # a thousand-key request narrated to nobody
        for key in keys:
            self._bus.emit(events.GC_DELETE, verb="DELETE", key=key, **verdict)
