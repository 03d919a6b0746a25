"""The single retry/backoff implementation for all cloud I/O.

Before the transport refactor this logic was copy-pasted three times
(commit-pipeline PUT, checkpointer PUT, checkpointer DELETE).  It now
lives in exactly one place: :class:`RetryPolicy` holds the two knobs a
config sets, the constants below the rest of the schedule, and
:class:`RetryLayer` applies it to every request of a transport stack.

DELETE is the one *skippable* verb, exactly as the checkpointer
comments prescribe: a PUT that exhausts its budget must raise (silently
dropping a WAL object would leave a permanent timestamp gap that
recovery stops at), while a GC DELETE that exhausts its budget is
skipped (an orphaned object wastes a few bytes of storage and is
ignored by recovery, whereas killing the Checkpointer would stop all
future checkpoint replication).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import CloudError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.cloud.aio import current_upload
from repro.cloud.interface import REQUEST_CLASS, ObjectStore, TransportLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import GinjaConfig

#: Backoff growth factor per attempt.
BACKOFF_MULTIPLIER = 2.0
#: Upper bound on any single backoff sleep, in seconds.
BACKOFF_CAP = 2.0
#: The verb whose exhaustion is absorbed (the request is skipped)
#: instead of raised.
SKIPPABLE = "DELETE"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with one retry budget for every verb.

    Attributes:
        max_retries: retry budget per request (attempts allowed beyond
            the first = ``max_retries``).
        base_backoff: seconds before the first retry; each further
            retry waits :data:`BACKOFF_MULTIPLIER` times longer, up to
            :data:`BACKOFF_CAP`.
    """

    max_retries: int = 5
    base_backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be >= 0")

    @classmethod
    def from_config(cls, config: "GinjaConfig") -> "RetryPolicy":
        """The policy a :class:`~repro.core.config.GinjaConfig` declares."""
        return cls(
            max_retries=config.max_retries, base_backoff=config.retry_backoff,
        )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        # Clamp the exponent before the power: at large attempt counts
        # (long outage drills) float ** overflows well before min() runs.
        exponent = min(attempt - 1, 128)
        return min(
            self.base_backoff * BACKOFF_MULTIPLIER ** exponent, BACKOFF_CAP
        )


class RetryLayer(TransportLayer):
    """Transport layer applying one :class:`RetryPolicy` to every verb.

    This is the only retry loop in the codebase.  STAT (and ``exists``
    through it) is a listing-class read: it retries and exhausts as a
    LIST does, and the fault layer classifies it the same way.  DELETE
    is mostly the GC verb — checkpoint GC, plus the stale-key, purge and
    fsck deletes that share its skippable semantics — so the layer also
    emits the ``gc_delete`` success/failure events the stats counters
    are built from: **one per key**, also for a batch DELETE, which is
    retried, exhausted and skipped as the single request it is (every
    key of the slice reports the request's verdict).
    """

    def __init__(
        self,
        inner: ObjectStore,
        policy: RetryPolicy | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
        bus: EventBus | None = None,
    ):
        super().__init__(inner)
        self._policy = policy or RetryPolicy()
        self._clock = clock
        self._bus = bus or NULL_BUS

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    # -- the one retry loop --------------------------------------------------
    #
    # Written twice only because Python colours functions: ``_call``
    # sleeps its backoff on the calling thread, ``_acall`` awaits it as
    # a loop timer (a backing-off request holds zero threads, and a
    # tenant abort cancels it mid-timer without draining any other
    # request's budget).  Schedule, budget, exhaustion verdict and
    # events live once, in ``_failed`` and ``_emit_gc``.

    def _call(self, verb, key, nbytes, request, keys=()):
        verb = REQUEST_CLASS.get(verb, verb)
        attempts = 0
        while True:
            try:
                result = request()
            except CloudError as exc:
                attempts += 1
                delay = self._failed(verb, key, attempts, exc, keys)
                if delay is None:
                    return None
                self._clock.sleep(delay)
                continue
            self._emit_gc(keys, ok=True, attempt=attempts + 1)
            return result

    async def _acall(self, verb, key, nbytes, request, keys=()):
        verb = REQUEST_CLASS.get(verb, verb)
        attempts = 0
        while True:
            try:
                result = await request()
            except CloudError as exc:
                attempts += 1
                delay = self._failed(verb, key, attempts, exc, keys)
                if delay is None:
                    return None
                note = current_upload()
                note.backoff_started(delay)
                try:
                    await self._clock.sleep_async(delay)
                finally:
                    note.backoff_ended()
                continue
            self._emit_gc(keys, ok=True, attempt=attempts + 1)
            return result

    def _failed(self, verb: str, key: str, attempts: int, exc: CloudError,
                keys) -> float | None:
        """Attempt number ``attempts`` failed: the backoff to take
        before the next one, or ``None`` when a skippable verb has
        spent its budget and the request is absorbed.  A fatal verb's
        exhaustion re-raises."""
        if attempts > self._policy.max_retries:
            if verb != SKIPPABLE:
                raise exc
            self._emit_gc(keys, ok=False, attempt=attempts, detail=repr(exc))
            return None
        self._bus.emit(
            events.RETRY, verb=verb, key=key, attempt=attempts,
            detail=repr(exc),
        )
        return self._policy.backoff(attempts)

    def _emit_gc(self, keys, **verdict) -> None:
        if not self._bus.wants(events.GC_DELETE):
            return  # a thousand-key request narrated to nobody
        for key in keys:
            self._bus.emit(events.GC_DELETE, verb="DELETE", key=key, **verdict)
