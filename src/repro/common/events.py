"""The event kernel: typed events and the publish/subscribe bus.

This lives in :mod:`repro.common` (which imports nothing above it) so
both the cloud transport layers and the core pipelines can emit events
without an import cycle.  The public observability API — including the
bounded :class:`~repro.core.events.TraceRecorder` — is re-exported from
:mod:`repro.core.events`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

# -- event taxonomy ----------------------------------------------------------
#
# Transport-layer events (emitted by repro.cloud.transport / .retry):
PUT_START = "put_start"
PUT_END = "put_end"
GET_START = "get_start"
GET_END = "get_end"
LIST_START = "list_start"
LIST_END = "list_end"
DELETE_START = "delete_start"
DELETE_END = "delete_end"
#: One failed attempt absorbed by the retry policy (before the backoff).
RETRY = "retry"
#: A request failed inside a scheduled provider-outage window.
OUTAGE = "outage"
#: One metered request (simulation layers); carries modeled latency and
#: store time so a RequestMeter subscriber reproduces exact billing.  A
#: batch DELETE is one request: ``key`` is its first key, ``nbytes``
#: every byte it removed.
METER = "meter"
#: A GC DELETE completed (ok=True) or exhausted its budget (ok=False).
#: One event per *key*: every key of a batch DELETE reports the verdict
#: of the one request that carried it.
GC_DELETE = "gc_delete"
#
# Pipeline events (emitted by repro.core.commit_pipeline):
COMMIT_BLOCKED = "commit_blocked"
COMMIT_UNBLOCKED = "commit_unblocked"
#: A claim job was queued on the upload reactor's loop (a full batch, an
#: expired T_B or a waiting drain); ``key`` is the pipeline's lane.  With
#: ``wal_batch``'s ``at`` it makes scheduled→claimed wait observable.
CLAIM_QUEUED = "claim_queued"
#: A claim job claimed a batch and planned its WAL objects; ``count``
#: is the updates claimed, ``total`` the bytes those writes submitted
#: and ``nbytes`` the bytes planned to ship for them (pre-codec) — less
#: by what coalescing and changed-range shipping saved, zero when the
#: batch rewrote nothing new.
WAL_BATCH = "wal_batch"
#: One WAL object confirmed in the cloud.
WAL_OBJECT = "wal_object"
#: The unlock rule removed one acked batch from the queue head.
BATCH_UNLOCKED = "batch_unlocked"
#: A poisoned pipeline dropped an encoded WAL object instead of
#: uploading it; ``count`` is the batch id, ``nbytes`` the encoded
#: bytes that never reached the cloud, ``detail`` why.  Before this
#: event existed the blobs vanished silently on abort.
UPLOAD_DROPPED = "upload_dropped"
#: One update entered the queue; ``count`` is the unconfirmed depth
#: (chaos drills trigger on this instead of polling pipeline internals).
QUEUE_DEPTH = "queue_depth"
#: The unlock rule woke blocked submitters; ``count`` is the depth left.
WAITER_UNLOCK = "waiter_unlock"
#: Bytes fed through the codec (compress/encrypt/MAC input).
CODEC = "codec"
#: Retired with the hand-off of a batch's objects 2…n to another encode
#: worker (the worker that plans a batch encodes all of it) — nothing
#: emits it; the constant stays because the frozen benchmark counts the
#: kind.
ENCODE_QUEUED = "encode_queued"
#: One WAL object finished encoding; ``nbytes`` is the encoded size.
ENCODE_DONE = "encode_done"
#: Retired with the dispatch controller — nothing emits it; the
#: constant stays because the frozen benchmark counts the kind.
ENCODE_MODE = "encode_mode"
#: The adaptive batch tuner retuned one tenant's effective B/S/T_B;
#: ``key`` is the lane (tenant) name, ``count`` the new effective B,
#: ``total`` the new effective S, and ``detail`` a
#: ``"B a->b S c->d tb xNN%: <reason>"`` narration.
TUNER_RETUNE = "tuner_retune"
#
# Checkpointer events (emitted by repro.core.checkpointer):
CHECKPOINT_BEGIN = "checkpoint_begin"
#: A checkpoint's DB object was built and handed to the uploader;
#: ``count`` is its WAL frontier ts, ``detail`` its type, ``total`` the
#: bytes the DBMS wrote in the checkpoint and ``nbytes`` the bytes
#: planned to ship for them, both pre-codec.
CHECKPOINT_END = "checkpoint_end"
#: One DB object (checkpoint/dump part) confirmed in the cloud.
DB_OBJECT = "db_object"
#: A full dump (all parts) confirmed in the cloud.
DUMP_COMPLETE = "dump"
#
# Recovery events (emitted by repro.core.recovery):
#: The restore plan is fixed; ``count`` is the number of objects to
#: download, ``detail`` summarizes the dump/checkpoint/WAL breakdown.
RECOVERY_PLANNED = "recovery_planned"
#: One planned object was downloaded, decoded and applied in plan
#: order; ``nbytes`` is the encoded size, ``count`` objects applied so
#: far, ``verb`` the object family (``dump``/``checkpoint``/``wal``).
OBJECT_RESTORED = "object_restored"
#: Recovery finished; ``count`` objects, ``nbytes`` total downloaded,
#: ``latency`` the wall-clock (store clock) duration of the restore.
RECOVERY_DONE = "recovery_done"

#: The end-event kinds that fold into per-verb latency summaries.
VERB_END_EVENTS = {
    PUT_END: "PUT",
    GET_END: "GET",
    LIST_END: "LIST",
    DELETE_END: "DELETE",
}


@dataclass(frozen=True, slots=True)
class Event:
    """One observability event.

    Only ``kind`` is always meaningful; the remaining fields are a small
    fixed vocabulary each kind uses as documented at the constants above
    (``nbytes`` for payload sizes, ``latency`` for durations in seconds,
    ``count`` for cardinalities such as batch sizes or replaced bytes,
    ``attempt`` for retry ordinals, ``ok`` for success/failure).
    """

    kind: str
    verb: str = ""
    key: str = ""
    nbytes: int = 0
    latency: float = 0.0
    attempt: int = 0
    count: int = 0
    #: The global counterpart of a scoped ``count`` — e.g. the encode
    #: stage's all-lanes queue depth next to one lane's ``count``.
    total: int = 0
    ok: bool = True
    at: float = 0.0
    detail: str = ""
    #: Which tenant the event belongs to, for multi-tenant fleets.  A
    #: single-tenant run leaves it empty; a fleet stamps it via a
    #: tenant-scoped :class:`EventBus` (or derives it from the key's
    #: ``tenants/<id>/`` prefix for shared-transport events).
    tenant: str = ""


Subscriber = Callable[[Event], None]


class EventBus:
    """Thread-safe publish/subscribe fan-out for :class:`Event`.

    Subscribers run synchronously on the publisher's thread (the commit
    pipeline emits from the upload reactor's loop), so they must be fast and
    must never raise; a raising subscriber is counted, not propagated,
    because an observability bug must not poison the data path.

    A subscriber may declare the event kinds it handles (``kinds=``);
    events of other kinds are never dispatched to it.  Hot paths use
    :meth:`wants` to skip building an event nobody would receive — the
    per-write emits in the commit pipeline cost nothing unless a
    wildcard subscriber (trace recorder, chaos injector) is attached.

    ``tenant`` scopes the bus to one fleet tenant: every event built by
    :meth:`emit` is stamped with it (emitters never need to know which
    tenant they serve), while :meth:`publish` forwards pre-built events
    untouched so a fleet-level forwarder preserves the original stamp.
    """

    def __init__(self, tenant: str = "") -> None:
        self._lock = threading.Lock()
        self._tenant = tenant
        #: (subscriber, kinds) pairs; ``kinds is None`` means wildcard.
        self._subscribers: tuple[tuple[Subscriber, frozenset[str] | None], ...] = ()
        #: Union of all filtered kinds — the fast path for :meth:`wants`.
        self._wanted: frozenset[str] = frozenset()
        self._wildcards = 0
        self.subscriber_errors = 0

    def _rebuild_index_locked(self) -> None:
        self._wildcards = sum(
            1 for _s, kinds in self._subscribers if kinds is None
        )
        self._wanted = frozenset(
            kind
            for _s, kinds in self._subscribers
            if kinds is not None
            for kind in kinds
        )

    def subscribe(
        self, subscriber: Subscriber, kinds: frozenset[str] | set[str] | None = None
    ) -> Subscriber:
        """Register a callable; returns it for later :meth:`unsubscribe`.

        ``kinds`` restricts delivery to those event kinds; ``None``
        (the default) receives everything.
        """
        with self._lock:
            entry = (subscriber, frozenset(kinds) if kinds is not None else None)
            self._subscribers = self._subscribers + (entry,)
            self._rebuild_index_locked()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            self._subscribers = tuple(
                (s, kinds) for s, kinds in self._subscribers if s is not subscriber
            )
            self._rebuild_index_locked()

    def wants(self, kind: str) -> bool:
        """True when at least one subscriber would receive ``kind``.

        Callers on hot paths guard their emits with this so the kwargs
        payload (and the Event) is never built for an audience of zero —
        always False on :data:`NULL_BUS`.
        """
        return self._wildcards > 0 or kind in self._wanted

    def publish(self, event: Event) -> None:
        for subscriber, kinds in self._subscribers:  # snapshot tuple: no lock
            if kinds is not None and event.kind not in kinds:
                continue
            try:
                subscriber(event)
            except Exception:
                with self._lock:
                    self.subscriber_errors += 1

    @property
    def tenant(self) -> str:
        return self._tenant

    def emit(self, kind: str, **fields) -> None:
        """Convenience: build and publish an :class:`Event`."""
        if self._wildcards > 0 or kind in self._wanted:
            if self._tenant and "tenant" not in fields:
                fields["tenant"] = self._tenant
            self.publish(Event(kind=kind, **fields))


#: A bus nothing listens to; the default when callers opt out of events.
NULL_BUS = EventBus()
