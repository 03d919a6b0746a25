"""Span recorder and outside-in probes.

Nothing under ``src/`` knows it is being measured.  The benchmark sees
the layers through three kinds of probe, all owned by this file:

* **proxies** — :class:`FsProxy` stands between the DBMS and the file
  system the stack hands it (and, on restore, between the recovery
  engine and its target disk); :class:`StoreProxy` stands between Ginja
  and the bucket.  They exist in every run and cost one extra Python
  call per operation, symmetrically on the native side.
* **bus subscribers** — :meth:`Tracer.watch` subscribes to a stack's
  :class:`~repro.common.events.EventBus` and keeps every event with the
  time it arrived (``*_start/_end``, ``wal_batch``→``batch_unlocked``,
  ``encode_queued``→``encode_done``, ``checkpoint_begin``→``_end``,
  the recovery events).
* **wrappers** — :meth:`Tracer.wrap` replaces one public callable on an
  instance (or class) with a timed twin.

Subscribers and wrappers are installed by :meth:`Tracer.start` and
removed by :meth:`Tracer.stop`, so only the traced slices of a traced
run pay for them; the untraced slices of the same run are the base of
``trace.overhead_share``.

A span is ``(id, name, start, end, parent, op, thread, self)``: spans
opened on one thread nest, ``parent`` is the enclosing span, ``op`` the
enclosing ``workloads.op`` span, and ``self`` the duration minus what
the span's children covered.  Everything stays in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from repro.cloud.interface import ObjectInfo, ObjectStore
from repro.common.events import Event, EventBus
from repro.storage.interface import FileSystem

OP = "workloads.op"
DISK = "storage.disk"
INTERPOSER = "storage.interposer"
SUBMIT = "core.commit_pipeline.submit"
ENCODE = "core.codec.encode"
DECODE = "core.codec.decode"
APPLY = "core.recovery.apply"

_clock = time.perf_counter


class Tracer:
    """In-memory span and event recorder; inert until :meth:`start`."""

    def __init__(self) -> None:
        self.enabled = False
        #: (id, name, start, end, parent, op, thread, self_seconds, note)
        self.spans: list[tuple] = []
        #: (arrival time, event) for every watched bus while enabled.
        self.events: list[tuple[float, Event]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buses: list[tuple[EventBus, frozenset[str] | None]] = []
        self._wraps: list[tuple[object, str, object, bool, object]] = []
        #: One bound-method object: EventBus.unsubscribe matches by identity.
        self._subscriber = self._on_event

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        """Open a span on the calling thread; pass the token to :meth:`end`."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if name == OP:
            op = sid
        else:
            op = parent[4] if parent else 0
        #        0    1     2         3                           4   5
        token = [sid, name, _clock(), parent[0] if parent else 0, op, 0.0]
        stack.append(token)
        return token

    def end(self, token: list, note=None) -> None:
        finished = _clock()
        stack = self._local.stack
        stack.pop()
        duration = finished - token[2]
        if stack:
            stack[-1][5] += duration    # the parent's children-covered time
        self.spans.append((
            token[0], token[1], token[2], finished, token[3], token[4],
            threading.get_ident(), duration - token[5], note,
        ))

    # -- bus subscription ----------------------------------------------------

    def watch(self, bus: EventBus, kinds: frozenset[str] | None = None) -> None:
        """Record the events of ``bus`` (all, or only ``kinds``) while the
        tracer is started."""
        self._buses.append((bus, kinds))

    def _on_event(self, event: Event) -> None:
        self.events.append((_clock(), event))

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, note=None) -> None:
        """Time ``owner.attr`` as span ``name`` while started.

        ``owner`` is an instance (the wrapper shadows the class method in
        the instance dict) or a class (the wrapper replaces the function;
        used where the instance is created out of reach, inside
        ``Ginja.recover``).  ``note(args, result)`` may attach one small
        value to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            token = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    token, note(args, result) if note is not None else None
                )

        had = attr in vars(owner)
        self._wraps.append((owner, attr, timed, had, vars(owner).get(attr)))

    # -- switching -----------------------------------------------------------

    def start(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        for bus, kinds in self._buses:
            bus.subscribe(self._subscriber, kinds=kinds)
        for owner, attr, timed, _had, _raw in self._wraps:
            setattr(owner, attr, timed)

    def stop(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        for bus, _kinds in self._buses:
            bus.unsubscribe(self._subscriber)
        for owner, attr, _timed, had, raw in self._wraps:
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def forget(self) -> None:
        """Stop and drop every registered bus and wrapper (the objects
        they pointed at are about to be torn down)."""
        self.stop()
        self._buses.clear()
        self._wraps.clear()

    # -- reading -------------------------------------------------------------

    def self_seconds(self, name: str, *, inside_op: bool = False) -> float:
        """Total self time of spans called ``name``."""
        return sum(
            s[7] for s in self.spans
            if s[1] == name and (s[5] != 0 or not inside_op)
        )

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path: Path, derived: list[dict] = ()) -> int:
        """Dump spans (plus event-derived ``derived`` spans) as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op, thread, own, note in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread,
                    "self": own, "note": note,
                }) + "\n")
            for row in derived:
                out.write(json.dumps(row) + "\n")
        return len(self.spans) + len(derived)


def derived_spans(events: list[tuple[float, Event]]) -> list[dict]:
    """Pair start/end events into spans for the trace file.

    These happen on Ginja's own threads, so they have no parent span;
    ``op`` stays 0.  Pairing rules: ``<verb>_start``→``<verb>_end`` and
    ``encode_queued``→``encode_done`` by key; ``wal_batch``→
    ``batch_unlocked`` and ``checkpoint_begin``→``checkpoint_end`` in
    order per tenant (both are emitted and retired strictly in order).
    """
    rows: list[dict] = []
    open_by_key: dict[tuple[str, str], float] = {}
    fifo: dict[tuple[str, str], list[float]] = {}
    keyed = {"put": "cloud.transport.put", "get": "cloud.transport.get",
             "list": "cloud.transport.list", "delete": "cloud.transport.delete"}
    ordered = {"wal_batch": ("batch_unlocked", "core.commit_pipeline.batch"),
               "checkpoint_begin": ("checkpoint_end", "core.checkpointer.checkpoint")}
    closing = {end: (start, name) for start, (end, name) in ordered.items()}

    def emit(name: str, start: float, end: float, event: Event) -> None:
        rows.append({
            "id": 0, "name": name, "start": start, "end": end, "parent": 0,
            "op": 0, "thread": 0, "self": end - start,
            "note": {"key": event.key, "tenant": event.tenant,
                     "nbytes": event.nbytes, "count": event.count},
        })

    for at, event in events:
        kind = event.kind
        verb, _, edge = kind.rpartition("_")
        if verb in keyed and edge == "start":
            open_by_key[(verb, event.key)] = at
        elif verb in keyed and edge == "end":
            start = open_by_key.pop((verb, event.key), None)
            if start is not None:
                emit(keyed[verb], start, at, event)
        elif kind == "encode_queued":
            open_by_key[("encode", event.key)] = at
        elif kind == "encode_done":
            start = open_by_key.pop(("encode", event.key), None)
            if start is not None:
                emit("core.encode_stage.job", start, at, event)
        elif kind in ordered:
            fifo.setdefault((kind, event.tenant), []).append(at)
        elif kind in closing:
            start_kind, name = closing[kind]
            queue = fifo.get((start_kind, event.tenant))
            if queue:
                emit(name, queue.pop(0), at, event)
        elif kind == "object_restored":
            emit("core.recovery.object", at, at, event)
    return rows


# -- proxies ------------------------------------------------------------------


class FsProxy(FileSystem):
    """The benchmark's file system: forwards every call and opens a span
    named ``span`` around each while tracing."""

    def __init__(self, inner: FileSystem, tracer: Tracer, span: str):
        self._inner = inner
        self._tracer = tracer
        self._span = span

    @property
    def inner(self) -> FileSystem:
        return self._inner


def _forward(verb: str):
    def call(self, *args):
        tracer = self._tracer
        if not tracer.enabled:
            return getattr(self._inner, verb)(*args)
        token = tracer.begin(self._span)
        try:
            return getattr(self._inner, verb)(*args)
        finally:
            tracer.end(token)

    call.__name__ = verb
    return call


FS_VERBS = ("write", "read", "fsync", "truncate", "rename", "unlink",
            "exists", "size", "files")
for _verb in FS_VERBS:
    setattr(FsProxy, _verb, _forward(_verb))


class StoreProxy(ObjectStore):
    """The benchmark's bucket: forwards every verb and keeps, per
    request, ``(verb, key, issued, returned, nbytes)``.

    Restore needs the GET issue times even untraced (per-object latency
    is an end-to-end metric there), so this proxy always records.
    """

    def __init__(self, inner: ObjectStore):
        self._inner = inner
        self.requests: list[tuple[str, str, float, float, int]] = []
        #: Key of the calling thread's last GET, so a decode span on the
        #: same thread can say which object it decoded.
        self.last_get = threading.local()

    def put(self, key: str, data: bytes) -> None:
        issued = _clock()
        self._inner.put(key, data)
        self.requests.append(("PUT", key, issued, _clock(), len(data)))

    def get(self, key: str) -> bytes:
        issued = _clock()
        data = self._inner.get(key)
        self.requests.append(("GET", key, issued, _clock(), len(data)))
        self.last_get.key = key
        return data

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        issued = _clock()
        infos = self._inner.list(prefix)
        self.requests.append(("LIST", prefix, issued, _clock(), 0))
        return infos

    def delete(self, key: str) -> None:
        issued = _clock()
        self._inner.delete(key)
        self.requests.append(("DELETE", key, issued, _clock(), 0))

    def of(self, verb: str) -> list[tuple[str, str, float, float, int]]:
        return [r for r in self.requests if r[0] == verb]


# -- accounting check -----------------------------------------------------------

WRITE_PATH_PARTS = (
    "db.self_us_per_op",
    "storage.disk_us_per_op",
    "storage.interposer.cross_us_per_op",
    "core.commit_pipeline.submit_us_per_op",
)


def share_sum_error(metrics: dict[str, float]) -> float:
    """Relative gap between ``workloads.op_wall_us`` and the sum of the
    four serial write-path parts measured on the driver thread."""
    total = metrics["workloads.op_wall_us"]
    parts = sum(metrics[name] for name in WRITE_PATH_PARTS)
    return abs(parts - total) / total if total else 0.0
