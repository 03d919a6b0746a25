"""Per-tenant keyspaces over one shared bucket.

A fleet (§7's one-dollar economics compound when many databases share
one protection process) keeps every tenant in a single bucket, each
under its own ``tenants/<id>/`` prefix.  :class:`PrefixedObjectStore`
is the namespace layer: it prepends the prefix on the way down and
strips it on the way up, so everything above it — the commit pipeline,
recovery planning, fsck, GC, failover — sees a private bucket whose
keys look exactly like a single-tenant run's.

The layer composes with the transport stack in either order, but a
fleet puts it *outermost* (prefix → tracing → retry → meter → backend)
so one shared retry/meter stack serves every tenant and the shared
layers observe fully-qualified keys — that is what lets the fleet's
meter bank attribute each request back to a tenant by prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cloud.interface import ObjectInfo, ObjectStore

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.common.events import Event

#: Root of every tenant keyspace in a shared fleet bucket.
TENANT_ROOT = "tenants/"


def tenant_prefix(tenant_id: str) -> str:
    """The key prefix that isolates ``tenant_id`` in a shared bucket."""
    return f"{TENANT_ROOT}{tenant_id}/"


def tenant_of_key(key: str) -> str | None:
    """The tenant id a fully-qualified fleet key belongs to, or None.

    The key half of :func:`tenant_of_event`.
    """
    if not key.startswith(TENANT_ROOT):
        return None
    rest = key[len(TENANT_ROOT):]
    tenant_id, sep, _ = rest.partition("/")
    if not sep or not tenant_id:
        return None
    return tenant_id


def tenant_of_event(event: "Event") -> str | None:
    """The tenant ``event`` belongs to, or None: its tenant stamp, else
    the owner of its key.  A fleet's tenant buses stamp what they
    forward; the shared transport stack emits unstamped, under full
    keys.  Every per-tenant rollup — stats, meters, upload overlap —
    attributes by this one rule."""
    return event.tenant or tenant_of_key(event.key)


class PrefixedObjectStore(ObjectStore):
    """A view of ``inner`` restricted to keys under ``prefix``.

    Keys passed in are prepended with the prefix; keys returned by
    :meth:`list` have it stripped, so round-trips are transparent.  A
    key listed from the inner store that does *not* start with the
    prefix would indicate a namespace violation and is never surfaced
    (the inner ``list(prefix=...)`` contract already guarantees this;
    the check here is defensive).
    """

    def __init__(self, inner: ObjectStore, prefix: str):
        if not prefix:
            raise ValueError("PrefixedObjectStore needs a non-empty prefix")
        if not prefix.endswith("/"):
            prefix += "/"
        self._inner = inner
        self._prefix = prefix

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    @property
    def prefix(self) -> str:
        return self._prefix

    def __repr__(self) -> str:
        return f"PrefixedObjectStore({self._prefix!r}, {self._inner!r})"

    def _qualify(self, key: str) -> str:
        return self._prefix + key

    def put(self, key: str, data: bytes) -> None:
        self._inner.put(self._qualify(key), data)

    async def aput(self, key: str, data: bytes) -> None:
        await self._inner.aput(self._qualify(key), data)

    def get(self, key: str) -> bytes:
        return self._inner.get(self._qualify(key))

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        cut = len(self._prefix)
        return [
            ObjectInfo(key=info.key[cut:], size=info.size)
            for info in self._inner.list(prefix=self._prefix + prefix)
            if info.key.startswith(self._prefix)
        ]

    def _delete_request(self, keys: list[str]) -> None:
        self._inner.delete_many([self._qualify(key) for key in keys])

    async def _adelete_request(self, keys: list[str]) -> None:
        await self._inner.adelete_many([self._qualify(key) for key in keys])

    def stat(self, key: str) -> ObjectInfo | None:
        info = self._inner.stat(self._qualify(key))
        if info is None:
            return None
        return ObjectInfo(key=key, size=info.size)
