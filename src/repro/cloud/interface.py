"""The object-store verb interface shared by every backend."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable

#: Keys one Multi-Object Delete request may carry (the S3 limit).
MAX_DELETE_KEYS = 1000


def delete_slices(keys: Iterable[str]) -> list[list[str]]:
    """Cut ``keys`` into request-sized runs of at most
    :data:`MAX_DELETE_KEYS`, in order; no keys, no slices."""
    keys = list(keys)
    return [
        keys[start:start + MAX_DELETE_KEYS]
        for start in range(0, len(keys), MAX_DELETE_KEYS)
    ]


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Metadata returned by LIST: one row per stored object."""

    key: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative object size for {self.key!r}")


class ObjectStore:
    """A cloud storage bucket: PUT / GET / LIST / STAT / batch DELETE.

    The interface is intentionally the lowest common denominator of
    Amazon S3, Azure Blob Storage and Google Storage, which is all Ginja
    assumes of its secondary site (§5).  Implementations must be
    thread-safe: boot, fsck and the heartbeat call the synchronous
    verbs from their own threads while the upload reactor drives the
    async ones from its loop.

    A store or transport layer implements five primitive requests,
    each once per colour: :meth:`put` / :meth:`aput`, :meth:`get`,
    :meth:`list`, :meth:`stat` and one batch DELETE
    (:meth:`_delete_request` / :meth:`_adelete_request`).  Everything
    else — :meth:`delete`, :meth:`delete_many`, :meth:`adelete_many`,
    :meth:`exists` — is derived here, once.  The async defaults run the
    synchronous request on the loop's executor, so a store that knows
    only one colour still works.

    Keys are opaque UTF-8 strings; Ginja's namespace convention
    (``WAL/...`` and ``DB/...``) lives in :mod:`repro.core.data_model`,
    not here.
    """

    # -- the primitive requests ----------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any previous object."""
        raise NotImplementedError

    async def aput(self, key: str, data: bytes) -> None:
        """Async :meth:`put`.  This default runs the whole synchronous
        request inside one executor thread, so layers below keep their
        per-thread semantics; a layer that overrides it runs on the
        loop with context-variable semantics."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.put, key, data
        )

    def get(self, key: str) -> bytes:
        """Return the object body.

        Raises:
            CloudObjectNotFound: if ``key`` does not exist.
        """
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """Return info for every object whose key starts with ``prefix``,
        sorted by key (the lexicographic order S3 guarantees)."""
        raise NotImplementedError

    def stat(self, key: str) -> ObjectInfo | None:
        """Metadata for one object, or ``None`` if ``key`` is absent.

        The transport's latency layer probes this on every PUT and
        DELETE (overwrite/removal accounting), so backends should
        override this LIST-narrowed fallback with a native O(1) lookup.
        The exact key must match: a prefix hit alone is not existence.
        """
        for info in self.list(prefix=key):
            if info.key == key:
                return info
        return None

    def _delete_request(self, keys: list[str]) -> None:
        """One batch-DELETE request (``1..MAX_DELETE_KEYS`` keys) — the
        method a backend or layer overrides.  This fallback loops a
        single-key :meth:`delete` the subclass provides, which keeps a
        store that knows only the four single-object verbs correct."""
        if not _overrides(self, "delete"):
            raise NotImplementedError(
                f"{type(self).__name__} implements neither delete nor "
                f"_delete_request"
            )
        for key in keys:
            self.delete(key)

    async def _adelete_request(self, keys: list[str]) -> None:
        """Async :meth:`_delete_request`, bridged like :meth:`aput`."""
        await asyncio.get_running_loop().run_in_executor(
            None, self._delete_request, keys
        )

    # -- derived verbs: defined here only ------------------------------------

    def delete(self, key: str) -> None:
        """Remove an object.  Deleting a missing key is a no-op, matching
        S3's idempotent DELETE semantics.  Only a third-party store that
        knows the four single-object verbs and no batch DELETE overrides
        this; nothing in this package does."""
        self.delete_many([key])

    def delete_many(self, keys: Iterable[str]) -> None:
        """Remove every key in ``keys`` — S3 Multi-Object Delete.

        Any length is accepted: the keys go out as requests of at most
        :data:`MAX_DELETE_KEYS`, in order, and no keys means no request.
        Missing keys are a no-op, as for :meth:`delete`.  A request
        succeeds or fails as a unit, so the first failing request
        raises and the ones behind it are not issued.
        """
        for request in delete_slices(keys):
            self._delete_request(request)

    async def adelete_many(self, keys: Iterable[str]) -> None:
        """Async :meth:`delete_many`: the same slices, one awaited
        :meth:`_adelete_request` each."""
        for request in delete_slices(keys):
            await self._adelete_request(request)

    def exists(self, key: str) -> bool:
        """True if ``key`` currently names an object (exact match)."""
        return self.stat(key) is not None


def _overrides(store: ObjectStore, verb: str) -> bool:
    """True if ``store``'s class replaces :class:`ObjectStore`'s ``verb``."""
    return getattr(type(store), verb) is not getattr(ObjectStore, verb)
