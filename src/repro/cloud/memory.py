"""In-memory object store — the default backend for tests and benchmarks."""

from __future__ import annotations

import asyncio
import threading

from repro.common.errors import CloudObjectNotFound
from repro.cloud.interface import ObjectInfo, ObjectStore


class InMemoryObjectStore(ObjectStore):
    """A dict-backed bucket with S3 semantics.

    Objects are immutable snapshots: ``put`` stores a private copy of the
    payload so later mutation of the caller's buffer cannot corrupt the
    "cloud".
    """

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> None:
        snapshot = bytes(data)
        with self._lock:
            self._objects[key] = snapshot

    async def aput(self, key: str, data: bytes) -> None:
        # A dict insert never blocks meaningfully, so the async path
        # runs it inline on the loop instead of paying an executor hop.
        # Subclasses routinely override ``put`` with blocking fault
        # models (stalls, sleeps); inheriting the inline path would let
        # one stalled PUT wedge the reactor loop, so only the pristine
        # ``put`` qualifies — anything else bridges off the loop.
        if type(self).put is not InMemoryObjectStore.put:
            await asyncio.get_running_loop().run_in_executor(
                None, self.put, key, data
            )
            return
        self.put(key, data)

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._objects[key]
            except KeyError:
                raise CloudObjectNotFound(key) from None

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        with self._lock:
            return [
                ObjectInfo(key=key, size=len(body))
                for key, body in sorted(self._objects.items())
                if key.startswith(prefix)
            ]

    def delete(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def _delete_request(self, keys: list[str]) -> None:
        # Atomic under the one lock — unless a subclass overrode
        # ``delete`` (test doubles inject DELETE faults there): then
        # the per-key loop honours it, the rule ``aput`` applies to
        # ``put``.
        if type(self).delete is not InMemoryObjectStore.delete:
            super()._delete_request(keys)
            return
        with self._lock:
            for key in keys:
                self._objects.pop(key, None)

    async def _adelete_request(self, keys: list[str]) -> None:
        # Inline on the loop only for the pristine dict pops; an
        # overridden (possibly blocking) ``delete`` bridges off it.
        if type(self).delete is not InMemoryObjectStore.delete:
            await asyncio.get_running_loop().run_in_executor(
                None, self._delete_request, keys
            )
            return
        self._delete_request(keys)

    def exists(self, key: str) -> bool:
        # O(1) dict lookup instead of the base class's prefix listing.
        with self._lock:
            return key in self._objects

    def stat(self, key: str) -> ObjectInfo | None:
        # O(1) dict lookup instead of the base class's prefix listing.
        with self._lock:
            body = self._objects.get(key)
        return None if body is None else ObjectInfo(key=key, size=len(body))

    # Test/diagnostic helpers ----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)

    def clear(self) -> None:
        """Drop every object — simulates losing the bucket."""
        with self._lock:
            self._objects.clear()

    def snapshot(self) -> dict[str, bytes]:
        """A point-in-time copy of the bucket, for assertions in tests."""
        with self._lock:
            return dict(self._objects)
