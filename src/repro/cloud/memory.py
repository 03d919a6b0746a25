"""In-memory object store — the default backend for tests and benchmarks."""

from __future__ import annotations

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
            await super().aput(key, data)
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

    def _delete_request(self, keys: list[str]) -> None:
        # Atomic under the one lock.
        with self._lock:
            for key in keys:
                self._objects.pop(key, None)

    async def _adelete_request(self, keys: list[str]) -> None:
        # Inline on the loop only for the pristine dict pops; an
        # overridden (possibly blocking) request bridges off it, the
        # rule ``aput`` applies to ``put``.
        native = InMemoryObjectStore._delete_request
        if type(self)._delete_request is not native:
            await super()._adelete_request(keys)
            return
        self._delete_request(keys)

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
