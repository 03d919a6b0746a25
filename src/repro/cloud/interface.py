"""The object-store verb interface shared by every backend."""

from __future__ import annotations

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
    """A cloud storage bucket: PUT / GET / LIST / DELETE / batch DELETE.

    The interface is intentionally the lowest common denominator of
    Amazon S3, Azure Blob Storage and Google Storage, which is all Ginja
    assumes of its secondary site (§5).  Implementations must be
    thread-safe: Ginja uploads from several Uploader threads in parallel.

    Keys are opaque UTF-8 strings; Ginja's namespace convention
    (``WAL/...`` and ``DB/...``) lives in :mod:`repro.core.data_model`,
    not here.
    """

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any previous object."""
        raise NotImplementedError

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

    def delete(self, key: str) -> None:
        """Remove an object.  Deleting a missing key is a no-op, matching
        S3's idempotent DELETE semantics."""
        raise NotImplementedError

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

    def _delete_request(self, keys: list[str]) -> None:
        """One batch-DELETE request (``1..MAX_DELETE_KEYS`` keys) — the
        method a backend or layer overrides to go native.  This
        fallback loops :meth:`delete`, which keeps any store that knows
        only the four single-object verbs correct."""
        for key in keys:
            self.delete(key)

    # Convenience helpers shared by all backends ---------------------------

    def exists(self, key: str) -> bool:
        """True if ``key`` currently names an object (exact match).

        Backends should override this with a native O(1)/stat check;
        this fallback issues a LIST narrowed to ``key`` and matches the
        exact key (a prefix hit alone is not existence).
        """
        return self.stat(key) is not None

    def stat(self, key: str) -> ObjectInfo | None:
        """Metadata for one object, or ``None`` if ``key`` is absent.

        The transport's latency layer probes this on every PUT and
        DELETE (overwrite/removal accounting), so backends should
        override the LIST-narrowed fallback with a native O(1) lookup.
        """
        for info in self.list(prefix=key):
            if info.key == key:
                return info
        return None

    def total_bytes(self, prefix: str = "") -> int:
        """Sum of object sizes under ``prefix`` (used by the 150% rule)."""
        return sum(info.size for info in self.list(prefix=prefix))
