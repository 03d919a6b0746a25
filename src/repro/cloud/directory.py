"""On-disk object store: one file per object under a root directory.

Useful for examples that should survive process restarts (e.g. the
crash-and-recover demos) and for inspecting what Ginja uploaded.
"""

from __future__ import annotations

import os
import threading
import urllib.parse
from pathlib import Path

from repro.common.errors import CloudObjectNotFound
from repro.cloud.interface import ObjectInfo, ObjectStore


def _encode(key: str) -> str:
    """Map an object key to a single safe file name.

    Object keys contain ``/`` (``WAL/0000_...``); encoding them keeps the
    store flat so LIST is a single ``os.listdir``.
    """
    return urllib.parse.quote(key, safe="")


def _decode(name: str) -> str:
    return urllib.parse.unquote(name)


class DirectoryObjectStore(ObjectStore):
    """A bucket persisted as flat files under ``root``."""

    def __init__(self, root: str | os.PathLike[str]):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self._root

    def _path(self, key: str) -> Path:
        return self._root / _encode(key)

    def put(self, key: str, data: bytes) -> None:
        # Write-then-rename so a concurrent GET never sees a torn object.
        target = self._path(key)
        with self._lock:
            tmp = target.with_name(target.name + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, target)

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._path(key).read_bytes()
            except FileNotFoundError:
                raise CloudObjectNotFound(key) from None

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        with self._lock:
            infos = []
            for name in os.listdir(self._root):
                if name.endswith(".tmp"):
                    continue
                key = _decode(name)
                if key.startswith(prefix):
                    size = (self._root / name).stat().st_size
                    infos.append(ObjectInfo(key=key, size=size))
        infos.sort(key=lambda info: info.key)
        return infos

    def delete(self, key: str) -> None:
        with self._lock:
            try:
                self._path(key).unlink()
            except FileNotFoundError:
                pass

    def _delete_request(self, keys: list[str]) -> None:
        # One lock hold for the whole request; an overridden ``delete``
        # is honoured by the per-key loop (see InMemoryObjectStore).
        if type(self).delete is not DirectoryObjectStore.delete:
            super()._delete_request(keys)
            return
        with self._lock:
            for key in keys:
                self._path(key).unlink(missing_ok=True)

    def exists(self, key: str) -> bool:
        # One stat instead of the base class's full directory listing.
        with self._lock:
            return self._path(key).exists()

    def stat(self, key: str) -> ObjectInfo | None:
        # One stat instead of the base class's full directory listing.
        with self._lock:
            try:
                size = self._path(key).stat().st_size
            except FileNotFoundError:
                return None
        return ObjectInfo(key=key, size=size)
