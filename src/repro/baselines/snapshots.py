"""Backup & Restore — periodic full snapshots (§2).

"The classical approach ... consists of periodically taking consistent
snapshots of the data and writing them in storage devices kept off
site.  Although this approach is attractive for being low-cost, it has
the disadvantages of having long recovery time and always restoring the
system to an outdated state."

A snapshot copies *all* files (tables and WAL), so restoring one yields
a crash-consistent image: the DBMS's own recovery replays whatever WAL
the snapshot captured.  Everything committed after the snapshot is
lost.

Object namespace: ``SNAP/<seq>`` holds a dump payload of every file.
Old snapshots beyond ``keep`` are deleted, like rotating tape.
"""

from __future__ import annotations

import threading

from repro.common.errors import ConfigError, RecoveryError
from repro.core.codec import ObjectCodec
from repro.core.data_model import decode_dump_payload, encode_dump_payload
from repro.cloud.interface import ObjectStore
from repro.storage.interface import FileSystem


class SnapshotBackup:
    """Takes full-filesystem snapshots into a bucket."""

    def __init__(
        self,
        fs: FileSystem,
        cloud: ObjectStore,
        codec: ObjectCodec | None = None,
        *,
        keep: int = 3,
    ):
        if keep < 1:
            raise ConfigError("must keep at least one snapshot")
        self._fs = fs
        self._cloud = cloud
        self._codec = codec or ObjectCodec()
        self._keep = keep
        self._lock = threading.Lock()
        self._seq = 0
        self.snapshots_taken = 0

    def take_snapshot(self) -> int:
        """Copy every file to the cloud as one snapshot; returns its seq."""
        files = [(path, self._fs.read_all(path)) for path in self._fs.files()]
        payload = self._codec.encode(encode_dump_payload(files))
        with self._lock:
            self._seq += 1
            seq = self._seq
        self._cloud.put(f"SNAP/{seq:08d}", payload)
        self.snapshots_taken += 1
        self._rotate()
        return seq

    def _rotate(self) -> None:
        keys = sorted(info.key for info in self._cloud.list("SNAP/"))
        self._cloud.delete_many(keys[:-self._keep])


def restore_latest_snapshot(
    cloud: ObjectStore,
    fs: FileSystem,
    codec: ObjectCodec | None = None,
) -> int:
    """Restore the newest snapshot into ``fs``; returns files restored.

    Raises:
        RecoveryError: if the bucket holds no snapshots.
    """
    codec = codec or ObjectCodec()
    keys = sorted(info.key for info in cloud.list("SNAP/"))
    if not keys:
        raise RecoveryError("no snapshots in the bucket")
    blob = cloud.get(keys[-1])
    restored = 0
    for path, content in decode_dump_payload(codec.decode(blob)):
        fs.write_all(path, content)
        restored += 1
    return restored
