"""RAM-backed file system with an optional disk latency model."""

from __future__ import annotations

import threading

from repro.common.clock import Clock, SYSTEM_CLOCK, SleepAccount
from repro.common.errors import FileSystemError
from repro.storage.disk import DiskModel, NO_DISK_LATENCY
from repro.storage.interface import FileSystem


class MemoryFileSystem(FileSystem):
    """Files as bytearrays, with sparse-write semantics.

    Args:
        disk: latency model applied to every call, paid in full.
        clock: time source for sleeping.
    """

    def __init__(
        self,
        disk: DiskModel = NO_DISK_LATENCY,
        *,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self._files: dict[str, bytearray] = {}
        self._lock = threading.RLock()
        self._disk = disk
        self._clock = clock
        self._account = SleepAccount()
        #: Total modeled seconds spent in disk latency (for accounting).
        self.modeled_io_seconds = 0.0
        self._torn_write_bytes: int | None = None

    def _pay(self, latency: float) -> None:
        if latency <= 0:
            return
        with self._lock:
            self.modeled_io_seconds += latency
        self._clock.pace(self._account, latency)

    def _file(self, path: str) -> bytearray:
        try:
            return self._files[path]
        except KeyError:
            raise FileSystemError(f"no such file: {path!r}") from None

    # -- data plane ---------------------------------------------------------

    def write(self, path: str, offset: int, data: bytes) -> None:
        if offset < 0:
            raise FileSystemError(f"negative offset {offset} writing {path!r}")
        self._pay(self._disk.write_latency(len(data)))
        with self._lock:
            torn = self._torn_write_bytes
            if torn is not None:
                self._torn_write_bytes = None
                data = data[:torn]
            buf = self._files.setdefault(path, bytearray())
            end = offset + len(data)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            buf[offset:end] = data
            if torn is not None:
                raise FileSystemError(
                    f"simulated power loss: wrote {torn} of the requested "
                    f"bytes to {path!r}"
                )

    def read(self, path: str, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise FileSystemError(f"negative read bounds on {path!r}")
        with self._lock:
            data = bytes(self._file(path)[offset:offset + size])
        self._pay(self._disk.read_latency(len(data)))
        return data

    def fsync(self, path: str) -> None:
        with self._lock:
            self._file(path)  # existence check
        self._pay(self._disk.fsync_latency)

    def truncate(self, path: str, size: int) -> None:
        if size < 0:
            raise FileSystemError(f"negative truncate size on {path!r}")
        with self._lock:
            buf = self._files.setdefault(path, bytearray())
            if len(buf) > size:
                del buf[size:]
            else:
                buf.extend(b"\x00" * (size - len(buf)))

    # -- namespace ----------------------------------------------------------

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            self._files[dst] = self._file(src)
            del self._files[src]

    def unlink(self, path: str) -> None:
        with self._lock:
            if path not in self._files:
                raise FileSystemError(f"no such file: {path!r}")
            del self._files[path]

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._files

    def size(self, path: str) -> int:
        with self._lock:
            return len(self._file(path))

    def files(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(p for p in self._files if p.startswith(prefix))

    # -- test helpers ---------------------------------------------------------

    def total_bytes(self) -> int:
        """Sum of all file sizes (the 'local database size')."""
        with self._lock:
            return sum(len(buf) for buf in self._files.values())

    def tear_next_write(self, apply_bytes: int) -> None:
        """One-shot fault: the next ``write`` persists only its first
        ``apply_bytes`` bytes, then raises — a torn page at power loss."""
        if apply_bytes < 0:
            raise FileSystemError("cannot tear a negative byte count")
        with self._lock:
            self._torn_write_bytes = apply_bytes

    def corrupt(self, path: str, offset: int, garbage: bytes) -> None:
        """Overwrite bytes without going through ``write`` accounting —
        used by tests to simulate media corruption."""
        with self._lock:
            buf = self._file(path)
            buf[offset:offset + len(garbage)] = garbage
