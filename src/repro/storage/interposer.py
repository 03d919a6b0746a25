"""The interception layer — this repo's stand-in for FUSE.

:class:`InterposedFS` wraps an inner file system and reports every call
to an :class:`FSInterceptor`.  The crucial property it preserves from
FUSE is *synchronous interception*: the hook runs on the calling (DBMS)
thread and may block it, which is exactly how Ginja applies Safety
back-pressure (Algorithm 2, line 7) and how it freezes DB-file writes
while a dump is being assembled (§5.3).

Hook ordering for a write:

1. ``before_write`` — may block (dump freeze);
2. the write lands on the inner file system;
3. ``after_write`` — may block (Safety limit reached).

A fixed ``per_call_overhead`` models the user-/kernel-space round trips
of a real FUSE mount; with no interceptor installed this reproduces the
paper's plain-FUSE baseline (the first two bars of Figure 5).
"""

from __future__ import annotations

from repro.common.clock import Clock, SYSTEM_CLOCK, SleepAccount
from repro.storage.interface import FileSystem


class FSInterceptor:
    """Callbacks the interposer invokes; all default to no-ops.

    Implementations must be thread-safe: a DBMS runs many client threads.
    """

    def before_write(self, path: str, offset: int, data: bytes) -> None:
        """Runs before the local write; may block the caller."""

    def after_write(self, path: str, offset: int, data: bytes) -> None:
        """Runs after the local write; may block the caller."""

    def on_fsync(self, path: str) -> None:
        """The DBMS forced ``path`` durable."""

    def on_truncate(self, path: str, size: int) -> None:
        """``path`` was cut/extended to ``size`` bytes."""

    def on_rename(self, src: str, dst: str) -> None:
        """``src`` became ``dst`` (e.g. WAL segment recycling)."""

    def on_unlink(self, path: str) -> None:
        """``path`` was deleted."""


class InterposedFS(FileSystem):
    """A file system that mirrors every call to an interceptor.

    Args:
        inner: the real backing file system.
        interceptor: receiver of the call stream (``None`` = pure FUSE
            overhead baseline).
        per_call_overhead: modeled seconds added to every operation
            (FUSE context-switch cost; the paper measures the resulting
            throughput dip at 7%/12% for PG/MySQL), paid in full.
        clock: time source.
    """

    def __init__(
        self,
        inner: FileSystem,
        interceptor: FSInterceptor | None = None,
        *,
        per_call_overhead: float = 0.0,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self._inner = inner
        self._interceptor = interceptor
        self._crossing = per_call_overhead
        self._clock = clock
        self._account = SleepAccount()
        self.calls = 0  # total intercepted operations, for diagnostics

    @property
    def inner(self) -> FileSystem:
        return self._inner

    @property
    def interceptor(self) -> FSInterceptor | None:
        return self._interceptor

    def set_interceptor(self, interceptor: FSInterceptor | None) -> None:
        self._interceptor = interceptor

    def _cross(self) -> None:
        self.calls += 1
        self._clock.pace(self._account, self._crossing)

    # -- data plane ---------------------------------------------------------

    def write(self, path: str, offset: int, data: bytes) -> None:
        self._cross()
        if self._interceptor is not None:
            self._interceptor.before_write(path, offset, data)
        self._inner.write(path, offset, data)
        if self._interceptor is not None:
            self._interceptor.after_write(path, offset, data)

    def read(self, path: str, offset: int, size: int) -> bytes:
        self._cross()
        return self._inner.read(path, offset, size)

    def fsync(self, path: str) -> None:
        self._cross()
        self._inner.fsync(path)
        if self._interceptor is not None:
            self._interceptor.on_fsync(path)

    def truncate(self, path: str, size: int) -> None:
        self._cross()
        self._inner.truncate(path, size)
        if self._interceptor is not None:
            self._interceptor.on_truncate(path, size)

    # -- namespace ----------------------------------------------------------

    def rename(self, src: str, dst: str) -> None:
        self._cross()
        self._inner.rename(src, dst)
        if self._interceptor is not None:
            self._interceptor.on_rename(src, dst)

    def unlink(self, path: str) -> None:
        self._cross()
        self._inner.unlink(path)
        if self._interceptor is not None:
            self._interceptor.on_unlink(path)

    def exists(self, path: str) -> bool:
        self._cross()
        return self._inner.exists(path)

    def size(self, path: str) -> int:
        self._cross()
        return self._inner.size(path)

    def files(self, prefix: str = "") -> list[str]:
        self._cross()
        return self._inner.files(prefix)
