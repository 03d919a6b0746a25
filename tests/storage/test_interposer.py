"""The interception seam Ginja mounts on."""

from __future__ import annotations

import pytest

from repro.common.clock import ManualClock
from repro.storage.interposer import FSInterceptor, InterposedFS
from repro.storage.memory import MemoryFileSystem


class RecordingInterceptor(FSInterceptor):
    """Collects the full event stream for assertions."""

    def __init__(self):
        self.events: list[tuple] = []

    def before_write(self, path, offset, data):
        self.events.append(("before_write", path, offset, bytes(data)))

    def after_write(self, path, offset, data):
        self.events.append(("after_write", path, offset, bytes(data)))

    def on_fsync(self, path):
        self.events.append(("fsync", path))

    def on_truncate(self, path, size):
        self.events.append(("truncate", path, size))

    def on_rename(self, src, dst):
        self.events.append(("rename", src, dst))

    def on_unlink(self, path):
        self.events.append(("unlink", path))


@pytest.fixture
def stack():
    inner = MemoryFileSystem()
    interceptor = RecordingInterceptor()
    return inner, interceptor, InterposedFS(inner, interceptor)


class TestInterception:
    def test_write_hooks_bracket_the_local_write(self, stack):
        inner, interceptor, fs = stack
        fs.write("wal/seg1", 8192, b"page")
        assert interceptor.events == [
            ("before_write", "wal/seg1", 8192, b"page"),
            ("after_write", "wal/seg1", 8192, b"page"),
        ]
        assert inner.read("wal/seg1", 8192, 4) == b"page"

    def test_write_lands_before_after_hook(self):
        """after_write must observe the data already durable locally —
        this is what lets Ginja 'writeLocally' then enqueue (Alg. 2)."""
        inner = MemoryFileSystem()
        seen = []

        class Peek(FSInterceptor):
            def after_write(self, path, offset, data):
                seen.append(inner.read(path, offset, len(data)))

        fs = InterposedFS(inner, Peek())
        fs.write("f", 0, b"payload")
        assert seen == [b"payload"]

    def test_fsync_truncate_rename_unlink_reported(self, stack):
        _inner, interceptor, fs = stack
        fs.write("f", 0, b"x")
        interceptor.events.clear()
        fs.fsync("f")
        fs.truncate("f", 0)
        fs.rename("f", "g")
        fs.unlink("g")
        assert [e[0] for e in interceptor.events] == [
            "fsync",
            "truncate",
            "rename",
            "unlink",
        ]

    def test_reads_pass_through_without_hooks(self, stack):
        _inner, interceptor, fs = stack
        fs.write("f", 0, b"abc")
        interceptor.events.clear()
        assert fs.read("f", 0, 3) == b"abc"
        assert fs.size("f") == 3
        assert fs.exists("f")
        assert fs.files() == ["f"]
        assert interceptor.events == []

    def test_no_interceptor_is_passthrough(self):
        fs = InterposedFS(MemoryFileSystem())
        fs.write("f", 0, b"x")
        assert fs.read_all("f") == b"x"

    def test_interceptor_swap(self, stack):
        _inner, interceptor, fs = stack
        fs.set_interceptor(None)
        fs.write("f", 0, b"x")
        assert interceptor.events == []
        fs.set_interceptor(interceptor)
        fs.write("f", 0, b"y")
        assert len(interceptor.events) == 2


class TestFuseOverhead:
    def test_per_call_overhead_slept_scaled(self):
        """Each crossing pays the whole per-call overhead."""
        clock = ManualClock()
        fs = InterposedFS(
            MemoryFileSystem(), per_call_overhead=0.010, clock=clock
        )
        fs.write("f", 0, b"x")
        fs.fsync("f")
        assert clock.now() == pytest.approx(0.020)
        assert fs.calls == 2

    def test_blocking_interceptor_blocks_caller(self):
        """An after_write that refuses to return stalls the write — the
        Safety back-pressure mechanism."""
        import threading

        gate = threading.Event()

        class Blocker(FSInterceptor):
            def after_write(self, path, offset, data):
                gate.wait(timeout=5)

        fs = InterposedFS(MemoryFileSystem(), Blocker())
        done = threading.Event()

        def writer():
            fs.write("f", 0, b"x")
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not done.wait(timeout=0.1)  # still blocked
        gate.set()
        assert done.wait(timeout=5)
        thread.join()
