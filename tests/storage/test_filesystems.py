"""File system substrate: memory and local-directory backends."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.clock import ManualClock
from repro.common.errors import FileSystemError
from repro.storage.disk import DiskModel, HDD_15K
from repro.storage.local import LocalDirectoryFS
from repro.storage.memory import MemoryFileSystem


@pytest.fixture(params=["memory", "local"])
def any_fs(request, tmp_path):
    if request.param == "memory":
        return MemoryFileSystem()
    return LocalDirectoryFS(tmp_path / "mount")


class TestDataPlane:
    def test_write_read_roundtrip(self, any_fs):
        any_fs.write("dir/file", 0, b"hello world")
        assert any_fs.read("dir/file", 0, 11) == b"hello world"
        assert any_fs.read("dir/file", 6, 5) == b"world"

    def test_write_at_offset_extends_with_zeros(self, any_fs):
        any_fs.write("f", 4, b"x")
        assert any_fs.size("f") == 5
        assert any_fs.read("f", 0, 5) == b"\x00\x00\x00\x00x"

    def test_overwrite_in_place(self, any_fs):
        any_fs.write("f", 0, b"aaaa")
        any_fs.write("f", 1, b"bb")
        assert any_fs.read_all("f") == b"abba"

    def test_short_read_at_eof(self, any_fs):
        any_fs.write("f", 0, b"abc")
        assert any_fs.read("f", 2, 100) == b"c"
        assert any_fs.read("f", 10, 5) == b""

    def test_read_missing_file_raises(self, any_fs):
        with pytest.raises(FileSystemError):
            any_fs.read("nope", 0, 1)

    def test_negative_offset_rejected(self, any_fs):
        with pytest.raises(FileSystemError):
            any_fs.write("f", -1, b"x")

    def test_truncate_shrinks(self, any_fs):
        any_fs.write("f", 0, b"abcdef")
        any_fs.truncate("f", 3)
        assert any_fs.read_all("f") == b"abc"

    def test_truncate_extends(self, any_fs):
        any_fs.write("f", 0, b"ab")
        any_fs.truncate("f", 4)
        assert any_fs.read_all("f") == b"ab\x00\x00"

    def test_truncate_creates_file(self, any_fs):
        any_fs.truncate("new", 8)
        assert any_fs.size("new") == 8

    def test_write_all_replaces(self, any_fs):
        any_fs.write("f", 0, b"long old content")
        any_fs.write_all("f", b"new")
        assert any_fs.read_all("f") == b"new"

    def test_fsync_existing_file(self, any_fs):
        any_fs.write("f", 0, b"x")
        any_fs.fsync("f")  # must not raise

    def test_fsync_missing_file_raises(self, any_fs):
        with pytest.raises(FileSystemError):
            any_fs.fsync("nope")


class TestNamespace:
    def test_rename(self, any_fs):
        any_fs.write("a", 0, b"data")
        any_fs.rename("a", "sub/b")
        assert not any_fs.exists("a")
        assert any_fs.read_all("sub/b") == b"data"

    def test_rename_replaces_destination(self, any_fs):
        any_fs.write("a", 0, b"new")
        any_fs.write("b", 0, b"old")
        any_fs.rename("a", "b")
        assert any_fs.read_all("b") == b"new"

    def test_rename_missing_raises(self, any_fs):
        with pytest.raises(FileSystemError):
            any_fs.rename("nope", "x")

    def test_unlink(self, any_fs):
        any_fs.write("f", 0, b"x")
        any_fs.unlink("f")
        assert not any_fs.exists("f")

    def test_unlink_missing_raises(self, any_fs):
        with pytest.raises(FileSystemError):
            any_fs.unlink("nope")

    def test_files_listing_sorted_with_prefix(self, any_fs):
        for path in ("pg_xlog/2", "pg_xlog/1", "base/t1", "pg_control"):
            any_fs.write(path, 0, b".")
        assert any_fs.files("pg_xlog/") == ["pg_xlog/1", "pg_xlog/2"]
        assert any_fs.files() == sorted(any_fs.files())

    def test_require(self, any_fs):
        any_fs.write("f", 0, b"x")
        any_fs.require("f")
        with pytest.raises(FileSystemError):
            any_fs.require("g")


class TestLocalFSContainment:
    def test_path_escape_rejected(self, tmp_path):
        fs = LocalDirectoryFS(tmp_path / "mount")
        with pytest.raises(FileSystemError):
            fs.write("../escape", 0, b"x")


class TestDiskModel:
    def test_memory_fs_accounts_modeled_latency_without_sleeping(self):
        """On a ManualClock the modeled latency is paid in virtual
        time: metered and advanced in full, never slept."""
        clock = ManualClock()
        fs = MemoryFileSystem(disk=HDD_15K, clock=clock)
        fs.write("f", 0, b"x" * 8192)
        fs.fsync("f")
        assert fs.modeled_io_seconds > HDD_15K.fsync_latency * 0.99
        assert clock.now() == pytest.approx(fs.modeled_io_seconds)

    def test_scaled_sleep(self):
        """Disk latency is paced at full scale."""
        clock = ManualClock()
        disk = DiskModel(fsync_latency=1.0)
        fs = MemoryFileSystem(disk=disk, clock=clock)
        fs.write("f", 0, b"x")
        fs.fsync("f")
        assert clock.now() == pytest.approx(1.0)

    def test_latency_formula(self):
        disk = DiskModel(write_base=0.001, write_bytes_per_sec=1e6)
        assert disk.write_latency(1_000_000) == pytest.approx(1.001)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=300),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=30,
    )
)
def test_memory_fs_matches_bytearray_model(writes):
    """Property: a sequence of offset writes equals the bytearray model."""
    fs = MemoryFileSystem()
    model = bytearray()
    for offset, data in writes:
        fs.write("f", offset, data)
        end = offset + len(data)
        if len(model) < end:
            model.extend(b"\x00" * (end - len(model)))
        model[offset:end] = data
    if writes:
        assert fs.read_all("f") == bytes(model)
