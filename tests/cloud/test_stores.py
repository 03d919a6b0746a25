"""Object store backends: in-memory and on-disk."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cloud.directory import DirectoryObjectStore
from repro.cloud.interface import ObjectInfo
from repro.cloud.memory import InMemoryObjectStore
from repro.common.errors import CloudObjectNotFound


@pytest.fixture(params=["memory", "directory"])
def any_store(request, tmp_path):
    if request.param == "memory":
        return InMemoryObjectStore()
    return DirectoryObjectStore(tmp_path / "bucket")


class TestVerbs:
    def test_put_then_get(self, any_store):
        any_store.put("WAL/0001_seg_0", b"hello")
        assert any_store.get("WAL/0001_seg_0") == b"hello"

    def test_put_overwrites(self, any_store):
        any_store.put("k", b"v1")
        any_store.put("k", b"v2")
        assert any_store.get("k") == b"v2"

    def test_get_missing_raises(self, any_store):
        with pytest.raises(CloudObjectNotFound):
            any_store.get("nope")

    def test_delete_then_get_raises(self, any_store):
        any_store.put("k", b"v")
        any_store.delete("k")
        with pytest.raises(CloudObjectNotFound):
            any_store.get("k")

    def test_delete_missing_is_noop(self, any_store):
        any_store.delete("never-existed")  # must not raise

    def test_empty_body_roundtrip(self, any_store):
        any_store.put("empty", b"")
        assert any_store.get("empty") == b""

    def test_binary_safety(self, any_store):
        payload = bytes(range(256)) * 3
        any_store.put("bin", payload)
        assert any_store.get("bin") == payload


class TestList:
    def test_list_is_sorted_by_key(self, any_store):
        for key in ("b", "a", "c/x", "c/a"):
            any_store.put(key, b".")
        keys = [info.key for info in any_store.list()]
        assert keys == sorted(keys)

    def test_list_prefix_filter(self, any_store):
        any_store.put("WAL/1", b"aa")
        any_store.put("WAL/2", b"bbb")
        any_store.put("DB/1", b"c")
        assert [i.key for i in any_store.list("WAL/")] == ["WAL/1", "WAL/2"]

    def test_list_reports_sizes(self, any_store):
        any_store.put("k", b"12345")
        (info,) = any_store.list("k")
        assert info == ObjectInfo(key="k", size=5)

    def test_total_bytes(self, any_store):
        any_store.put("a", b"12")
        any_store.put("b", b"345")
        assert sum(info.size for info in any_store.list()) == 5

    def test_exists(self, any_store):
        any_store.put("a/b", b"x")
        assert any_store.exists("a/b")
        assert not any_store.exists("a")  # prefix is not the object itself


class TestDirectoryStoreSpecifics:
    def test_keys_with_special_characters(self, tmp_path):
        store = DirectoryObjectStore(tmp_path / "b")
        key = "WAL/000123_pg_xlog%2Fseg_8192"
        store.put(key, b"data")
        assert store.get(key) == b"data"
        assert [i.key for i in store.list()] == [key]

    def test_persistence_across_instances(self, tmp_path):
        DirectoryObjectStore(tmp_path / "b").put("k", b"v")
        assert DirectoryObjectStore(tmp_path / "b").get("k") == b"v"

    def test_tmp_files_not_listed(self, tmp_path):
        store = DirectoryObjectStore(tmp_path / "b")
        (store.root / "stray.tmp").write_bytes(b"junk")
        assert store.list() == []


class TestMemoryStoreSpecifics:
    def test_put_snapshot_isolated_from_caller_buffer(self):
        store = InMemoryObjectStore()
        buf = bytearray(b"aaaa")
        store.put("k", bytes(buf))
        buf[:] = b"zzzz"
        assert store.get("k") == b"aaaa"

    def test_len_and_clear(self):
        store = InMemoryObjectStore()
        store.put("a", b"1")
        store.put("b", b"2")
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


@given(
    st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=30,
        ),
        st.binary(max_size=200),
        max_size=20,
    )
)
def test_memory_store_matches_dict_model(contents):
    """Property: the store behaves exactly like a dict of bytes."""
    store = InMemoryObjectStore()
    for key, value in contents.items():
        store.put(key, value)
    assert store.snapshot() == contents
    assert [i.key for i in store.list()] == sorted(contents)
    for key, value in contents.items():
        assert store.get(key) == value
