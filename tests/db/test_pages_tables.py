"""Table pages and the table store."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import DatabaseError
from repro.db.pages import TablePage
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.db.tables import Table, TableStore
from repro.storage.memory import MemoryFileSystem

PAGE = 8192


class TestTablePage:
    def test_put_get_roundtrip(self):
        page = TablePage(0, PAGE)
        assert page.put("k", b"value") is True
        assert page.rows["k"] == b"value"
        assert page.dirty

    def test_update_in_place_adjusts_size(self):
        page = TablePage(0, PAGE)
        page.put("k", b"x" * 100)
        used_before = page.used
        page.put("k", b"y" * 50)
        assert page.used == used_before - 50

    def test_remove_releases_space(self):
        page = TablePage(0, PAGE)
        empty_used = page.used
        page.put("k", b"data")
        page.remove("k")
        assert page.used == empty_used

    def test_overflow_rejected(self):
        page = TablePage(0, 64)
        used = page.used
        assert page.put("k", b"z" * 100) is False
        assert page.rows == {} and page.used == used and not page.dirty

    def test_encode_pads_to_page_size(self):
        page = TablePage(0, PAGE)
        page.put("k", b"v")
        assert len(page.encode()) == PAGE

    def test_decode_roundtrip(self):
        page = TablePage(3, PAGE)
        page.put("a", b"1")
        page.put("b", b"22")
        decoded = TablePage.decode(3, PAGE, page.encode())
        assert decoded is not None
        assert decoded.rows == {"a": b"1", "b": b"22"}
        assert decoded.used == page.used

    def test_decode_blank_page_is_none(self):
        assert TablePage.decode(0, PAGE, b"\x00" * PAGE) is None

    def test_decode_garbage_is_none(self):
        assert TablePage.decode(0, PAGE, b"\xff" * PAGE) is None

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=12), st.binary(max_size=60), max_size=40
        )
    )
    def test_encode_decode_property(self, rows):
        page = TablePage(0, PAGE)
        for key, value in rows.items():
            page.put(key, value)
        decoded = TablePage.decode(0, PAGE, page.encode())
        assert decoded is not None and decoded.rows == rows


class TestTable:
    def test_put_get_delete(self):
        table = Table("t", PAGE)
        table.put("k", b"v")
        assert table.get("k") == b"v"
        assert table.delete("k")
        assert table.get("k") is None
        assert not table.delete("k")

    def test_rows_spill_to_new_pages(self):
        table = Table("t", 256)
        for i in range(50):
            table.put(f"key{i:03d}", b"x" * 40)
        assert len(table.pages) > 1
        for i in range(50):
            assert table.get(f"key{i:03d}") == b"x" * 40

    def test_growing_update_relocates_row(self):
        table = Table("t", 256)
        table.put("a", b"x" * 100)
        table.put("b", b"y" * 100)  # page 0 nearly full
        table.put("a", b"z" * 150)  # no longer fits beside b
        assert table.get("a") == b"z" * 150
        assert table.get("b") == b"y" * 100

    def test_oversized_row_rejected(self):
        table = Table("t", 256)
        with pytest.raises(DatabaseError):
            table.put("k", b"x" * 1000)

    def test_row_count(self):
        table = Table("t", PAGE)
        for i in range(7):
            table.put(f"k{i}", b"v")
        table.delete("k0")
        assert table.row_count() == 6

    def test_one_growth_per_put(self, monkeypatch):
        """A put that lands on the first page it tries sizes its row once."""
        calls = []
        real_growth = TablePage._growth

        def counting_growth(page, key, value, size):
            calls.append(key)
            return real_growth(page, key, value, size)

        monkeypatch.setattr(TablePage, "_growth", counting_growth)
        table = Table("t", PAGE)
        for i in range(30):  # new rows, each on the tail page
            table.put(f"k{i}", b"x" * 100)
        for i in range(30):  # same-size rewrites, each in place
            table.put(f"k{i}", b"y" * 100)
        assert len(calls) == 60
        assert len(table.pages) == 1

    def test_rows_land_where_they_always_did(self):
        """Growing rewrites, deletes and reuse of free room on a fixed
        history: the index (in insertion order) is pinned."""
        rng = random.Random(42)
        table = Table("t", 1024)
        for n in range(200):
            key = f"k{rng.randrange(30)}"
            if rng.random() < 0.2:
                table.delete(key)
            else:
                table.put(key, bytes([n % 251]) * rng.choice((10, 60, 200, 450)))
        placed = " ".join(f"{key}:{page}" for key, page in table.index.items())
        assert placed == (
            "k3:1 k29:1 k26:0 k12:0 k5:2 k11:3 k16:3 k9:4 k18:4 k10:5 k24:4 "
            "k15:3 k23:4 k22:5 k6:6 k19:6 k17:5 k21:6 k7:6 k25:7 k1:7 k14:7 "
            "k20:8 k8:8 k2:8 k28:8 k27:5"
        )
        for key, page_no in table.index.items():
            assert key in table.pages[page_no].rows


class TestTableStore:
    @pytest.fixture(params=["postgres", "mysql"])
    def setup(self, request):
        profile = POSTGRES_PROFILE if request.param == "postgres" else MYSQL_PROFILE
        fs = MemoryFileSystem()
        return fs, profile, TableStore(fs, profile)

    def test_table_creation_touches_files(self, setup):
        fs, profile, store = setup
        store.table("orders")
        assert fs.exists(profile.table_path("orders"))
        if profile.ring_wal:
            assert fs.exists("orders.frm")

    def test_missing_table_without_create(self, setup):
        _fs, _profile, store = setup
        with pytest.raises(DatabaseError):
            store.table("ghost", create=False)

    def test_flush_and_reload(self, setup):
        fs, profile, store = setup
        table = store.table("t")
        with store.lock:
            table.put("k1", b"v1")
            table.put("k2", b"v2")
        for name, page in store.collect_dirty():
            store.flush_page(name, page)
        fresh = TableStore(fs, profile)
        fresh.load_all()
        assert fresh.table("t", create=False).get("k1") == b"v1"
        assert fresh.table("t", create=False).get("k2") == b"v2"

    def test_flush_clears_dirty(self, setup):
        _fs, _profile, store = setup
        table = store.table("t")
        with store.lock:
            table.put("k", b"v")
        for name, page in store.collect_dirty():
            store.flush_page(name, page)
        assert store.collect_dirty() == []

    def test_unflushed_rows_not_in_files(self, setup):
        fs, profile, store = setup
        with store.lock:
            store.table("t").put("k", b"v")
        fresh = TableStore(fs, profile)
        fresh.load_all()
        assert fresh.table("t", create=False).get("k") is None

    def test_db_file_bytes_excludes_wal(self, setup):
        fs, profile, store = setup
        store.table("t")
        fs.write(profile.wal_path(0), 0, b"\x00" * 4096)
        wal_free = store.db_file_bytes()
        fs.write(profile.wal_path(0), 4096, b"\x00" * 4096)
        assert store.db_file_bytes() == wal_free
