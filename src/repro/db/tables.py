"""Tables with page-granular persistence and an optional buffer pool.

Dirty pages reach the table files exclusively through checkpoints,
exactly like the engines the paper instruments: "all the table pages
remain in memory until a periodic checkpoint occurs" (§4).  With a
buffer-pool capacity configured (``EngineConfig.buffer_pool_pages``),
clean pages are evicted LRU and transparently reloaded from the table
files on access; by default everything stays resident.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.common.errors import DatabaseError
from repro.db.buffer import BufferPool
from repro.db.pages import TablePage, entry_size
from repro.db.profiles import DBMSProfile
from repro.storage.interface import FileSystem


class Table:
    """One table: an index over slotted pages (possibly evicted ones).

    ``pages`` holds ``None`` for evicted page slots; access goes through
    :meth:`page` which reloads on demand via the store-provided hooks.
    """

    def __init__(
        self,
        name: str,
        page_size: int,
        *,
        reload_page: Callable[[str, int], TablePage] | None = None,
        touched: Callable[[str, TablePage], None] | None = None,
    ):
        self.name = name
        self.page_size = page_size
        self.pages: list[TablePage | None] = []
        self.index: dict[str, int] = {}  # key -> page_no
        self._reload_page = reload_page
        self._touched = touched

    # -- page access ------------------------------------------------------------

    def page(self, page_no: int) -> TablePage:
        """The resident image of ``page_no``, reloading if evicted."""
        page = self.pages[page_no]
        if page is None:
            if self._reload_page is None:
                raise DatabaseError(
                    f"page {page_no} of {self.name!r} evicted with no loader"
                )
            page = self._reload_page(self.name, page_no)
            self.pages[page_no] = page
        if self._touched is not None:
            self._touched(self.name, page)
        return page

    # -- row operations -----------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        page_no = self.index.get(key)
        if page_no is None:
            return None
        return self.page(page_no).rows[key]

    def put(self, key: str, value: bytes) -> None:
        size = entry_size(key, value)
        if size > self.page_size - 4:
            raise DatabaseError(
                f"row {key!r} too large for {self.page_size}B pages of "
                f"table {self.name!r}"
            )
        page_no = self.index.get(key)
        if page_no is not None:
            page = self.page(page_no)
            if page.fits(key, value, size):
                page.put(key, value, size)
                return
            page.remove(key)
            del self.index[key]
        target = self._page_with_room(key, value, size)
        target.put(key, value, size)
        self.index[key] = target.page_no

    def delete(self, key: str) -> bool:
        page_no = self.index.pop(key, None)
        if page_no is None:
            return False
        self.page(page_no).remove(key)
        return True

    def _page_with_room(self, key: str, value: bytes, size: int) -> TablePage:
        # Check the tail pages first — the common append pattern — then
        # allocate a new page rather than scanning the whole table.
        for page_no in range(len(self.pages) - 1, max(-1, len(self.pages) - 5), -1):
            page = self.page(page_no)
            if page.fits(key, value, size):
                return page
        page = TablePage(len(self.pages), self.page_size)
        self.pages.append(page)
        if self._touched is not None:
            self._touched(self.name, page)
        return page

    def dirty_pages(self) -> list[TablePage]:
        # Evicted pages are clean by construction.
        return [page for page in self.pages if page is not None and page.dirty]

    def row_count(self) -> int:
        return len(self.index)

    def keys(self):
        return self.index.keys()


class TableStore:
    """All tables of one database, with load/flush to a file system."""

    def __init__(
        self,
        fs: FileSystem,
        profile: DBMSProfile,
        *,
        buffer_pool_pages: int | None = None,
    ):
        self._fs = fs
        self._profile = profile
        self._tables: dict[str, Table] = {}
        self._lock = threading.RLock()
        self.pool = BufferPool(buffer_pool_pages)

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def table(self, name: str, create: bool = True) -> Table:
        with self._lock:
            existing = self._tables.get(name)
            if existing is not None:
                return existing
            if not create:
                raise DatabaseError(f"no such table: {name!r}")
            table = self._new_table(name)
            self._tables[name] = table
            self._on_create(name)
            return table

    def _new_table(self, name: str) -> Table:
        return Table(
            name,
            self._profile.table_page_size,
            reload_page=self._reload_page,
            # An unbounded pool never evicts: page accesses go untracked.
            touched=None if self.pool.unbounded else self._page_touched,
        )

    # -- buffer pool plumbing -------------------------------------------------------

    def _page_touched(self, name: str, page: TablePage) -> None:
        self.pool.touch(name, page)
        overflow = self.pool.evict_overflow(exclude=(name, page.page_no))
        for table_name, page_no in overflow:
            table = self._tables.get(table_name)
            if table is not None and page_no < len(table.pages):
                table.pages[page_no] = None

    def _reload_page(self, name: str, page_no: int) -> TablePage:
        page_size = self._profile.table_page_size
        raw = self._fs.read(
            self._profile.table_path(name), page_no * page_size, page_size
        )
        page = TablePage.decode(page_no, page_size, raw)
        if page is None:
            page = TablePage(page_no, page_size)
        self.pool.note_reload()
        return page

    def _on_create(self, name: str) -> None:
        """Create the on-disk presence a real engine gives a new table."""
        path = self._profile.table_path(name)
        if not self._fs.exists(path):
            self._fs.truncate(path, 0)
        if self._profile.ring_wal:
            # MySQL also writes a .frm schema file per table.
            frm = f"{name}.frm"
            if not self._fs.exists(frm):
                self._fs.write(frm, 0, b"FRM1" + name.encode("utf-8"))

    def tables(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    def row_count(self, name: str) -> int:
        with self._lock:
            table = self._tables.get(name)
            return table.row_count() if table else 0

    def total_rows(self) -> int:
        with self._lock:
            return sum(t.row_count() for t in self._tables.values())

    def resident_pages(self) -> int:
        with self._lock:
            return sum(
                len(t.pages) - t.pages.count(None) for t in self._tables.values()
            )

    # -- persistence ------------------------------------------------------------

    def collect_dirty(self) -> list[tuple[str, TablePage]]:
        """Snapshot of (table, page) pairs currently dirty."""
        with self._lock:
            found = []
            for table in self._tables.values():
                for page in table.dirty_pages():
                    found.append((table.name, page))
            return found

    def flush_page(self, table_name: str, page: TablePage) -> str:
        """Write one page to its table file; returns the path written.

        The page image is taken (and the dirty bit cleared) under the
        store lock; the file write happens outside it so commits are not
        stalled behind disk/interceptor latency — the property that lets
        Ginja block checkpoint writes without blocking commits (§5.3).
        """
        with self._lock:
            image = page.encode()
            page.dirty = False
            page.pinned = True  # not evictable until the image is durable
        path = self._profile.table_path(table_name)
        try:
            self._fs.write(path, page.page_no * page.page_size, image)
        finally:
            with self._lock:
                page.pinned = False
        return path

    def load_all(self) -> None:
        """Rebuild every table from its file (recovery path)."""
        with self._lock:
            self._tables.clear()
            for path in self._fs.files():
                name = self._table_name_from_path(path)
                if name is None:
                    continue
                self._load_table(name, path)

    def _table_name_from_path(self, path: str) -> str | None:
        if self._profile.ring_wal:
            if path.endswith(".ibd"):
                return path.removesuffix(".ibd")
            return None
        if path.startswith("base/"):
            return path.removeprefix("base/")
        return None

    def _load_table(self, name: str, path: str) -> None:
        page_size = self._profile.table_page_size
        table = self._new_table(name)
        raw = self._fs.read_all(path)
        for page_no in range(len(raw) // page_size):
            image = raw[page_no * page_size:(page_no + 1) * page_size]
            page = TablePage.decode(page_no, page_size, image)
            if page is None:
                page = TablePage(page_no, page_size)
            for key in page.rows:
                table.index[key] = page_no
            table.pages.append(page)
            self.pool.touch(name, page)
        self._tables[name] = table
        # Loaded pages are clean; trim to capacity immediately.
        for table_name, page_no in self.pool.evict_overflow():
            owner = self._tables.get(table_name)
            if owner is not None and page_no < len(owner.pages):
                owner.pages[page_no] = None

    def db_file_bytes(self) -> int:
        """Total size of all non-WAL files — the 'local DB size' of the
        150% dump rule."""
        total = 0
        for path in self._fs.files():
            if self._profile.is_db_file(path):
                total += self._fs.size(path)
        return total
