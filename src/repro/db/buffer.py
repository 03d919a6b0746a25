"""Buffer pool: bounded page residency with LRU eviction.

By default MiniDB keeps every table page resident (the databases the
paper's experiments use fit in the testbed's 32 GB of RAM anyway).  With
a capacity set, the pool evicts the least-recently-used *clean* page
when over budget; dirty pages are pinned until a checkpoint writes them
out, matching the "all the table pages remain in memory until a
periodic checkpoint occurs" behaviour of §4 while bounding memory.

Eviction drops the in-memory image; a later access reloads the page
from the table file.  Only clean pages are evictable, so a reload is
always faithful.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import ConfigError
from repro.db.pages import TablePage


class BufferPool:
    """LRU tracking of resident (table, page_no) images.

    Not itself locked: callers hold the table-store lock around every
    operation (the pool is an internal component of TableStore).
    """

    def __init__(self, capacity_pages: int | None = None):
        if capacity_pages is not None and capacity_pages < 1:
            raise ConfigError("buffer pool capacity must be >= 1 page")
        self._capacity = capacity_pages
        self._lru: "OrderedDict[tuple[str, int], TablePage]" = OrderedDict()
        self.evictions = 0
        self.reloads = 0

    @property
    def unbounded(self) -> bool:
        return self._capacity is None

    def touch(self, table: str, page: TablePage) -> None:
        """Mark a page as just-used (and resident).  An unbounded pool
        keeps every page and orders none: this is a no-op there."""
        if self._capacity is None:
            return
        key = (table, page.page_no)
        self._lru[key] = page
        self._lru.move_to_end(key)

    def evict_overflow(
        self, exclude: tuple[str, int] | None = None
    ) -> list[tuple[str, int]]:
        """Evict LRU *clean, unpinned* pages until within capacity.

        Returns the (table, page_no) pairs evicted; the caller detaches
        them from its page arrays.  Skipped pages: dirty (awaiting a
        checkpoint), pinned (image in flight to disk), and ``exclude``
        (the page the caller is actively operating on).
        """
        if self._capacity is None:
            return []
        evicted: list[tuple[str, int]] = []
        for key in list(self._lru):
            if len(self._lru) <= self._capacity:
                break
            if key == exclude:
                continue
            page = self._lru[key]
            if page.dirty or page.pinned:
                continue
            del self._lru[key]
            evicted.append(key)
        self.evictions += len(evicted)
        return evicted

    def note_reload(self) -> None:
        self.reloads += 1
