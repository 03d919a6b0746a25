"""Slotted table pages.

A table file is an array of fixed-size pages.  Each page stores a set of
``key -> value`` rows::

    magic(2) | n_entries(2) | { keylen(2) key vallen(4) value }* | zero pad

Pages track their serialized size incrementally, so :meth:`TablePage.put`
stores a row only if it still fits, without re-serializing: one dict
lookup, plus one UTF-8 encode of the key unless the caller passes the
row's :func:`entry_size` it already computed (a row that replaces one
with the same key needs neither).
"""

from __future__ import annotations

import struct

from repro.common.errors import DatabaseError

_HEADER = struct.Struct("<HH")
_KEYLEN = struct.Struct("<H")
_VALLEN = struct.Struct("<I")
PAGE_MAGIC = 0x7AB1

#: Serialized bytes one row adds to a page.
def entry_size(key: str, value: bytes) -> int:
    return _KEYLEN.size + len(key.encode("utf-8")) + _VALLEN.size + len(value)


class TablePage:
    """One in-memory page: a small dict plus size accounting."""

    __slots__ = ("page_no", "page_size", "rows", "used", "dirty")

    def __init__(self, page_no: int, page_size: int):
        self.page_no = page_no
        self.page_size = page_size
        self.rows: dict[str, bytes] = {}
        self.used = _HEADER.size
        self.dirty = False

    def put(self, key: str, value: bytes, size: int | None = None) -> bool:
        """Insert (or update) the row if it still fits; returns whether it
        did.  ``size`` is the row's :func:`entry_size`, when the caller
        already has it."""
        growth = self._growth(key, value, size)
        if growth > self.page_size - self.used:
            return False
        self.rows[key] = value
        self.used += growth
        self.dirty = True
        return True

    def _growth(self, key: str, value: bytes, size: int | None) -> int:
        old = self.rows.get(key)
        if old is not None:  # same key, so only the value's length moves
            return len(value) - len(old)
        return entry_size(key, value) if size is None else size

    def remove(self, key: str) -> None:
        value = self.rows.pop(key)
        self.used -= entry_size(key, value)
        self.dirty = True

    # -- serialization --------------------------------------------------------

    def encode(self) -> bytes:
        parts = [_HEADER.pack(PAGE_MAGIC, len(self.rows))]
        for key, value in self.rows.items():
            raw_key = key.encode("utf-8")
            parts.append(_KEYLEN.pack(len(raw_key)))
            parts.append(raw_key)
            parts.append(_VALLEN.pack(len(value)))
            parts.append(value)
        body = b"".join(parts)
        if len(body) > self.page_size:
            raise DatabaseError(
                f"page {self.page_no} overflow: {len(body)} > {self.page_size}"
            )
        return body + b"\x00" * (self.page_size - len(body))

    @classmethod
    def decode(cls, page_no: int, page_size: int, raw: bytes) -> "TablePage | None":
        """Parse a page image; ``None`` for a blank/garbage page."""
        if len(raw) < _HEADER.size:
            return None
        magic, count = _HEADER.unpack_from(raw, 0)
        if magic != PAGE_MAGIC:
            return None
        page = cls(page_no, page_size)
        offset = _HEADER.size
        try:
            for _ in range(count):
                (klen,) = _KEYLEN.unpack_from(raw, offset)
                offset += _KEYLEN.size
                key = raw[offset:offset + klen].decode("utf-8")
                offset += klen
                (vlen,) = _VALLEN.unpack_from(raw, offset)
                offset += _VALLEN.size
                value = bytes(raw[offset:offset + vlen])
                if offset + vlen > len(raw):
                    return None
                offset += vlen
                page.rows[key] = value
                page.used += entry_size(key, value)
        except (struct.error, UnicodeDecodeError):
            return None
        return page
