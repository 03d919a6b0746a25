"""Ginja's cloud data model (§5.2): object names and payload formats.

Two object families live in the bucket:

* ``WAL/<ts>_<filename>_<offset>`` — aggregated WAL segment writes.
  ``ts`` totally orders WAL objects; ``filename`` is the local segment
  the content belongs to; ``offset`` is the position of the object's
  first byte within that segment.
* ``DB/<ts>_<type>_<size>`` — database-file data, either a full
  ``dump`` or an incremental ``checkpoint``; ``ts`` is the timestamp of
  the last uploaded WAL object before the checkpoint began.

Timestamps are zero-padded to 12 digits so lexicographic key order (the
only order a LIST guarantees) matches numeric order.  File names are
percent-encoded inside the key because they contain ``/`` and ``_``.

Payload formats (before the codec is applied):

* WAL object — ``chunks``: a framed list of ``(offset, bytes)`` runs
  within the one segment (aggregation occasionally produces
  non-adjacent page runs; the name's offset is the first run's).
* checkpoint DB object — a framed list of ``(path, offset, bytes)``.
* dump DB object — a framed list of ``(path, full_content)``.

:class:`BucketIndex` is the one reading of a LIST: recovery plans from
it, and the fsck catalog judges it.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

from repro.common.errors import GinjaError
from repro.common.serialize import (
    pack_bytes,
    pack_str,
    pack_u32,
    pack_u32_into,
    pack_u64,
    pack_u64_into,
    take_bytes,
    take_str,
    take_u32,
    take_u64,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.cloud.interface import ObjectStore
    from repro.core.pitr import RetentionPolicy

_TS_DIGITS = 12

DUMP = "dump"
CHECKPOINT = "checkpoint"


def _encode_name(filename: str) -> str:
    # quote() never escapes "_" (it is in the always-safe set), but the
    # key format delimits fields with "_" — and real WAL files are named
    # ``ib_logfile0``.  Escape it explicitly.
    return urllib.parse.quote(filename, safe="").replace("_", "%5F")


def _decode_name(token: str) -> str:
    return urllib.parse.unquote(token)


# ---------------------------------------------------------------------------
# WAL objects


@dataclass(frozen=True, slots=True)
class WALObjectMeta:
    """Identity of one WAL object, as encoded in its key."""

    ts: int
    filename: str
    offset: int

    @property
    def key(self) -> str:
        return f"WAL/{self.ts:0{_TS_DIGITS}d}_{_encode_name(self.filename)}_{self.offset}"

    @classmethod
    def parse(cls, key: str) -> "WALObjectMeta":
        if not key.startswith("WAL/"):
            raise GinjaError(f"not a WAL object key: {key!r}")
        rest = key[len("WAL/"):]
        try:
            # The filename token cannot contain "_" (it is percent-encoded
            # with no safe characters), so a plain 3-way split is safe.
            ts_token, name_token, offset_token = rest.split("_")
            return cls(
                ts=int(ts_token),
                filename=_decode_name(name_token),
                offset=int(offset_token),
            )
        except ValueError as exc:
            raise GinjaError(f"malformed WAL object key: {key!r}") from exc


def encode_wal_payload(chunks: list[tuple[int, bytes]]) -> bytearray:
    """Serialize the (offset, data) runs of one WAL object.

    ``data`` may be any bytes-like object (the pipeline's split stage
    hands in ``memoryview`` slices of the submitted pages); the payload
    is assembled into one exactly-sized buffer, so each chunk's bytes
    are copied exactly once on their way to the codec.
    """
    total = 4 + sum(12 + len(data) for _offset, data in chunks)
    out = bytearray(total)
    pack_u32_into(out, 0, len(chunks))
    pos = 4
    for offset, data in chunks:
        pack_u64_into(out, pos, offset)
        pack_u32_into(out, pos + 8, len(data))
        pos += 12
        out[pos:pos + len(data)] = data
        pos += len(data)
    return out


def decode_wal_payload(payload: bytes) -> list[tuple[int, bytes]]:
    count, pos = take_u32(payload, 0)
    chunks: list[tuple[int, bytes]] = []
    for _ in range(count):
        offset, pos = take_u64(payload, pos)
        data, pos = take_bytes(payload, pos)
        chunks.append((offset, data))
    return chunks


# ---------------------------------------------------------------------------
# DB objects


@dataclass(frozen=True, slots=True)
class DBObjectMeta:
    """Identity of one DB object (dump or incremental checkpoint).

    The paper caps cloud objects at 20 MB (footnote 3) and its cost model
    counts "DB objects split in files of up to 20MB", so one checkpoint or
    dump may span several objects.  The paper's name format does not say
    how parts are distinguished; we extend the size token to
    ``<size>.<part>.<nparts>.<seq>``:

    * ``part``/``nparts`` let recovery detect an incomplete (crashed
      mid-upload) dump or checkpoint and fall back;
    * ``seq`` is the checkpoint sequence number, which disambiguates two
      checkpoints whose WAL frontier ``ts`` is identical (possible when
      no WAL upload completed between them — the paper's ts-only naming
      would collide).  Ordering of DB objects is by ``(ts, seq)``.
    """

    ts: int
    type: str  # DUMP or CHECKPOINT
    size: int
    part: int = 0
    nparts: int = 1
    seq: int = 0

    def __post_init__(self) -> None:
        if self.type not in (DUMP, CHECKPOINT):
            raise GinjaError(f"unknown DB object type: {self.type!r}")
        if not 0 <= self.part < self.nparts:
            raise GinjaError(f"invalid part {self.part}/{self.nparts}")

    @property
    def is_dump(self) -> bool:
        return self.type == DUMP

    @property
    def order(self) -> tuple[int, int]:
        """DB objects totally order by (WAL frontier ts, checkpoint seq)."""
        return (self.ts, self.seq)

    @property
    def group(self) -> tuple[int, int, str]:
        """Identity of the multi-part group this object belongs to."""
        return (self.ts, self.seq, self.type)

    @property
    def key(self) -> str:
        return (
            f"DB/{self.ts:0{_TS_DIGITS}d}_{self.type}_"
            f"{self.size}.{self.part}.{self.nparts}.{self.seq}"
        )

    @classmethod
    def parse(cls, key: str) -> "DBObjectMeta":
        if not key.startswith("DB/"):
            raise GinjaError(f"not a DB object key: {key!r}")
        rest = key[len("DB/"):]
        try:
            ts_token, type_token, size_token = rest.split("_")
            size_str, part_str, nparts_str, seq_str = size_token.split(".")
            return cls(
                ts=int(ts_token),
                type=type_token,
                size=int(size_str),
                part=int(part_str),
                nparts=int(nparts_str),
                seq=int(seq_str),
            )
        except ValueError as exc:
            raise GinjaError(f"malformed DB object key: {key!r}") from exc


def encode_checkpoint_payload(writes: list[tuple[str, int, bytes]]) -> bytes:
    """Serialize the (path, offset, data) page writes of a checkpoint."""
    out = [pack_u32(len(writes))]
    for path, offset, data in writes:
        out.append(pack_str(path))
        out.append(pack_u64(offset))
        out.append(pack_bytes(data))
    return b"".join(out)


def decode_checkpoint_payload(payload: bytes) -> list[tuple[str, int, bytes]]:
    count, pos = take_u32(payload, 0)
    writes: list[tuple[str, int, bytes]] = []
    for _ in range(count):
        path, pos = take_str(payload, pos)
        offset, pos = take_u64(payload, pos)
        data, pos = take_bytes(payload, pos)
        writes.append((path, offset, data))
    return writes


def encode_dump_payload(files: list[tuple[str, bytes]]) -> bytes:
    """Serialize the (path, content) files of a full dump."""
    out = [pack_u32(len(files))]
    for path, content in files:
        out.append(pack_str(path))
        out.append(pack_bytes(content))
    return b"".join(out)


def split_dump_files(
    files: list[tuple[str, bytes]], max_bytes: int
) -> list[list[tuple[str, bytes]]]:
    """Pack a dump's (path, content) files greedily into parts of at
    most ``max_bytes``, in order.  Files are never sliced: one bigger
    than the cap becomes its own part (clouds accept it; the cap is a
    latency optimization, not a limit).  Always at least one part, so
    an empty database still uploads a (complete, empty) dump."""
    groups: list[list[tuple[str, bytes]]] = []
    current: list[tuple[str, bytes]] = []
    size = 0
    for path, content in files:
        if current and size + len(content) > max_bytes:
            groups.append(current)
            current, size = [], 0
        current.append((path, content))
        size += len(content)
    if current:
        groups.append(current)
    return groups or [[]]


def decode_dump_payload(payload: bytes) -> list[tuple[str, bytes]]:
    count, pos = take_u32(payload, 0)
    files: list[tuple[str, bytes]] = []
    for _ in range(count):
        path, pos = take_str(payload, pos)
        content, pos = take_bytes(payload, pos)
        files.append((path, content))
    return files


def parse_any(key: str) -> WALObjectMeta | DBObjectMeta | None:
    """Parse a bucket key into metadata; ``None`` for foreign keys."""
    if key.startswith("WAL/"):
        return WALObjectMeta.parse(key)
    if key.startswith("DB/"):
        return DBObjectMeta.parse(key)
    return None


@dataclass
class BucketIndex:
    """The parsed picture of one bucket's Ginja objects.

    Built once from a LIST and read by everything that must know what
    the bucket holds: :func:`~repro.core.recovery.plan_from_index` picks
    the restore from it and the fsck catalog
    (:mod:`repro.fsck.invariants`) judges it, so recovery and its
    cleanup read one LIST through one set of rules.

    WAL staleness is judged against the **latest** complete generation
    only — its DB frontier and the consecutive WAL run above it — never
    against a generation being restored: the WAL at or below that
    frontier (:meth:`redundant_wal`) or beyond the first gap (the
    orphans of :meth:`wal_frontier`) is unreachable from every retained
    generation.  This fixed a PITR data-loss bug: an ``upto_ts`` restore
    used to mark *every* WAL object stale, and the cleanup after it
    deleted the WAL tail the latest state still needed (DESIGN.md lists
    it under deviations).
    """

    wal: dict[int, WALObjectMeta] = field(default_factory=dict)
    groups: dict[tuple[int, int, str], list[DBObjectMeta]] = field(
        default_factory=dict
    )
    foreign: list[str] = field(default_factory=list)

    @classmethod
    def from_keys(cls, keys: Iterable[str]) -> "BucketIndex":
        index = cls()
        for key in keys:
            meta = parse_any(key)
            if meta is None:
                index.foreign.append(key)
            elif isinstance(meta, WALObjectMeta):
                index.wal[meta.ts] = meta
            else:
                index.groups.setdefault(meta.group, []).append(meta)
        for metas in index.groups.values():
            metas.sort(key=lambda m: m.part)
        return index

    @classmethod
    def from_store(cls, store: "ObjectStore") -> "BucketIndex":
        return cls.from_keys(info.key for info in store.list())

    @property
    def object_count(self) -> int:
        """Ginja objects indexed (foreign keys excluded)."""
        return len(self.wal) + sum(len(m) for m in self.groups.values())

    # -- DB-group structure ------------------------------------------------

    def is_complete(self, group: tuple[int, int, str]) -> bool:
        metas = self.groups[group]
        return [m.part for m in metas] == list(range(metas[0].nparts))

    def complete_groups(self) -> dict[tuple[int, int, str], list[DBObjectMeta]]:
        return {g: m for g, m in self.groups.items() if self.is_complete(g)}

    def incomplete_groups(self) -> dict[tuple[int, int, str], list[DBObjectMeta]]:
        return {g: m for g, m in self.groups.items() if not self.is_complete(g)}

    def db_frontier_ts(self) -> int:
        """Newest complete DB group's WAL-frontier ts (-1 if none).

        Everything a checkpoint at this ts reflects is durable in DB
        objects, so the usable WAL run starts just above it.
        """
        complete = self.complete_groups()
        return max((ts for ts, _seq, _type in complete), default=-1)

    def complete_dump_orders(self) -> list[tuple[int, int]]:
        """(ts, seq) of every complete dump, oldest first."""
        return sorted(
            (ts, seq)
            for (ts, seq, type_) in self.complete_groups()
            if type_ == DUMP
        )

    def retention_floor(
        self, retention: "RetentionPolicy | None"
    ) -> tuple[int, int] | None:
        """Oldest (ts, seq) a complete DB group may legitimately carry.

        ``None`` when the policy is unknown (``retention is None``) or no
        complete dump exists — in both cases nothing can be declared
        stale.  With a known policy the floor is the (generations+1)-th
        newest complete dump: the current generation plus ``generations``
        retained PITR snapshots.
        """
        if retention is None:
            return None
        dumps = self.complete_dump_orders()
        if not dumps:
            return None
        keep = 1 + retention.generations
        return dumps[-min(keep, len(dumps))]

    # -- WAL structure -----------------------------------------------------

    def wal_frontier(self) -> tuple[int, list[int], list[WALObjectMeta]]:
        """``(frontier_ts, gap_timestamps, orphans_beyond_first_gap)``.

        ``frontier_ts`` ends the contiguous run starting just above
        :meth:`db_frontier_ts` (and equals it when the run is empty).
        ``gap_timestamps`` are the missing timestamps between the
        frontier and the newest WAL object; ``orphans`` are the WAL
        objects past the first gap, which recovery can never reach.
        """
        frontier = self.db_frontier_ts()
        while frontier + 1 in self.wal:
            frontier += 1
        beyond = sorted(ts for ts in self.wal if ts > frontier)
        gaps = (
            [ts for ts in range(frontier + 1, beyond[-1]) if ts not in self.wal]
            if beyond
            else []
        )
        return frontier, gaps, [self.wal[ts] for ts in beyond]

    def redundant_wal(self) -> list[WALObjectMeta]:
        """WAL objects at or below the DB frontier (skipped GC deletes)."""
        base = self.db_frontier_ts()
        return [self.wal[ts] for ts in sorted(self.wal) if ts <= base]
