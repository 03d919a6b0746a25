"""Bucket inspection: what is in this backup, and is it healthy?

Answers the operator questions §5.4's verification motivates, without
downloading anything — purely from a LIST:

* how many WAL objects / DB generations, and how big;
* is the newest dump complete (all parts present)?
* are the WAL timestamps after the newest checkpoint gap-free (i.e.
  will recovery replay all of them)?
* what recovery would restore, and what is stale garbage.

Complete groups and the replayable WAL run are the bucket index's
(:class:`~repro.core.data_model.BucketIndex`): ``ls``, recovery, fsck
and the chaos oracles share one definition of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.data_model import DUMP, BucketIndex
from repro.cloud.interface import ObjectStore


@dataclass(frozen=True)
class GenerationInfo:
    """One DB-object group (a dump or checkpoint, possibly multi-part)."""

    ts: int
    seq: int
    type: str
    parts_present: int
    parts_expected: int
    bytes: int
    #: Every part present (the fsck catalog's rule, which recovery uses).
    complete: bool

    @property
    def is_dump(self) -> bool:
        return self.type == DUMP


@dataclass
class Inventory:
    """The bucket's Ginja contents, summarized."""

    wal_objects: int = 0
    wal_bytes: int = 0
    wal_ts_min: int = -1
    wal_ts_max: int = -1
    #: Timestamps missing inside [wal_ts_min, wal_ts_max].
    wal_gaps: list[int] = field(default_factory=list)
    generations: list[GenerationInfo] = field(default_factory=list)
    foreign_objects: int = 0
    #: WAL objects recovery will actually apply: the gap-free run just
    #: above the newest complete DB group (0 without a complete dump).
    replayable_wal: int = 0

    # -- derived ---------------------------------------------------------------

    @property
    def db_bytes(self) -> int:
        return sum(g.bytes for g in self.generations)

    @property
    def latest_complete_dump(self) -> GenerationInfo | None:
        dumps = [g for g in self.generations if g.is_dump and g.complete]
        return dumps[-1] if dumps else None

    @property
    def recoverable(self) -> bool:
        return self.latest_complete_dump is not None

    def summary(self) -> str:
        lines = [
            f"WAL: {self.wal_objects} objects, {self.wal_bytes} bytes"
            + (f", ts {self.wal_ts_min}..{self.wal_ts_max}"
               if self.wal_objects else ""),
        ]
        if self.wal_gaps:
            lines.append(f"  gaps at ts: {self.wal_gaps[:10]}"
                         + (" ..." if len(self.wal_gaps) > 10 else ""))
        lines.append(f"DB: {len(self.generations)} generation(s), "
                     f"{self.db_bytes} bytes")
        for gen in self.generations:
            status = "ok" if gen.complete else "INCOMPLETE"
            lines.append(
                f"  ts={gen.ts} seq={gen.seq} {gen.type} "
                f"({gen.parts_present}/{gen.parts_expected} parts, "
                f"{gen.bytes} bytes) [{status}]"
            )
        if self.foreign_objects:
            lines.append(f"foreign objects ignored: {self.foreign_objects}")
        verdict = "RECOVERABLE" if self.recoverable else "NOT RECOVERABLE"
        lines.append(f"status: {verdict}; replayable WAL objects: "
                     f"{self.replayable_wal}")
        return "\n".join(lines)


def bucket_inventory(cloud: ObjectStore) -> Inventory:
    """Build an :class:`Inventory` from one LIST of the bucket, read
    through :class:`BucketIndex`."""
    sizes = {info.key: info.size for info in cloud.list()}
    index = BucketIndex.from_keys(sizes)
    wal_ts = sorted(index.wal)
    inventory = Inventory(
        wal_objects=len(wal_ts),
        wal_bytes=sum(sizes[meta.key] for meta in index.wal.values()),
        foreign_objects=len(index.foreign),
    )
    if wal_ts:
        inventory.wal_ts_min, inventory.wal_ts_max = wal_ts[0], wal_ts[-1]
        inventory.wal_gaps = [
            ts for ts in range(wal_ts[0], wal_ts[-1] + 1)
            if ts not in index.wal
        ]
    for group, metas in sorted(index.groups.items()):
        ts, seq, type_ = group
        inventory.generations.append(GenerationInfo(
            ts=ts, seq=seq, type=type_,
            parts_present=len(metas), parts_expected=metas[0].nparts,
            bytes=sum(sizes[meta.key] for meta in metas),
            complete=index.is_complete(group),
        ))
    if inventory.recoverable:
        frontier, _gaps, _orphans = index.wal_frontier()
        inventory.replayable_wal = frontier - index.db_frontier_ts()
    return inventory
