"""Algorithm 1: Boot, Reboot and Recovery.

One deliberate deviation from the paper's pseudo-code is documented
here: Algorithm 1 Boot gives both the first WAL object *and* the dump
the timestamp 0, but its own Recovery applies only WAL objects *newer*
than the dump's ts — which would drop the first segment.  We start Boot
WAL timestamps at 1 and give the dump ts 0, so recovery applies every
boot segment.  (DESIGN.md lists this under substitutions.)
"""

from __future__ import annotations

import threading

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import RecoveryError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import UNBOUNDED, _CHUNK_FRAMING
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    BucketIndex,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    encode_dump_payload,
    encode_wal_payload,
    split_dump_files,
)
from repro.core.recovery import (  # noqa: F401  (RecoveryReport re-exported)
    RecoveryEngine,
    RecoveryReport,
    plan_from_index,
)
from repro.core.shadow import elide_known_zeros, split_runs
from repro.cloud.interface import ObjectStore
from repro.db.profiles import DBMSProfile
from repro.storage.interface import FileSystem


def boot(
    fs: FileSystem,
    cloud: ObjectStore,
    codec: ObjectCodec,
    view: CloudView,
    profile: DBMSProfile,
    config: GinjaConfig,
    bus: EventBus | None = None,
) -> tuple[dict[str, int], list[tuple[str, bytes]]]:
    """Upload an existing local database to an empty bucket (Alg. 1, Boot).

    One WAL object per local segment (split at the object cap), then a
    full dump.  Must complete before the DBMS starts on the mounted FS.
    Progress is narrated as ``wal_object``/``db_object``/``dump`` events
    on ``bus``, which is how the stats counters see it.

    Into an empty bucket every zero tail is known-zero, so a segment
    ships as its content up to the last non-zero byte plus a length pin
    — not as 16 MiB of preallocation.  Returns where that byte ends in
    each segment — the marks the commit pipeline starts from — and the
    dump's ``(path, content)`` files, which the checkpoint collector
    starts from.
    """
    bus = bus or NULL_BUS
    if BucketIndex.from_store(cloud).object_count:
        raise RecoveryError(
            "bucket already contains Ginja objects; use reboot or recovery"
        )
    ts = 1  # see module docstring for why boot WAL starts at 1
    wal_paths = sorted(
        (p for p in fs.files() if profile.is_wal_path(p)),
        key=lambda p: profile.wal_index(p),
    )
    marks = {}
    for path in wal_paths:
        content = fs.read_all(path)
        marks[path] = len(content.rstrip(b"\0"))
        chunks = elide_known_zeros(0, content, marks[path], _CHUNK_FRAMING)
        # An empty segment still ships one (empty) object: recovery
        # creates the file.
        for group in split_runs(chunks, config.max_object_bytes):
            blob = codec.encode(encode_wal_payload(group))
            meta = WALObjectMeta(ts=ts, filename=path, offset=group[0][0])
            cloud.put(meta.key, blob)
            view.add_wal(meta)
            bus.emit(events.WAL_OBJECT, key=meta.key, nbytes=len(blob))
            ts += 1
    view.force_frontier(ts - 1)
    db_files = [
        (path, fs.read_all(path)) for path in fs.files() if profile.is_db_file(path)
    ]
    parts = split_dump_files(db_files, config.max_object_bytes)
    blobs = [codec.encode(encode_dump_payload(group)) for group in parts]
    for part, blob in enumerate(blobs):
        meta = DBObjectMeta(
            ts=0, type=DUMP, size=len(blob), part=part, nparts=len(blobs)
        )
        cloud.put(meta.key, blob)
        view.add_db(meta)
        bus.emit(events.DB_OBJECT, key=meta.key, nbytes=len(blob))
    bus.emit(events.DUMP_COMPLETE, count=len(blobs))
    return marks, db_files


def unbounded_marks(
    fs: FileSystem, view: CloudView, profile: DBMSProfile,
) -> dict[str, int]:
    """The marks a pipeline starts from after Reboot or Recovery: the
    bucket may hold extents of every WAL file the view lists or the
    local directory holds that this process never saw, and reading
    segments back to find out would be paid on the restore's clock.
    Those files ship whole; elision resumes with the next new segment.
    """
    paths = {meta.filename for meta in view.wal_objects()}
    paths.update(path for path in fs.files() if profile.is_wal_path(path))
    return dict.fromkeys(paths, UNBOUNDED)


def reboot(cloud: ObjectStore, view: CloudView, retention=None) -> int:
    """Rebuild the cloudView from an audited LIST (Alg. 1, Reboot).

    The naive version of this function ingested the LIST key by key
    and assumed the remaining WAL timestamps form one contiguous run —
    but that ingest advanced ``_next_wal_ts`` past any crash-induced
    gap, stranding the confirmed frontier forever
    (every future WAL object lands beyond the gap, where recovery never
    reaches).  It now runs the :mod:`repro.fsck` audit-and-resync
    repair instead: provably-stale objects (orphans beyond the first
    gap, skipped GC deletes, incomplete multi-part groups) are removed
    and the view's counters are clamped to the verified frontier.

    ``retention`` is the instance's PITR policy when known; ``None``
    leaves possibly-retained snapshot generations untouched.
    Returns the number of Ginja objects found in the LIST.
    """
    # Imported lazily: repro.core's package __init__ imports this module
    # eagerly, and repro.fsck imports repro.core — a module-level import
    # here would close that cycle.
    from repro.fsck.repair import repair

    report = repair(cloud, view=view, mode="resync", retention=retention)
    return report.audit.objects


def recover_files(
    cloud: ObjectStore,
    codec: ObjectCodec,
    fs: FileSystem,
    *,
    upto_ts: int | None = None,
    config: GinjaConfig | None = None,
    bus: EventBus | None = None,
    clock: Clock = SYSTEM_CLOCK,
    helper_slots: threading.BoundedSemaphore | None = None,
    index: BucketIndex | None = None,
) -> RecoveryReport:
    """Rebuild the database files from the cloud (Alg. 1, Recovery).

    Applies the newest *complete* dump, then complete incremental
    checkpoints in timestamp order, then WAL objects with consecutive
    timestamps.  ``upto_ts`` restores a retained PITR snapshot instead of
    the latest state: only DB objects with ts <= upto_ts are applied and
    no WAL is replayed beyond them.

    The plan comes from one LIST (:func:`~repro.core.recovery
    .plan_from_index`) — ``index``, when the caller LISTed already (and
    cleans the bucket from it afterwards) — and is executed by a
    :class:`~repro.core.recovery.RecoveryEngine`: with
    ``config.downloaders > 1`` the GET+decode work is prefetched on
    helper threads while payloads are applied strictly in plan order,
    so the restored image is byte-identical to a sequential replay.
    Without a ``config`` the restore runs sequentially.
    ``helper_slots`` is a fleet's semaphore bounding the helpers of all
    its restores together (:class:`~repro.core.recovery
    .RecoveryEngine`).

    The target file system should be empty; restored files are written
    from scratch.  Nothing in the bucket is changed.
    """
    if index is None:
        index = BucketIndex.from_store(cloud)
    plan = plan_from_index(index, upto_ts=upto_ts)
    engine = RecoveryEngine(
        cloud,
        codec,
        fs,
        downloaders=config.downloaders if config is not None else 1,
        prefetch_window=config.prefetch_window if config is not None else 16,
        bus=bus,
        clock=clock,
        helper_slots=helper_slots,
    )
    return engine.run(plan)
