"""CloudView: Ginja's client-side picture of the bucket (Algorithm 1).

All DR control runs at the primary side because storage clouds only
offer PUT/GET/LIST/DELETE (§5); the cloudView data structure is how the
client tracks which WAL and DB objects exist without LISTing constantly.

Thread-safety: the commit pipeline's uploaders, the checkpointer and the
facade all touch the view concurrently.
"""

from __future__ import annotations

import threading

from repro.core.data_model import DBObjectMeta, WALObjectMeta


class CloudView:
    """Tracks WAL/DB objects in the cloud plus the ts counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._wal: dict[int, WALObjectMeta] = {}
        self._db: dict[int, list[DBObjectMeta]] = {}  # ts -> objects at ts
        self._next_wal_ts = 0
        #: Highest ts such that every WAL object with ts' <= ts is
        #: confirmed uploaded with no gaps — the recovery frontier.
        self._confirmed_ts = -1
        self._pending: set[int] = set()  # assigned but unconfirmed ts
        #: Checkpoint-begin events seen so far.  The commit pipeline
        #: ships a rewrite as a diff only against a write of the same
        #: epoch, so no diff leans on an object a checkpoint's GC takes.
        self._epoch = 0

    # -- ts management ------------------------------------------------------------

    def next_wal_ts(self) -> int:
        """Allocate the next WAL-object timestamp (Alg. 2, line 14)."""
        with self._lock:
            ts = self._next_wal_ts
            self._next_wal_ts += 1
            self._pending.add(ts)
            return ts

    def last_assigned_ts(self) -> int:
        """Highest ts handed out so far (-1 if none)."""
        with self._lock:
            return self._next_wal_ts - 1

    def confirmed_ts(self) -> int:
        """The gap-free upload frontier; a disaster right now loses only
        updates with ts beyond this (-1 if nothing confirmed)."""
        with self._lock:
            return self._confirmed_ts

    def begin_checkpoint(self) -> int:
        """Checkpoint-begin (Alg. 3, line 5): the confirmed frontier this
        checkpoint's GC will delete up to, read as the epoch advances.

        One lock hold does both, so a write stamped with the new epoch
        was submitted after the frontier was read: its WAL object's ts
        lies beyond that frontier and survives this checkpoint's GC.
        """
        with self._lock:
            self._epoch += 1
            return self._confirmed_ts

    def epoch(self) -> int:
        """The current shipping epoch (see :meth:`begin_checkpoint`)."""
        with self._lock:
            return self._epoch

    # -- registration ----------------------------------------------------------------

    def force_frontier(self, ts: int) -> None:
        """Declare every timestamp at or below ``ts`` satisfied (used by
        Boot/Reboot/Recovery, whose object sets do not start at 0), then
        advance over any contiguous uploads beyond it."""
        with self._lock:
            if ts > self._confirmed_ts:
                self._confirmed_ts = ts
            if self._next_wal_ts <= self._confirmed_ts + 1:
                self._next_wal_ts = self._confirmed_ts + 1
            while (self._confirmed_ts + 1) in self._wal:
                self._confirmed_ts += 1
                self._next_wal_ts = max(self._next_wal_ts, self._confirmed_ts + 1)

    def resync(
        self,
        wal: list[WALObjectMeta],
        db: list[DBObjectMeta],
        *,
        frontier_ts: int,
        next_wal_ts: int,
    ) -> None:
        """Atomically replace the whole picture with an audited one.

        Used by :mod:`repro.fsck` after a bucket LIST: ``frontier_ts`` is
        the verified gap-free WAL frontier and ``next_wal_ts`` the first
        unused timestamp (the first gap).  Unlike :meth:`force_frontier`
        this may *lower* ``_next_wal_ts`` — the whole point of the repair
        is to clamp a counter that was advanced past a crash-induced
        gap, which would strand the frontier forever.
        """
        with self._lock:
            self._wal = {meta.ts: meta for meta in wal}
            self._db = {}
            for meta in db:
                self._db.setdefault(meta.ts, []).append(meta)
            self._confirmed_ts = frontier_ts
            self._next_wal_ts = next_wal_ts
            self._pending.clear()

    def add_wal(self, meta: WALObjectMeta) -> None:
        """Record a completed WAL object upload and advance the frontier
        over any now-contiguous prefix."""
        with self._lock:
            self._wal[meta.ts] = meta
            self._pending.discard(meta.ts)
            while (self._confirmed_ts + 1) in self._wal:
                self._confirmed_ts += 1

    def add_db(self, meta: DBObjectMeta) -> None:
        with self._lock:
            self._db.setdefault(meta.ts, []).append(meta)

    def pop_wal_upto(self, ts: int) -> list[WALObjectMeta]:
        """Forget, and return in timestamp order, the WAL objects GC
        removes once a DB object at ``ts`` is uploaded (Alg. 3, lines
        23-25) — under one lock hold, so no reader sees half of them."""
        with self._lock:
            return [self._wal.pop(t) for t in sorted(self._wal) if t <= ts]

    def remove_db(self, meta: DBObjectMeta) -> None:
        with self._lock:
            at_ts = self._db.get(meta.ts)
            if not at_ts:
                return
            if meta in at_ts:
                at_ts.remove(meta)
            if not at_ts:
                del self._db[meta.ts]

    # -- queries --------------------------------------------------------------------

    def wal_objects(self) -> list[WALObjectMeta]:
        with self._lock:
            return [self._wal[ts] for ts in sorted(self._wal)]

    def db_objects(self) -> list[DBObjectMeta]:
        with self._lock:
            flat = [m for metas in self._db.values() for m in metas]
            return sorted(flat, key=lambda m: (m.ts, m.seq, m.type, m.part))

    def db_objects_before(self, order: tuple[int, int]) -> list[DBObjectMeta]:
        """DB objects a new dump with ``(ts, seq) == order`` supersedes
        (Alg. 3, 26-29)."""
        return [m for m in self.db_objects() if m.order < order]

    def latest_dump(self) -> DBObjectMeta | None:
        dumps = [m for m in self.db_objects() if m.is_dump]
        return dumps[-1] if dumps else None

    def max_db_seq(self) -> int:
        """Highest checkpoint sequence seen (-1 if none) — lets a new
        uploader continue the sequence after reboot/recovery."""
        with self._lock:
            seqs = [m.seq for metas in self._db.values() for m in metas]
            return max(seqs, default=-1)

    def total_db_bytes(self) -> int:
        """Cloud-side size of all DB objects — the 150% rule's left side."""
        with self._lock:
            return sum(m.size for metas in self._db.values() for m in metas)

    def wal_object_count(self) -> int:
        with self._lock:
            return len(self._wal)

    def unconfirmed_count(self) -> int:
        """Assigned-but-not-yet-frontier WAL object timestamps."""
        with self._lock:
            return (self._next_wal_ts - 1) - self._confirmed_ts
