"""The recovery engine: plan the restore, prefetch in parallel, apply in order.

Recovery (Alg. 1) is the one phase where Ginja must move the entire
bucket back onto disk, and §6.4/Figure 7 measure exactly that.  The
naive implementation issued one blocking GET at a time, so restore time
was ``sum(latency_i)`` even though object storage happily serves
concurrent reads.  This module splits recovery into three stages:

* **plan** — :func:`plan_recovery` turns one LIST into an ordered
  sequence of :class:`RecoveryStep`\\ s (dump parts → checkpoint groups
  in ``(ts, seq)`` order → the consecutive WAL chain) plus the set of
  provably stale keys.  Planning is pure: no I/O beyond the LIST the
  caller already did.
* **fetch** — :class:`RecoveryEngine` keeps at most ``prefetch_window``
  plan positions ahead of the apply cursor.  The fetchers are the
  restoring thread itself plus ``downloaders − 1`` helpers (private
  ``ginja-downloader`` threads, or jobs in the tenant's lane on a
  fleet's shared download pool): each takes the next position inside
  the window, GETs it and runs ``ObjectCodec.decode`` on the same
  thread — on a latency-modeled or real store the GETs overlap.
* **apply** — whichever fetcher completes the in-order prefix writes it
  to the target file system, one applier at a time and *strictly in
  plan order*, so the restored image is byte-identical to a sequential
  replay no matter how downloads race.

Every fetch runs under the run's :class:`~repro.common.fuse.Fuse`: a
helper's failure — or a pool that discards its job — wakes the
restoring thread, which re-raises it (DESIGN.md, "Failure
discipline"), so a dead downloader fails
:func:`~repro.core.bootstrap.recover_files` instead of hanging it.
Progress is narrated as ``recovery_planned`` / ``object_restored`` /
``recovery_done`` events on the bus.

The WAL stale-marking here also fixes a PITR data-loss bug: the old
``recover_files(upto_ts=...)`` marked *every* WAL object stale, so
restoring a retained snapshot deleted the WAL tail the latest state
still needed.  Staleness is now always computed against the *latest*
complete generation's chain — only WAL unreachable from every retained
generation (below the newest checkpoint frontier, or beyond the first
timestamp gap) is ever marked stale (DESIGN.md lists this under
deviations).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import RecoveryError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.common.fuse import Fuse
from repro.core.codec import ObjectCodec
from repro.core.encode_stage import EncodeStage
from repro.core.data_model import (
    CHECKPOINT,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    decode_checkpoint_payload,
    decode_dump_payload,
    decode_wal_payload,
    parse_any,
)
from repro.cloud.interface import ObjectInfo, ObjectStore
from repro.storage.interface import FileSystem

#: Step kinds, also the ``verb`` field of ``object_restored`` events.
STEP_DUMP = "dump"
STEP_CHECKPOINT = "checkpoint"
STEP_WAL = "wal"


@dataclass
class RecoveryReport:
    """What :func:`~repro.core.bootstrap.recover_files` restored."""

    dump_ts: int = -1
    dump_parts: int = 0
    checkpoints_applied: int = 0
    wal_objects_applied: int = 0
    last_applied_wal_ts: int = -1
    files_restored: int = 0
    bytes_downloaded: int = 0
    #: Object keys present in the bucket but unreachable from every
    #: retained generation (timestamp gaps, superseded WAL, incomplete
    #: multi-part groups) — candidates for cleanup.
    stale_keys: list[str] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class RecoveryStep:
    """One planned GET→decode→apply unit (one cloud object).

    ``group_end`` marks the last part of a checkpoint group, so the
    engine counts *groups* applied, matching the old per-group
    ``checkpoints_applied`` accounting.
    """

    kind: str
    meta: DBObjectMeta | WALObjectMeta
    group_end: bool = False


@dataclass(frozen=True)
class RecoveryPlan:
    """The full restore, fixed before the first GET."""

    dump_ts: int
    steps: tuple[RecoveryStep, ...]
    stale_keys: tuple[str, ...]
    #: The newest checkpoint frontier of the *restored* generation —
    #: ``last_applied_wal_ts`` when no WAL is replayed.
    frontier_ts: int

    @property
    def object_count(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        dump = sum(1 for s in self.steps if s.kind == STEP_DUMP)
        ckpt = sum(1 for s in self.steps if s.kind == STEP_CHECKPOINT)
        wal = sum(1 for s in self.steps if s.kind == STEP_WAL)
        return (
            f"dump_ts={self.dump_ts} dump_parts={dump} "
            f"checkpoint_parts={ckpt} wal_objects={wal} "
            f"stale={len(self.stale_keys)}"
        )


def _complete_groups(
    db_groups: dict[tuple[int, int, str], list[DBObjectMeta]],
    stale: list[str],
) -> dict[tuple[int, int, str], list[DBObjectMeta]]:
    complete: dict[tuple[int, int, str], list[DBObjectMeta]] = {}
    for group_key, metas in db_groups.items():
        metas.sort(key=lambda m: m.part)
        if len(metas) == metas[0].nparts and [m.part for m in metas] == list(
            range(metas[0].nparts)
        ):
            complete[group_key] = metas
        else:
            stale.extend(m.key for m in metas)
    return complete


def plan_recovery(
    infos: list[ObjectInfo],
    *,
    upto_ts: int | None = None,
) -> RecoveryPlan:
    """Compile one LIST into the ordered restore plan (Alg. 1, Recovery).

    The newest *complete* dump (with ``ts <= upto_ts`` when restoring a
    retained PITR snapshot), then complete checkpoint groups in
    ``(ts, seq)`` order, then — only for a latest-state restore — WAL
    objects with consecutive timestamps.

    WAL staleness is judged against the **latest** generation regardless
    of ``upto_ts``: a snapshot restore must never mark the live WAL
    tail stale, or the cleanup pass after it would destroy the data the
    latest state still needs (the PITR data-loss bug this fixed).
    """
    wal_metas: dict[int, WALObjectMeta] = {}
    db_groups: dict[tuple[int, int, str], list[DBObjectMeta]] = {}
    for info in infos:
        meta = parse_any(info.key)
        if meta is None:
            continue
        if isinstance(meta, WALObjectMeta):
            wal_metas[meta.ts] = meta
        else:
            db_groups.setdefault(meta.group, []).append(meta)

    stale: list[str] = []
    complete = _complete_groups(db_groups, stale)

    dumps = sorted(
        ((ts, seq) for (ts, seq, type_) in complete if type_ == DUMP),
        reverse=True,
    )
    if not dumps:
        raise RecoveryError("no complete dump found in the cloud")

    # The latest generation's frontier and live WAL chain, used for
    # staleness no matter which generation is being restored.
    latest_dump = dumps[0]
    latest_frontier = max(
        (ts for (ts, seq, type_) in complete
         if type_ == CHECKPOINT and (ts, seq) > latest_dump),
        default=latest_dump[0],
    )
    live_end = latest_frontier + 1
    while live_end in wal_metas:
        live_end += 1
    stale.extend(
        wal_metas[ts].key
        for ts in sorted(wal_metas)
        if ts >= live_end or ts <= latest_frontier
    )

    # The generation to restore (possibly an older retained snapshot).
    target_dumps = dumps
    if upto_ts is not None:
        target_dumps = [(ts, seq) for ts, seq in dumps if ts <= upto_ts]
        if not target_dumps:
            raise RecoveryError(
                f"no complete dump at or before ts={upto_ts} in the cloud"
            )
    dump_order = target_dumps[0]
    dump_ts = dump_order[0]

    steps: list[RecoveryStep] = [
        RecoveryStep(STEP_DUMP, meta)
        for meta in complete[(dump_order[0], dump_order[1], DUMP)]
    ]

    ckpt_orders = sorted(
        (ts, seq)
        for (ts, seq, type_) in complete
        if type_ == CHECKPOINT and (ts, seq) > dump_order
    )
    if upto_ts is not None:
        ckpt_orders = [(ts, seq) for ts, seq in ckpt_orders if ts <= upto_ts]
    frontier = dump_ts
    for ts, seq in ckpt_orders:
        metas = complete[(ts, seq, CHECKPOINT)]
        steps.extend(
            RecoveryStep(STEP_CHECKPOINT, meta, group_end=(i == len(metas) - 1))
            for i, meta in enumerate(metas)
        )
        frontier = ts

    # WAL replay happens only for a latest-state restore: a retained
    # snapshot ends at its newest checkpoint by definition (§5.4).
    if upto_ts is None:
        steps.extend(
            RecoveryStep(STEP_WAL, wal_metas[ts])
            for ts in range(frontier + 1, live_end)
        )

    return RecoveryPlan(
        dump_ts=dump_ts,
        steps=tuple(steps),
        stale_keys=tuple(stale),
        frontier_ts=frontier,
    )


class RecoveryEngine:
    """Bounded-concurrency download→decode→apply executor for one plan.

    The calling thread fetches too: with ``downloaders=1`` (or a
    one-object plan) it restores alone, sequentially — the reference
    the parallel path is tested byte-for-byte against.  Otherwise
    ``downloaders − 1`` helpers fetch beside it, at most
    ``prefetch_window`` plan positions ahead of the apply cursor, so
    GET concurrency is ``downloaders``.  A fleet passes ``pool`` — its
    running shared downloader
    :class:`~repro.core.encode_stage.EncodeStage` — and the helpers are
    per-position jobs in the pool's ``lane`` (the tenant id), so
    concurrent tenant restores share one set of threads with fair-share
    scheduling between them.  Without one the run starts its helpers
    as private ``ginja-downloader`` threads and stops them before
    returning.
    """

    def __init__(
        self,
        store: ObjectStore,
        codec: ObjectCodec,
        fs: FileSystem,
        *,
        downloaders: int = 1,
        prefetch_window: int = 16,
        bus: EventBus | None = None,
        clock: Clock = SYSTEM_CLOCK,
        pool=None,
        lane: str = "",
    ):
        if downloaders < 1:
            raise RecoveryError("recovery needs at least one downloader")
        if prefetch_window < 1:
            raise RecoveryError("prefetch_window must be >= 1")
        self._store = store
        self._codec = codec
        self._fs = fs
        self._downloaders = downloaders
        # A window narrower than the pool would leave workers idle.
        self._window = max(prefetch_window, downloaders)
        self._bus = bus or NULL_BUS
        self._clock = clock
        self._pool = pool
        self._lane = lane

    # -- public entry ---------------------------------------------------------

    def run(self, plan: RecoveryPlan) -> RecoveryReport:
        """Execute ``plan``; returns the same report shape recover_files
        always produced.  Raises the run's first fetch or apply failure."""
        report = RecoveryReport(dump_ts=plan.dump_ts)
        report.stale_keys.extend(plan.stale_keys)
        report.last_applied_wal_ts = plan.frontier_ts
        started = self._clock.now()
        self._bus.emit(
            events.RECOVERY_PLANNED,
            count=plan.object_count,
            detail=plan.describe(),
        )
        helpers = min(self._downloaders, len(plan.steps)) - 1
        pool, own = self._pool, None
        if helpers > 0 and (pool is None or not pool.running):
            pool = own = EncodeStage(helpers, name="ginja-downloader")
            own.start()
        try:
            _Restore(self, plan, report, pool, helpers).run()
        finally:
            if own is not None:
                # Queued helper jobs are already no-ops (the run's fuse
                # is blown); a recovery never leaks its downloaders.
                own.stop(discard=True)
        self._bus.emit(
            events.RECOVERY_DONE,
            count=plan.object_count,
            nbytes=report.bytes_downloaded,
            latency=self._clock.now() - started,
        )
        return report

    # -- fetch/decode (worker side) -------------------------------------------

    def _fetch(self, step: RecoveryStep) -> tuple[int, object]:
        """GET and decode one step's object — the parallel-safe half."""
        blob = self._store.get(step.meta.key)
        payload = self._codec.decode(blob)
        if step.kind == STEP_DUMP:
            decoded: object = decode_dump_payload(payload)
        elif step.kind == STEP_CHECKPOINT:
            decoded = decode_checkpoint_payload(payload)
        else:
            decoded = decode_wal_payload(payload)
        return len(blob), decoded

    # -- apply (caller side, strict plan order) -------------------------------

    def _apply(
        self, step: RecoveryStep, nbytes: int, decoded, report: RecoveryReport
    ) -> None:
        if step.kind == STEP_DUMP:
            for path, content in decoded:
                self._fs.write_all(path, content)
                report.files_restored += 1
            report.dump_parts += 1
        elif step.kind == STEP_CHECKPOINT:
            for path, offset, data in decoded:
                self._fs.write(path, offset, data)
            if step.group_end:
                report.checkpoints_applied += 1
        else:
            for offset, data in decoded:
                self._fs.write(step.meta.filename, offset, data)
            report.wal_objects_applied += 1
            report.last_applied_wal_ts = step.meta.ts
        report.bytes_downloaded += nbytes
        self._bus.emit(
            events.OBJECT_RESTORED,
            verb=step.kind,
            key=step.meta.key,
            nbytes=nbytes,
            count=report.dump_parts
            + report.wal_objects_applied
            + report.checkpoints_applied,
        )


class _Restore:
    """One run's fetchers and its apply cursor.

    The caller fetches in :meth:`run`; ``helpers`` more fetch as jobs
    on ``pool``, each taking one plan position when it starts (a job
    that finds none ends).  Jobs are topped up whenever the window
    opens or a job ends, so at most ``helpers`` exist and no more are
    queued than there are positions to take.  A helper's failure — or
    a stopped pool's refusal — escapes to the pool's guard or to
    :meth:`run`, and either blows the run's fuse.
    """

    def __init__(self, engine: RecoveryEngine, plan: RecoveryPlan,
                 report: RecoveryReport, pool: EncodeStage | None,
                 helpers: int):
        self._engine = engine
        self._steps = plan.steps
        self._report = report
        self._pool = pool
        self._helpers = helpers
        self._cond = threading.Condition()
        self._fuse = Fuse(self._cond)
        #: Fetched positions waiting for the apply cursor.
        self._results: dict[int, tuple[int, object]] = {}
        self._next = 0          # the next position no fetcher has taken
        self._applied = 0       # the apply cursor
        self._applying = False  # a fetcher is applying the prefix
        self._jobs = 0          # helper jobs submitted, not yet ended
        self._queued = 0        # ... of which not started (no position)

    def run(self) -> None:
        """Fetch on the calling thread until every position is applied,
        topping the helpers up after each take (so the caller always
        fetches the first position); raise the run's first failure.
        However the run ends, its fuse is blown last, so helper jobs
        still queued (a shared pool is persistent, nothing to join
        here) run as no-ops."""
        try:
            while True:
                with self._cond:
                    while (index := self._take_locked()) is None:
                        if self._fuse.error is not None:
                            raise self._fuse.error
                        if self._applied == len(self._steps):
                            return
                        self._cond.wait()
                    self._top_up_locked()
                self._fetch(index)
        except BaseException as exc:
            self._fuse.blow(exc)
            raise
        finally:
            self._fuse.blow(RecoveryError("restore is over"))

    def _open_locked(self) -> int:
        """Positions inside the window that no fetcher has taken."""
        end = min(len(self._steps), self._applied + self._engine._window)
        return end - self._next

    def _take_locked(self) -> int | None:
        if self._fuse.error is not None or self._open_locked() <= 0:
            return None
        self._next += 1
        return self._next - 1

    def _top_up_locked(self) -> None:
        while (self._jobs < self._helpers
               and self._queued < self._open_locked()
               and self._fuse.error is None):
            self._pool.submit(self._helper_job, self._fuse,
                              lane=self._engine._lane)
            self._jobs += 1
            self._queued += 1

    def _helper_job(self) -> None:
        with self._cond:
            self._queued -= 1
            index = self._take_locked()
        if index is not None:
            self._fetch(index)
        with self._cond:
            self._jobs -= 1
            self._top_up_locked()

    def _fetch(self, index: int) -> None:
        """GET and decode ``index``; if that completes the in-order
        prefix and nobody is applying it, apply it — and whatever lands
        behind it meanwhile — strictly in plan order."""
        result = self._engine._fetch(self._steps[index])
        with self._cond:
            self._results[index] = result
            if self._applying or index != self._applied:
                return
            self._applying = True
        while True:
            with self._cond:
                result = self._results.pop(self._applied, None)
                if result is None or self._fuse.error is not None:
                    self._applying = False
                    return
                index = self._applied
            self._engine._apply(self._steps[index], *result, self._report)
            with self._cond:
                self._applied += 1
                self._cond.notify_all()
                self._top_up_locked()
