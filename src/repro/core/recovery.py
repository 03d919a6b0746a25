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
* **prefetch** — :class:`RecoveryEngine` keeps a sliding
  ``prefetch_window`` of plan positions submitted to a worker pool (a
  fleet's shared downloader stage, or ``downloaders`` threads private
  to the run); each job GETs one object and runs ``ObjectCodec.decode``
  on the same worker, off the apply thread (zlib/AES/HMAC release the
  GIL, and on a latency-modeled or real store the GETs overlap).
* **apply** — the calling thread writes decoded payloads to the target
  file system *strictly in plan order*, so the restored image is
  byte-identical to a sequential replay no matter how downloads race.

Failure discipline mirrors the :class:`~repro.core.encode_stage
.EncodeStage` poison rule: a fetch job that lets a ``BaseException``
escape records it as the run's fatal error and wakes the apply thread,
which re-raises it (and stops a private pool), so a dead downloader
fails :func:`~repro.core.bootstrap.recover_files` instead of hanging
it.  Progress is narrated as ``recovery_planned`` /
``object_restored`` / ``recovery_done`` events on the bus.

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

    Fetch jobs (GET + decode of one object) run on a worker pool, at
    most ``prefetch_window`` plan positions ahead of the apply cursor;
    the calling thread applies results strictly in plan order.  A fleet
    passes ``pool`` — its running shared downloader
    :class:`~repro.core.encode_stage.EncodeStage` — and jobs go into
    the pool's ``lane`` (the tenant id), so concurrent tenant restores
    share one set of threads with fair-share scheduling between them.
    Without one the run starts ``downloaders`` private
    ``ginja-downloader`` threads and stops them before returning.
    ``downloaders=1`` (and a one-object plan) restores sequentially on
    the calling thread — the reference the parallel path is tested
    byte-for-byte against.
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
        always produced.  Raises the first worker failure, if any."""
        report = RecoveryReport(dump_ts=plan.dump_ts)
        report.stale_keys.extend(plan.stale_keys)
        report.last_applied_wal_ts = plan.frontier_ts
        started = self._clock.now()
        self._bus.emit(
            events.RECOVERY_PLANNED,
            count=plan.object_count,
            detail=plan.describe(),
        )
        pool = self._pool
        if pool is not None and not pool.running:
            pool = None
        if len(plan.steps) <= 1 or (pool is None and self._downloaders == 1):
            self._run_sequential(plan, report)
        elif pool is not None:
            self._run_pooled(pool, plan, report)
        else:
            pool = EncodeStage(
                min(self._downloaders, len(plan.steps)), name="ginja-downloader"
            )
            pool.start()
            try:
                self._run_pooled(pool, plan, report)
            finally:
                # Queued fetch jobs are already no-ops (shut_down); a
                # recovery never leaks its downloader threads.
                pool.stop(discard=True)
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

    # -- sequential path ------------------------------------------------------

    def _run_sequential(self, plan: RecoveryPlan, report: RecoveryReport) -> None:
        for step in plan.steps:
            nbytes, decoded = self._fetch(step)
            self._apply(step, nbytes, decoded, report)

    # -- pooled path ----------------------------------------------------------

    def _run_pooled(
        self, pool: EncodeStage, plan: RecoveryPlan, report: RecoveryReport
    ) -> None:
        """Prefetch through ``pool``: at most ``window`` plan positions
        are in it at once — the next one is submitted only after a
        position is applied.  On failure the already-submitted jobs
        drain harmlessly into the state dict (a shared pool is
        persistent, nothing to join here).
        """
        state = _PooledFetchState(self, plan.steps)
        window = min(self._window, len(plan.steps))
        try:
            for index in range(window):
                state.submit(pool, self._lane, index)
            for index, step in enumerate(plan.steps):
                nbytes, decoded = state.take(index)
                self._apply(step, nbytes, decoded, report)
                follow = index + window
                if follow < len(plan.steps):
                    state.submit(pool, self._lane, follow)
        finally:
            # Turn any still-queued fetch jobs into no-ops.
            state.shut_down()


class _PooledFetchState:
    """Prefetch bookkeeping between the apply thread and the pool."""

    def __init__(self, engine: RecoveryEngine, steps: tuple[RecoveryStep, ...]):
        self._engine = engine
        self._steps = steps
        self._cond = threading.Condition()
        self._results: dict[int, tuple[int, object]] = {}
        self._fatal: BaseException | None = None
        self._stopping = False

    def submit(self, pool, lane: str, index: int) -> None:
        # Raises GinjaError if the pool was stopped (fleet shutdown mid
        # restore); the caller's finally turns the rest into no-ops.
        pool.submit(lambda: self._fetch_job(index), lane=lane)

    def _fetch_job(self, index: int) -> None:
        with self._cond:
            if self._stopping or self._fatal is not None:
                return
        try:
            result = self._engine._fetch(self._steps[index])
        except BaseException as exc:  # noqa: BLE001 - poison discipline
            with self._cond:
                if self._fatal is None:
                    self._fatal = exc
                self._cond.notify_all()
            return
        with self._cond:
            self._results[index] = result
            self._cond.notify_all()

    def take(self, index: int) -> tuple[int, object]:
        """Block until plan position ``index`` is decoded (or poisoned)."""
        with self._cond:
            while index not in self._results and self._fatal is None:
                self._cond.wait()
            if self._fatal is not None:
                raise self._fatal
            return self._results.pop(index)

    def shut_down(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
