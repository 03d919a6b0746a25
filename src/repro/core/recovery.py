"""The recovery engine: plan the restore, prefetch in parallel, apply in order.

Recovery (Alg. 1) is the one phase where Ginja must move the entire
bucket back onto disk, and §6.4/Figure 7 measure exactly that.  The
naive implementation issued one blocking GET at a time, so restore time
was ``sum(latency_i)`` even though object storage happily serves
concurrent reads.  This module splits recovery into three stages:

* **plan** — :func:`plan_from_index` turns the
  :class:`~repro.core.data_model.BucketIndex` of one LIST into an
  ordered sequence of :class:`RecoveryStep`\\ s (dump parts → checkpoint
  groups in ``(ts, seq)`` order → the consecutive WAL chain).  Planning
  is pure: no I/O beyond the LIST the caller already did.  What is
  stale is not the plan's business — the index's fsck audit judges
  that, and ``Ginja.recover`` cleans the bucket from the same index.
* **fetch** — :class:`RecoveryEngine` keeps at most ``prefetch_window``
  plan positions ahead of the apply cursor.  The fetchers are the
  restoring thread itself plus up to ``downloaders − 1``
  ``ginja-downloader-<i>`` helper threads the run starts and joins:
  each takes the next position inside the window, GETs it and runs
  ``ObjectCodec.decode`` on the same thread — on a latency-modeled or
  real store the GETs overlap.
* **apply** — whichever fetcher completes the in-order prefix writes it
  to the target file system, one applier at a time and *strictly in
  plan order*, so the restored image is byte-identical to a sequential
  replay no matter how downloads race.

Every helper runs under the run's :class:`~repro.common.fuse.Fuse`: a
helper's failure wakes the restoring thread, which re-raises it
(DESIGN.md, "Failure discipline"), so a dead downloader fails
:func:`~repro.core.bootstrap.recover_files` instead of hanging it.
However the run ends, its helpers are joined against one deadline
(:data:`HELPER_JOIN_TIMEOUT`), and one still alive then is a
:class:`~repro.common.errors.RecoveryError` naming it — a restore
never leaks a thread silently.
Progress is narrated as ``recovery_planned`` / ``object_restored`` /
``recovery_done`` events on the bus.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import RecoveryError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.common.fuse import Fuse
from repro.core.codec import ObjectCodec
from repro.core.data_model import (
    CHECKPOINT,
    BucketIndex,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    decode_checkpoint_payload,
    decode_dump_payload,
    decode_wal_payload,
)
from repro.cloud.interface import ObjectInfo, ObjectStore
from repro.storage.interface import FileSystem

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.fsck.repair import RepairReport

#: Step kinds, also the ``verb`` field of ``object_restored`` events.
STEP_DUMP = "dump"
STEP_CHECKPOINT = "checkpoint"
STEP_WAL = "wal"

#: Seconds a finished restore waits, in all, for its helper threads to
#: exit before it reports the ones still alive.
HELPER_JOIN_TIMEOUT = 10.0


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
    #: The fsck repair ``Ginja.recover`` ran on the plan's index after
    #: the restore (its audit, and what it deleted); ``None`` from a
    #: bare, read-only :func:`~repro.core.bootstrap.recover_files`.
    cleanup: "RepairReport | None" = None


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
            f"checkpoint_parts={ckpt} wal_objects={wal}"
        )


def plan_recovery(
    infos: list[ObjectInfo],
    *,
    upto_ts: int | None = None,
) -> RecoveryPlan:
    """Compile one LIST into the ordered restore plan (Alg. 1, Recovery)."""
    return plan_from_index(
        BucketIndex.from_keys(info.key for info in infos), upto_ts=upto_ts
    )


def plan_from_index(
    index: BucketIndex,
    *,
    upto_ts: int | None = None,
) -> RecoveryPlan:
    """The restore plan the bucket ``index`` describes.

    The newest *complete* dump (with ``ts <= upto_ts`` when restoring a
    retained PITR snapshot), then complete checkpoint groups after it
    in ``(ts, seq)`` order, then — only for a latest-state restore —
    the index's consecutive WAL run above that frontier.
    """
    dumps = index.complete_dump_orders()
    if not dumps:
        raise RecoveryError("no complete dump found in the cloud")
    if upto_ts is not None:
        dumps = [(ts, seq) for ts, seq in dumps if ts <= upto_ts]
        if not dumps:
            raise RecoveryError(
                f"no complete dump at or before ts={upto_ts} in the cloud"
            )
    dump_order = dumps[-1]
    complete = index.complete_groups()
    steps: list[RecoveryStep] = [
        RecoveryStep(STEP_DUMP, meta) for meta in complete[(*dump_order, DUMP)]
    ]
    frontier = dump_order[0]
    for ts, seq, type_ in sorted(complete):
        if (type_ != CHECKPOINT or (ts, seq) <= dump_order
                or (upto_ts is not None and ts > upto_ts)):
            continue
        metas = complete[(ts, seq, type_)]
        steps.extend(
            RecoveryStep(STEP_CHECKPOINT, meta, group_end=(i == len(metas) - 1))
            for i, meta in enumerate(metas)
        )
        frontier = ts

    # WAL replay happens only for a latest-state restore: a retained
    # snapshot ends at its newest checkpoint by definition (§5.4).
    if upto_ts is None:
        wal_end, _gaps, _orphans = index.wal_frontier()
        steps.extend(
            RecoveryStep(STEP_WAL, index.wal[ts])
            for ts in range(frontier + 1, wal_end + 1)
        )

    return RecoveryPlan(
        dump_ts=dump_order[0], steps=tuple(steps), frontier_ts=frontier
    )


class RecoveryEngine:
    """Bounded-concurrency download→decode→apply executor for one plan.

    The calling thread fetches too: with ``downloaders=1`` (or a
    one-object plan) it restores alone, sequentially — the reference
    the parallel path is tested byte-for-byte against.  Otherwise up to
    ``downloaders − 1`` helper threads fetch beside it, at most
    ``prefetch_window`` plan positions ahead of the apply cursor, so
    GET concurrency is ``downloaders``.  A run takes each helper's slot
    from ``helper_slots`` without blocking, and the helper gives it
    back as it exits; a fleet passes its one semaphore, so its
    concurrent restores together hold at most that many helpers, and a
    restore that finds no slot free fetches on its own thread.  Without
    one the engine makes its own, ``downloaders`` wide.
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
        helper_slots: threading.BoundedSemaphore | None = None,
    ):
        if downloaders < 1:
            raise RecoveryError("recovery needs at least one downloader")
        if prefetch_window < 1:
            raise RecoveryError("prefetch_window must be >= 1")
        self._store = store
        self._codec = codec
        self._fs = fs
        self._downloaders = downloaders
        # A window narrower than the fetchers would leave some idle.
        self._window = max(prefetch_window, downloaders)
        self._bus = bus or NULL_BUS
        self._clock = clock
        self._slots = (helper_slots if helper_slots is not None
                       else threading.BoundedSemaphore(downloaders))

    # -- public entry ---------------------------------------------------------

    def run(self, plan: RecoveryPlan) -> RecoveryReport:
        """Execute ``plan``; returns the same report shape recover_files
        always produced.  Raises the run's first fetch or apply failure."""
        report = RecoveryReport(dump_ts=plan.dump_ts)
        report.last_applied_wal_ts = plan.frontier_ts
        started = self._clock.now()
        self._bus.emit(
            events.RECOVERY_PLANNED,
            count=plan.object_count,
            detail=plan.describe(),
        )
        _Restore(self, plan, report).run()
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

    The caller takes plan position 0 before any helper starts, so it
    always fetches first and a one-object plan needs no helper; then
    one helper starts per slot taken, up to ``min(downloaders, steps)
    − 1``.  Every fetcher runs :meth:`_fetch_loop`; a helper runs it
    under the run's fuse, so its failure wakes the caller, which
    re-raises it.  A helper gives its slot back as it exits.
    """

    def __init__(self, engine: RecoveryEngine, plan: RecoveryPlan,
                 report: RecoveryReport):
        self._engine = engine
        self._steps = plan.steps
        self._report = report
        self._cond = threading.Condition()
        self._fuse = Fuse(self._cond)
        #: Fetched positions waiting for the apply cursor.
        self._results: dict[int, tuple[int, object]] = {}
        self._next = 0          # the next position no fetcher has taken
        self._applied = 0       # the apply cursor
        self._applying = False  # a fetcher is applying the prefix

    def run(self) -> None:
        """Fetch on the calling thread, beside the helpers, until every
        position is applied; raise the run's first failure.  However the
        run ends, its fuse is blown and its helpers joined."""
        slots = self._engine._slots
        helpers: list[threading.Thread] = []
        try:
            with self._cond:
                first = self._take_locked()
            wanted = min(self._engine._downloaders, len(self._steps)) - 1
            while len(helpers) < wanted and slots.acquire(blocking=False):
                helper = threading.Thread(
                    target=self._help, args=(slots,),
                    name=f"ginja-downloader-{len(helpers)}", daemon=True,
                )
                try:
                    helper.start()
                except BaseException:
                    slots.release()
                    raise
                helpers.append(helper)
            if first is not None:
                self._fetch(first)
            self._fetch_loop()
            with self._cond:
                while self._applied < len(self._steps):
                    if self._fuse.error is not None:
                        raise self._fuse.error
                    self._cond.wait()
        except BaseException as exc:
            self._fuse.blow(exc)
            raise
        finally:
            self._fuse.blow(RecoveryError("restore is over"))
            self._join(helpers)

    def _help(self, slots: threading.BoundedSemaphore) -> None:
        """A helper's body: the fetch loop under the run's fuse.  The
        slot goes back when the thread is done with it, so one wedged
        past the join deadline still holds its slot and returns it
        once its GET does."""
        try:
            self._fuse.guard(self._fetch_loop)
        finally:
            slots.release()

    @staticmethod
    def _join(helpers: list[threading.Thread]) -> None:
        """Join ``helpers`` against one deadline; raise naming the ones
        still alive."""
        deadline = time.monotonic() + HELPER_JOIN_TIMEOUT
        for helper in helpers:
            helper.join(max(0.0, deadline - time.monotonic()))
        wedged = [helper.name for helper in helpers if helper.is_alive()]
        if wedged:
            raise RecoveryError(
                "restore helpers did not exit: " + ", ".join(wedged)
            )

    def _take_locked(self) -> int | None:
        """The next position inside the window, or ``None``."""
        end = min(len(self._steps), self._applied + self._engine._window)
        if self._fuse.error is not None or self._next >= end:
            return None
        self._next += 1
        return self._next - 1

    def _fetch_loop(self) -> None:
        """Fetch the next position inside the window until none is left
        to take or the run has failed."""
        while True:
            with self._cond:
                while (index := self._take_locked()) is None:
                    if (self._fuse.error is not None
                            or self._next == len(self._steps)):
                        return
                    self._cond.wait()
            self._fetch(index)

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
