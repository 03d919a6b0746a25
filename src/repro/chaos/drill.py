"""Disaster drills, in their two shapes.

A **grid drill** (:func:`run_drill`) is one independent campaign cell,
scenario × crash point × seed, judged by the four oracles.  A **phased
drill** (placement, tuner, fleet) runs ordered, dependent phases and
judges each with a named check; all three report through
:class:`PhasedDrillResult` and read their standby through
:func:`~repro.chaos.oracles.standby_rows`.  Every drill advances its
:class:`ManualClock` from its own thread: nothing moves virtual time
in real time, so a fixed seed replays the same virtual history.

A grid drill boots a full Ginja stack on a :class:`ManualClock`, runs a
deterministic row workload against it while the scenario's fault
schedule plays out, kills the primary at the requested crash point, and
judges the resulting disaster image with the oracles.

Timing model: the simulated cloud runs with ``time_scale=1.0`` on the
manual clock, so modeled latencies and retry backoffs advance *virtual*
time without sleeping, and the workload advances ``scenario.tick``
virtual seconds per committed row.  A drill spanning minutes of store
time completes in milliseconds of real time.

Threading model: the workload runs on a worker thread because a crash
must be able to interrupt a writer blocked on the Safety limit.  The
crash-point injector (a bus subscriber) never stops anything itself —
it atomically freezes the disaster state (bucket snapshot, acknowledged
rows, event-log index) and raises a flag; the drill's main thread then
performs the actual :meth:`Ginja.crash`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import ConfigError, DatabaseError, GinjaError
from repro.common.clock import ManualClock
from repro.cloud.memory import InMemoryObjectStore
from repro.core.ginja import Ginja
from repro.chaos.crashpoints import (
    CRASH_POINTS,
    CrashPoint,
    CrashPointInjector,
    EventLog,
)
from repro.chaos.oracles import (
    Disaster,
    OracleVerdict,
    row_value,
    run_oracles,
    standby_rows,
)
from repro.chaos.scenarios import Scenario
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile
from repro.storage.memory import MemoryFileSystem


@dataclass
class DrillResult:
    """Outcome of one drill, oracle verdicts included.

    ``canonical()`` exposes only fields that are stable across reruns
    with the same seed (thread interleaving may shift *when* a trigger
    fires by a few rows, but never whether the guarantees hold) — this
    is what makes campaign reports byte-identical run to run.
    """

    scenario: str
    crash_point: str
    seed: int
    triggered: bool
    committed: int
    recovered_bound: int
    verdicts: list[OracleVerdict] = field(default_factory=list)
    #: The disaster image's bucket contents.  Deliberately *not* part of
    #: ``canonical()`` — it exists so callers (``chaos --dump-buckets``)
    #: can persist each crash-point image for offline fsck runs.
    snapshot: dict[str, bytes] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def canonical(self) -> dict:
        return {
            "scenario": self.scenario,
            "crash_point": self.crash_point,
            "seed": self.seed,
            "status": "pass" if self.ok else "fail",
            "oracles": {v.name: v.ok for v in self.verdicts},
        }

    def summary(self) -> str:
        marks = " ".join(
            f"{v.name}={'ok' if v.ok else 'FAIL'}" for v in self.verdicts
        )
        fired = "fired" if self.triggered else "end-of-run"
        return (
            f"{self.scenario} x {self.crash_point} seed={self.seed} "
            f"[{fired}, {self.committed} acked] {marks}"
        )


@dataclass
class PhasedDrillResult:
    """Outcome of one phased drill: one :class:`OracleVerdict` per check.

    ``canonical()`` is ``config`` (the run-stable echo of the drill's
    inputs), ``committed``, each check's boolean and — for a drill that
    records one — the ``trajectory`` it read at a settled point: what
    the CI jobs byte-compare.  ``extras`` holds diagnostics that shift
    with thread interleaving (bills, controller snapshots after the
    close, the thread census) and is never canonical.
    """

    kind: str
    config: dict
    committed: int = 0
    checks: list[OracleVerdict] = field(default_factory=list)
    extras: dict = field(default_factory=dict, repr=False)
    trajectory: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[OracleVerdict]:
        return [check for check in self.checks if not check.ok]

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(OracleVerdict(name, bool(ok), detail))

    def check_standby(
        self,
        name: str,
        recover,
        acked: dict[str, bytes],
        profile: DBMSProfile,
        engine: EngineConfig,
    ) -> None:
        """Check that a standby ``recover`` builds holds every acked row."""
        rows, error = standby_rows(recover, acked, profile, engine)
        lost = [key for key, value in acked.items() if rows.get(key) != value]
        self.check(
            name, error is None and not lost,
            error or f"{len(acked) - len(lost)}/{len(acked)} acked rows "
                     f"recovered" + (f", lost {lost[:5]}" if lost else ""),
        )

    def canonical(self) -> dict:
        report = {
            **self.config,
            "committed": self.committed,
            "status": "pass" if self.ok else "fail",
            "checks": {check.name: check.ok for check in self.checks},
        }
        if self.trajectory is not None:
            report["trajectory"] = self.trajectory
        return report

    def summary(self) -> str:
        knobs = " ".join(f"{k}={v}" for k, v in self.config.items())
        marks = " ".join(
            f"{check.name}={'ok' if check.ok else 'FAIL'}"
            for check in self.checks
        )
        return f"{self.kind} {knobs} [{self.committed} committed] {marks}"


def resolve_crash_point(point: str | CrashPoint) -> CrashPoint:
    if isinstance(point, CrashPoint):
        return point
    try:
        return CRASH_POINTS[point]
    except KeyError:
        known = ", ".join(sorted(CRASH_POINTS))
        raise ConfigError(
            f"unknown crash point {point!r} (known: {known})"
        ) from None


def run_drill(
    scenario: Scenario,
    crash_point: str | CrashPoint,
    seed: int,
    *,
    timeout: float = 30.0,
) -> DrillResult:
    """Run one drill end to end and judge it.

    ``timeout`` is *real* seconds the workload may take — drills run on
    virtual time, so hitting it means a liveness bug, which is reported
    as a failed ``liveness`` verdict rather than an exception.
    """
    point = resolve_crash_point(crash_point)
    clock = ManualClock()
    backend = InMemoryObjectStore()
    cloud = scenario.build_cloud(backend, clock, seed)
    disk = MemoryFileSystem()
    MiniDB.create(disk, scenario.profile, scenario.engine_config()).close()
    ginja = Ginja(
        disk, cloud, scenario.profile, scenario.ginja_config(seed),
        clock=clock,
    )
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, scenario.profile, scenario.engine_config())

    acked: dict[str, bytes] = {}
    frozen: dict[str, dict[str, bytes]] = {}

    def capture() -> dict[str, bytes]:
        # Runs on the emitting thread: freeze the acknowledged set in
        # the same instant as the bucket image.
        frozen["committed"] = dict(acked)
        return backend.snapshot()

    # Armed only now — boot uploads must not pull the trigger.  The log
    # subscribes first so the trigger event itself is in the record.
    log = EventLog().attach(ginja.bus)
    injector = CrashPointInjector(point, capture, log=log).attach(ginja.bus)

    done = threading.Event()
    workload_errors: list[Exception] = []

    def workload() -> None:
        try:
            for index in range(scenario.rows):
                key = f"k{index}"
                value = row_value(index, seed)
                db.put("t", key, value)
                acked[key] = value
                clock.advance(scenario.tick)
                if index == scenario.checkpoint_at:
                    db.checkpoint()
        except (GinjaError, DatabaseError) as exc:
            # Expected ways for a drill workload to die: the pipeline
            # poisoned (retry budget exhausted) or the crash released a
            # blocked writer.
            workload_errors.append(exc)
        finally:
            done.set()

    worker = threading.Thread(target=workload, name="chaos-workload",
                              daemon=True)
    worker.start()

    deadline = time.monotonic() + timeout
    while (not injector.fired and not done.is_set()
           and time.monotonic() < deadline):
        injector.wait(0.002)
    timed_out = not injector.fired and not done.is_set()

    if not injector.fired and done.is_set() and point.kind != "__never__":
        # The workload finished first; async stages (checkpoint upload,
        # GC) may still pull the trigger — give them a real-time grace.
        injector.wait(1.0)

    if injector.fired:
        snapshot = injector.snapshot or {}
        committed = frozen.get("committed", {})
        event_index = injector.event_index
    else:
        # No trigger (end-of-run point, or the scenario killed the
        # pipeline before the stage was reached): the disaster image is
        # whatever the bucket holds now.
        snapshot = capture()
        committed = frozen["committed"]
        event_index = len(log)

    ginja.crash()
    done.wait(5.0)

    disaster = Disaster(
        scenario=scenario,
        seed=seed,
        snapshot=snapshot,
        committed=committed,
        events=log.upto(event_index),
        meter=cloud.meter,
        elapsed=cloud.elapsed(),
    )
    verdicts = run_oracles(disaster)
    verdicts.append(
        OracleVerdict(
            "liveness",
            not timed_out,
            "workload finished" if not timed_out
            else f"workload still running after {timeout}s real time",
        )
    )
    return DrillResult(
        scenario=scenario.name,
        crash_point=point.name,
        seed=seed,
        triggered=injector.fired,
        committed=len(committed),
        recovered_bound=scenario.loss_bound(),
        verdicts=verdicts,
        snapshot=dict(snapshot),
    )
