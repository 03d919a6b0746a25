"""Latency-shift chaos drill: prove the batch tuner re-converges.

The scenario the adaptive controller exists for: a tenant is committing
happily at its nominal B when the cloud's effective upload throughput
collapses (provider brown-out, congested WAN — the paper's Table-3
latencies are anything but constant).  A frozen policy would sit at
B = nominal forever, missing its commit-latency target by an order of
magnitude.  The drill proves, in order:

1. **converged** — before the shift the tenant meets the latency target
   at the nominal B (the tuner has no reason to act, and doesn't);
2. **batch_shrank** — after the throughput collapse the tuner walks B
   down (reasoned ``tuner_retune`` transitions, not a jump);
3. **reconverged** — the commit-latency EWMA settles back inside the
   target's hysteresis band at the shrunken B;
4. **budget_respected** — the projected monthly PUT spend stays at or
   under the tenant's dollar budget throughout;
5. **loss_bound_preserved** — every transition kept
   1 <= B <= nominal B and B <= S <= nominal S, so the paper's
   S + B + 1 bound (against the *nominal* knobs) held mid-retune;
6. **rpo_zero** — a standby recovers every acknowledged row afterwards:
   retuning never compromised durability.

Everything runs on a :class:`~repro.common.clock.ManualClock` with
jitter-free latency models, stepped by the drill's one thread only
where the pipeline has settled, so a fixed seed replays byte for byte:
``canonical()`` carries the controller's ``trajectory`` (virtual time,
transition records and tuner snapshot at the settled end of phase 2)
beside the configuration and the booleans.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.common.clock import ManualClock
from repro.common.errors import ReproError
from repro.cloud.latency import LatencyModel
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.chaos.drill import PhasedDrillResult
from repro.chaos.oracles import row_value
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


class ShiftableLatency:
    """A latency model whose inner model can be swapped mid-run.

    :class:`~repro.cloud.latency.LatencyModel` is frozen (a drill must
    not mutate shared calibration constants), so the mid-run shift is a
    delegating wrapper: the latency layer holds *this* object and every
    request reads whichever inner ``model`` is current.
    """

    def __init__(self, model: LatencyModel):
        self.model = model

    def __getattr__(self, name: str):
        return getattr(self.model, name)


class SettledWrites:
    """The drill's view of ``ginja.fs``: a write returns once the
    pipeline has settled, so a put's second page never races the ack of
    the batch its first page filled."""

    def __init__(self, fs, pipeline):
        self._fs = fs
        self._pipeline = pipeline

    def __getattr__(self, name: str):
        return getattr(self._fs, name)

    def write(self, path: str, offset: int, data: bytes) -> None:
        self._fs.write(path, offset, data)
        self._pipeline.settle()


#: Healthy cloud: transfer-dominated PUTs (the regime where batch size
#: actually moves commit latency), no jitter for byte-identical replays.
#: Virtual latencies cost no real time (ManualClock sleeps advance
#: instantly), and the claim→unlock signal the tuner steers on is the
#: PUT's modelled latency and nothing else: no clock moves while a
#: batch encodes, dispatches or unlocks.
PRE_SHIFT_LATENCY = LatencyModel(
    put_base=0.5, put_bytes_per_sec=100e3,
    get_base=0.01, get_bytes_per_sec=8e6,
    list_base=0.01, delete_base=0.005,
    jitter_sigma=0.0,
)


def run_tuner_drill(
    *,
    seed: int = 0,
    rows_before: int = 64,
    rows_after: int = 192,
    batch: int = 16,
    safety: int = 64,
    target: float = 4.0,
    hysteresis: float = 1.6,
    budget: float = 100.0,
    shift_factor: float = 14.0,
    row_pad: int = 6000,
) -> PhasedDrillResult:
    """Run the latency-shift drill end to end.

    B counts page writes, not rows: a padded row's record spans most of
    an 8 KiB WAL page, each commit rewrites the page it ends in, and
    the pipeline ships what changed, less the page's zero padding —
    measured, a full batch ships ~56.0 kB at B=16 and ~27.9 kB at B=8
    (of 131 kB / 66 kB submitted).  The defaults put the post-shift
    per-B commit latencies (``put_base + batch bytes / throughput``,
    throughput 100 kB/s / 14) at ~8.3s for B=16 and ~4.4s for B=8
    against a hysteresis band of 2.5s .. 6.4s: the nominal B sits 30%
    above the band, B=8 31% under its top and 76% over its bottom, so
    a few percent of shipped bytes never decides whether the tuner
    moves.  Each row is followed by 0.8 virtual seconds, stepped only
    once the pipeline has settled — every batch a row fills or a T_B
    expiry flushes is acked before the next row — so the pipeline is
    never oversubscribed: it measures the knob the tuner controls, not
    its own backlog.
    """
    result = PhasedDrillResult("tuner", {
        "seed": seed, "rows_before": rows_before, "rows_after": rows_after,
        "batch": batch, "safety": safety, "target": target,
        "hysteresis": hysteresis, "budget": budget,
        "shift_factor": shift_factor,
    })
    clock = ManualClock()
    latency = ShiftableLatency(PRE_SHIFT_LATENCY)
    cloud = SimulatedCloud(
        latency=latency, time_scale=1.0, clock=clock, seed=seed,
    )
    # T_B must exceed the time the workload takes to produce a full
    # batch (~13 virtual seconds for 16 page writes, the tuner's
    # ``interval_ewma``), or every claim is a T_B-expiry partial of one
    # or two rows and B stops being the knob that sets commit latency.
    # The final drain flushes the tail partial batch.
    config = GinjaConfig(
        batch=batch, safety=safety, seed=seed,
        batch_timeout=20.0, safety_timeout=60.0,
        target_commit_latency=target, budget_dollars=budget,
        tuner_window=4, tuner_hysteresis=hysteresis,
    )
    # WAL-driven throughout: auto checkpoints would add multi-megabyte
    # DB-object PUTs whose post-shift modeled latency dwarfs the commit
    # stream the drill is measuring.
    engine = EngineConfig(auto_checkpoint=False)
    profile = POSTGRES_PROFILE
    disk = MemoryFileSystem()
    MiniDB.create(disk, profile, engine).close()
    ginja = Ginja(disk, cloud, profile, config, clock=clock)
    ginja.start(mode="boot")
    pipeline = ginja.pipeline
    tuner = pipeline.tuner
    db = MiniDB.open(SettledWrites(ginja.fs, pipeline), profile, engine)
    acked: dict[str, bytes] = {}
    band_top = config.target_commit_latency * config.tuner_hysteresis
    # Incompressible padding (seeded, so recovery can be compared):
    # printable padding deflates to almost nothing and the PUT transfer
    # term — the whole signal the drill steers on — would vanish.
    rng = random.Random(seed)

    def put_rows(start: int, count: int) -> None:
        # This thread moves virtual time only where the pipeline has
        # settled (every write settles it): a step never lands inside a
        # batch's claim→unlock window, so the tuner steers on the
        # cloud's latency alone (the latency layer's sleeps), and a T_B
        # the step expires is flushed and acked before the next row.
        for index in range(start, start + count):
            key = f"k{index}"
            value = row_value(index, seed) + rng.randbytes(row_pad)
            db.put("t", key, value)
            acked[key] = value
            clock.advance(0.8)
            pipeline.settle()

    error = ""
    try:
        # -- phase 1: healthy cloud, nominal B meets the target -----------
        put_rows(0, rows_before)
        before = tuner.snapshot()
        result.check(
            "converged",
            before["batch"] == config.batch
            and before["latency_ewma"] is not None
            and before["latency_ewma"] <= band_top,
            f"pre-shift snapshot: {before}",
        )

        # -- phase 2: throughput collapse, keep committing ----------------
        # The same cloud with its upload throughput divided.
        healthy = PRE_SHIFT_LATENCY.put_bytes_per_sec
        latency.model = replace(
            PRE_SHIFT_LATENCY, put_bytes_per_sec=healthy / shift_factor,
        )
        put_rows(rows_before, rows_after)
        after = tuner.snapshot()
        # Read where phase 2 has settled, before the final drain.
        result.trajectory = {
            "at": clock.now(),
            "transitions": tuner.transition_log(),
            "tuner": after,
        }
        result.check(
            "batch_shrank",
            after["batch"] < config.batch and after["retunes"] > 0,
            f"post-shift snapshot: {after}",
        )
        result.check(
            "reconverged",
            after["latency_ewma"] is not None
            and after["latency_ewma"] <= band_top,
            f"latency EWMA {after['latency_ewma']} above "
            f"{band_top} at B={after['batch']}",
        )
        projected = after["projected_monthly_dollars"]
        result.check(
            "budget_respected",
            projected is not None and projected <= config.budget_dollars,
            f"projected ${projected}/month over ${config.budget_dollars}",
        )

        # No db.close(): its checkpoint's PUTs would advance the clock
        # inside the final drain's claim→unlock window, and the tuner
        # would fold them into its latency.  The WAL holds every acked
        # row, so the drain alone makes RPO 0 well-defined.
        ginja.stop(drain_timeout=600.0)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        ginja.crash()
    result.committed = len(acked)
    result.check("survived_shift", not error, error)

    # -- phase 3: the nominal knobs stayed the ceiling throughout ---------
    final = result.extras["tuner"] = tuner.snapshot()
    transitions = result.extras["transitions"] = tuner.transition_log()
    bound_ok = all(
        1 <= t["to_batch"] <= config.batch
        and t["to_batch"] <= t["to_safety"] <= config.safety
        for t in transitions
    ) and (
        1 <= final["batch"] <= config.batch
        and final["batch"] <= final["safety"] <= config.safety
    )
    result.check("loss_bound_preserved", bound_ok,
                 f"transitions: {transitions}")

    # -- phase 4: standby recovery at RPO 0 -------------------------------
    result.check_standby(
        "rpo_zero",
        lambda fs: Ginja.recover(cloud, fs, profile, config, clock=clock),
        acked, profile, engine,
    )
    return result
