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
jitter-free latency models, so a fixed seed reproduces the run
byte-identically — ``canonical()`` exposes only run-stable fields
(configuration and booleans) and is what the CI job byte-compares.
"""

from __future__ import annotations

import random

from repro.common.clock import ManualClock
from repro.common.errors import ReproError
from repro.cloud.latency import LatencyModel
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.chaos.drill import ClockPump, PhasedDrillResult
from repro.chaos.oracles import row_value
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.storage.memory import MemoryFileSystem


class ShiftableLatency:
    """A latency model whose inner model can be swapped mid-run.

    :class:`~repro.cloud.latency.LatencyModel` is frozen (a drill must
    not mutate shared calibration constants), so the mid-run shift is a
    delegating wrapper: the latency layer holds *this* object and every
    request reads whichever inner model is current.
    """

    def __init__(self, model: LatencyModel):
        self.model = model

    def shift(self, model: LatencyModel) -> None:
        self.model = model

    def put_latency(self, nbytes: int, rng: random.Random | None = None) -> float:
        return self.model.put_latency(nbytes, rng)

    def get_latency(self, nbytes: int, rng: random.Random | None = None) -> float:
        return self.model.get_latency(nbytes, rng)

    def list_latency(self, rng: random.Random | None = None) -> float:
        return self.model.list_latency(rng)

    def delete_latency(self, rng: random.Random | None = None) -> float:
        return self.model.delete_latency(rng)


#: Healthy cloud: transfer-dominated PUTs (the regime where batch size
#: actually moves commit latency), no jitter for byte-identical replays.
#: The absolute numbers are large on purpose — virtual latencies cost no
#: real time (ManualClock sleeps advance instantly), and the measured
#: claim→unlock signal must dwarf the clock pump's noise floor (the
#: pump ticks on during the few real milliseconds each batch spends in
#: encode/dispatch/unlock).
PRE_SHIFT_LATENCY = LatencyModel(
    put_base=0.5, put_bytes_per_sec=100e3,
    get_base=0.01, get_bytes_per_sec=8e6,
    list_base=0.01, delete_base=0.005,
    jitter_sigma=0.0,
)


def shifted(model: LatencyModel, factor: float) -> LatencyModel:
    """The same cloud with its upload throughput divided by ``factor``."""
    return LatencyModel(
        put_base=model.put_base,
        put_bytes_per_sec=model.put_bytes_per_sec / factor,
        get_base=model.get_base,
        get_bytes_per_sec=model.get_bytes_per_sec,
        list_base=model.list_base,
        delete_base=model.delete_base,
        jitter_sigma=model.jitter_sigma,
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
    neither a few percent of shipped bytes nor the pump's noise decides
    whether the tuner moves.  The workload's row rate (one per 0.8
    virtual seconds) stays below the *post-shift* drain capacity at
    every B the controller can visit — an oversubscribed pipeline
    measures its own backlog, not the knob the tuner controls.
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
    # batch (measured: ~13 virtual seconds for 16 page writes, the
    # tuner's ``interval_ewma``), or every claim is a T_B-expiry
    # partial of one or two rows and B stops being the knob that sets
    # commit latency (the reactor queue does instead).  The final
    # drain flushes the tail partial batch.
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
    # A slow pump: here virtual *latencies* are the measured control
    # signal, and every pump tick that lands
    # between a claim and its unlock inflates it.  0.02 per 2 ms keeps
    # the noise floor well under the smallest per-batch PUT latency.
    with ClockPump(clock, step=0.02):
        _run_phases(result, cloud, latency, config, engine, profile, clock,
                    row_pad)
    return result


def _run_phases(result, cloud, latency, config, engine, profile, clock,
                row_pad) -> None:
    knobs = result.config
    seed, rows_before, rows_after = (
        knobs["seed"], knobs["rows_before"], knobs["rows_after"]
    )
    disk = MemoryFileSystem()
    MiniDB.create(disk, profile, engine).close()
    ginja = Ginja(disk, cloud, profile, config, clock=clock)
    ginja.start(mode="boot")
    tuner = ginja.pipeline.tuner
    db = MiniDB.open(ginja.fs, profile, engine)
    acked: dict[str, bytes] = {}
    band_top = config.target_commit_latency * config.tuner_hysteresis
    # Incompressible padding (seeded, so recovery can be compared):
    # printable padding deflates to almost nothing and the PUT transfer
    # term — the whole signal the drill steers on — would vanish.
    rng = random.Random(seed)

    def put_rows(start: int, count: int) -> None:
        # The workload *waits for* virtual time instead of advancing it:
        # pushing the clock from this thread while an upload is in
        # flight lands the pushes inside that batch's claim→unlock
        # window, and the tuner would be steering against the workload's
        # own clock advances rather than the cloud's latency.  Time is
        # driven by the pump and the latency-layer sleeps only.
        for index in range(start, start + count):
            key = f"k{index}"
            value = row_value(index, seed) + rng.randbytes(row_pad)
            db.put("t", key, value)
            acked[key] = value
            clock.wait_until(clock.now() + 0.8, timeout=30.0)

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
        latency.shift(shifted(PRE_SHIFT_LATENCY, knobs["shift_factor"]))
        put_rows(rows_before, rows_after)
        after = tuner.snapshot()
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

        # Flush the tail: advancing the clock past T_B fires the timer,
        # which claims the partial batch.  The sentinel row dates from
        # when only a submit could report that virtual time had passed;
        # it stays because the canonical report counts it in
        # ``committed``.
        clock.advance(config.batch_timeout + 1.0)
        sentinel = row_value(rows_before + rows_after, seed)
        db.put("t", "sentinel", sentinel)
        acked["sentinel"] = sentinel
        db.close()
        ginja.stop(drain_timeout=600.0)  # drain: RPO 0 is now well-defined
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
