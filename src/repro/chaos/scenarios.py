"""Declarative disaster scenarios.

A :class:`Scenario` is a self-contained description of one hostile
world: how the workload drives the database, which B/S configuration
Ginja runs with, and what the cloud does to it — scheduled outage
windows, time-boxed transient-error bursts, request throttling, latency
storms.  Scenarios *compile* onto the existing transport layers
(:class:`~repro.cloud.faults.FaultPolicy`,
:class:`~repro.cloud.latency.LatencyModel` inside a
:class:`~repro.cloud.simulated.SimulatedCloud`); nothing in the chaos
package reimplements failure mechanics.

Drills run on a :class:`~repro.common.clock.ManualClock` with
``time_scale=1.0``: modeled latencies, retry backoffs and the
``tick``-per-commit workload pacing all advance *virtual* time
instantly, so a scenario spanning minutes of store time executes in
milliseconds while outage windows stay aligned with the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace

from repro.common.clock import Clock
from repro.common.errors import CloudUnavailable, ConfigError
from repro.common.units import KiB
from repro.cloud.faults import FaultPolicy, Outage, Throttle
from repro.cloud.interface import ObjectStore
from repro.cloud.latency import LatencyModel
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.db.engine import EngineConfig
from repro.db.profiles import DBMSProfile, MYSQL_PROFILE, POSTGRES_PROFILE

#: Effectively-infinite values for the mutation knob (unbounded S).
_UNBOUNDED = 10**9


@dataclass(frozen=True)
class ErrorBurst:
    """A window of store time with an elevated transient-error rate."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigError("error burst ends before it starts")
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError("error burst rate must be within (0, 1]")

    def covers(self, t: float) -> bool:
        return self.start <= t <= self.end


@dataclass
class BurstyFaultPolicy(FaultPolicy):
    """A :class:`FaultPolicy` with additional time-boxed error bursts.

    Subclassing keeps the burst logic out of the production fault layer:
    the transport stack sees a plain FaultPolicy interface.
    """

    bursts: tuple[ErrorBurst, ...] = ()

    def check(self, op: str, now: float, rng: random.Random) -> None:
        for burst in self.bursts:
            if burst.covers(now) and rng.random() < burst.rate:
                raise CloudUnavailable(
                    f"{op}: burst error ({burst.start:.0f}s-{burst.end:.0f}s,"
                    f" rate={burst.rate})"
                )
        super().check(op, now, rng)


@dataclass(frozen=True)
class Scenario:
    """One reproducible disaster drill, minus the crash point and seed.

    Attributes:
        name: stable identifier used in reports and on the CLI.
        rows: updates the workload attempts to commit.
        checkpoint_at: row index after which ``db.checkpoint()`` runs
            (``None`` = never) — required for the checkpoint/GC crash
            points to be reachable.
        tick: store-clock seconds advanced per committed row; positions
            the workload against outage/burst windows.
        batch/safety/batch_timeout/safety_timeout/uploaders/max_retries/
        retry_backoff: the Ginja configuration under test.
        outages: scheduled (start, end) windows during which every cloud
            request fails.
        error_rate: flat i.i.d. transient-error probability.
        error_bursts: time-boxed elevated error rates.
        throttle: token-bucket request limit (S3 SlowDown).
        latency: modeled request latency (a "latency storm" is simply a
            model with hostile numbers); advances the drill's virtual
            clock, never real time.
        dbms: "postgres" or "mysql".
        unbounded_safety: the RPO-oracle **mutation knob**: run the
            pipeline with the Safety back-pressure effectively disabled
            while the oracle still budgets against the *nominal* S — a
            correct pipeline fails this drill, which is exactly how we
            prove the oracle has teeth.
        budget_dollars: billing-oracle spend ceiling for one drill.
        crash_points: crash-point names this scenario pairs with on the
            default campaign grid (``None`` = the standard taxonomy).
    """

    name: str
    rows: int = 80
    checkpoint_at: int | None = 40
    tick: float = 0.5
    batch: int = 5
    safety: int = 20
    batch_timeout: float = 0.05
    safety_timeout: float = 1e6
    uploaders: int = 3
    max_retries: int = 8
    retry_backoff: float = 0.01
    outages: tuple[tuple[float, float], ...] = ()
    error_rate: float = 0.0
    error_bursts: tuple[ErrorBurst, ...] = ()
    throttle: Throttle | None = None
    latency: LatencyModel | None = None
    dbms: str = "postgres"
    unbounded_safety: bool = False
    budget_dollars: float = 0.05
    crash_points: tuple[str, ...] | None = None
    description: str = ""

    # -- derived pieces ------------------------------------------------------

    @property
    def profile(self) -> DBMSProfile:
        if self.dbms == "postgres":
            return POSTGRES_PROFILE
        if self.dbms == "mysql":
            return MYSQL_PROFILE
        raise ConfigError(f"unknown dbms {self.dbms!r}")

    def engine_config(self) -> EngineConfig:
        return EngineConfig(wal_segment_size=64 * KiB, auto_checkpoint=False)

    def loss_bound(self) -> int:
        """The analytic RPO bound in updates: S unsynchronized plus one
        claimed batch plus the submitting writer (§5.3, and the bound
        the seed's disaster-property tests assert)."""
        return self.safety + self.batch + 1

    def ginja_config(self, seed: int) -> GinjaConfig:
        """The middleware configuration this scenario runs with.

        The drill seed becomes ``GinjaConfig.seed``, as it seeds the
        simulated cloud's fault sampling and latency jitter
        (:meth:`build_cloud`); the retry backoff draws nothing from it.
        """
        safety = _UNBOUNDED if self.unbounded_safety else self.safety
        timeout = _UNBOUNDED if self.unbounded_safety else self.safety_timeout
        return GinjaConfig(
            batch=self.batch,
            safety=safety,
            batch_timeout=self.batch_timeout,
            safety_timeout=timeout,
            uploaders=self.uploaders,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            seed=seed,
        )

    def fault_policy(self) -> FaultPolicy:
        """Compile the failure schedule onto the transport's FaultLayer."""
        outages = [Outage(start=s, end=e) for s, e in self.outages]
        if self.error_bursts:
            return BurstyFaultPolicy(
                error_rate=self.error_rate,
                outages=outages,
                throttle=self.throttle,
                bursts=tuple(self.error_bursts),
            )
        return FaultPolicy(
            error_rate=self.error_rate,
            outages=outages,
            throttle=self.throttle,
        )

    def build_cloud(
        self, backend: ObjectStore, clock: Clock, seed: int
    ) -> SimulatedCloud:
        """The simulated provider this scenario subjects Ginja to.

        ``time_scale=1.0`` on a ManualClock: modeled latencies advance
        virtual time without sleeping, keeping drills fast *and* keeping
        outage windows meaningful.
        """
        return SimulatedCloud(
            backend=backend,
            latency=self.latency if self.latency is not None else LatencyModel(),
            faults=self.fault_policy(),
            time_scale=1.0,
            clock=clock,
            seed=seed,
        )

    # -- shrinking support ---------------------------------------------------

    def simplifications(self) -> list["Scenario"]:
        """Candidate one-step simplifications, most aggressive first.

        The campaign shrinker greedily adopts any candidate that still
        reproduces a failure, yielding a minimal reproducing scenario.
        """
        candidates: list[Scenario] = []
        if self.latency is not None:
            candidates.append(replace(self, latency=None))
        if self.throttle is not None:
            candidates.append(replace(self, throttle=None))
        if self.error_bursts:
            candidates.append(replace(self, error_bursts=()))
        if self.error_rate > 0:
            candidates.append(replace(self, error_rate=0.0))
        for index in range(len(self.outages)):
            kept = tuple(
                o for i, o in enumerate(self.outages) if i != index
            )
            candidates.append(replace(self, outages=kept))
        if self.checkpoint_at is not None:
            candidates.append(replace(self, checkpoint_at=None))
        if self.rows >= 4 * self.batch:
            half = self.rows // 2
            checkpoint = self.checkpoint_at
            if checkpoint is not None and checkpoint >= half:
                checkpoint = half // 2
            candidates.append(
                replace(self, rows=half, checkpoint_at=checkpoint)
            )
        return candidates

    def describe(self) -> dict:
        """A canonical, JSON-ready description (used by reports)."""
        out: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value == spec.default and spec.name != "name":
                continue
            if isinstance(value, (ErrorBurst, Throttle, LatencyModel)):
                value = repr(value)
            elif isinstance(value, tuple):
                value = [
                    repr(v) if isinstance(v, ErrorBurst) else list(v)
                    if isinstance(v, tuple) else v
                    for v in value
                ]
            out[spec.name] = value
        return out


# ---------------------------------------------------------------------------
# the standard catalog


def _standard_scenarios() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="baseline",
            description="healthy provider; crash injection only",
        ),
        Scenario(
            name="blackout",
            outages=((4.0, 1e9),),
            crash_points=("pre-put", "mid-batch", "backpressure"),
            description="provider goes dark shortly after boot and never "
                        "returns; back-pressure then pipeline poisoning",
        ),
        Scenario(
            name="brownout",
            outages=((8.0, 14.0), (22.0, 26.0)),
            max_retries=25,
            description="two bounded outage windows the retry layer must "
                        "ride out",
        ),
        Scenario(
            name="flaky",
            error_rate=0.05,
            error_bursts=(ErrorBurst(start=10.0, end=20.0, rate=0.4),),
            max_retries=25,
            description="5% background errors with a 40% burst mid-run",
        ),
        Scenario(
            name="throttled",
            throttle=Throttle(rate=4.0, burst=8.0),
            max_retries=40,
            description="token-bucket SlowDown throttling",
        ),
        Scenario(
            name="latency-storm",
            latency=LatencyModel(
                put_base=2.0, put_bytes_per_sec=200 * 1024,
                get_base=1.0, get_bytes_per_sec=1024 * 1024,
                list_base=1.0, delete_base=1.0, jitter_sigma=0.3,
            ),
            description="WAN latencies inflated ~5x with heavy jitter",
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


#: The built-in scenario catalog, keyed by name.
SCENARIOS: dict[str, Scenario] = _standard_scenarios()
