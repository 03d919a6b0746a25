"""Ginja configuration — the paper's control knobs (§5.1, §5.4, §6)."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.common.errors import ConfigError
from repro.core.pitr import RetentionPolicy
from repro.core.schedule import SyncSchedule


@dataclass(frozen=True)
class SharedPoolConfig:
    """The settings that size *process-wide* resources.

    Everything here describes infrastructure that exists once per
    protection process, no matter how many tenant databases it serves:
    the recovery download pool, the upload reactor (whose loop also
    runs every claim job — there is no encoder to size) and the
    transport stack's retry layers.  A
    :class:`~repro.fleet.manager.FleetManager` builds those from one
    ``SharedPoolConfig`` and injects them into every tenant's
    :class:`~repro.core.ginja.Ginja`; a single-tenant ``Ginja`` reads
    the same values through its flat :class:`GinjaConfig` view.

    These fields (and :class:`TenantPolicy`'s) are the only place a
    knob is declared or validated; :class:`GinjaConfig` exposes every
    one of them under the same name, so anything reading retry knobs
    off a config (:meth:`~repro.cloud.retry.RetryPolicy.from_config`,
    :func:`~repro.cloud.transport.build_transport`) accepts either.
    """

    #: Concurrent GETs of one disaster recovery: the restoring thread
    #: plus ``downloaders − 1`` helpers fetch and decode while payloads
    #: are applied strictly in plan order; a fleet's shared download
    #: pool has this many workers.  ``1`` restores sequentially on the
    #: calling thread.
    downloaders: int = 4
    #: Plan positions recovery may prefetch ahead of the apply cursor —
    #: bounds decoded-but-unapplied memory.
    prefetch_window: int = 16
    #: Retry budget per request before the caller sees the failure (a
    #: PUT that exhausts it poisons the pipeline).
    max_retries: int = 5
    #: Base backoff between retries, in seconds (doubles per attempt).
    retry_backoff: float = 0.1
    #: Upper bound on any single backoff sleep.
    retry_backoff_cap: float = 2.0
    #: Fraction of each backoff randomized symmetrically (0 = none),
    #: to de-synchronize uploads retrying into an outage.
    retry_jitter: float = 0.0
    #: Per-verb overrides of ``max_retries`` (keys: PUT/GET/LIST/DELETE).
    retry_budgets: Mapping[str, int] = field(default_factory=dict)
    #: Seed of the single RNG shared by the Fault/Meter/Retry transport
    #: layers (jitter, fault sampling).  One stream, one knob: a drill
    #: that sets ``seed`` replays the same failure schedule every run.
    seed: int = 0
    #: Simulated cloud providers the placement layer spreads objects
    #: over.  ``1`` keeps the classic single-cloud layout (and the
    #: zero-copy fast path).
    providers: int = 1
    #: Placement spec — ``mirror-N`` (full copies, write-quorum),
    #: ``stripe-K-N`` (XOR erasure fragments, K-of-N reads), or a
    #: per-class map like ``wal=mirror-2,db=stripe-2-3``
    #: (:func:`repro.placement.policy.parse_placement`).
    placement: str = "mirror-1"
    #: Global in-flight window of the upload reactor — the cap on
    #: concurrently running PUTs process-wide (the reactor replaced
    #: thread-per-upload, so this, not a thread count, bounds upload
    #: concurrency).
    reactor_inflight: int = 64

    def __post_init__(self) -> None:
        if self.downloaders < 1:
            raise ConfigError("need at least one downloader thread")
        if self.prefetch_window < 1:
            raise ConfigError("prefetch_window must be >= 1")
        if self.retry_backoff < 0 or self.retry_backoff_cap <= 0:
            raise ConfigError("retry backoff values must be positive")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ConfigError("retry_jitter must be within [0, 1]")
        if self.reactor_inflight < 1:
            raise ConfigError("reactor_inflight must be >= 1")
        if self.providers < 1:
            raise ConfigError("need at least one provider")
        from repro.placement.policy import parse_placement

        # The spec must parse against the provider count (the parser
        # raises ConfigError with the offending token).
        parse_placement(self.placement, self.providers)
        # One shared half backs every tenant's view: freeze the one
        # mutable value so no view can edit its co-tenants' budgets.
        object.__setattr__(
            self, "retry_budgets", MappingProxyType(dict(self.retry_budgets))
        )


@dataclass(frozen=True)
class TenantPolicy:
    """The per-tenant half of the configuration.

    Everything a tenant chooses for itself — the B/S/T_B/T_S
    cost-vs-loss model, codec keys, checkpoint/dump policy, retention —
    without any say over the shared pools.  The two headline parameters
    trade cost vs. performance vs. data loss (§5.1):

    * ``batch`` (B) — how many database updates each cloud
      synchronization carries at most;
    * ``safety`` (S) — how many updates may be lost to a disaster; the
      DBMS blocks once more than S updates are unconfirmed.

    Their time-domain twins ``batch_timeout`` (T_B) and
    ``safety_timeout`` (T_S) bound staleness under light workloads: a
    pending batch is pushed after T_B seconds, and writes block if the
    oldest unconfirmed update is older than T_S seconds.
    """

    # -- §5.1: the cost/durability/performance model -------------------------
    batch: int = 100
    safety: int = 1000
    batch_timeout: float = 1.0
    safety_timeout: float = 10.0

    # -- §6: pipeline shape ---------------------------------------------------
    #: This tenant's in-flight window on the upload reactor: how many
    #: of its PUTs may run concurrently (the paper's evaluation uses
    #: five Uploader threads; the reactor holds no thread per upload,
    #: the name is kept because the frozen benchmark sets it).
    uploaders: int = 5
    #: Objects are split at this size to optimize upload latency
    #: (footnote 3: 20 MB default).
    max_object_bytes: int = 20 * 1000 * 1000
    #: Coalesce repeated writes to the same WAL page before upload
    #: (§5.3's aggregation).  Disable only for the ablation benchmark.
    coalesce_writes: bool = True

    # -- §5.4: compression / encryption / integrity ---------------------------
    compress: bool = False
    encrypt: bool = False
    #: Password for the AES/MAC keys when ``encrypt`` is on (§5.4).
    password: str | None = None

    # -- §5.3: checkpoints -----------------------------------------------------
    #: A new dump replaces incremental checkpoints once cloud DB objects
    #: exceed this multiple of the local database size (paper: 150%).
    dump_threshold: float = 1.5

    # -- §5.4: point-in-time recovery ------------------------------------------
    retention: RetentionPolicy = field(default_factory=RetentionPolicy.none)

    # -- §3 extension: business-hours scheduling ---------------------------------
    #: When set, overrides ``batch_timeout`` by hour of day so business
    #: hours sync more often for the same monthly PUT budget.
    sync_schedule: SyncSchedule | None = None

    # -- adaptive batch/safety tuner -------------------------------------------
    #: Commit-latency target (seconds) the adaptive
    #: :class:`~repro.core.tuner.BatchTuner` holds for this tenant;
    #: ``None`` disables the tuner and pins the static B/S/T_B above.
    target_commit_latency: float | None = None
    #: Monthly dollar ceiling on projected PUT spend; the tuner refuses
    #: to shrink batches past it.  Requires ``target_commit_latency``.
    budget_dollars: float | None = None
    #: Batch claims the tuner observes between retune decisions.
    tuner_window: int = 8
    #: Deadband ratio around the latency target: no retune while the
    #: commit-latency EWMA stays within ``[target/h, target*h]``.
    tuner_hysteresis: float = 1.25

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ConfigError("batch (B) must be >= 1")
        if self.safety < 1:
            raise ConfigError("safety (S) must be >= 1")
        if self.batch > self.safety:
            # §5.1: "Ideally, B should be substantially lower than S";
            # B > S would deadlock the pipeline (a full batch could never
            # form without blocking the DBMS first).
            raise ConfigError("batch (B) must not exceed safety (S)")
        if self.batch_timeout <= 0 or self.safety_timeout <= 0:
            raise ConfigError("timeouts must be positive")
        if self.uploaders < 1:
            raise ConfigError("need at least one upload slot (uploaders >= 1)")
        if self.max_object_bytes < 64 * 1024:
            raise ConfigError("max_object_bytes unreasonably small")
        if self.encrypt and not self.password:
            raise ConfigError("encryption requires a password")
        if self.dump_threshold < 1.0:
            raise ConfigError("dump_threshold below 1.0 would dump constantly")
        if self.tuner_window < 1:
            raise ConfigError("tuner_window must be >= 1")
        if self.tuner_hysteresis < 1.0:
            raise ConfigError("tuner_hysteresis must be >= 1.0")
        if self.target_commit_latency is not None:
            if self.target_commit_latency <= 0:
                raise ConfigError("target_commit_latency must be positive")
            if self.target_commit_latency >= self.safety_timeout:
                # A commit that takes longer than T_S already blocks the
                # DBMS; a target beyond it could never be observed as met.
                raise ConfigError(
                    "target_commit_latency must be below safety_timeout"
                )
        if self.budget_dollars is not None:
            if self.budget_dollars <= 0:
                raise ConfigError("budget_dollars must be positive")
            if self.target_commit_latency is None:
                # The budget is a ceiling *on* the latency controller;
                # alone it has no error signal to act against.
                raise ConfigError(
                    "budget_dollars requires target_commit_latency"
                )


class GinjaConfig:
    """All tunables of the middleware, as one flat read-only view.

    Declares and validates nothing itself: every knob is a field of
    exactly one of :class:`SharedPoolConfig` / :class:`TenantPolicy`.
    The keyword constructor sorts its arguments into the two halves
    (whose constructors validate them); :meth:`compose` wraps a pair
    that already exists.  Either way the halves' values are bound into
    the instance ``__dict__``, so ``config.batch`` on the commit hot
    path is a plain attribute load, not a delegation.
    """

    def __init__(self, **knobs) -> None:
        shared = {
            name: knobs.pop(name)
            for name in SharedPoolConfig.__dataclass_fields__.keys() & knobs.keys()
        }
        # Whatever is left must be per-tenant: TenantPolicy's own
        # constructor rejects an unknown name with a TypeError.
        self._bind(SharedPoolConfig(**shared), TenantPolicy(**knobs))

    def _bind(self, shared: SharedPoolConfig, policy: TenantPolicy) -> None:
        vars(self).update(
            vars(shared), **vars(policy), _shared=shared, _policy=policy
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"GinjaConfig is read-only (tried to set {name!r}); "
            "build the config you want instead"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GinjaConfig):
            return NotImplemented
        return (self._shared, self._policy) == (other._shared, other._policy)

    def __repr__(self) -> str:
        return f"GinjaConfig({self._shared!r}, {self._policy!r})"

    def effective_batch_timeout(self, now: float | None = None) -> float:
        """T_B at session-clock time ``now`` (the schedule wins when
        configured).  Callers with a clock pass their reading so the
        hour of day derives from the session clock, not the host's —
        omitting it falls back to the schedule's ``hour_fn``."""
        if self.sync_schedule is not None:
            return self.sync_schedule.current_timeout(now)
        return self.batch_timeout

    @classmethod
    def no_loss(cls, **overrides) -> "GinjaConfig":
        """The synchronous-replication configuration (S = B = 1), the
        paper's 'No-Loss' column in Figure 5."""
        overrides.setdefault("batch", 1)
        overrides.setdefault("safety", 1)
        return cls(**overrides)

    # -- the shared/per-tenant split ------------------------------------------

    def shared(self) -> SharedPoolConfig:
        """The process-wide half of this configuration."""
        return self._shared

    def policy(self) -> TenantPolicy:
        """The per-tenant half of this configuration."""
        return self._policy

    @classmethod
    def compose(
        cls, shared: SharedPoolConfig, policy: TenantPolicy | None = None,
    ) -> "GinjaConfig":
        """The flat view over an existing shared/per-tenant pair — what
        a fleet hands each tenant's pipelines.  Both halves validated
        themselves when they were constructed, so a bad policy never
        gets as far as ``add_tenant``."""
        config = cls.__new__(cls)
        config._bind(shared, policy or TenantPolicy())
        return config
