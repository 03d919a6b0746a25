"""Adaptive batch/safety tuner: hold a latency target under a budget.

The paper's (B, T_B, S, T_S) knobs are static (§5.1): a cloud-latency
shift or a traffic burst either blows the commit-latency target or
wastes the monthly dollar budget.  BtrLog-style latency-aware group
commit re-sizes batches continuously against the observed cloud; this
module does that per tenant, under the Figure-1 economics:

* **Signals.**  The commit pipeline reports each batch's claim→unlock
  latency (:meth:`BatchTuner.observe_commit`) and its queue depth
  (:meth:`BatchTuner.observe_depth`); both upload paths report every
  confirmed PUT (:meth:`BatchTuner.observe_put`), which feeds a
  projected-monthly-spend estimate through the
  :class:`~repro.cloud.pricing.PriceBook`.  All EWMAs fold samples
  measured by the *caller's* clock, so a
  :class:`~repro.common.clock.ManualClock` drives the controller
  deterministically.

* **Control law.**  One degree of freedom: the effective batch B.  The
  effective safety S shrinks proportionally (never below B, never above
  the configured nominal S) and the effective T_B scales as
  ``B / nominal_B`` — smaller batches both upload less per PUT and
  flush sooner.  When the commit-latency EWMA exceeds
  ``target x hysteresis``, B halves; when it falls below
  ``target / hysteresis``, B doubles back toward the nominal (the
  frugal direction: fewer, larger PUTs).  The tuner only ever *shrinks*
  below the configured policy, so the chaos RPO bound — S + B + 1
  against the nominal knobs — survives every retune.

* **Budget ceiling.**  Confirmed PUTs extrapolate to a projected
  monthly spend; when it exceeds ``budget_dollars`` the tuner grows B
  regardless of latency, and a latency-driven shrink is clamped to the
  budget-feasible floor (spend scales as ``1/B`` at a fixed update
  rate).  When the target and the budget conflict, the budget wins and
  the ``budget_limited`` flag says so in :meth:`snapshot`.

* **Hysteresis + capped backoff.**  Decisions happen at most once per
  ``tuner_window`` batch claims, inside a deadband of
  ``tuner_hysteresis`` around the target; every *direction reversal*
  doubles a decision-freeze penalty (in claims, capped), so oscillating
  latency produces geometrically rarer retunes instead of flapping.

Every retune appends a reasoned transition record and emits a
``tuner_retune`` event (:class:`~repro.core.stats.GinjaStats` counts
them; a fleet forwards them tenant-stamped).  ``set_override`` pins the
knobs for operators; ``snapshot``/``transition_log`` are copy-on-read
under the controller lock, safe against concurrent retunes.
"""

from __future__ import annotations

import math
import threading

from repro.common.clock import Clock, SYSTEM_CLOCK
from repro.common.errors import GinjaError
from repro.common import events
from repro.common.events import EventBus, NULL_BUS
from repro.cloud.pricing import PriceBook, S3_STANDARD_2017, SECONDS_PER_MONTH
from repro.core.config import GinjaConfig


class BatchTuner:
    """Per-tenant feedback controller over the effective B/S/T_B.

    Requires ``config.target_commit_latency`` — a config without a
    target has nothing to control and should simply not build a tuner.

    Lock order: callers inside the commit pipeline hold the pipeline
    condition before calling in (``pipeline cond → tuner lock``, the
    same order the dispatch controller uses); the tuner never calls
    back out under its lock, and bus emits happen after release.
    """

    #: Multiplicative step down when latency exceeds the deadband.
    SHRINK_FACTOR = 0.5
    #: Multiplicative step back toward the nominal B on headroom.
    GROW_FACTOR = 2.0
    #: Cap on the reversal penalty, in decision windows.
    MAX_PENALTY = 64
    #: ``dump_threshold`` multiplier while the budget ceiling binds —
    #: full dumps are the most PUT-expensive object class, so a
    #: budget-limited tenant defers them.
    DUMP_STRETCH = 2.0

    def __init__(
        self,
        config: GinjaConfig,
        *,
        clock: Clock = SYSTEM_CLOCK,
        bus: EventBus | None = None,
        lane: str = "",
        prices: PriceBook = S3_STANDARD_2017,
        alpha: float = 0.25,
    ):
        if config.target_commit_latency is None:
            raise GinjaError("BatchTuner needs target_commit_latency set")
        self._target = config.target_commit_latency
        self._budget = config.budget_dollars
        self._window = max(1, config.tuner_window)
        self._hysteresis = max(1.0, config.tuner_hysteresis)
        self._alpha = alpha
        self._clock = clock
        self._bus = bus or NULL_BUS
        self._lane = lane
        self._prices = prices
        self._lock = threading.Lock()
        #: The configured policy is the *ceiling*: effective knobs start
        #: there and only ever shrink, so the loss bound S + B + 1
        #: against the nominal values stays valid mid-retune.
        self._nominal_batch = config.batch
        self._nominal_safety = config.safety
        self._s_ratio = config.safety / config.batch
        self._batch = config.batch
        self._safety = config.safety
        #: EWMAs, seconds except ``depth_ewma`` (queued updates).
        #: ``None`` until the first sample arrives.
        self.latency_ewma: float | None = None
        self.interval_ewma: float | None = None
        self.depth_ewma: float | None = None
        self._epoch = clock.now()
        self._puts = 0
        self._last_claim_at: float | None = None
        self._in_state = 0        # claims since the last retune
        self._last_direction: str | None = None
        self._reversals = 0
        self._penalty = 0         # claims left before the next decision
        self._budget_limited = False
        self._override = False
        #: Every retune, oldest first: dicts with at/lane/from/to knob
        #: values, the reason, and the EWMA snapshot at decision time.
        self.transitions: list[dict] = []

    # -- effective knobs ----------------------------------------------------------

    @property
    def lane(self) -> str:
        return self._lane

    def batch(self) -> int:
        """The effective B the pipeline should claim right now."""
        with self._lock:
            return self._batch

    def safety(self) -> int:
        """The effective S the pipeline should block on right now."""
        with self._lock:
            return self._safety

    def timeout_scale(self) -> float:
        """Multiplier on the (schedule-resolved) nominal T_B."""
        with self._lock:
            return self._batch / self._nominal_batch

    def dump_threshold(self, nominal: float) -> float:
        """The checkpoint collector's dump threshold, stretched while
        the budget ceiling binds (dumps are the priciest PUT burst)."""
        with self._lock:
            return nominal * (self.DUMP_STRETCH if self._budget_limited
                              else 1.0)

    # -- signals ------------------------------------------------------------------

    def _fold(self, name: str, sample: float) -> None:
        old = getattr(self, name)
        if old is None:
            setattr(self, name, sample)
        else:
            setattr(self, name, old + self._alpha * (sample - old))

    def observe_commit(self, latency: float) -> None:
        """Report one batch's claim→unlock latency (the unlock rule)."""
        with self._lock:
            self._fold("latency_ewma", latency)

    def observe_depth(self, depth: int) -> None:
        """Report the unconfirmed queue depth (each submit)."""
        with self._lock:
            self._fold("depth_ewma", float(depth))

    def observe_put(self) -> None:
        """Count one confirmed PUT (WAL or DB object) toward the spend
        projection; both upload paths call this directly so a tenant
        without a metered transport still projects correctly."""
        with self._lock:
            self._puts += 1

    # -- spend projection ---------------------------------------------------------

    def _projected_monthly_dollars_locked(self, now: float) -> float | None:
        elapsed = now - self._epoch
        if elapsed <= 0 or self._puts == 0:
            return None
        rate = self._puts / elapsed
        return self._prices.put_cost(rate * SECONDS_PER_MONTH)

    def projected_monthly_dollars(self) -> float | None:
        """Projected monthly PUT spend from the observed rate (storage
        is out of the loop: B/T_B only change the PUT rate)."""
        with self._lock:
            return self._projected_monthly_dollars_locked(self._clock.now())

    # -- decisions ----------------------------------------------------------------

    def on_claim(self) -> tuple[int, float]:
        """Account one batch claim; returns ``(effective B, T_B scale)``.

        The claim job calls this at every claim — the tuner's only
        decision point, so retune cadence is measured in batches.
        """
        now = self._clock.now()
        transition = None
        with self._lock:
            if self._last_claim_at is not None:
                self._fold("interval_ewma", max(now - self._last_claim_at, 0.0))
            self._last_claim_at = now
            self._in_state += 1
            transition = self._decide_locked(now)
            batch = self._batch
            scale = self._batch / self._nominal_batch
        if transition is not None:
            self._emit(transition)
        return batch, scale

    def _decide_locked(self, now: float) -> dict | None:
        if self._override:
            return None
        if self._penalty > 0:
            self._penalty -= 1
            return None
        if self._in_state < self._window:
            return None
        latency = self.latency_ewma
        if latency is None:
            return None
        projected = self._projected_monthly_dollars_locked(now)
        over_budget = (
            self._budget is not None and projected is not None
            and projected > self._budget
        )
        if over_budget:
            # The ceiling binds regardless of latency: fewer, larger
            # PUTs are the only lever that cuts spend.
            self._budget_limited = True
            if self._batch >= self._nominal_batch:
                return None
            return self._retune_locked(
                self._grown(), now,
                f"projected ${projected:.4f}/month over the "
                f"${self._budget:.2f} budget",
            )
        if latency > self._target * self._hysteresis:
            new_batch = max(1, int(self._batch * self.SHRINK_FACTOR))
            if self._budget is not None and projected is not None \
                    and projected > 0:
                # Spend scales ~1/B at a fixed update rate; never shrink
                # past the B whose projection would cross the ceiling.
                floor = math.ceil(self._batch * projected / self._budget)
                new_batch = max(new_batch, min(floor, self._batch))
            if new_batch >= self._batch:
                # The latency target wants a shrink the budget forbids.
                self._budget_limited = True
                return None
            self._budget_limited = False
            return self._retune_locked(
                new_batch, now,
                f"commit latency EWMA {latency * 1e3:.0f}ms over the "
                f"{self._target * 1e3:.0f}ms target",
            )
        if latency < self._target / self._hysteresis \
                and self._batch < self._nominal_batch:
            # Headroom: relax toward the nominal policy (the frugal
            # direction — fewer PUTs for the same met target).
            self._budget_limited = False
            return self._retune_locked(
                self._grown(), now,
                f"latency headroom: EWMA {latency * 1e3:.0f}ms under "
                f"{self._target * 1e3:.0f}ms/{self._hysteresis:.2f}",
            )
        return None

    def _grown(self) -> int:
        return min(
            self._nominal_batch,
            max(self._batch + 1, int(self._batch * self.GROW_FACTOR)),
        )

    def _derived_safety(self, batch: int) -> int:
        return max(batch, min(self._nominal_safety,
                              round(batch * self._s_ratio)))

    def _retune_locked(self, new_batch: int, now: float,
                       reason: str) -> dict:
        direction = "shrink" if new_batch < self._batch else "grow"
        if self._last_direction is not None \
                and direction != self._last_direction:
            # A reversal inside the deadband's reach is the flap
            # signature: freeze decisions geometrically longer each time.
            self._reversals += 1
            self._penalty = self._window * min(
                2 ** self._reversals, self.MAX_PENALTY
            )
        self._last_direction = direction
        new_safety = self._derived_safety(new_batch)
        record = {
            "at": now,
            "lane": self._lane,
            "from_batch": self._batch,
            "to_batch": new_batch,
            "from_safety": self._safety,
            "to_safety": new_safety,
            "timeout_scale": new_batch / self._nominal_batch,
            "direction": direction,
            "reason": reason,
            "latency_ewma": self.latency_ewma,
            "interval_ewma": self.interval_ewma,
            "depth_ewma": self.depth_ewma,
            "claims_in_state": self._in_state,
        }
        self._batch = new_batch
        self._safety = new_safety
        self._in_state = 0
        self.transitions.append(record)
        return record

    # -- operator override --------------------------------------------------------

    def set_override(self, batch: int, safety: int | None = None,
                     reason: str = "forced") -> None:
        """Pin the effective knobs; automatic retuning suspends until
        :meth:`clear_override`.  The nominal policy stays the ceiling
        (B ≤ S ≤ nominal S), so an override can never widen the loss
        bound the chaos oracles hold the pipeline to."""
        if batch < 1 or batch > self._nominal_batch:
            raise GinjaError(
                f"override batch {batch} outside [1, {self._nominal_batch}]"
            )
        with self._lock:
            safety = self._derived_safety(batch) if safety is None else safety
            if safety < batch or safety > self._nominal_safety:
                raise GinjaError(
                    f"override safety {safety} outside "
                    f"[{batch}, {self._nominal_safety}]"
                )
            transition = self._retune_locked(
                batch, self._clock.now(), f"override: {reason}"
            )
            self._safety = safety
            transition["to_safety"] = safety
            self._override = True
        self._emit(transition)

    def clear_override(self) -> None:
        """Resume automatic retuning from the overridden values."""
        with self._lock:
            self._override = False
            self._in_state = 0

    # -- telemetry ----------------------------------------------------------------

    def _emit(self, transition: dict) -> None:
        self._bus.emit(
            events.TUNER_RETUNE,
            key=self._lane,
            count=transition["to_batch"],
            total=transition["to_safety"],
            at=transition["at"],
            detail=(
                f"B {transition['from_batch']}->{transition['to_batch']} "
                f"S {transition['from_safety']}->{transition['to_safety']} "
                f"tb x{transition['timeout_scale']:.2f}: "
                f"{transition['reason']}"
            ),
        )

    def snapshot(self) -> dict:
        """The controller's state at a glance (health endpoints).  Taken
        under the lock, so a concurrent retune can never tear the
        B/S pair or the budget flag."""
        with self._lock:
            return {
                "lane": self._lane,
                "batch": self._batch,
                "safety": self._safety,
                "nominal_batch": self._nominal_batch,
                "nominal_safety": self._nominal_safety,
                "timeout_scale": self._batch / self._nominal_batch,
                "target_commit_latency": self._target,
                "budget_dollars": self._budget,
                "latency_ewma": self.latency_ewma,
                "interval_ewma": self.interval_ewma,
                "depth_ewma": self.depth_ewma,
                "projected_monthly_dollars":
                    self._projected_monthly_dollars_locked(self._clock.now()),
                "budget_limited": self._budget_limited,
                "override": self._override,
                "retunes": len(self.transitions),
            }

    def transition_log(self) -> list[dict]:
        """A copy of the transition records (copy-on-read: the list is
        appended under the lock by concurrent retunes)."""
        with self._lock:
            return list(self.transitions)
