"""repro.chaos — deterministic disaster drills for the Ginja middleware.

The paper's headline guarantee (§5.3) is *bounded* damage: after any
primary crash or provider outage at most B batched + S unsynchronized
updates are lost, recovery always reconstructs a consistent database,
and the bill stays inside the §7 cost model.  This package turns the
repo into a self-verifying test bench for exactly that claim:

* :mod:`~repro.chaos.scenarios` — declarative failure scenarios (outage
  windows, error/throttle bursts, latency storms) compiled onto the
  existing transport layers;
* :mod:`~repro.chaos.crashpoints` — event-bus-driven crash injection
  that kills the primary at every distinct pipeline stage;
* :mod:`~repro.chaos.oracles` — post-drill invariant checkers (RPO,
  recovery, GC, billing);
* :mod:`~repro.chaos.drill` — one scenario × crash point × seed drill,
  and the result type and standby check the phased drills
  (:mod:`~repro.chaos.placement_drill`, :mod:`~repro.chaos.tuner_drill`,
  :mod:`~repro.chaos.fleet_drill`) share — each advances its manual
  clock from its own thread, none in real time;
* :mod:`~repro.chaos.campaign` — the seed-sweep grid runner with
  failure shrinking and a deterministic :class:`CampaignReport`.

Run a campaign from the command line with ``ginja-repro chaos``.
"""

from repro.chaos.campaign import (
    CampaignReport,
    DrillSpec,
    run_campaign,
    shrink_failure,
)
from repro.chaos.crashpoints import (
    CRASH_POINTS,
    CrashPoint,
    CrashPointInjector,
    EventLog,
)
from repro.chaos.drill import DrillResult, PhasedDrillResult, run_drill
from repro.chaos.oracles import OracleVerdict, run_oracles
from repro.chaos.scenarios import SCENARIOS, ErrorBurst, Scenario
from repro.chaos.tuner_drill import run_tuner_drill

__all__ = [
    "CampaignReport",
    "CrashPoint",
    "CrashPointInjector",
    "CRASH_POINTS",
    "DrillResult",
    "DrillSpec",
    "ErrorBurst",
    "EventLog",
    "OracleVerdict",
    "PhasedDrillResult",
    "run_campaign",
    "run_drill",
    "run_oracles",
    "run_tuner_drill",
    "Scenario",
    "SCENARIOS",
    "shrink_failure",
]
