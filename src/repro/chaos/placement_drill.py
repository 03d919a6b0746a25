"""Provider-outage chaos drill: kill a whole cloud mid-commit-stream.

The scenario §6 of the paper promises to survive: N simulated providers
carry the database under a placement policy, and one of them dies
entirely — every PUT/GET/LIST to it fails, forever — while the commit
stream is running.  The drill then proves, in order:

1. **survival** — the stream keeps committing (write quorums hold);
2. **RPO 0** — a standby recovers every acknowledged row from the
   survivors (striped objects reassemble from K of N fragments);
3. **clean fsck** — the cross-provider invariants hold on the
   survivors: a dead provider must not change the verdict;
4. **quorum gate** — failover *refuses* to promote while the surviving
   providers cannot form a read quorum, and promotes once they can;
5. **repair** — a replacement provider (same name, empty bucket) is
   re-populated from the survivors until the audit is clean, and the
   fleet bill attributes the repair egress to the source providers.

Everything runs on a :class:`~repro.common.clock.ManualClock` with
deterministic (jitter-free) per-provider latency models, so a fixed
seed reproduces the run byte-identically — ``canonical()`` exposes only
run-stable fields and is what the CI job byte-compares.
"""

from __future__ import annotations

from repro.common.clock import ManualClock
from repro.common.errors import ConfigError, ReproError
from repro.cloud.latency import LatencyModel
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.chaos.drill import PhasedDrillResult
from repro.chaos.oracles import row_value
from repro.costmodel.attribution import attribute_placement_costs
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import POSTGRES_PROFILE
from repro.failover.coordinator import FailoverCoordinator
from repro.fsck.placement import audit_placement, repair_placement
from repro.placement.factory import build_placement
from repro.placement.providers import default_provider_specs
from repro.storage.memory import MemoryFileSystem
#: Deterministic same-region-class latencies (no jitter: the drill must
#: replay byte-identically; jitter would still be seeded, but zero keeps
#: virtual timestamps independent of thread interleaving).
DRILL_LATENCY = LatencyModel(
    put_base=0.020, put_bytes_per_sec=60e6,
    get_base=0.010, get_bytes_per_sec=80e6,
    list_base=0.010, delete_base=0.005,
    jitter_sigma=0.0,
)

#: The default drill policy: WAL mirrored with a 1-ack quorum (survives
#: any single dead provider mid-stream), DB objects striped 2-of-3.
#: The default class is mirrored too — leaving it at the implicit
#: mirror-1 would pin it to provider 0, and the read-quorum gate
#: (rightly) refuses to promote while any policy is unservable.
DEFAULT_PLACEMENT = "wal=mirror-2/q1,db=stripe-2-3,default=mirror-2/q1"


def run_placement_drill(
    *,
    providers: int = 3,
    placement: str = DEFAULT_PLACEMENT,
    seed: int = 0,
    rows: int = 40,
    kill_row: int | None = None,
    batch: int = 5,
    safety: int = 1000,
) -> PhasedDrillResult:
    """Run the whole-provider-outage drill end to end.

    Raises :class:`ConfigError` unless the kill lands inside the commit
    stream (``0 <= kill_row < rows``).
    """
    kill_row = rows // 2 if kill_row is None else kill_row
    if not 0 <= kill_row < rows:
        raise ConfigError(
            f"kill row {kill_row} is outside the {rows}-row commit stream"
        )
    clock = ManualClock()
    specs = default_provider_specs(
        providers, seed=seed, latency=DRILL_LATENCY, time_scale=1.0,
    )
    store = build_placement(
        providers, placement, clock=clock, specs=specs,
    )
    config = GinjaConfig(
        batch=batch, safety=safety, seed=seed,
        providers=providers, placement=placement,
    )
    victim = store.providers[0]
    result = PhasedDrillResult("placement", {
        "providers": providers, "placement": placement, "seed": seed,
        "rows": rows, "kill_row": kill_row, "killed": victim.name,
    })
    _run_phases(result, store, config, EngineConfig(), POSTGRES_PROFILE,
                victim, clock, seed, rows, kill_row)
    return result


def _run_phases(result, store, config, engine, profile, victim, clock,
                seed, rows, kill_row) -> None:
    # -- phase 1: commit stream with a mid-stream provider kill ---------------
    disk = MemoryFileSystem()
    MiniDB.create(disk, profile, engine).close()
    ginja = Ginja(disk, store, profile, config, clock=clock)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, profile, engine)
    acked: dict[str, bytes] = {}
    error = ""
    try:
        for index in range(rows):
            if index == kill_row:
                victim.kill()
            key = f"k{index}"
            value = row_value(index, seed)
            db.put("t", key, value)
            acked[key] = value
            clock.advance(0.05)
        db.close()
        ginja.stop(drain_timeout=120.0)  # drain: RPO 0 is now well-defined
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        ginja.crash()
    finally:
        store.close()  # the primary's pools die with the primary
    result.committed = len(acked)
    result.check("survived_kill", not error, error)

    # -- phase 2: standby recovery at RPO 0 from the survivors ----------------
    standby_store = store.clone()
    result.check_standby(
        "rpo_zero",
        lambda fs: Ginja.recover(standby_store, fs, profile, config,
                                 clock=clock),
        acked, profile, engine,
    )
    # -- phase 3: cross-provider fsck must be clean on the survivors ----------
    audit = audit_placement(standby_store, retention=config.retention)
    result.check("fsck_survivors_clean", audit.ok, audit.summary())

    # -- phase 4: the failover quorum gate ------------------------------------
    class _AlwaysDead:
        def poll(self) -> bool:
            return True

    # 4a. break the read quorum (second provider down) — promotion must
    # be refused before any recovery I/O.
    second = store.providers[1]
    second.kill()
    gate_store = store.clone()
    refused = FailoverCoordinator(
        gate_store, profile,
        ginja_config=config, engine_config=engine,
        detector=_AlwaysDead(), clock=clock,
    ).run(max_polls=1)
    gate_ok = (not refused.failed_over) and (not refused.quorum_ok)
    result.check(
        "quorum_gate_refuses", gate_ok,
        f"failed_over={refused.failed_over} quorum={refused.quorum_ok}",
    )
    gate_store.close()
    second.revive()

    # 4b. with a quorum back, promotion must succeed.
    promote_store = store.clone()
    promoted = FailoverCoordinator(
        promote_store, profile,
        ginja_config=config, engine_config=engine,
        detector=_AlwaysDead(), clock=clock,
    ).run(max_polls=1)
    promote_ok = promoted.failed_over and promoted.quorum_ok
    detail = promoted.error or ""
    if promote_ok:
        promote_ok = promoted.recovered_rows == len(acked)
        if not promote_ok:
            detail = (
                f"promoted with {promoted.recovered_rows} rows, "
                f"expected {len(acked)}"
            )
    if promoted.ginja is not None:
        # The drill only needed the promotion — but closing the database
        # checkpoints, and a crash between that checkpoint's upload and
        # its GC is a disaster of its own (redundant WAL the next
        # reboot's fsck removes) that phase 5's audit is not about.
        promoted.db.close()
        promoted.ginja.stop(drain_timeout=120.0)
    promote_store.close()
    result.check("failover_promotes", promote_ok, detail)

    # -- phase 5: replacement provider, repair convergence, billing -----------
    victim.revive(wipe=True)
    repair_store = store.clone()
    repair_report, post = repair_placement(
        repair_store, retention=config.retention
    )
    repaired = (
        post.ok
        and repair_report.actions > 0
        and sum(repair_report.egress_bytes.values()) > 0
    )
    result.check("repair_converges", repaired,
                 f"{repair_report.summary()}; post: {post.summary()}")

    elapsed = clock.now() - repair_store.providers[0].epoch
    bill = attribute_placement_costs(repair_store, elapsed)
    result.extras["bill"] = bill
    billed = (
        bill.repair_egress_dollars > 0.0
        and sum(b.repair_egress_bytes for b in bill.providers) > 0
        and bill.total_dollars > 0.0
    )
    result.check("repair_egress_billed", billed,
                 f"repair egress ${bill.repair_egress_dollars:.9f}")
    repair_store.close()
    standby_store.close()
