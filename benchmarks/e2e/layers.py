"""Fold a traced run into the per-layer metrics.

Everything here reads what the probes of :mod:`benchmarks.e2e.trace`
left behind — spans, bus events with their arrival times, sampler
series, the benches' counters — and nothing else.  Timings are divided
by ops so run length cancels; a metric the workload does not exercise
stays 0.

The four write-path parts are *self* times of spans nested on the load
thread (op → interposer → disk | submit), so they partition the op wall
by construction; the runner still checks the sum, which catches a span
that lost its parent or a layer called from outside an op.
"""

from __future__ import annotations

import resource
from collections import defaultdict

from repro.common import events as ev

from benchmarks.e2e import spec
from benchmarks.e2e.common import CLOUD_TIME_SCALE
from benchmarks.e2e.measure import (
    latency_vs_native, mean, percentile, pooled_latencies, ratio, undisturbed,
)
from benchmarks.e2e.trace import (
    APPLY, DECODE, DISK, ENCODE, INTERPOSER, OP, SUBMIT,
)


def per_layer(run) -> dict[str, float]:
    bench = run.bench
    values = {m.name: 0.0 for m in spec.PER_LAYER}
    traced = run.protected_where(True)
    untraced = run.protected_where(False)
    ops = sum(s.ops for s in traced)
    all_ops = sum(s.ops for s in run.protected)
    native_lat = pooled_latencies(run.native)
    untraced_lat = pooled_latencies(untraced)
    attempted = sum(s.attempted for s in run.slices)
    values.update({
        "workloads.native_ops_per_s":
            undisturbed([s.ops_per_s for s in run.native], "higher"),
        **{
            f"workloads.{side}_p{q}_ms": percentile(latencies, q) * 1e3
            for side, latencies in (("native", native_lat),
                                    ("protected", untraced_lat))
            for q in (50, 95, 99)
        },
        "workloads.p50_vs_native":
            latency_vs_native(untraced_lat, native_lat, 50),
        "workloads.p99_vs_native":
            latency_vs_native(untraced_lat, native_lat, 99),
        "workloads.rollbacks_share":
            ratio(sum(s.rollbacks for s in run.slices), attempted),
        "db.open_s": bench.facts.get("db.open_s", 0.0),
        "cloud.transport.lists_per_kop":
            ratio(run.shipped.lists * 1e3, all_ops),
        "cloud.transport.deletes_per_kop":
            ratio(run.shipped.deletes * 1e3, all_ops),
        "costmodel.usd_request_share":
            ratio(run.shipped.request_dollars, run.shipped.dollars),
        "costmodel.usd_month_at_run_rate": run.shipped.month_dollars,
        "process.rss_peak_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process.cpu_ms_per_op":
            ratio(sum(s.cpu for s in run.protected) * 1e3, all_ops),
        "process.cpu_vs_native": ratio(
            undisturbed([ratio(s.cpu, s.ops) for s in untraced], "lower"),
            undisturbed([ratio(s.cpu, s.ops) for s in run.native], "lower"),
        ),
        "trace.overhead_share": 1.0 - ratio(
            undisturbed([s.ops_per_s for s in traced], "higher"),
            undisturbed([s.ops_per_s for s in untraced], "higher"),
        ),
    })
    if bench.name == spec.RESTORE:
        _restore(values, bench, ops)
    else:
        _write_path(values, run, ops)
        _pipeline(values, run, ops)
    if run.fuse:
        values["storage.interposer.fuse_vs_native"] = ratio(
            undisturbed([s.ops_per_s for s in run.fuse], "higher"),
            values["workloads.native_ops_per_s"],
        )
    if bench.name == spec.FLEET_INGEST:
        peak = max(bench.sampler.threads or [bench.own_threads])
        values.update({
            "fleet.threads_per_tenant":
                (peak - bench.own_threads) / bench.tenants,
            "fleet.cold_p99_vs_hot": ratio(
                percentile(bench.cold_latencies, 99),
                percentile(bench.hot_latencies, 99),
            ),
            "fleet.share_error_max": _lane_unevenness(bench.tracer.events),
            "fleet.encode_lane_depth_max": bench.sampler.peak("lane_depth"),
            "fleet.unattributed_puts": bench.facts["fleet.unattributed_puts"],
        })
    return values


# -- the write side ---------------------------------------------------------------


def _write_path(values: dict, run, ops: int) -> None:
    """Driver-thread spans: op wall and its four serial parts, per
    attempted op (a rollback crosses the same layers)."""
    tracer = run.bench.tracer
    attempts = sum(1 for s in tracer.spans if s[1] == OP)
    facts = run.bench.facts

    def per_attempt(name: str) -> float:
        return ratio(tracer.self_seconds(name, inside_op=True) * 1e6, attempts)

    values.update({
        "workloads.op_wall_us":
            ratio(sum(tracer.durations(OP)) * 1e6, attempts),
        "db.self_us_per_op": per_attempt(OP),
        "storage.disk_us_per_op": per_attempt(DISK),
        "storage.interposer.cross_us_per_op": per_attempt(INTERPOSER),
        "core.commit_pipeline.submit_us_per_op": per_attempt(SUBMIT),
        "storage.interposer.calls_per_op":
            ratio(facts.get("interposer.calls", 0.0), ops),
        "db.commits": facts.get("db.commits", 0.0),
        "db.checkpoints": facts.get("db.checkpoints", 0.0),
        "db.wal_bytes_per_op": ratio(facts.get("db.wal_bytes", 0.0), ops),
    })


def _pairs_by_tenant(events, start_kind: str, end_kind: str
                     ) -> dict[str, list[float]]:
    """start→end delays per tenant, where both kinds are emitted and
    retired strictly in order (batches, checkpoints)."""
    waiting: dict[str, list[float]] = defaultdict(list)
    delays: dict[str, list[float]] = defaultdict(list)
    for at, event in events:
        if event.kind == start_kind:
            waiting[event.tenant].append(at)
        elif event.kind == end_kind and waiting[event.tenant]:
            delays[event.tenant].append(at - waiting[event.tenant].pop(0))
    return delays


def _pairs_in_order(events, start_kind: str, end_kind: str) -> list[float]:
    by_tenant = _pairs_by_tenant(events, start_kind, end_kind)
    return [delay for delays in by_tenant.values() for delay in delays]


def _lane_unevenness(events) -> float:
    """How unevenly the shared pools serve the lanes: the largest
    relative gap between one tenant's mean claim→unlock delay and the
    fleet-wide mean."""
    by_tenant = _pairs_by_tenant(events, ev.WAL_BATCH, ev.BATCH_UNLOCKED)
    overall = mean([d for delays in by_tenant.values() for d in delays])
    return max(
        (abs(ratio(mean(delays), overall) - 1.0)
         for delays in by_tenant.values()),
        default=0.0,
    )


def _pairs_by_key(events, start_kind: str, end_kind: str) -> list[float]:
    opened: dict[str, float] = {}
    delays = []
    for at, event in events:
        if event.kind == start_kind:
            opened[event.key] = at
        elif event.kind == end_kind and event.key in opened:
            delays.append(at - opened.pop(event.key))
    return delays


def _pipeline(values: dict, run, ops: int) -> None:
    """Bus events, sampler series and codec spans of the traced slices."""
    bench = run.bench
    tracer = bench.tracer
    events = tracer.events
    kinds: dict[str, list] = defaultdict(list)
    for _at, event in events:
        kinds[event.kind].append(event)
    wall = sum(s.wall for s in run.protected_where(True))
    load_threads = bench.own_threads - 2
    sampler = bench.sampler

    unlock = _pairs_in_order(events, ev.WAL_BATCH, ev.BATCH_UNLOCKED)
    submitted = sum(s[8] for s in tracer.spans if s[1] == SUBMIT)
    wal_payload = sum(e.nbytes for e in kinds[ev.CODEC] if e.key)
    pending = sampler.samples.get("pending", [])
    values.update({
        "core.commit_pipeline.blocked_share": ratio(
            sum(e.latency for e in kinds[ev.COMMIT_UNBLOCKED]),
            wall * load_threads,
        ),
        "core.commit_pipeline.blocked_events_per_kop":
            ratio(len(kinds[ev.COMMIT_BLOCKED]) * 1e3, ops),
        "core.commit_pipeline.updates_per_batch":
            mean([e.count for e in kinds[ev.WAL_BATCH]]),
        "core.commit_pipeline.claim_to_unlock_p50_ms":
            percentile(unlock, 50) * 1e3,
        "core.commit_pipeline.claim_to_unlock_p99_ms":
            percentile(unlock, 99) * 1e3,
        "core.commit_pipeline.pending_mean": mean(pending),
        "core.commit_pipeline.pending_p99": percentile(pending, 99),
        "core.commit_pipeline.coalesce_ratio": ratio(submitted, wal_payload),
    })

    encodes = [s for s in tracer.spans if s[1] == ENCODE]
    encode_seconds = sum(s[3] - s[2] for s in encodes)
    bytes_in = sum(s[8][0] for s in encodes)
    bytes_out = sum(s[8][1] for s in encodes)
    queued = _pairs_by_key(events, ev.ENCODE_QUEUED, ev.ENCODE_DONE)
    values.update({
        "core.codec.encode_us_per_op": ratio(encode_seconds * 1e6, ops),
        "core.codec.encode_mb_per_s": ratio(bytes_in / 1e6, encode_seconds),
        "core.codec.compress_ratio": ratio(bytes_in, bytes_out),
        "core.encode_stage.queue_wait_p99_ms": percentile(queued, 99) * 1e3,
        "core.encode_stage.pooled_share":
            ratio(len(kinds[ev.ENCODE_QUEUED]), len(kinds[ev.ENCODE_DONE])),
        "core.encode_stage.mode_switches": float(len(kinds[ev.ENCODE_MODE])),
    })

    checkpoints = len(kinds[ev.CHECKPOINT_END])
    db_bytes = sum(e.nbytes for e in kinds[ev.DB_OBJECT])
    wal_bytes = sum(e.nbytes for e in kinds[ev.WAL_OBJECT])
    values.update({
        "core.checkpointer.checkpoints": float(checkpoints),
        "core.checkpointer.db_objects_per_checkpoint":
            ratio(len(kinds[ev.DB_OBJECT]), checkpoints),
        "core.checkpointer.db_bytes_share":
            ratio(db_bytes, db_bytes + wal_bytes),
        "core.checkpointer.checkpoint_p50_ms": percentile(
            _pairs_in_order(events, ev.CHECKPOINT_BEGIN, ev.CHECKPOINT_END), 50
        ) * 1e3,
        "core.checkpointer.dumps": float(len(kinds[ev.DUMP_COMPLETE])),
        "core.checkpointer.gc_deletes_per_kop":
            ratio(sum(1 for e in kinds[ev.GC_DELETE] if e.ok) * 1e3, ops),
    })

    puts = [e for e in kinds[ev.PUT_END] if e.ok]
    modelled = {
        e.key: e.latency for e in kinds[ev.METER] if e.verb == "PUT"
    }
    overhead = [
        e.latency - modelled[e.key] * CLOUD_TIME_SCALE
        for e in puts if e.key in modelled
    ]
    put_ms = [e.latency * 1e3 for e in puts]
    values.update({
        "cloud.reactor.inflight_mean":
            ratio(sum(e.latency for e in puts), wall),
        "cloud.reactor.inflight_max": sampler.peak("inflight"),
        "cloud.reactor.queued_max": sampler.peak("queued"),
        "cloud.reactor.retries": sampler.peak("retries"),
        "cloud.reactor.backoffs": sampler.peak("backoffs"),
        "cloud.transport.put_p50_ms": percentile(put_ms, 50),
        "cloud.transport.put_p99_ms": percentile(put_ms, 99),
        "cloud.transport.put_overhead_us": mean(overhead) * 1e6,
        "cloud.transport.put_bytes_mean":
            ratio(run.shipped.nbytes, run.shipped.puts),
    })


# -- the read side ----------------------------------------------------------------


def _restore(values: dict, bench, ops: int) -> None:
    passes = [p for p in bench.passes if p.traced]
    tracer = bench.tracer
    recover_wall = sum(p.recovered - p.started for p in passes)
    gets = [r for p in passes for r in p.requests if r[0] == "GET"]
    get_ms = [(r[3] - r[2]) * 1e3 for r in gets]
    decode_seconds = sum(tracer.durations(DECODE))
    apply_seconds = sum(tracer.durations(APPLY))
    decoded_at = {s[8]: s[3] for s in tracer.spans if s[1] == DECODE}
    waits = [
        at - decoded_at[(p.number, key)]
        for p in passes for at, key in p.restored
        if (p.number, key) in decoded_at
    ]
    latencies = [
        at - issued
        for p in passes
        for issued, at in _issue_to_apply(p)
    ]
    values.update({
        "workloads.op_wall_us": mean(latencies) * 1e6,
        "db.self_us_per_op": ratio(
            sum(p.wall - (p.recovered - p.started) for p in passes) * 1e6, ops
        ),
        "db.open_s": mean([p.wall - (p.recovered - p.started) for p in passes]),
        "storage.disk_us_per_op": ratio(apply_seconds * 1e6, ops),
        "core.codec.decode_us_per_op": ratio(decode_seconds * 1e6, ops),
        "cloud.transport.get_p50_ms": percentile(get_ms, 50),
        "cloud.transport.get_p99_ms": percentile(get_ms, 99),
        "core.recovery.plan_ms":
            mean([p.planned - p.started for p in passes]) * 1e3,
        "core.recovery.get_busy_share":
            ratio(sum(r[3] - r[2] for r in gets), recover_wall),
        "core.recovery.decode_busy_share": ratio(decode_seconds, recover_wall),
        "core.recovery.apply_busy_share": ratio(apply_seconds, recover_wall),
        "core.recovery.inorder_wait_p99_ms": percentile(waits, 99) * 1e3,
        "core.recovery.stale_deletes": ratio(
            sum(1 for p in passes for r in p.requests if r[0] == "DELETE"),
            len(passes),
        ),
        "core.recovery.reboot_ms":
            mean([p.recovered - p.done for p in passes]) * 1e3,
        "core.recovery.mb_per_s":
            ratio(sum(r[4] for r in gets) / 1e6, recover_wall),
    })


def _issue_to_apply(one_pass):
    issued = {r[1]: r[2] for r in one_pass.requests if r[0] == "GET"}
    return [(issued[key], at) for at, key in one_pass.restored if key in issued]
