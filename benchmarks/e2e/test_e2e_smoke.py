"""Smoke test of the benchmark itself (outside Tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every workload at a tiny ``scale`` finishes in seconds, emits every
declared metric finite (end-to-end ones non-zero), and passes its
oracle; a sabotaged restore bucket is reported as failed ops, not as a
crash.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from benchmarks.e2e import spec
from benchmarks.e2e.runner import make_bench, run_bench

SCALE = 0.125       # 24 s -> 3 s of slices, 4 tenants, ~300 transactions
ROOT = Path(__file__).resolve().parents[2]
#: Per-layer metrics no run can leave at zero on a workload they apply
#: to (the rest count things that may not happen in three seconds, or
#: must never happen: checkpoints, blocking, retries, strays).
ALWAYS_POSITIVE = {
    "workloads.op_wall_us", "workloads.native_ops_per_s",
    "workloads.native_p50_ms", "workloads.protected_p99_ms",
    "workloads.native_p95_ms", "workloads.p50_vs_native",
    "db.self_us_per_op", "db.open_s", "db.commits", "db.wal_bytes_per_op",
    "storage.disk_us_per_op", "storage.interposer.calls_per_op",
    "storage.interposer.cross_us_per_op", "storage.interposer.fuse_vs_native",
    "core.commit_pipeline.submit_us_per_op",
    "core.commit_pipeline.updates_per_batch",
    "core.commit_pipeline.claim_to_unlock_p50_ms",
    "core.codec.encode_us_per_op", "core.codec.compress_ratio",
    "core.codec.decode_us_per_op", "cloud.reactor.inflight_mean",
    "cloud.transport.put_p50_ms", "cloud.transport.put_overhead_us",
    "cloud.transport.get_p50_ms", "core.recovery.plan_ms",
    "core.recovery.get_busy_share", "core.recovery.mb_per_s",
    "fleet.threads_per_tenant", "fleet.cold_p99_vs_hot",
    "costmodel.usd_month_at_run_rate", "process.rss_peak_mb",
    "process.cpu_ms_per_op",
}


def test_declarations_are_clean_and_committed():
    assert spec.lint_spec() == []
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", spec.ALL)
def test_workload_emits_every_metric_and_passes_its_oracle(workload, traced):
    bench = make_bench(workload, seed=7, scale=SCALE, traced=traced)
    result = run_bench(bench, spec.RUN_SECONDS, setup_repeats=1)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > 0
    declared = spec.PER_LAYER if traced else spec.END_TO_END
    assert list(result.metrics) == [m.name for m in declared]
    for name, entry in result.metrics.items():
        assert math.isfinite(entry["value"]), name
        if not traced:
            assert entry["value"] != 0, name
    if traced:
        for metric in spec.PER_LAYER:
            value = result.metrics[metric.name]["value"]
            if workload not in metric.applies:
                assert value == 0, metric.name
            elif metric.name in ALWAYS_POSITIVE:
                assert value > 0, metric.name
        assert (ROOT / "benchmarks/e2e/out" / f"trace_{workload}.jsonl").exists()


def test_broken_restore_bucket_is_failed_ops_not_a_crash():
    bench = make_bench(spec.RESTORE, seed=7, scale=SCALE, traced=False)
    setup = bench.setup

    def sabotaged_setup():
        setup()
        wal = sorted(k for k in bench.bucket if k.startswith("WAL/"))
        del bench.bucket[wal[len(wal) // 2]]

    bench.setup = sabotaged_setup
    result = run_bench(bench, spec.RUN_SECONDS, setup_repeats=1)
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert any("restore_rows" in note and "FAIL" in note
               for note in result.notes)
