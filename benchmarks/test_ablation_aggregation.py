"""Ablation: WAL write aggregation / page coalescing (Alg. 2, line 12).

The DBMS rewrites the current WAL page as it fills, so a batch of B
updates usually touches far fewer distinct pages than B.  Coalescing
those rewrites is, per §5.3, where Ginja's upload savings come from:
"by aggregating them we coalesce many updates in a single cloud object
upload", reducing storage and PUTs and thus cost.

This ablation disables coalescing (every intercepted write ships
verbatim) and compares uploaded bytes and monthly cost.
"""

from __future__ import annotations

from repro.cloud.pricing import S3_STANDARD_2017
from repro.harness import build_stack, run_tpcc
from repro.metrics import TextTable

from benchmarks.conftest import (
    BENCH_TPCC,
    TERMINALS,
    WARMUP_SECONDS,
    ginja_stack_config,
)

RUN = 2.0


def run_variant(coalesce: bool) -> dict:
    stack = build_stack(
        ginja_stack_config("postgres", 100, 1000, coalesce_writes=coalesce)
    )
    report = run_tpcc(
        stack, duration=RUN, warmup=WARMUP_SECONDS, terminals=TERMINALS,
        tpcc_config=BENCH_TPCC,
    )
    assert not report.tpcc.errors
    elapsed = stack.cloud.elapsed() if stack.cloud else RUN
    return dict(
        puts=report.cloud_puts,
        uploaded_mb=report.cloud_put_bytes / 1e6,
        mean_object_kb=report.cloud_mean_object_bytes / 1000,
        tpm_total=report.tpm_total,
    )


def test_ablation_aggregation(benchmark, print_report):
    results = benchmark.pedantic(
        lambda: {
            "coalescing (paper)": run_variant(True),
            "ablated (ship every write)": run_variant(False),
        },
        rounds=1, iterations=1,
    )
    table = TextTable(
        ["variant", "PUTs", "uploaded MB", "mean object kB"],
        title="Ablation — WAL page coalescing (B=100/S=1000, TPC-C)",
    )
    for label, row in results.items():
        table.add(label, row["puts"], row["uploaded_mb"],
                  row["mean_object_kb"])
    print_report(table.render())

    with_coalesce = results["coalescing (paper)"]
    without = results["ablated (ship every write)"]
    # Shipping every write inflates the uploaded volume substantially.
    assert without["uploaded_mb"] > with_coalesce["uploaded_mb"] * 1.5
    assert without["mean_object_kb"] > with_coalesce["mean_object_kb"]
