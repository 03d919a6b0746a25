"""Ablation: Uploader thread pool size.

The paper runs five Uploader threads ("which corresponds to the best
setup in our environment", §8) to hide PUT latency behind parallelism.
This sweep measures how fast the pipeline drains a fixed burst of
updates with 1..8 uploaders against the WAN latency model.
"""

from __future__ import annotations

import time

from repro.common.events import EventBus
from repro.cloud.latency import WAN_LATENCY
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.harness import running_pools
from repro.metrics import TextTable

UPLOADERS = (1, 2, 5, 8)
BURST = 120           # updates, at distinct page offsets (no coalescing)
TIME_SCALE = 0.05     # sleep 5% of the modeled WAN latency


def run_pool(uploaders: int) -> dict:
    cloud = SimulatedCloud(
        backend=InMemoryObjectStore(),
        latency=WAN_LATENCY,
        time_scale=TIME_SCALE,
    )
    config = GinjaConfig(batch=4, safety=BURST + 8, batch_timeout=0.01,
                         safety_timeout=120.0, uploaders=uploaders)
    view = CloudView()
    bus = EventBus()
    transport = build_transport(cloud, config, bus=bus)
    with running_pools() as pools:
        pipeline = CommitPipeline(
            config, transport, ObjectCodec(), view, *pools, bus
        )
        pipeline.start()
        started = time.monotonic()
        try:
            for n in range(BURST):
                pipeline.submit("seg", n * 8192, b"p" * 512)
            assert pipeline.drain(timeout=120.0)
        finally:
            pipeline.stop(drain_timeout=5.0)
        wall = time.monotonic() - started
    return dict(
        wall_seconds=wall,
        modeled_put_seconds=cloud.meter.puts.latency_total,
        puts=cloud.meter.puts.count,
    )


def test_ablation_uploader_pool(benchmark, print_report):
    results = benchmark.pedantic(
        lambda: {n: run_pool(n) for n in UPLOADERS},
        rounds=1, iterations=1,
    )
    table = TextTable(
        ["uploaders", "drain wall (s)", "PUTs", "speedup vs 1"],
        title=f"Ablation — uploader parallelism "
              f"(burst of {BURST} updates over modeled WAN, paper uses 5)",
    )
    base = results[1]["wall_seconds"]
    for n in UPLOADERS:
        row = results[n]
        table.add(n, row["wall_seconds"], row["puts"],
                  f"{base / row['wall_seconds']:.1f}x")
    print_report(table.render())

    # Parallel uploads hide latency: 5 uploaders beat 1 clearly.
    assert results[5]["wall_seconds"] < results[1]["wall_seconds"] * 0.6
    # Same number of objects regardless of pool size.
    puts = {results[n]["puts"] for n in UPLOADERS}
    assert len(puts) == 1
