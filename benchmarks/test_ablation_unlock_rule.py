"""Ablation: the consecutive-timestamp unlock rule (Alg. 2, lines 20-22).

Ginja frees CommitQueue slots only for the longest *prefix* of
acknowledged batches, because parallel uploaders complete out of order
and recovery can only use WAL objects with consecutive timestamps
(§5.3).  This ablation removes the rule — slots are freed on ANY ack —
and shows the consequence: under out-of-order completion, the number of
updates unusable at disaster time exceeds the S the operator configured.
"""

from __future__ import annotations

import threading
import time

from repro.common.events import EventBus
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.harness import running_pools
from repro.metrics import TextTable

SAFETY = 8
UPDATES = 60


class UnsafeUnlockPipeline(CommitPipeline):
    """The ablated variant: frees queue slots for any acked batch."""

    def _remove_completed_prefix_locked(self) -> None:
        for batch_id in sorted(self._acked):
            count = self._batch_sizes.pop(batch_id)
            self._acked.remove(batch_id)
            # Out-of-order removal: just drop `count` entries from the
            # head regardless of which batch they belong to.
            for _ in range(min(count, len(self._entries))):
                self._entries.popleft()
            self._claimed = max(0, self._claimed - count)
            if batch_id == self._next_batch_to_remove:
                self._next_batch_to_remove += 1
            self._last_sync_end = self._clock.now()
            self._tb_anchor = self._last_sync_end
        self._cond.notify_all()


class FirstPutStalls(InMemoryObjectStore):
    """Every 4th WAL object hangs until released — persistent
    out-of-order completion, as a slow replica link would cause."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self._count = 0
        self._lock = threading.Lock()

    def put(self, key, data):
        with self._lock:
            self._count += 1
            stall = key.startswith("WAL/") and self._count % 4 == 1
        if stall:
            self.release.wait(timeout=30)
        super().put(key, data)


def run_variant(pipeline_cls) -> dict:
    backend = FirstPutStalls()
    cloud = SimulatedCloud(backend=backend, time_scale=0.0)
    config = GinjaConfig(batch=2, safety=SAFETY, batch_timeout=0.01,
                         safety_timeout=60.0, uploaders=3)
    view = CloudView()
    bus = EventBus()
    transport = build_transport(cloud, config, bus=bus)
    with running_pools() as pools:
        pipeline = pipeline_cls(
            config, transport, ObjectCodec(), view, *pools, bus
        )
        pipeline.start()
        submitted = 0
        deadline = time.monotonic() + 6.0
        try:
            while submitted < UPDATES and time.monotonic() < deadline:
                blocked = threading.Event()

                def one_write(n=submitted):
                    pipeline.submit("seg", n * 512, b"update")
                    blocked.set()

                writer = threading.Thread(target=one_write, daemon=True)
                writer.start()
                if not blocked.wait(timeout=0.5):
                    break  # the pipeline correctly back-pressured us
                submitted += 1
            # Disaster strikes now: what is actually usable in the cloud?
            usable = view.confirmed_ts() + 1  # objects recovery can apply
            lost = submitted - min(submitted, _updates_covered(view, usable))
        finally:
            backend.release.set()
            pipeline.stop(drain_timeout=5.0)
    return dict(submitted=submitted, usable_objects=usable, lost=lost)


def _updates_covered(view: CloudView, usable_objects: int) -> int:
    # Each WAL object here covers one batch of <= 2 distinct updates.
    return usable_objects * 2


def test_ablation_unlock_rule(benchmark, print_report):
    results = benchmark.pedantic(
        lambda: {
            "safe (paper)": run_variant(CommitPipeline),
            "ablated (any-ack unlock)": run_variant(UnsafeUnlockPipeline),
        },
        rounds=1, iterations=1,
    )
    table = TextTable(
        ["variant", "updates acknowledged", "lost at disaster",
         "S (configured bound)"],
        title="Ablation — consecutive-ts unlock rule under out-of-order "
              "upload completion",
    )
    for label, row in results.items():
        table.add(label, row["submitted"], row["lost"], SAFETY)
    print_report(table.render())

    safe = results["safe (paper)"]
    ablated = results["ablated (any-ack unlock)"]
    # The paper's rule keeps potential loss within S plus one in-flight
    # batch; the ablated variant lets acknowledged-but-unusable updates
    # accumulate beyond the bound.
    assert safe["lost"] <= SAFETY + 2
    assert ablated["lost"] > safe["lost"]
    assert ablated["lost"] > SAFETY + 2
