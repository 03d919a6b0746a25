#!/usr/bin/env python3
"""Reproduce the paper's Figure 2 as a live trace.

Figure 2 illustrates B and S: with B=2 every cloud backup carries two
updates; with S=20, the DBMS blocks at update U21 if none of the
pending synchronizations has been acknowledged yet.

This script drives the actual commit pipeline against a cloud whose
acknowledgements are held back, prints each event as it happens, and
shows the block at exactly U21 — then releases the cloud and shows the
unblock.

Run:  python examples/figure2_trace.py
"""

import threading
import time

from repro.cloud import InMemoryObjectStore, build_transport
from repro.common.events import EventBus
from repro.core import GinjaConfig
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import CommitPipeline
from repro.harness import running_pools

B, S = 2, 20


class HeldCloud(InMemoryObjectStore):
    """PUTs park on a gate until released — acknowledgements withheld."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.attempts = 0
        self._lock = threading.Lock()

    def put(self, key, data):
        with self._lock:
            self.attempts += 1
            n = self.attempts
        print(f"    cloud: PUT #{n} ({key}) ... holding the ACK")
        self.gate.wait(timeout=30)
        super().put(key, data)
        print(f"    cloud: PUT #{n} acknowledged")


def main() -> None:
    # A bare pipeline borrows its upload reactor (a Ginja instance or a
    # fleet owns it in production).
    with running_pools() as reactor:
        trace(reactor)


def trace(reactor) -> None:
    cloud = HeldCloud()
    config = GinjaConfig(batch=B, safety=S, batch_timeout=0.05,
                         safety_timeout=60.0, uploaders=5)
    view = CloudView()
    bus = EventBus()
    transport = build_transport(cloud, config, bus=bus)
    pipeline = CommitPipeline(config, transport, ObjectCodec(), view, reactor, bus)
    pipeline.start()
    print(f"Figure 2 trace: B={B}, S={S}\n")

    blocked_at = None
    unblocked = threading.Event()

    def writer():
        nonlocal blocked_at
        for i in range(1, S + 2):  # U1 .. U21
            started = time.monotonic()
            pipeline.submit("segment", i * 512, f"U{i}".encode())
            waited = time.monotonic() - started
            if waited > 0.2:
                blocked_at = i
                print(f"  U{i}: BLOCKED for {waited:.2f}s "
                      f"(more than S={S} unconfirmed)")
            else:
                print(f"  U{i}: committed (pending="
                      f"{pipeline.pending_updates()})")
        unblocked.set()

    thread = threading.Thread(target=writer)
    thread.start()
    # Let the writer run into the block, then release the cloud.
    time.sleep(1.5)
    assert not unblocked.is_set(), "expected U21 to block"
    print("\n  >>> releasing the cloud's acknowledgements <<<\n")
    cloud.gate.set()
    thread.join(timeout=30)
    pipeline.drain(timeout=30)
    pipeline.stop(drain_timeout=5)

    print(f"\nresult: the DBMS blocked at U{blocked_at} "
          f"(the paper's U{S + 1}); after the ACKs arrived it resumed.")
    assert blocked_at == S + 1
    print(f"cloud received {cloud.attempts} WAL-object PUTs "
          f"(~{S + 1} updates / B={B})")
    print("done.")


if __name__ == "__main__":
    main()
