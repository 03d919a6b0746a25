#!/usr/bin/env python3
"""Print the traffic a seeded request script makes through the transport.

    PYTHONPATH=src python3 scripts/transport_traffic.py > after.txt
    PYTHONPATH=<other-tree>/src python3 scripts/transport_traffic.py > before.txt
    cmp before.txt after.txt

Drives 300 mixed requests — PUT, overwrite, GET, LIST, STAT and 2-key
batch DELETE, in both colours — through a ``RetryLayer`` over a
``SimulatedCloud`` with WAN latency, a 20 % transient error rate and a
five-second outage, on a ``ManualClock`` (``time_scale=0``, seed 11).
Prints every ``meter``, ``outage``, ``retry`` and ``gc_delete`` event,
each request that failed, and the metered storage against the bytes
the bucket holds.  A refactor of the transport layers that must not
change a request, an RNG draw or an event prints the same lines on
both trees.
"""

from __future__ import annotations

import asyncio
import random

from repro.common import events
from repro.common.clock import ManualClock
from repro.common.errors import CloudError
from repro.common.events import EventBus
from repro.cloud import FaultPolicy, Outage, SimulatedCloud, WAN_LATENCY
from repro.cloud.retry import RetryLayer, RetryPolicy

VERBS = ["put", "put", "get", "list", "stat", "del", "aput", "adel"]


def main() -> None:
    clock = ManualClock()
    bus = EventBus()
    lines: list[str] = []
    bus.subscribe(
        lambda event: lines.append(repr(event)),
        kinds={events.METER, events.OUTAGE, events.RETRY, events.GC_DELETE},
    )
    cloud = SimulatedCloud(
        latency=WAN_LATENCY,
        faults=FaultPolicy(error_rate=0.2, outages=[Outage(40.0, 45.0)]),
        time_scale=0, clock=clock, seed=11, bus=bus,
    )
    store = RetryLayer(cloud, RetryPolicy(max_retries=3), clock=clock,
                       bus=bus)
    rng = random.Random(99)
    keys = [f"WAL/{i:04d}" for i in range(40)]
    for _ in range(300):
        index = rng.randrange(len(keys))
        key, pair = keys[index], [keys[index], keys[(index + 1) % len(keys)]]
        verb = rng.choice(VERBS)
        data = bytes(rng.randrange(1, 4000))
        try:
            if verb == "put":
                store.put(key, data)
            elif verb == "get":
                store.get(key)
            elif verb == "list":
                store.list("WAL/00")
            elif verb == "stat":
                store.stat(key)
            elif verb == "del":
                store.delete_many(pair)
            elif verb == "aput":
                asyncio.run(store.aput(key, data))
            else:
                asyncio.run(store.adelete_many(pair))
        except (CloudError, KeyError) as exc:
            lines.append(f"{verb} {key} -> {type(exc).__name__}")
        clock.advance(0.25)
    held = sum(info.size for info in cloud.backend.list())
    lines.append(f"metered {cloud.meter.stored_bytes} B, bucket {held} B")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
