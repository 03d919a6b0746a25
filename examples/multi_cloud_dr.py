#!/usr/bin/env python3
"""Provider-scale disaster tolerance with multi-cloud replication (§6).

Cloud-wide outages happen [Gunawi et al., SoCC'16]; the paper's §6 notes
Ginja "supports the replication of objects in multiple clouds, for
tolerating provider-scale failures" — here the ``mirror-2/q1``
placement policy.  This example protects a MySQL-profile database
across two providers, kills one provider mid-run, keeps operating on
the surviving quorum, repairs the failed provider when it returns, and
finally recovers from the replica that never saw part of the traffic.

Run:  python examples/multi_cloud_dr.py
"""

from repro.core import Ginja, GinjaConfig
from repro.db import EngineConfig, MiniDB, MYSQL_PROFILE
from repro.placement import build_placement
from repro.storage import MemoryFileSystem

ENGINE = EngineConfig(wal_segment_size=512 * 1024)


def main() -> None:
    # Two independent providers, every object mirrored on both, a PUT
    # durable once one confirms; provider A will suffer an outage.
    multi = build_placement(2, "mirror-2/q1", time_scale=0.0)
    provider_a, provider_b = multi.providers
    backend_a, backend_b = provider_a.backend, provider_b.backend

    disk = MemoryFileSystem()
    MiniDB.create(disk, MYSQL_PROFILE, ENGINE).close()
    config = GinjaConfig(batch=10, safety=100, batch_timeout=0.05,
                         safety_timeout=5.0)
    ginja = Ginja(disk, multi, MYSQL_PROFILE, config)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, MYSQL_PROFILE, ENGINE)

    print("phase 1: both providers healthy...")
    for i in range(30):
        db.put("inventory", f"sku-{i}", b"qty=100")
    ginja.drain(timeout=30.0)
    print(f"  provider A: {len(backend_a.list())} objects, "
          f"provider B: {len(backend_b.list())} objects")

    print("phase 2: provider A goes down; writes continue on the quorum...")
    provider_a.kill()
    for i in range(30, 60):
        db.put("inventory", f"sku-{i}", b"qty=100")
    ginja.drain(timeout=30.0)
    print(f"  replica errors absorbed: {multi.replica_errors}; "
          f"A={len(backend_a.list())} objects, B={len(backend_b.list())}")

    print("phase 3: provider A returns; anti-entropy repair...")
    provider_a.revive()
    repaired = multi.repair()
    print(f"  re-replicated {repaired.copies_restored} object copies "
          "to provider A")

    ginja.stop()
    multi.close()

    print("phase 4: disaster at the primary — recover from provider B alone...")
    target = MemoryFileSystem()
    ginja2, report = Ginja.recover(backend_b, target, MYSQL_PROFILE, config)
    recovered = MiniDB.open(ginja2.fs, MYSQL_PROFILE, ENGINE)
    present = sum(
        1 for i in range(60)
        if recovered.get("inventory", f"sku-{i}") == b"qty=100"
    )
    print(f"  recovered {present}/60 SKUs from the surviving provider "
          f"({report.wal_objects_applied} WAL objects replayed)")
    assert present == 60
    ginja2.stop()
    print("done.")


if __name__ == "__main__":
    main()
