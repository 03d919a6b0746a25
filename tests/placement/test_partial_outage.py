"""Listing-class verbs under partial provider outage.

Contract: with one provider down, ``exists()`` and ``list()`` (and the
logical total summed over it) on a multi-provider store must answer
from the survivors — LIST-derived recovery plans and fsck verdicts may
not change just because a provider died.  Fragment keys must never leak
into the logical view, even for adversarially-chosen logical keys and
under tenant prefixes.
"""

from __future__ import annotations

import pytest

from repro.common.errors import CloudUnavailable
from repro.cloud.prefix import PrefixedObjectStore, tenant_prefix
from repro.core.recovery import plan_recovery
from repro.fsck.audit import audit_index
from repro.fsck.invariants import BucketIndex
from repro.placement import build_placement

WAL_KEYS = [f"WAL/{ts:012d}_seg_{(ts - 1) * 100}" for ts in (1, 2, 3)]
DUMP_KEY = "DB/000000000000_dump_400.0.1.0"


def protected_bucket():
    """A store carrying a recoverable Ginja layout: one complete dump
    plus a contiguous WAL run, WAL mirrored and DB striped."""
    store = build_placement(
        3, "wal=mirror-2,db=stripe-2-3,default=mirror-2",
    )
    store.put(DUMP_KEY, b"D" * 400)
    for i, key in enumerate(WAL_KEYS):
        store.put(key, bytes([i]) * 100)
    return store


class TestListingUnderOutage:
    @pytest.mark.parametrize("dead", [0, 1, 2])
    def test_list_is_outage_invariant(self, dead):
        store = protected_bucket()
        before = [(i.key, i.size) for i in store.list("")]
        store.providers[dead].kill()
        after = [(i.key, i.size) for i in store.list("")]
        assert after == before
        assert {k for k, _ in after} == set(WAL_KEYS) | {DUMP_KEY}
        store.close()

    @pytest.mark.parametrize("dead", [0, 2])
    def test_exists_and_total_bytes_from_survivors(self, dead):
        store = protected_bucket()
        total = sum(info.size for info in store.list())
        store.providers[dead].kill()
        assert store.exists(DUMP_KEY)
        assert all(store.exists(key) for key in WAL_KEYS)
        assert not store.exists("WAL/999")
        assert sum(info.size for info in store.list()) == total == 700
        store.close()

    def test_all_providers_down_is_an_error_not_empty(self):
        store = protected_bucket()
        for provider in store.providers:
            provider.kill()
        with pytest.raises(CloudUnavailable):
            store.list("")
        store.close()

    def test_recovery_plan_unchanged_by_outage(self):
        store = protected_bucket()
        plan = plan_recovery(store.list(""))
        store.providers[0].kill()
        degraded = plan_recovery(store.list(""))
        assert [s.meta.key for s in degraded.steps] == \
            [s.meta.key for s in plan.steps]
        assert degraded.frontier_ts == plan.frontier_ts
        assert degraded.dump_ts == plan.dump_ts
        store.close()

    def test_fsck_verdict_unchanged_by_outage(self):
        store = protected_bucket()
        verdict = audit_index(BucketIndex.from_keys(
            [i.key for i in store.list("")]
        ))
        assert verdict.ok
        store.providers[1].kill()
        degraded = audit_index(BucketIndex.from_keys(
            [i.key for i in store.list("")]
        ))
        assert degraded.ok
        assert degraded.violation_count == verdict.violation_count == 0
        store.close()


class TestAdversarialKeys:
    def test_fragment_keys_never_leak_into_the_logical_view(self):
        store = build_placement(3, "db=stripe-2-3,default=mirror-2")
        store.put("DB/real", b"r" * 64)
        # A hostile logical key that *parses* as a fragment key would
        # shadow real fragments; the store must treat it as opaque
        # logical data (mirrored, since it's not under frag/).
        evil = "DB/real#1.0.2.3.64"
        store.put(evil, b"e" * 32)
        keys = {i.key for i in store.list("")}
        assert keys == {"DB/real", evil}
        assert store.get("DB/real") == b"r" * 64
        assert store.get(evil) == b"e" * 32
        store.close()

    def test_tenant_prefixes_compose_with_placement(self):
        store = build_placement(
            3, "wal=mirror-2,db=stripe-2-3,default=mirror-2",
        )
        alpha = PrefixedObjectStore(store, tenant_prefix("alpha"))
        beta = PrefixedObjectStore(store, tenant_prefix("beta"))
        alpha.put("WAL/000000000001_seg_0", b"a" * 10)
        alpha.put("DB/000000000001_dump_30.0.1.0", b"A" * 30)
        beta.put("WAL/000000000001_seg_0", b"b" * 10)
        # Each tenant sees only its own logical objects; the striped
        # object reassembles through the tenant view.
        assert {i.key for i in alpha.list("")} == {
            "WAL/000000000001_seg_0", "DB/000000000001_dump_30.0.1.0",
        }
        assert {i.key for i in beta.list("")} == {"WAL/000000000001_seg_0"}
        assert alpha.get("DB/000000000001_dump_30.0.1.0") == b"A" * 30
        store.providers[0].kill()
        assert alpha.get("DB/000000000001_dump_30.0.1.0") == b"A" * 30
        assert beta.get("WAL/000000000001_seg_0") == b"b" * 10
        store.close()
