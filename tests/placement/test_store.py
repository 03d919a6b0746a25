"""PlacementStore: quorum writes, cost-ranked reads, striping, repair."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    CloudObjectNotFound,
    CloudUnavailable,
    IntegrityError,
)
from repro.placement import build_placement
from repro.placement.fragments import FRAGMENT_ROOT, parse_fragment_key


def make_store(placement="mirror-2", providers=3, seed=0):
    return build_placement(providers, placement, seed=seed)


class TestMirror:
    def test_put_reaches_the_policy_subset(self):
        store = make_store("mirror-2")
        store.put("k", b"v")
        held = [p.backend.get("k") if p.backend.exists("k") else None
                for p in store.providers]
        assert held[0] == b"v" and held[1] == b"v" and held[2] is None
        store.close()

    def test_get_fails_over_to_a_survivor(self):
        store = make_store("mirror-2")
        store.put("k", b"v")
        # Kill whichever replica ranks cheapest so the read must fail over.
        ranked = store._ranked(store.providers[:2], 1)
        ranked[0].kill()
        assert store.get("k") == b"v"
        assert store.read_failovers >= 1
        assert store.replica_errors[ranked[0].name] >= 1
        store.close()

    def test_write_quorum_enforced(self):
        store = make_store("mirror-2")  # write quorum defaults to all
        store.providers[0].kill()
        with pytest.raises(CloudUnavailable):
            store.put("k", b"v")
        store.close()

    def test_relaxed_quorum_survives_a_dead_replica(self):
        store = make_store("mirror-2/q1")
        store.providers[0].kill()
        store.put("k", b"v")
        assert store.get("k") == b"v"
        store.close()

    def test_missing_object_raises_not_found(self):
        store = make_store("mirror-2")
        with pytest.raises(CloudObjectNotFound):
            store.get("nope")
        store.close()


class TestStripe:
    def test_put_spreads_fragments_one_per_provider(self):
        store = make_store("stripe-2-3")
        store.put("DB/obj", b"x" * 1000)
        for i, provider in enumerate(store.providers):
            frags = [
                parse_fragment_key(info.key)
                for info in provider.backend.list(FRAGMENT_ROOT)
            ]
            assert len(frags) == 1 and frags[0].index == i
        store.close()

    def test_get_reassembles(self):
        store = make_store("stripe-2-3")
        data = bytes(range(256)) * 5 + b"tail"
        store.put("DB/obj", data)
        assert store.get("DB/obj") == data
        store.close()

    def test_get_survives_one_dead_provider(self):
        store = make_store("stripe-2-3")
        data = b"fragmented payload" * 40
        store.put("DB/obj", data)
        for dead in range(3):
            store.providers[dead].kill()
            assert store.get("DB/obj") == data
            store.providers[dead].revive()
        store.close()

    def test_get_fails_below_k_fragments(self):
        store = make_store("stripe-2-3")
        store.put("DB/obj", b"data")
        store.providers[0].kill()
        store.providers[1].kill()
        with pytest.raises(CloudUnavailable):
            store.get("DB/obj")
        store.close()

    def test_overwrite_bumps_generation_and_gcs_the_old_one(self):
        store = make_store("stripe-2-3")
        store.put("DB/obj", b"old " * 100)
        store.put("DB/obj", b"new!" * 100)
        assert store.get("DB/obj") == b"new!" * 100
        gens = {
            parse_fragment_key(info.key).generation
            for provider in store.providers
            for info in provider.backend.list(FRAGMENT_ROOT)
        }
        assert len(gens) == 1  # the superseded generation was deleted
        store.close()

    def test_corrupt_fragment_promotes_a_backup(self):
        store = make_store("stripe-2-3")
        data = b"precious bytes" * 64
        store.put("DB/obj", data)
        # Flip one byte of one stored fragment body, wherever it landed.
        provider = store.providers[0]
        info = provider.backend.list(FRAGMENT_ROOT)[0]
        blob = bytearray(provider.backend.get(info.key))
        blob[-1] ^= 0xFF
        provider.backend.put(info.key, bytes(blob))
        assert store.get("DB/obj") == data  # rebuilt from the other two
        store.close()


class TestLogicalView:
    def test_list_merges_mirrors_and_stripes(self):
        store = make_store("wal=mirror-2,db=stripe-2-3")
        store.put("WAL/000000000001_seg_0", b"w" * 10)
        store.put("DB/000000000001_dump_20.0.1.0", b"d" * 20)
        infos = {info.key: info.size for info in store.list("")}
        assert infos == {
            "WAL/000000000001_seg_0": 10,
            "DB/000000000001_dump_20.0.1.0": 20,
        }
        store.close()

    def test_delete_removes_all_copies_and_fragments(self):
        store = make_store("wal=mirror-2,db=stripe-2-3")
        store.put("WAL/1", b"w")
        store.put("DB/1", b"d" * 10)
        store.delete("WAL/1")
        store.delete("DB/1")
        for provider in store.providers:
            assert provider.backend.list() == []
        store.close()

    def test_exists_and_total_bytes(self):
        store = make_store("wal=mirror-2,db=stripe-2-3")
        store.put("WAL/1", b"w" * 7)
        store.put("DB/1", b"d" * 100)
        assert store.exists("WAL/1")
        assert store.exists("DB/1")
        assert not store.exists("WAL/2")
        # Logical bytes, not physical: fragments don't double-count.
        assert store.total_bytes() == 107
        store.close()


class TestLifecycle:
    def test_single_provider_fast_path_has_no_pool(self):
        store = make_store("mirror-1", providers=1)
        assert store._pool is None
        store.put("k", b"v")
        assert store.get("k") == b"v"
        store.close()

    def test_close_is_idempotent_and_fails_further_io(self):
        store = make_store("mirror-2")
        store.put("k", b"v")
        store.close()
        store.close()
        with pytest.raises(CloudUnavailable):
            store.get("k")

    def test_clone_reopens_over_the_same_providers(self):
        store = make_store("mirror-2")
        store.put("k", b"v")
        store.close()
        standby = store.clone()
        assert standby.get("k") == b"v"
        standby.close()


class TestQuorumHealth:
    def test_read_quorum_tracks_policies(self):
        store = make_store("wal=mirror-2,db=stripe-2-3,default=mirror-2")
        assert store.read_quorum_ok()
        store.providers[2].kill()
        assert store.read_quorum_ok()  # stripe still has k=2 alive
        store.providers[1].kill()
        assert not store.read_quorum_ok()
        store.close()


class TestRepair:
    def test_repair_restores_a_wiped_replacement(self):
        store = make_store("wal=mirror-2,db=stripe-2-3,default=mirror-2")
        store.put("WAL/1", b"w" * 50)
        store.put("DB/1", b"d" * 90)
        store.providers[0].kill()
        store.providers[0].revive(wipe=True)
        report = store.repair()
        assert report.copies_restored >= 1
        assert report.fragments_rebuilt >= 1
        assert sum(report.egress_bytes.values()) > 0
        # The replacement now holds its mirror copy and its fragment.
        assert store.providers[0].backend.exists("WAL/1")
        assert len(store.providers[0].backend.list(FRAGMENT_ROOT)) == 1
        # Egress was accumulated for billing attribution.
        assert sum(store.repair_egress_bytes.values()) > 0
        store.close()

    def test_repair_removes_stale_generations_and_orphans(self):
        store = make_store("db=stripe-2-3")
        store.put("DB/1", b"first" * 20)
        # Simulate a stale generation surviving on one provider: write a
        # gen-1 fragment directly, then overwrite the logical object.
        store.put("DB/1", b"second" * 20)
        stale_key = f"{FRAGMENT_ROOT}DB/1#1.0.2.3.5"
        store.providers[0].backend.put(stale_key, b"junk")
        # A true orphan: a generation newer than the complete best one
        # that never completed (a failed overwrite's leftover).  A lone
        # fragment of a key with no complete generation is no orphan —
        # it may be the only copy left, and repair must keep it.
        orphan_key = f"{FRAGMENT_ROOT}DB/1#3.1.2.3.5"
        store.providers[1].backend.put(orphan_key, b"junk")
        report = store.repair()
        assert report.stale_deleted == 1 and report.orphans_deleted == 1
        assert not store.providers[0].backend.exists(stale_key)
        assert not store.providers[1].backend.exists(orphan_key)
        assert store.get("DB/1") == b"second" * 20
        store.close()
