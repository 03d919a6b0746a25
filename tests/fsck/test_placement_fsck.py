"""Cross-provider fsck: fragment-set completeness, replica agreement,
orphan detection, and repair convergence."""

from __future__ import annotations

import pytest

from repro.common.errors import CloudUnavailable
from repro.fsck.placement import (
    FRAGMENT_ORPHAN,
    FRAGMENT_SET_INCOMPLETE,
    REPLICA_DISAGREEMENT,
    REPLICA_STALE,
    REPLICA_UNDERREPLICATED,
    audit_placement,
    repair_placement,
)
from repro.placement import build_placement
from repro.placement.fragments import FRAGMENT_ROOT, parse_fragment_key

WAL_KEY = "WAL/000000000002_seg_0"
DUMP_KEY = "DB/000000000001_dump_40.0.1.0"


def protected_store():
    store = build_placement(
        3, "wal=mirror-2,db=stripe-2-3,default=mirror-2",
    )
    store.put(DUMP_KEY, b"D" * 40)
    store.put(WAL_KEY, b"W" * 30)
    return store


class TestAuditClean:
    def test_healthy_store_audits_clean(self):
        store = protected_store()
        report = audit_placement(store)
        assert report.ok, report.summary()
        assert report.logical.ok
        assert all(report.providers.values())
        store.close()

    def test_dead_provider_is_not_flagged(self):
        """Survivors must audit clean mid-outage: the dead provider's
        missing copies are an availability event, not a violation."""
        store = protected_store()
        store.providers[0].kill()
        report = audit_placement(store)
        assert report.ok, report.summary()
        assert report.providers[store.providers[0].name] is False
        store.close()


class TestAuditViolations:
    def test_missing_replica_on_reachable_provider(self):
        store = protected_store()
        store.providers[1].backend.delete(WAL_KEY)
        report = audit_placement(store)
        assert report.by_rule(REPLICA_UNDERREPLICATED)
        store.close()

    def test_replica_disagreement_on_size(self):
        store = protected_store()
        store.providers[1].backend.put(WAL_KEY, b"short")
        report = audit_placement(store)
        assert report.by_rule(REPLICA_DISAGREEMENT)
        store.close()

    def test_incomplete_fragment_set(self):
        store = protected_store()
        for provider in store.providers[1:]:
            for info in provider.backend.list(FRAGMENT_ROOT):
                provider.backend.delete(info.key)
        report = audit_placement(store)
        assert report.by_rule(FRAGMENT_SET_INCOMPLETE)
        store.close()

    def test_stale_generation_flagged(self):
        store = protected_store()
        store.put(DUMP_KEY, b"E" * 40)  # generation 2 everywhere
        stale = f"{FRAGMENT_ROOT}{DUMP_KEY}#1.0.2.3.40"
        store.providers[0].backend.put(stale, b"junk")
        report = audit_placement(store)
        assert report.by_rule(REPLICA_STALE)
        store.close()

    def test_orphan_fragment_flagged(self):
        """A fragment under a mirrored policy class cannot belong to
        anything — the mirrored object is authoritative."""
        store = protected_store()
        orphan = f"{FRAGMENT_ROOT}WAL/ghost#1.0.2.3.9"
        store.providers[2].backend.put(orphan, b"junk")
        report = audit_placement(store)
        assert report.by_rule(FRAGMENT_ORPHAN)
        store.close()

    def test_unreassemblable_fragment_set_flagged_not_deleted(self):
        """Below-k fragments of a striped key are flagged incomplete;
        repair leaves them alone (they may be the only copy left)."""
        store = protected_store()
        ghost = f"{FRAGMENT_ROOT}DB/ghost#1.1.2.3.9"
        store.providers[1].backend.put(ghost, b"junk")
        report = audit_placement(store)
        assert report.by_rule(FRAGMENT_SET_INCOMPLETE)
        store.repair()
        assert store.providers[1].backend.exists(ghost)
        store.close()


class TestRepairConvergence:
    def test_repair_fixes_everything_in_one_pass(self):
        store = protected_store()
        # Wound it four ways: lost replica, lost fragment, stale
        # generation, orphan fragment.
        store.providers[1].backend.delete(WAL_KEY)
        frag_info = store.providers[2].backend.list(FRAGMENT_ROOT)[0]
        store.providers[2].backend.delete(frag_info.key)
        store.providers[0].backend.put(
            f"{FRAGMENT_ROOT}{DUMP_KEY}#0.0.2.3.40", b"junk"
        )
        store.providers[1].backend.put(
            f"{FRAGMENT_ROOT}WAL/ghost#1.1.2.3.9", b"junk"
        )
        assert not audit_placement(store).ok
        report, post = repair_placement(store)
        assert post.ok, post.summary()
        assert report.actions >= 4
        assert store.get(WAL_KEY) == b"W" * 30
        assert store.get(DUMP_KEY) == b"D" * 40
        store.close()

    def test_repair_after_provider_replacement(self):
        store = protected_store()
        store.providers[0].kill()
        store.providers[0].revive(wipe=True)
        report, post = repair_placement(store)
        assert post.ok, post.summary()
        assert report.copies_restored >= 1
        assert report.fragments_rebuilt >= 1
        assert sum(report.egress_bytes.values()) > 0
        # Idempotent: a second pass finds nothing to do.
        second, still_ok = repair_placement(store)
        assert still_ok.ok and second.actions == 0
        store.close()


class TestRepairSafety:
    """Repair acts on the audit's findings only, and restores before it
    deletes: neither an outage nor a misplacement can make it destroy
    the data an object is read from."""

    def test_repair_mid_outage_keeps_the_last_complete_generation(self):
        """Two of four providers down, a failed overwrite's generation 2
        on both survivors: the audit sees no complete set, so repair
        must not pick generation 2 as best and delete generation 1."""
        store = build_placement(
            4, "wal=mirror-2/q1,db=stripe-3-4,default=mirror-2/q1",
        )
        store.put(DUMP_KEY, b"D" * 40)
        store.providers[2].kill()
        store.providers[3].kill()
        with pytest.raises(CloudUnavailable):
            store.put(DUMP_KEY, b"E" * 40)  # lands on 2 of 4: below quorum
        audit = audit_placement(store)
        assert {v.rule for v in audit.violations} == {FRAGMENT_SET_INCOMPLETE}
        first_gen = [
            (provider, info.key)
            for provider in store.providers[:2]
            for info in provider.backend.list(FRAGMENT_ROOT)
            if parse_fragment_key(info.key).generation == 1
        ]
        assert len(first_gen) == 2
        assert store.repair().actions == 0
        assert all(p.backend.exists(key) for p, key in first_gen)
        store.providers[2].revive()
        store.providers[3].revive()
        assert store.get(DUMP_KEY) == b"D" * 40
        store.close()

    def test_swapped_fragments_are_rebuilt_before_they_are_deleted(self):
        """Fragments 0 and 1 on each other's providers: the object reads
        fine, so repair must use both as sources, rebuild them in place,
        and only then delete the misplaced copies."""
        store = protected_store()
        first, second = store.providers[0].backend, store.providers[1].backend
        [key0] = [i.key for i in first.list(FRAGMENT_ROOT)]
        [key1] = [i.key for i in second.list(FRAGMENT_ROOT)]
        blob0, blob1 = first.get(key0), second.get(key1)
        first.delete(key0)
        second.delete(key1)
        first.put(key1, blob1)
        second.put(key0, blob0)
        assert store.get(DUMP_KEY) == b"D" * 40
        report, post = repair_placement(store)
        assert report.fragments_rebuilt == 2
        assert report.orphans_deleted == 2
        assert post.ok, post.summary()
        assert [i.key for i in first.list(FRAGMENT_ROOT)] == [key0]
        assert [i.key for i in second.list(FRAGMENT_ROOT)] == [key1]
        assert store.get(DUMP_KEY) == b"D" * 40
        store.close()

    def test_disagreeing_replicas_are_reported_not_repaired(self):
        """Copies of one mirrored key differ in size: repair cannot tell
        which is right, so it restores neither onto the empty replica."""
        store = protected_store()
        store.providers[1].backend.delete(WAL_KEY)
        store.providers[2].backend.put(WAL_KEY, b"short")
        audit = audit_placement(store)
        assert audit.by_rule(REPLICA_DISAGREEMENT)
        assert audit.by_rule(REPLICA_UNDERREPLICATED)
        assert store.repair().actions == 0
        assert not store.providers[1].backend.exists(WAL_KEY)
        store.close()
