"""The invariant catalog over synthetic bucket images."""

from __future__ import annotations

from repro.core.cloud_view import CloudView
from repro.core.data_model import CHECKPOINT, DBObjectMeta, DUMP, WALObjectMeta
from repro.core.pitr import RetentionPolicy
from repro.fsck.invariants import (
    BucketIndex,
    DB_BELOW_RETENTION_FLOOR,
    DB_GROUP_INCOMPLETE,
    INVARIANTS,
    VIEW_FRONTIER_DRIFT,
    VIEW_MISSING,
    VIEW_PHANTOM,
    VIEW_TS_DRIFT,
    WAL_GAP,
    WAL_ORPHAN,
    WAL_REDUNDANT,
    check_db_groups,
    check_retention_floor,
    check_view_agreement,
    check_wal_contiguity,
)


def wal(ts: int, filename: str = "seg", offset: int = 0) -> WALObjectMeta:
    return WALObjectMeta(ts=ts, filename=filename, offset=offset)


def db(ts: int, type_: str = DUMP, part: int = 0, nparts: int = 1,
       seq: int = 0) -> DBObjectMeta:
    return DBObjectMeta(ts=ts, type=type_, size=1, part=part, nparts=nparts,
                        seq=seq)


def index_of(*metas) -> BucketIndex:
    return BucketIndex.from_keys(meta.key for meta in metas)


def rules(violations) -> set[str]:
    return {violation.rule for violation in violations}


class TestBucketIndex:
    def test_classifies_key_families(self):
        index = BucketIndex.from_keys(
            [wal(1).key, db(0).key, "_meta/heartbeat", "junk"]
        )
        assert set(index.wal) == {1}
        assert set(index.groups) == {(0, 0, DUMP)}
        assert index.foreign == ["_meta/heartbeat", "junk"]
        assert index.object_count == 2

    def test_group_completeness(self):
        index = index_of(
            db(0),
            db(5, part=0, nparts=2), db(5, part=1, nparts=2),
            db(9, type_=CHECKPOINT, part=0, nparts=3),
        )
        assert set(index.complete_groups()) == {(0, 0, DUMP), (5, 0, DUMP)}
        assert set(index.incomplete_groups()) == {(9, 0, CHECKPOINT)}

    def test_db_frontier_ignores_incomplete_groups(self):
        index = index_of(db(0), db(9, part=0, nparts=2))
        assert index.db_frontier_ts() == 0

    def test_db_frontier_empty_bucket(self):
        assert BucketIndex().db_frontier_ts() == -1

    def test_wal_frontier_contiguous_run(self):
        index = index_of(db(0), wal(1), wal(2), wal(3))
        assert index.wal_frontier() == (3, [], [])

    def test_wal_frontier_with_gap_reports_orphans(self):
        index = index_of(db(0), wal(1), wal(2), wal(4), wal(6))
        frontier, gaps, orphans = index.wal_frontier()
        assert frontier == 2
        assert gaps == [3, 5]
        assert [meta.ts for meta in orphans] == [4, 6]

    def test_redundant_wal_at_or_below_db_frontier(self):
        index = index_of(db(3), wal(2), wal(3), wal(4))
        assert [meta.ts for meta in index.redundant_wal()] == [2, 3]
        assert index.wal_frontier() == (4, [], [])

    def test_retention_floor_unknown_policy_is_none(self):
        index = index_of(db(0), db(5))
        assert index.retention_floor(None) is None

    def test_retention_floor_no_dumps_is_none(self):
        index = index_of(db(4, type_=CHECKPOINT))
        assert index.retention_floor(RetentionPolicy.none()) is None

    def test_retention_floor_generation_math(self):
        index = index_of(db(0), db(5, seq=2), db(9, seq=4))
        assert index.retention_floor(RetentionPolicy.none()) == (9, 4)
        assert index.retention_floor(RetentionPolicy(generations=1)) == (5, 2)
        assert index.retention_floor(RetentionPolicy(generations=7)) == (0, 0)


class TestWALContiguity:
    def test_clean_run_no_violations(self):
        index = index_of(db(0), wal(1), wal(2))
        assert check_wal_contiguity(index) == []

    def test_gap_and_orphans_flagged(self):
        index = index_of(db(0), wal(1), wal(3), wal(4))
        violations = check_wal_contiguity(index)
        assert rules(violations) == {WAL_GAP, WAL_ORPHAN}
        orphan_keys = [v.key for v in violations if v.rule == WAL_ORPHAN]
        assert orphan_keys == [wal(3).key, wal(4).key]

    def test_redundant_wal_flagged(self):
        index = index_of(db(2), wal(1), wal(2), wal(3))
        violations = check_wal_contiguity(index)
        assert rules(violations) == {WAL_REDUNDANT}
        assert [v.key for v in violations] == [wal(1).key, wal(2).key]


class TestDBGroups:
    def test_complete_groups_pass(self):
        index = index_of(db(0, part=0, nparts=2), db(0, part=1, nparts=2))
        assert check_db_groups(index) == []

    def test_incomplete_group_flags_every_part(self):
        index = index_of(
            db(0),
            db(7, part=0, nparts=3), db(7, part=2, nparts=3),
        )
        violations = check_db_groups(index)
        assert rules(violations) == {DB_GROUP_INCOMPLETE}
        assert len(violations) == 2


class TestRetentionFloor:
    def test_unknown_policy_flags_nothing(self):
        index = index_of(db(0), db(5, seq=1))
        assert check_retention_floor(index, retention=None) == []

    def test_superseded_generations_below_floor_flagged(self):
        index = index_of(
            db(0), db(2, type_=CHECKPOINT, seq=1), db(5, seq=2),
        )
        violations = check_retention_floor(
            index, retention=RetentionPolicy.none()
        )
        assert rules(violations) == {DB_BELOW_RETENTION_FLOOR}
        assert {v.key for v in violations} == {
            db(0).key, db(2, type_=CHECKPOINT, seq=1).key,
        }

    def test_kept_generations_inside_floor_pass(self):
        index = index_of(db(0), db(5, seq=2))
        assert check_retention_floor(
            index, retention=RetentionPolicy(generations=1)
        ) == []


class TestViewAgreement:
    def _agreeing_view(self, index: BucketIndex) -> CloudView:
        view = CloudView()
        frontier, _gaps, _orphans = index.wal_frontier()
        view.resync(
            [index.wal[ts] for ts in sorted(index.wal)],
            [m for _g, metas in sorted(index.groups.items()) for m in metas],
            frontier_ts=frontier, next_wal_ts=frontier + 1,
        )
        return view

    def test_no_view_no_checks(self):
        index = index_of(db(0), wal(1))
        assert check_view_agreement(index, view=None) == []

    def test_agreeing_view_passes(self):
        index = index_of(db(0), wal(1), wal(2))
        view = self._agreeing_view(index)
        assert check_view_agreement(index, view=view) == []

    def test_phantom_entries_flagged(self):
        index = index_of(db(0), wal(1))
        view = self._agreeing_view(index)
        view.add_wal(wal(2))  # acked upload the bucket never saw
        view.add_db(db(9, type_=CHECKPOINT, seq=1))
        violations = check_view_agreement(index, view=view)
        phantoms = [v.key for v in violations if v.rule == VIEW_PHANTOM]
        assert wal(2).key in phantoms
        assert db(9, type_=CHECKPOINT, seq=1).key in phantoms

    def test_missing_entries_flagged(self):
        index = index_of(db(0), wal(1), wal(2))
        stale = index_of(db(0), wal(1))
        view = self._agreeing_view(stale)
        violations = check_view_agreement(index, view=view)
        missing = [v.key for v in violations if v.rule == VIEW_MISSING]
        assert missing == [wal(2).key]
        assert VIEW_FRONTIER_DRIFT in rules(violations)

    def test_counter_drift_past_a_gap_flagged(self):
        """The reboot bug: ingesting the LIST key by key pushed
        ``_next_wal_ts`` past a crash-induced gap, which the audit must
        call out."""
        index = index_of(db(0), wal(1), wal(2), wal(5))
        view = CloudView()
        for ts in (1, 2, 5):
            view.add_wal(wal(ts))
        view.add_db(db(0))
        while view.last_assigned_ts() < 5:
            view.next_wal_ts()
        view.force_frontier(0)
        violations = check_view_agreement(index, view=view)
        assert VIEW_TS_DRIFT in rules(violations)


class TestCatalog:
    def test_catalog_order_is_stable(self):
        assert list(INVARIANTS) == [
            "wal-contiguity", "db-groups", "retention-floor", "view-agreement",
        ]

    def test_every_predicate_accepts_the_uniform_signature(self):
        index = index_of(db(0), wal(1))
        for check in INVARIANTS.values():
            assert check(index, view=None, retention=None) == []
