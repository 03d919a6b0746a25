"""CloudView: timestamp allocation, confirmation frontier, GC queries."""

from __future__ import annotations

from repro.core.cloud_view import CloudView
from repro.core.data_model import CHECKPOINT, DBObjectMeta, DUMP, WALObjectMeta


def wal(ts):
    return WALObjectMeta(ts=ts, filename="seg", offset=0)


class TestTimestamps:
    def test_allocation_is_sequential(self):
        view = CloudView()
        assert [view.next_wal_ts() for _ in range(4)] == [0, 1, 2, 3]
        assert view.last_assigned_ts() == 3

    def test_frontier_advances_only_without_gaps(self):
        view = CloudView()
        for _ in range(4):
            view.next_wal_ts()
        view.add_wal(wal(0))
        assert view.confirmed_ts() == 0
        view.add_wal(wal(2))  # out-of-order completion
        assert view.confirmed_ts() == 0  # 1 missing: frontier holds
        view.add_wal(wal(1))
        assert view.confirmed_ts() == 2  # gap closed: jumps over 2

    def test_unconfirmed_count(self):
        view = CloudView()
        for _ in range(5):
            view.next_wal_ts()
        view.add_wal(wal(0))
        assert view.unconfirmed_count() == 4

    def test_force_frontier(self):
        view = CloudView()
        view.add_wal(wal(5))
        view.add_wal(wal(6))
        assert view.confirmed_ts() == -1
        view.force_frontier(4)
        assert view.confirmed_ts() == 6
        assert view.next_wal_ts() == 7


class TestDBObjects:
    def test_total_db_bytes(self):
        view = CloudView()
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=100))
        view.add_db(DBObjectMeta(ts=1, type=CHECKPOINT, size=30))
        assert view.total_db_bytes() == 130

    def test_multi_part_objects_at_same_ts(self):
        view = CloudView()
        a = DBObjectMeta(ts=0, type=DUMP, size=10, part=0, nparts=2)
        b = DBObjectMeta(ts=0, type=DUMP, size=20, part=1, nparts=2)
        view.add_db(a)
        view.add_db(b)
        assert view.total_db_bytes() == 30
        view.remove_db(a)
        assert view.total_db_bytes() == 20

    def test_latest_dump(self):
        view = CloudView()
        assert view.latest_dump() is None
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=1))
        view.add_db(DBObjectMeta(ts=5, type=CHECKPOINT, size=1))
        view.add_db(DBObjectMeta(ts=9, type=DUMP, size=1))
        assert view.latest_dump().ts == 9

    def test_db_objects_before(self):
        view = CloudView()
        view.add_db(DBObjectMeta(ts=0, type=DUMP, size=1))
        view.add_db(DBObjectMeta(ts=3, type=CHECKPOINT, size=1))
        view.add_db(DBObjectMeta(ts=7, type=CHECKPOINT, size=1))
        before = view.db_objects_before((7, 0))
        assert [m.ts for m in before] == [0, 3]


class TestGCQueries:
    def test_wal_objects_upto(self):
        view = CloudView()
        for ts in range(5):
            view.next_wal_ts()
            view.add_wal(wal(ts))
        upto = view.pop_wal_upto(2)
        assert [m.ts for m in upto] == [0, 1, 2]
        assert [m.ts for m in view.wal_objects()] == [3, 4]

    def test_remove_wal(self):
        view = CloudView()
        view.next_wal_ts()
        view.add_wal(wal(0))
        (removed,) = view.pop_wal_upto(0)
        assert removed.ts == 0
        assert view.wal_object_count() == 0
        assert view.pop_wal_upto(0) == []
        assert view.confirmed_ts() == 0  # the frontier does not move back

