"""Multi-cloud replication (§6: provider-scale fault tolerance).

The paper's "replication of objects in multiple clouds" is the
``mirror-N/qM`` placement policy.  These are the cases the old
``MultiCloudStore`` suite checked, case for case, against its successor
(``tests/placement/test_store.py`` covers striping, ranking and the
rest of the placement layer).
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import CloudObjectNotFound, CloudUnavailable, ConfigError
from repro.placement import PlacementStore, build_placement


def make_mirror(n=2, quorum=None):
    """``n`` zero-latency providers, every object mirrored on all of
    them, PUT durable once ``quorum`` (default: all) confirm."""
    spec = f"mirror-{n}" if quorum is None else f"mirror-{n}/q{quorum}"
    return build_placement(n, spec, time_scale=0.0)


def cheapest(store):
    """The replica a GET tries first (reads are cost-ranked)."""
    return store._ranked(store.providers, 0)[0]


class TestReplication:
    def test_put_reaches_all_replicas(self):
        multi = make_mirror()
        multi.put("k", b"v")
        assert all(p.backend.get("k") == b"v" for p in multi.providers)
        multi.close()

    def test_get_falls_back_to_second_replica(self):
        multi = make_mirror()
        multi.put("k", b"v")
        cheapest(multi).faults.fail_next(10)
        assert multi.get("k") == b"v"
        assert multi.read_failovers == 1
        multi.close()

    def test_list_falls_back(self):
        multi = make_mirror()
        multi.put("k", b"v")
        multi.providers[0].faults.fail_next(10)
        assert [i.key for i in multi.list()] == ["k"]
        multi.close()

    def test_delete_fans_out(self):
        multi = make_mirror()
        multi.put("k", b"v")
        multi.delete("k")
        assert all(p.backend.list() == [] for p in multi.providers)
        multi.close()

    def test_missing_object_raises_not_found(self):
        multi = make_mirror()
        with pytest.raises(CloudObjectNotFound):
            multi.get("nope")
        multi.close()


class TestQuorum:
    def test_quorum_put_succeeds_with_one_replica_down(self):
        multi = make_mirror(3, quorum=2)
        down = multi.providers[0]
        down.faults.fail_next()
        multi.put("k", b"v")
        assert multi.providers[1].backend.get("k") == b"v"
        assert multi.providers[2].backend.get("k") == b"v"
        assert multi.replica_errors[down.name] == 1
        multi.close()

    def test_put_fails_below_quorum(self):
        multi = make_mirror(2, quorum=2)
        multi.providers[0].faults.fail_next()
        with pytest.raises(CloudUnavailable):
            multi.put("k", b"v")
        multi.close()

    def test_invalid_quorum_rejected(self):
        with pytest.raises(ConfigError):
            make_mirror(2, quorum=3)
        with pytest.raises(ConfigError):
            make_mirror(2, quorum=-1)  # (/q0 spells "the default": all)

    def test_empty_store_list_rejected(self):
        with pytest.raises(ValueError):
            PlacementStore([], {})


class TestRepair:
    def test_repair_fills_missing_copies(self):
        multi = make_mirror(2, quorum=1)
        behind = multi.providers[1]
        behind.faults.fail_next()  # replica 1 misses this object
        multi.put("k", b"v")
        assert not behind.backend.exists("k")
        report = multi.repair()
        assert report.copies_restored == 1
        assert behind.backend.get("k") == b"v"
        multi.close()

    def test_repair_noop_when_consistent(self):
        multi = make_mirror()
        multi.put("k", b"v")
        assert multi.repair().actions == 0
        multi.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        multi = make_mirror()
        multi.put("k", b"v")
        multi.close()
        multi.close()  # second call must be a no-op, not an error

    def test_concurrent_close_from_teardown_paths(self):
        """stop() and crash() may both reach close(); racing them must
        shut the pool down exactly once without raising."""
        multi = make_mirror()
        threads = [
            threading.Thread(target=multi.close) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert multi._closed
