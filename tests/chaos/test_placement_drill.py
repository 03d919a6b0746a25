"""The provider-outage chaos drill (CI drill-smoke, placement entry)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.chaos.placement_drill import run_placement_drill
from repro.common.errors import ConfigError


@pytest.fixture(scope="module")
def drill_result():
    return run_placement_drill(seed=0, rows=20)


class TestDrill:
    def test_every_check_passes(self, drill_result):
        assert drill_result.ok, (
            drill_result.summary(), drill_result.failures,
        )
        assert drill_result.canonical()["checks"] == {
            "survived_kill": True,
            "rpo_zero": True,
            "fsck_survivors_clean": True,
            "quorum_gate_refuses": True,
            "failover_promotes": True,
            "repair_converges": True,
            "repair_egress_billed": True,
        }

    def test_commits_span_the_kill(self, drill_result):
        config = drill_result.config
        assert drill_result.committed == 20
        assert 0 < config["kill_row"] < config["rows"]

    def test_bill_attributes_repair_egress(self, drill_result):
        bill = drill_result.extras["bill"]
        assert bill is not None
        assert bill.repair_egress_dollars > 0
        sources = [
            b.provider for b in bill.providers if b.repair_egress_bytes
        ]
        # The wiped provider is the sink, never a source of repair reads.
        assert sources and drill_result.config["killed"] not in sources

    def test_canonical_is_json_stable_and_boolean_only(self, drill_result):
        canonical = drill_result.canonical()
        blob = json.dumps(canonical, sort_keys=True)
        assert json.loads(blob) == canonical
        assert all(isinstance(v, bool) for v in canonical["checks"].values())
        assert canonical["status"] == "pass"

    def test_no_leaked_threads(self, drill_result):
        for thread in threading.enumerate():
            assert not thread.name.startswith(
                ("placement", "ginja", "drill")
            ), thread.name


@pytest.mark.parametrize("kill_row", [-1, 4, 9])
def test_kill_row_outside_the_stream_is_rejected(kill_row):
    # A kill at or past the last row never happens: the drill used to
    # report "killed s3 @ row 9" and then fail an unrelated check.
    with pytest.raises(ConfigError, match="kill row"):
        run_placement_drill(rows=4, kill_row=kill_row)
