"""The latency-shift tuner chaos drill (CI drill-smoke, tuner entry)."""

from __future__ import annotations

import json
import sys

import pytest

from repro.chaos.tuner_drill import run_tuner_drill


@pytest.fixture(scope="module")
def drill_result():
    return run_tuner_drill(seed=0)


class TestDrill:
    def test_every_check_passes(self, drill_result):
        assert drill_result.ok, (
            drill_result.summary(), drill_result.failures,
        )
        assert drill_result.canonical()["checks"] == {
            "converged": True,
            "batch_shrank": True,
            "reconverged": True,
            "budget_respected": True,
            "survived_shift": True,
            "loss_bound_preserved": True,
            "rpo_zero": True,
        }

    def test_controller_actually_moved(self, drill_result):
        snap = drill_result.extras["tuner"]
        assert snap["retunes"] >= 1
        assert snap["batch"] < snap["nominal_batch"]
        assert snap["batch"] <= snap["safety"] <= snap["nominal_safety"]

    def test_latency_settles_inside_the_band(self, drill_result):
        snap = drill_result.extras["tuner"]
        config = drill_result.config
        band_top = config["target"] * config["hysteresis"]
        assert snap["latency_ewma"] is not None
        assert snap["latency_ewma"] <= band_top

    def test_projected_spend_under_budget(self, drill_result):
        projected = drill_result.extras["tuner"]["projected_monthly_dollars"]
        assert projected is not None
        assert projected <= drill_result.config["budget"]

    def test_transitions_stay_inside_the_loss_bound(self, drill_result):
        nominal_b = drill_result.config["batch"]
        nominal_s = drill_result.config["safety"]
        transitions = drill_result.extras["transitions"]
        assert transitions
        for t in transitions:
            assert 1 <= t["to_batch"] <= nominal_b
            assert t["to_batch"] <= t["to_safety"] <= nominal_s
            assert t["reason"]

    def test_canonical_report_replays_byte_for_byte(self, drill_result):
        """Virtual time moves only at settled points, so the canonical
        report — the controller's trajectory included — is the same
        bytes run after run, even with the interpreter switching
        threads every microsecond."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [
                json.dumps(run_tuner_drill(seed=0).canonical(), sort_keys=True)
                for _ in range(2)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1]
        assert reports[0] == json.dumps(drill_result.canonical(),
                                        sort_keys=True)
        assert json.loads(reports[0])["trajectory"]["transitions"]

    def test_trajectory_shows_how_the_controller_converged(self, drill_result):
        """Read at the settled end of phase 2: B only ever shrank, and
        the snapshot there is where the last transition left it."""
        trajectory = drill_result.trajectory
        transitions = trajectory["transitions"]
        assert [t["direction"] for t in transitions] == ["shrink"] * len(
            transitions)
        stamps = [t["at"] for t in transitions]
        assert stamps == sorted(stamps) and stamps[-1] <= trajectory["at"]
        for before, after in zip(transitions, transitions[1:]):
            assert after["from_batch"] == before["to_batch"]
        assert trajectory["tuner"]["batch"] == transitions[-1]["to_batch"]
        assert trajectory["tuner"]["retunes"] == len(transitions)

    def test_summary_is_one_line(self, drill_result):
        summary = drill_result.summary()
        assert "\n" not in summary
        assert "tuner" in summary
