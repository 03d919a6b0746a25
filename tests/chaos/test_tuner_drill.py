"""The latency-shift tuner chaos drill (CI drill-smoke, tuner entry)."""

from __future__ import annotations

import json

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

    def test_canonical_report_is_config_and_booleans_only(self, drill_result):
        """The CI determinism gate ``cmp``s two canonical reports, so
        nothing pump-timing-dependent (EWMAs, dollars, timestamps) may
        leak into them — only config echoes and pass/fail booleans."""
        canonical = drill_result.canonical()
        json.dumps(canonical)  # must be serializable as-is
        assert canonical["status"] == "pass"
        assert canonical["seed"] == 0
        for value in canonical.values():
            assert isinstance(value, (bool, int, float, str, dict))
        for value in canonical["checks"].values():
            assert isinstance(value, bool)

    def test_summary_is_one_line(self, drill_result):
        summary = drill_result.summary()
        assert "\n" not in summary
        assert "tuner" in summary
