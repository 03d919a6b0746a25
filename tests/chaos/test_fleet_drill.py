"""The multi-tenant fleet drill (CI's fleet-smoke contract)."""

from __future__ import annotations

import json

import pytest

from repro.chaos.fleet_drill import run_fleet_drill
from repro.cli import main
from repro.common.errors import ConfigError, ReproError
from repro.fleet import FleetManager

CHECKS = [
    "victim_drained",
    "victim_rpo_zero",
    "fleet_drained",
    "co_tenant_integrity",
    "fsck_sweep_clean",
    "meters_reconcile",
    "no_unattributed_puts",
    "thread_budget",
]


SMALL_FLEET = ["fleet", "--tenants", "6", "--rows", "12", "--jobs", "3",
               "--thread-budget", "25"]


class TestDrill:
    def test_every_check_passes_within_the_thread_budget(self):
        result = run_fleet_drill(tenants=6, rows=12, jobs=3, seed=1,
                                 thread_budget=25)
        assert result.ok, (result.summary(), result.failures)
        assert [check.name for check in result.checks] == CHECKS
        assert result.committed == 6 * 12
        assert result.config["victim"] == "tenant-001"
        census = result.extras["census"]
        assert 0 < census["peak"] <= 25
        assert census["samples"] > 0

    def test_cli_writes_the_census_ci_reads(self, tmp_path, capsys):
        out = tmp_path / "census.json"
        assert main([*SMALL_FLEET, "--census-out", str(out)]) == 0
        census = json.loads(out.read_text())
        assert set(census) == {
            "peak", "peak_by_prefix", "samples", "tenants", "thread_budget",
        }
        assert census["tenants"] == 6 and census["thread_budget"] == 25
        assert census["peak"] <= 25
        assert sum(census["peak_by_prefix"].values()) == census["peak"]
        assert "thread_budget=ok" in capsys.readouterr().out

    @pytest.mark.parametrize("tenants, rows", [(0, 30), (3, 0)])
    def test_empty_fleet_is_rejected(self, tenants, rows, capsys):
        with pytest.raises(ConfigError):
            run_fleet_drill(tenants=tenants, rows=rows)
        assert main(["fleet", "--tenants", str(tenants),
                     "--rows", str(rows)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTeardown:
    """A fleet drill stops what it started on every exit path; the
    autouse thread census in ``conftest.py`` fails these tests if a
    ``fleet-*`` or ``ginja-*`` thread outlives them."""

    def test_failed_recovery_fails_the_verdict_and_leaks_nothing(
        self, monkeypatch, capsys,
    ):
        def broken(self, tenant_id, *args, **kwargs):
            raise ReproError(f"bucket unreachable for {tenant_id}")

        monkeypatch.setattr(FleetManager, "recover_tenant", broken)
        result = run_fleet_drill(tenants=4, rows=6, jobs=2)
        (failed,) = result.failures
        assert failed.name == "victim_rpo_zero"
        assert "bucket unreachable" in failed.detail
        assert main(SMALL_FLEET) == 1
        assert "victim_rpo_zero" in capsys.readouterr().err

    def test_exception_mid_drill_still_tears_down(self, monkeypatch):
        def exploding(self, tenant_id, *args, **kwargs):
            raise RuntimeError("not a drill failure: a bug")

        monkeypatch.setattr(FleetManager, "recover_tenant", exploding)
        with pytest.raises(RuntimeError, match="a bug"):
            run_fleet_drill(tenants=4, rows=6, jobs=2)
