"""The ginja-repro command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestCost:
    def test_cost_prints_breakdown(self, capsys):
        assert main(["cost", "--db-gb", "10", "--updates-per-minute", "100",
                     "--batch", "100"]) == 0
        out = capsys.readouterr().out
        assert "C_Total" in out
        assert "C_WAL_PUT" in out

    def test_cost_with_snapshots(self, capsys):
        assert main(["cost", "--snapshots", "3"]) == 0
        assert "PITR x3" in capsys.readouterr().out

    def test_other_providers(self, capsys):
        for provider in ("azure", "gcs"):
            assert main(["cost", "--provider", provider]) == 0


class TestFrontier:
    def test_frontier_prints_curve(self, capsys):
        assert main(["frontier", "--budget", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "capacity frontier" in out
        assert "syncs/hour" in out


class TestDemo:
    @pytest.mark.parametrize("profile", ["postgres", "mysql"])
    def test_demo_in_memory(self, capsys, profile):
        assert main(["demo", "--rows", "30", "--profile", profile,
                     "--segment-size", "256KB" if profile == "postgres"
                     else "64KB"]) == 0
        out = capsys.readouterr().out
        assert "recovered 30/30 rows" in out

    def test_demo_with_directory_bucket(self, capsys, tmp_path):
        bucket = tmp_path / "bucket"
        assert main(["demo", "--rows", "20", "--bucket-dir", str(bucket),
                     "--segment-size", "256KB"]) == 0
        assert any(bucket.iterdir())

    def test_demo_refuses_dirty_bucket(self, capsys, tmp_path):
        bucket = tmp_path / "bucket"
        bucket.mkdir()
        (bucket / "WAL%2F000000000000_x_0").write_bytes(b"junk")
        assert main(["demo", "--bucket-dir", str(bucket)]) == 2

    def test_demo_trace_dumps_per_verb_summary(self, capsys):
        """--trace prints the event-sourced transport summary."""
        assert main(["demo", "--rows", "30", "--trace",
                     "--segment-size", "256KB"]) == 0
        out = capsys.readouterr().out
        assert "cloud trace (from events)" in out
        assert "PUT" in out
        assert "mean lat" in out


class TestRecoverVerify:
    @pytest.fixture
    def populated_bucket(self, tmp_path, capsys):
        bucket = tmp_path / "bucket"
        assert main(["demo", "--rows", "25", "--bucket-dir", str(bucket),
                     "--segment-size", "256KB"]) == 0
        capsys.readouterr()
        return bucket

    def test_recover_into_directory(self, populated_bucket, tmp_path, capsys):
        data = tmp_path / "restored"
        assert main(["recover", str(populated_bucket), str(data)]) == 0
        out = capsys.readouterr().out
        assert "restored" in out
        assert (data / "global" / "pg_control").exists()

    def test_recover_refuses_nonempty_target(self, populated_bucket,
                                             tmp_path, capsys):
        data = tmp_path / "restored"
        data.mkdir()
        (data / "existing").write_bytes(b"x")
        assert main(["recover", str(populated_bucket), str(data)]) == 2

    def test_recover_refuses_empty_bucket(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "empty"),
                     str(tmp_path / "data")]) == 2

    def test_ls_inventory(self, populated_bucket, capsys):
        assert main(["ls", str(populated_bucket)]) == 0
        out = capsys.readouterr().out
        assert "RECOVERABLE" in out
        assert "WAL:" in out and "DB:" in out

    def test_ls_empty_bucket_not_recoverable(self, tmp_path, capsys):
        assert main(["ls", str(tmp_path / "empty")]) == 1
        assert "NOT RECOVERABLE" in capsys.readouterr().out

    def test_verify_passes_on_good_backup(self, populated_bucket, capsys):
        assert main(["verify", str(populated_bucket),
                     "--segment-size", "256KB"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, populated_bucket, capsys):
        for obj in populated_bucket.iterdir():
            raw = bytearray(obj.read_bytes())
            if raw:
                raw[len(raw) // 2] ^= 0xFF
                obj.write_bytes(bytes(raw))
        assert main(["verify", str(populated_bucket),
                     "--segment-size", "256KB"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFsck:
    @pytest.fixture
    def populated_bucket(self, tmp_path, capsys):
        bucket = tmp_path / "bucket"
        assert main(["demo", "--rows", "25", "--bucket-dir", str(bucket),
                     "--segment-size", "256KB"]) == 0
        capsys.readouterr()
        return bucket

    @staticmethod
    def _wal_files(bucket):
        return sorted(p for p in bucket.iterdir()
                      if p.name.startswith("WAL%2F"))

    def test_clean_bucket_exits_zero(self, populated_bucket, capsys):
        assert main(["fsck", str(populated_bucket)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_exit_code_counts_violations(self, populated_bucket, capsys):
        wal = self._wal_files(populated_bucket)
        assert len(wal) >= 2
        wal[0].unlink()  # every later WAL object is now orphaned
        code = main(["fsck", str(populated_bucket)])
        out = capsys.readouterr().out
        assert code == len(wal)  # 1 gap + (n-1) orphans
        assert "wal-orphan" in out and "wal-gap" in out

    def test_repair_converges_and_recovery_works(self, populated_bucket,
                                                 tmp_path, capsys):
        import json as json_module
        self._wal_files(populated_bucket)[0].unlink()
        assert main(["fsck", str(populated_bucket), "--repair",
                     "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["audit"]["ok"] is True
        assert payload["repair"]["deleted"]
        # A second audit agrees the bucket is clean...
        assert main(["fsck", str(populated_bucket), "--json"]) == 0
        capsys.readouterr()
        # ...and the repaired bucket restores and verifies.
        assert main(["recover", str(populated_bucket),
                     str(tmp_path / "restored")]) == 0
        assert main(["verify", str(populated_bucket),
                     "--segment-size", "256KB"]) == 0

    def test_json_reports_violations(self, populated_bucket, capsys):
        import json as json_module
        self._wal_files(populated_bucket)[0].unlink()
        code = main(["fsck", str(populated_bucket), "--json"])
        payload = json_module.loads(capsys.readouterr().out)
        assert code == payload["audit"]["violation_count"] > 0
        assert payload["audit"]["orphans"]
        assert "repair" not in payload


class TestChaos:
    ARGS = ["chaos", "--scenario", "baseline", "--crash-point", "pre-put",
            "--crash-point", "during-gc", "--seeds", "2", "--jobs", "2"]

    def test_small_campaign_green(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out and "during-gc" in out

    def test_report_artifact_is_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(out_a)]) == 0
        assert main(self.ARGS + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_mutation_check_detects(self, capsys):
        assert main(["chaos", "--mutation-check"]) == 0
        assert "oracle has teeth" in capsys.readouterr().out

    def test_list_scenarios_and_points(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "blackout" in out and "during-gc" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2

    def test_dump_buckets_then_fsck_converges(self, tmp_path, capsys):
        """The CI chaos-smoke contract: every dumped disaster image is
        repairable, and a repaired image audits clean."""
        images = tmp_path / "images"
        assert main(["chaos", "--scenario", "baseline",
                     "--crash-point", "mid-batch", "--seeds", "1",
                     "--dump-buckets", str(images)]) == 0
        capsys.readouterr()
        dumped = sorted(p for p in images.iterdir() if p.is_dir())
        assert dumped, "no disaster images written"
        for image in dumped:
            assert main(["fsck", str(image), "--repair"]) == 0
            assert main(["fsck", str(image)]) == 0
            capsys.readouterr()


class TestPlacement:
    """The CI drill-smoke contract for ``placement`` (``tuner`` shares
    the printer and the report; :class:`TestTuner` holds its own)."""

    def test_report_artifact_is_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["placement", "--rows", "20", "--out", str(out_a)]) == 0
        assert main(["placement", "--rows", "20", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        (report,) = json.loads(out_a.read_text())
        assert report["status"] == "pass"
        assert report["kill_row"] == 10 and report["committed"] == 20
        assert "rpo_zero=ok" in capsys.readouterr().out

    def test_costs_table_renders(self, capsys):
        assert main(["placement", "--costs"]) == 0
        out = capsys.readouterr().out
        assert "monthly placement costs" in out and "stripe" in out

    def test_kill_row_outside_the_stream_exits_2(self, capsys):
        assert main(["placement", "--rows", "4", "--kill-row", "9"]) == 2
        captured = capsys.readouterr()
        assert "kill row 9" in captured.err and "killed" not in captured.out


class TestTuner:
    """The CI drill-smoke contract for ``tuner``; the drill's checks
    run in ``tests/chaos/test_tuner_drill.py``."""

    def test_report_artifact_is_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tuner", "--seed", "0", "--out", str(out_a)]) == 0
        assert main(["tuner", "--seed", "0", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        (report,) = json.loads(out_a.read_text())
        assert report["status"] == "pass" and report["trajectory"]["transitions"]
        assert "reconverged=ok" in capsys.readouterr().out
