"""``scripts/bench_compare.py``: the folding of runs into rows.

The runs themselves are the benchmark's (minutes each); what is checked
here is what the script does with their numbers — in particular that a
per-layer metric, which declares a direction but no bound, is tabulated
and never gated.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = {"name": "vs_native", "better": "higher", "bound": 0.25}
LAYER = {"name": "storage.interposer.cross_us_per_op", "unit": "us",
         "better": "lower"}


class TestJudge:
    def test_an_end_to_end_metric_beyond_its_bound_is_a_regression(
            self, bench_compare):
        row = bench_compare.judge(END_TO_END, [0.8, 0.82, 0.81],
                                  [0.5, 0.52, 0.51])
        assert row["verdict"] == "REGRESSION"
        assert row["won"] == 0 and row["lost"] == 3

    def test_a_per_layer_metric_has_a_gap_and_pairs_but_no_verdict(
            self, bench_compare):
        halved = bench_compare.judge(LAYER, [848.0, 860.0, 852.0],
                                     [430.0, 434.0, 436.0])
        assert halved["verdict"] == ""
        assert halved["won"] == 3 and halved["lost"] == 0
        assert halved["gap"] == pytest.approx(434.0 / 852.0 - 1.0)
        doubled = bench_compare.judge(LAYER, [430.0, 434.0], [860.0, 870.0])
        assert doubled["verdict"] == ""         # worse, reported, not gated
        assert doubled["gap"] > 0.25

    def test_markdown_prints_the_missing_bound_as_none(self, bench_compare):
        rows = {LAYER["name"]: bench_compare.judge(LAYER, [848.0, 852.0],
                                                   [430.0, 434.0])}
        table = bench_compare.markdown({"tpcc_relaxed": rows}, [LAYER])
        assert "`storage.interposer.cross_us_per_op`" in table
        assert "/ none, 2–0" in table


class TestLayersOption:
    def test_an_undeclared_layer_name_is_refused_before_anything_runs(
            self, bench_compare, capsys):
        with pytest.raises(SystemExit) as refused:
            bench_compare.main(["HEAD", "--layers",
                                "storage.interposer.cross_us_per_op,nope"])
        assert refused.value.code == 2
        assert "nope" in capsys.readouterr().err


class TestClaimOption:
    """``--claim`` through ``main``, with the minutes-long runs replaced
    by canned results: the parent ships ~7.2 kB an op, the change what
    the case says, every other metric the same on both sides."""

    @pytest.fixture
    def compare(self, bench_compare, monkeypatch):
        def run(change_bytes: float) -> int:
            def run_once(command, cwd, workload, seed, seconds, trace):
                shipped = 7200.0 if cwd != bench_compare.ROOT else change_bytes
                metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
                metrics["shipped_bytes_per_op"] = {"value": shipped + 7 * seed}
                return {"correct": True, "attempted": 100, "failed": 0,
                        "metrics": metrics}

            spec = bench_compare.json.loads(
                (bench_compare.ROOT / "BENCHMARK.json").read_text())
            monkeypatch.setattr(bench_compare, "export", lambda rev, target: None)
            monkeypatch.setattr(bench_compare, "run_once", run_once)
            return bench_compare.main(
                ["HEAD", "--workload", "tpcc_tight", "--pairs", "10",
                 "--claim", "tpcc_tight/shipped_bytes_per_op"])
        return run

    def test_a_claim_the_runs_bear_out_passes(self, compare, capsys):
        assert compare(5300.0) == 0
        assert "claim tpcc_tight/shipped_bytes_per_op: met" in capsys.readouterr().out

    def test_a_claimed_row_that_is_merely_flat_fails(self, compare, capsys):
        """No regression anywhere — and still exit 1: the claim is the
        gate."""
        assert compare(7200.0) == 1
        out = capsys.readouterr().out
        assert "NOT MET (verdict 'ok'" in out and "REGRESSION" not in out

    def test_a_claim_on_a_row_the_comparison_does_not_gate_is_refused(
            self, bench_compare, capsys):
        with pytest.raises(SystemExit) as refused:
            bench_compare.main(["HEAD", "--workload", "restore",
                                "--claim", "tpcc_tight/shipped_bytes_per_op"])
        assert refused.value.code == 2
        assert "tpcc_tight/shipped_bytes_per_op" in capsys.readouterr().err
