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
