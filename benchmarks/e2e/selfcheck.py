"""Does the benchmark agree with itself?

Two sets of N full runs of every workload on the current tree, set A and
set B alternating run by run (so host drift lands on both), every run on
another seed.  Per workload and end-to-end metric the report gives each
set's median and quartiles, the spread inside a set, and the gap between
the two medians next to the metric's bound.

The check fails when

* a set's median is worse than the other's by more than the bound, or
* the interquartile spread (``statistics.quantiles(n=4)``, as a share of
  the median) of all 2N runs, or — from ``--runs 10``, the driver's own
  figure: ten runs on ten seeds — of either set, exceeds the bound;
  ``setup_s`` excepted, as in the driver's acceptance rule.

Each set's full range is printed too, and ranges above a tenth are
listed (quartiles of five values are little more than their extremes, so
below ten runs a set's own spread does not gate).  The output is
markdown; ``REPEATABILITY.md`` is this output, committed.
"""

from __future__ import annotations

import statistics
import sys
import time

from benchmarks.e2e import spec

RANGE_FLAG = 0.10


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(amount: float, base: float) -> float:
    return abs(amount / base) if base else 0.0


def selfcheck(runs: int, seconds: float, invoke) -> int:
    if runs < 5:
        raise SystemExit("--selfcheck needs --runs >= 5")
    started = time.time()
    failures: list[str] = []
    flags: list[str] = []
    print("# Repeatability of `benchmarks/e2e`\n")
    print(f"Two sets of {runs} runs per workload, `--seconds {seconds:g}`, "
          "A and B alternating, a new seed every run "
          "(A: 1, 3, 5 …; B: 2, 4, 6 …).\n")
    print("`iqr` and `range` are shares of the median (`iqr A+B`: all runs "
          "pooled); `gap` is how much worse the worse set's median is, as a "
          "share of the other.\n")
    for workload in spec.ALL:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(runs):
            for offset, label in enumerate("AB"):
                result = invoke(workload, 2 * index + 1 + offset, seconds, 0)
                if not result["correct"]:
                    failures.append(
                        f"{workload} seed {2 * index + 1 + offset}: "
                        f"{result['failed']} of {result['attempted']} failed"
                    )
                sets[label].append(result["metrics"])
            print(f"<!-- {workload}: pair {index + 1}/{runs} done -->",
                  file=sys.stderr)
        print(f"## {workload}\n")
        print("| metric | unit | A q1 / median / q3 | B q1 / median / q3 "
              "| iqr A | iqr B | iqr A+B | range A | range B | gap | bound | |")
        print("|---|---|---|---|---|---|---|---|---|---|---|---|")
        for metric in spec.END_TO_END:
            column = {
                label: [m[metric.name]["value"] for m in sets[label]]
                for label in "AB"
            }
            stats = {label: _quartiles(column[label]) for label in "AB"}
            medians = {label: stats[label][1] for label in "AB"}
            iqr = {label: _share(stats[label][2] - stats[label][0],
                                 medians[label]) for label in "AB"}
            spread = {label: _share(max(column[label]) - min(column[label]),
                                    medians[label]) for label in "AB"}
            both = _quartiles(column["A"] + column["B"])
            pooled = _share(both[2] - both[0], both[1])
            if metric.better == "lower":
                best, worst = min(medians.values()), max(medians.values())
            else:
                best, worst = max(medians.values()), min(medians.values())
            gap = _share(worst - best, best)
            verdict = "ok"
            if gap > metric.bound:
                verdict = "GAP"
                failures.append(f"{workload}/{metric.name}: medians "
                                f"{gap:.1%} apart, bound {metric.bound:.0%}")
            widest = max(pooled, *(iqr.values() if runs >= 10 else ()))
            if metric.name != "setup_s" and widest > metric.bound:
                verdict = "SPREAD"
                failures.append(f"{workload}/{metric.name}: iqr {widest:.1%}, "
                                f"bound {metric.bound:.0%}")
            elif metric.name != "setup_s" and widest > metric.bound / 3:
                verdict = "thin"
            if max(spread.values()) > RANGE_FLAG:
                flags.append(f"{workload}/{metric.name}: range "
                             f"{max(spread.values()):.1%}")
                if verdict == "ok":
                    verdict = "wide"
            cells = " | ".join(
                "{:.5g} / {:.5g} / {:.5g}".format(*stats[label])
                for label in "AB"
            )
            print(f"| `{metric.name}` | {metric.unit} | {cells} "
                  f"| {iqr['A']:.1%} | {iqr['B']:.1%} | {pooled:.1%} "
                  f"| {spread['A']:.1%} | {spread['B']:.1%} "
                  f"| {gap:.1%} | {metric.bound:.0%} | {verdict} |")
        print()
    print(f"Took {time.time() - started:.0f} s.\n")
    if flags:
        print("Ranges above a tenth inside one set (reported, not gating):\n")
        for line in flags:
            print(f"- {line}")
        print()
    if failures:
        print("**FAILED**\n")
        for line in failures:
            print(f"- {line}")
        return 1
    print("**PASSED**: every gap between the sets' medians and every "
          "interquartile spread is inside its bound (`thin`: above a third "
          "of it).")
    return 0
