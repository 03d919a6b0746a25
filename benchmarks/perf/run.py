"""CLI for the perf harness: write or check ``BENCH_pipeline.json``.

Write the canonical report (committed at the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.run --out BENCH_pipeline.json

Check a fresh run against the committed report::

    PYTHONPATH=src python -m benchmarks.perf.run --check BENCH_pipeline.json

The check gates on each benchmark's **speedup ratio** (optimized over
baseline), not on absolute throughput: MB/s moves with runner hardware,
but the ratio between two series measured back-to-back on the same
machine is stable.  The default band is generous (±40%) because CI
runners are noisy; a real regression — the encode stage serializing, a
copy chain reappearing — moves the ratio far more than that.  A fresh
optimized series slower than its own baseline by more than the band
fails regardless of the committed numbers.

Benchmarks that declare ``floor_1cpu`` additionally gate the fresh
ratio as a hard floor whenever the fresh run's machine has exactly one
CPU and the run is at canonical scale — no band, no parallel-flag
exemption (scaled-down smoke runs are all startup overhead and are not
floor-gated).  The worker that plans a batch also encodes it, so there
is no hand-off for one core to lose: the shipped pipeline losing to its
baseline there is a bug, not a machine artifact.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.harness import (
    SCHEMA,
    dump,
    remeasure,
    render,
    run_suite,
)


def check(report: dict, committed: dict, band: float) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures: list[str] = []
    if committed.get("schema") != SCHEMA:
        return [f"committed report has schema {committed.get('schema')!r}, "
                f"expected {SCHEMA!r}"]
    same_cpus = (
        report["machine"].get("cpus") == committed["machine"].get("cpus")
    )
    # The 1-CPU floor is a claim about the canonical workload; a scaled-
    # down smoke run is all startup overhead and proves nothing.
    single_core = (
        report["machine"].get("cpus") == 1
        and report.get("scale", 1.0) >= 1.0
    )
    for name, entry in committed["benchmarks"].items():
        fresh = report["benchmarks"].get(name)
        if fresh is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        want, got = entry["speedup"], fresh["speedup"]
        floor = entry.get("floor_1cpu")
        if single_core and floor is not None and got < floor:
            # On one CPU the shipped series must not lose, full stop —
            # the parallel flag's cross-machine leniency does not apply.
            failures.append(
                f"{name}: speedup {got:.2f}x below the {floor:.2f}x "
                "single-core floor"
            )
        if entry.get("parallel") and not same_cpus:
            # The parallel-pipeline ratio scales with core count; against
            # a report from a different machine only the floor applies —
            # more cores must never make the optimized series *slower*.
            if got < want * (1 - band):
                failures.append(
                    f"{name}: speedup {got:.2f}x below the committed "
                    f"{want:.2f}x floor (band {band:.0%}; CPU counts differ: "
                    f"{report['machine'].get('cpus')} vs "
                    f"{committed['machine'].get('cpus')})"
                )
        else:
            low, high = want * (1 - band), want * (1 + band)
            if not low <= got <= high:
                failures.append(
                    f"{name}: speedup {got:.2f}x outside "
                    f"[{low:.2f}x, {high:.2f}x] "
                    f"(committed {want:.2f}x +/- {band:.0%})"
                )
        if got < 1 - band:
            failures.append(
                f"{name}: optimized series is {got:.2f}x of baseline — "
                "slower than the code it replaced"
            )
    return failures


def confirm_outliers(report: dict, committed: dict, band: float) -> list[str]:
    """Re-measure gate violations in isolation before failing the run.

    Mid-suite readings on a shared host can drift outside their gates
    purely from throttling or stolen cycles (the suite pegs the CPU for
    minutes before the later pairs run) — single-core floors squeezed a
    few percent below 1.0x, pure-CPU ratios halved by a frequency dip.
    An isolated re-run of just the violating pairs settles it: a genuine
    regression re-measures out of band again and still fails; a host
    artifact recovers.  Only at canonical scale — a scaled-down smoke
    run is all startup overhead and not worth confirming.  Re-measured
    series replace their entries in ``report`` in place; returns the
    final failure list.
    """
    failures = check(report, committed, band)
    if not failures or report.get("scale", 1.0) < 1.0:
        return failures
    names = {msg.split(":", 1)[0] for msg in failures if ":" in msg}
    confirmed = False
    for name in sorted(names & set(report["benchmarks"])):
        series = remeasure(name)
        if series is None:
            continue
        fresh = report["benchmarks"][name]
        print(
            f"  {name}: {fresh['speedup']:.2f}x violated its gate "
            f"mid-suite; isolated re-measure {series['speedup']:.2f}x"
        )
        fresh.update(series)
        confirmed = True
    return check(report, committed, band) if confirmed else failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the canonical report here")
    parser.add_argument("--check", help="compare a fresh run against this report")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 = canonical sizes)")
    parser.add_argument("--band", type=float, default=0.4,
                        help="allowed relative deviation of each speedup ratio")
    args = parser.parse_args(argv)
    if not args.out and not args.check:
        parser.error("need --out and/or --check")

    report = run_suite(scale=args.scale)
    print(render(report))

    if args.out:
        dump(report, args.out)
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            committed = json.load(fh)
        failures = confirm_outliers(report, committed, args.band)
        if failures:
            print("PERF CHECK FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"perf check passed (band +/-{args.band:.0%} on speedup ratios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
