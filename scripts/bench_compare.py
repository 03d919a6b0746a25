#!/usr/bin/env python3
"""Compare the working tree against a git revision on the repo's benchmark.

    python3 scripts/bench_compare.py HEAD~1
    python3 scripts/bench_compare.py <rev> --pairs 10 --workload tpcc_tight
    python3 scripts/bench_compare.py <rev> --pairs 3 --workload tpcc_relaxed \
        --layers storage.interposer.cross_us_per_op,db.self_us_per_op

Reads ``BENCHMARK.json`` (command, run length, workloads, end-to-end
metrics with their direction and bound), exports ``<rev>`` into a
temporary directory and runs the benchmark's own command on both sides,
one pair of runs at a time: each pair takes a new seed, both sides of a
pair run that seed back to back, and which side goes first alternates —
the host drifts by a third over tens of minutes, so only runs that
alternate in time compare.

Prints, per workload and metric, both medians with their quartiles, how
many pairs the change won, the gap between the medians and the
benchmark's bound.  Exits 1 when a run was not ``correct``, when the
change failed a larger share of operations, or when a change median is
worse than the parent's by more than the bound; a spread wider than the
bound is reported as unresolved, not as unchanged.  ``--markdown`` adds
the table CHANGES.md entries quote.

``--claim WORKLOAD/METRIC`` judges a gain the way the pipeline that
accepts a change does: on top of the exits above, exit 1 unless that
row's verdict is ``better`` — at least ten pairs, nine in ten of the
decided ones won, medians further apart than the parent's quartiles.

``--layers NAME[,NAME…]`` runs the same alternating pairs with the
benchmark's ``--trace 1`` and tabulates the named per-layer metrics the
same way.  Per-layer metrics have no bound, so nothing there is gated:
the table says where a saving or a cost sits, and only a run that was
not ``correct`` fails the comparison.

The parent comes from ``git archive`` piped into ``tar``, not from
``git worktree add``: an interrupted comparison then leaves nothing
registered in ``.git``, and the benchmark is built from committed files
in a fresh directory, which is how it is judged.  Standard library
only; nothing here touches the network.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: Fewer pairs than this can show a regression but never a gain.
MIN_PAIRS_FOR_A_GAIN = 10


def export(rev: str, target: Path) -> None:
    """Unpack the committed files of ``rev`` under ``target``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(command: list[str], cwd: Path, workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One benchmark run; the last line of its stdout is the result."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} in {cwd} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One workload × metric row: medians, quartiles, pairs, verdict
    (no verdict for a per-layer metric, which declares no bound)."""
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    lost = sum(1 for p, c in zip(parent, change) if (c > p if lower else c < p))
    # Positive gap = the change is worse, as a share of the parent.
    gap = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
    spread = max(p_q3 - p_q1, c_q3 - c_q1) / abs(p_med) if p_med else 0.0
    separated = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    bound = metric.get("bound")
    if bound is None:
        verdict = ""
    elif gap > bound:
        verdict = "REGRESSION"
    elif spread > bound and not separated:
        verdict = "unresolved"
    elif (len(parent) >= MIN_PAIRS_FOR_A_GAIN and won >= 0.9 * (won + lost)
          and won > 0 and abs(c_med - p_med) > (p_q3 - p_q1)):
        verdict = "better"
    else:
        verdict = "ok"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "won": won, "lost": lost, "gap": gap, "verdict": verdict,
    }


def fmt(triple: tuple[float, float, float]) -> str:
    median, q1, q3 = triple
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def bound_of(metric: dict) -> str:
    return f"{metric['bound']:.0%}" if "bound" in metric else "none"


def report(workload: str, rows: dict[str, dict], metrics: list[dict],
           pairs: int) -> None:
    width = max(22, *(len(m["name"]) for m in metrics))
    print(f"\n== {workload}: {pairs} pair(s), median [q1, q3]; "
          f"gap > 0 means the change is worse ==")
    print(f"{'metric':{width}} {'parent':>28} {'change':>28} "
          f"{'won/lost':>9} {'gap':>8} {'bound':>6}  verdict")
    for metric in metrics:
        row = rows[metric["name"]]
        print(f"{metric['name']:{width}} {fmt(row['parent']):>28} "
              f"{fmt(row['change']):>28} "
              f"{row['won']:>4}/{row['lost']:<4} {row['gap']:>+8.1%} "
              f"{bound_of(metric):>6}  {row['verdict']}")


def markdown(table: dict[str, dict[str, dict]], metrics: list[dict]) -> str:
    names = [m["name"] for m in metrics]
    lines = [
        "| workload | side | " + " | ".join(f"`{n}`" for n in names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for workload, rows in table.items():
        for side in SIDES:
            cells = " | ".join(fmt(rows[n][side]) for n in names)
            label = f"`{workload}`" if side == "parent" else ""
            lines.append(f"| {label} | {side} | {cells} |")
        cells = " | ".join(
            f"{rows[m['name']]['gap']:+.1%} / {bound_of(m)}, "
            f"{rows[m['name']]['won']}–{rows[m['name']]['lost']}"
            for m in metrics
        )
        lines.append(f"| | gap / bound, pairs won–lost | {cells} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--layers", metavar="NAME[,NAME…]",
                        help="traced runs: tabulate these per-layer metrics "
                             "instead of the end-to-end ones (no gate)")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="also exit 1 unless this end-to-end row's "
                             "verdict is 'better'")
    parser.add_argument("--markdown", action="store_true",
                        help="also print the table as markdown")
    parser.add_argument("--json-out", type=Path,
                        help="write every run's result object here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload or known
    metrics = spec["end_to_end"]
    if args.layers:
        declared = {m["name"]: m for m in spec["per_layer"]}
        names = args.layers.split(",")
        unknown = [n for n in names if n not in declared]
        if unknown:
            parser.error(f"not per-layer metrics of BENCHMARK.json: {unknown}")
        metrics = [declared[n] for n in names]
    if args.claim:
        claimed = tuple(args.claim.split("/"))
        rows = {(w, m["name"]) for w in workloads for m in metrics
                if "bound" in m}
        if claimed not in rows:
            parser.error(f"--claim {args.claim}: not a workload/metric this "
                         f"comparison gates")
    seconds = spec["run_seconds"]

    started = time.monotonic()
    runs: dict[str, dict[str, list[dict]]] = {
        w: {side: [] for side in SIDES} for w in workloads
    }
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        export(args.rev, Path(tmp))
        where = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(spec["command"], where[side], workload,
                                      args.seed + pair, seconds,
                                      trace=1 if args.layers else 0)
                    runs[workload][side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {workload:14} "
                      f"{order[0]} first, {time.monotonic() - started:6.0f} s",
                      file=sys.stderr, flush=True)
    if args.json_out:
        args.json_out.write_text(json.dumps(runs, indent=1) + "\n")

    failed = False
    table: dict[str, dict[str, dict]] = {}
    for workload in workloads:
        sides = runs[workload]
        rows = {
            m["name"]: judge(
                m,
                [r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                [r["metrics"][m["name"]]["value"] for r in sides["change"]],
            )
            for m in metrics
        }
        table[workload] = rows
        report(workload, rows, metrics, args.pairs)
        share = {
            side: sum(r["failed"] for r in sides[side])
            / max(1, sum(r["attempted"] for r in sides[side]))
            for side in SIDES
        }
        wrong = [side for side in SIDES
                 if not all(r["correct"] for r in sides[side])]
        print(f"  failed share: parent {share['parent']:.4%}, "
              f"change {share['change']:.4%}; "
              f"{'NOT CORRECT on ' + ', '.join(wrong) if wrong else 'every run correct'}")
        failed = failed or bool(wrong) or share["change"] > share["parent"]
        failed = failed or any(r["verdict"] == "REGRESSION" for r in rows.values())
    if args.claim:
        verdict = table[claimed[0]][claimed[1]]["verdict"]
        print(f"\nclaim {args.claim}: "
              f"{'met' if verdict == 'better' else 'NOT MET'} "
              f"(verdict {verdict!r}, {args.pairs} pair(s))")
        failed = failed or verdict != "better"
    if args.markdown:
        print("\n" + markdown(table, metrics))
    print(f"\n{'FAIL' if failed else 'PASS'} in {time.monotonic() - started:.0f} s",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
