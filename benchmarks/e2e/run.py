"""The repo's benchmark: one command, one workload, every metric by name.

    python3 benchmarks/e2e/run.py --workload tpcc_relaxed --seed 1 \\
        --seconds 24 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e.run --workload all
    PYTHONPATH=src python -m benchmarks.e2e.run --selfcheck --runs 5

Builds the real stack (workloads → MiniDB → InterposedFS → commit
pipeline → reactor/transport → simulated cloud) next to an unprotected
twin, alternates slices on the two, checks the outputs with the repo's
own oracles, and prints each metric with its unit followed — as the last
line of standard output — by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload with spans on and reports the per-layer metrics (see
README.md).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Runnable as a plain script from a bare checkout: the package under
# test lives in src/, this package under the checkout root.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import spec  # noqa: E402


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*spec.ALL, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds of slices at scale 1")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink run length and input sizes (smoke test)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of full runs of every "
                             "workload; exit 1 if they disagree")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload for --selfcheck")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    return args


def _print(result) -> None:
    kind = "per-layer (traced)" if result.traced else "end-to-end"
    print(f"== {result.workload}: {kind} ==")
    for name, entry in result.metrics.items():
        print(f"{name:48} {entry['value']:>16.6g} {entry['unit']}")
    for note in result.notes:
        print(f"  {note}")
    print(f"  attempted {result.attempted}, failed {result.failed}, "
          f"{'correct' if result.correct else 'NOT CORRECT'}")


def invoke(workload: str, seed: int, seconds: float, trace: int,
           scale: float = 1.0) -> dict:
    """One run in a process of its own; returns the contract object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", str(scale)],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process;
    one contract-shaped JSON file per run under out/."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ok = True
    for workload in spec.ALL:
        for trace in (0, 1):
            result = invoke(workload, args.seed, args.seconds, trace,
                            args.scale)
            name = f"{workload}{'_trace' if trace else ''}.json"
            (out / name).write_text(json.dumps(result, indent=1) + "\n")
            ok = ok and result["correct"]
            print(f"{workload:14} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" -> out/{name}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:46} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.selfcheck:
        from benchmarks.e2e.selfcheck import selfcheck
        return selfcheck(args.runs, args.seconds, invoke)
    if args.workload == "all":
        return _run_all(args)
    from benchmarks.e2e.runner import make_bench, run_bench

    bench = make_bench(args.workload, args.seed, args.scale, bool(args.trace))
    result = run_bench(bench, args.seconds,
                       import_s=time.perf_counter() - _STARTED)
    _print(result)
    print(json.dumps(result.contract()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
