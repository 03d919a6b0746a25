"""Command-line interface: ``ginja-repro``.

Subcommands:

* ``cost``    — price a deployment with the §7 cost model;
* ``frontier``— print the Figure-1 $budget capacity frontier;
* ``demo``    — run the protect → disaster → recover story end to end;
* ``recover`` — rebuild database files from a directory-backed bucket;
* ``verify``  — §5.4 backup verification against a directory bucket;
* ``fsck``    — audit a bucket against the recoverability invariant
  catalog (:mod:`repro.fsck`) and optionally repair it; the exit code
  is the (remaining) violation count;
* ``fleet``   — multi-tenant fleet drill (:mod:`repro.chaos.fleet_drill`):
  N simulated tenants share one bucket, one reactor and one transport
  stack, with a mid-run tenant disaster, per-tenant fsck, and exact
  per-tenant billing attribution;
* ``chaos``   — run a deterministic disaster-drill campaign
  (scenario × crash point × seed) and judge it with the RPO /
  recovery / GC / billing oracles; ``--dump-buckets`` persists each
  crash-point disaster image as a directory bucket for offline fsck;
* ``placement`` / ``tuner`` — the provider-outage and latency-shift
  drills, reported by the same printer as ``fleet``.

The ``recover``/``verify``/``fsck`` commands operate on
:class:`~repro.cloud.DirectoryObjectStore` buckets (one file per
object), which is what the examples and the demo write when given
``--bucket-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cloud.directory import DirectoryObjectStore
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.pricing import (
    AZURE_BLOB_2017,
    GOOGLE_STORAGE_2017,
    PriceBook,
    S3_STANDARD_2017,
)
from repro.common.errors import ConfigError
from repro.common.units import parse_bytes
from repro.core.config import GinjaConfig, SharedPoolConfig
from repro.core.events import (
    Event,
    OBJECT_RESTORED,
    RECOVERY_DONE,
    RECOVERY_PLANNED,
    TraceRecorder,
)
from repro.core.ginja import Ginja
from repro.core.verification import verify_backup
from repro.costmodel.budget import BudgetFrontier
from repro.costmodel.model import GinjaCostModel, WorkloadSpec
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.metrics.tables import TextTable
from repro.storage.local import LocalDirectoryFS
from repro.storage.memory import MemoryFileSystem

_PROVIDERS: dict[str, PriceBook] = {
    "s3": S3_STANDARD_2017,
    "azure": AZURE_BLOB_2017,
    "gcs": GOOGLE_STORAGE_2017,
}

_PROFILES = {"postgres": POSTGRES_PROFILE, "mysql": MYSQL_PROFILE}


def _profile(name: str):
    return _PROFILES[name]


# ---------------------------------------------------------------------------
# subcommands


def cmd_cost(args: argparse.Namespace) -> int:
    """Price a deployment with the §7 cost model."""
    model = GinjaCostModel(_PROVIDERS[args.provider])
    spec = WorkloadSpec(
        db_size_gb=args.db_gb,
        updates_per_minute=args.updates_per_minute,
        checkpoint_period_min=args.checkpoint_minutes,
        compression_ratio=args.compression_ratio,
    )
    breakdown = model.monthly_cost(spec, args.batch)
    table = TextTable(["component", "$/month"],
                      title=f"Ginja monthly cost ({model.prices.name})")
    for name, value in breakdown.as_row().items():
        table.add(name, value)
    if args.snapshots:
        table.add(f"PITR x{args.snapshots} snapshots",
                  model.pitr_storage_cost(spec, args.snapshots))
    print(table)
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    """Print the Figure-1 capacity frontier for a budget."""
    frontier = BudgetFrontier(
        args.budget, _PROVIDERS[args.provider],
        storage_overhead=1.25,
    )
    table = TextTable(
        ["syncs/hour", "max DB size (GB)"],
        title=f"${args.budget:.2f}/month capacity frontier "
              f"({_PROVIDERS[args.provider].name})",
    )
    for point in frontier.curve(max_rate_per_hour=args.max_rate, steps=11):
        table.add(f"{point.syncs_per_hour:.0f}", point.max_db_size_gb)
    print(table)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the protect -> disaster -> recover story end to end."""
    profile = _profile(args.profile)
    if args.bucket_dir:
        bucket = DirectoryObjectStore(args.bucket_dir)
        if bucket.list():
            print(f"error: bucket directory {args.bucket_dir!r} is not empty",
                  file=sys.stderr)
            return 2
    else:
        bucket = InMemoryObjectStore()
    engine_config = EngineConfig(wal_segment_size=parse_bytes(args.segment_size))
    disk = MemoryFileSystem()
    MiniDB.create(disk, profile, engine_config).close()
    config = GinjaConfig(batch=args.batch, safety=args.safety,
                         batch_timeout=0.2, safety_timeout=5.0)
    ginja = Ginja(disk, bucket, profile, config)
    trace: TraceRecorder | None = None
    if args.trace:
        # Subscribe before start so the boot uploads are in the trace.
        trace = TraceRecorder().attach(ginja.bus)
    ginja.start(mode="boot")
    db = MiniDB.open(ginja.fs, profile, engine_config)
    print(f"committing {args.rows} rows through Ginja "
          f"(B={args.batch}, S={args.safety})...")
    for i in range(args.rows):
        db.put("demo", f"row-{i}", f"value-{i}".encode())
    db.checkpoint()
    ginja.drain(timeout=60.0)
    print(f"  bucket: {len(bucket.list())} objects; "
          f"health: {ginja.health()}")
    ginja.stop()
    if trace is not None:
        print(trace.render())
    print("simulating a disaster and recovering...")
    target = MemoryFileSystem()
    ginja2, report = Ginja.recover(bucket, target, profile, config)
    recovered = MiniDB.open(ginja2.fs, profile, engine_config)
    ok = sum(1 for i in range(args.rows)
             if recovered.get("demo", f"row-{i}") == f"value-{i}".encode())
    print(f"  recovered {ok}/{args.rows} rows "
          f"({report.files_restored} files, "
          f"{report.wal_objects_applied} WAL objects; "
          f"{ginja2.stats.objects_restored} objects / "
          f"{ginja2.stats.restored_bytes} bytes downloaded)")
    ginja2.stop()
    return 0 if ok == args.rows else 1


def _recovery_progress(event: Event) -> None:
    """Narrate the recovery engine's events (``recover --progress``)."""
    if event.kind == RECOVERY_PLANNED:
        print(f"  plan: {event.count} objects ({event.detail})")
    elif event.kind == OBJECT_RESTORED:
        print(f"  [{event.count}] {event.verb:10} {event.key} "
              f"({event.nbytes} bytes)")
    elif event.kind == RECOVERY_DONE:
        print(f"  done: {event.count} objects, {event.nbytes} bytes "
              f"in {event.latency:.2f}s")


def cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild database files from a directory-backed bucket."""
    bucket = DirectoryObjectStore(args.bucket_dir)
    if not bucket.list():
        print(f"error: no objects under {args.bucket_dir!r}", file=sys.stderr)
        return 2
    target = LocalDirectoryFS(args.data_dir)
    if target.files():
        print(f"error: target directory {args.data_dir!r} is not empty",
              file=sys.stderr)
        return 2
    config = GinjaConfig(
        compress=args.compress, encrypt=bool(args.password),
        password=args.password, downloaders=args.downloaders,
    )
    ginja, report = Ginja.recover(
        bucket, target, _profile(args.profile), config,
        on_event=_recovery_progress if args.progress else None,
    )
    ginja.stop()
    print(f"restored {report.files_restored} files from dump ts="
          f"{report.dump_ts}; applied {report.checkpoints_applied} "
          f"checkpoints and {report.wal_objects_applied} WAL objects "
          f"({report.bytes_downloaded} bytes downloaded, "
          f"{args.downloaders} downloaders)")
    return 0


def cmd_ls(args: argparse.Namespace) -> int:
    """Summarize a bucket's Ginja contents and health."""
    from repro.core.inspect import bucket_inventory

    bucket = DirectoryObjectStore(args.bucket_dir)
    inventory = bucket_inventory(bucket)
    print(inventory.summary())
    return 0 if inventory.recoverable else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Run §5.4 backup verification against a bucket."""
    bucket = DirectoryObjectStore(args.bucket_dir)
    config = GinjaConfig(
        compress=args.compress, encrypt=bool(args.password),
        password=args.password,
    )
    engine_config = EngineConfig(
        wal_segment_size=parse_bytes(args.segment_size)
    )
    report = verify_backup(bucket, _profile(args.profile), config,
                           engine_config=engine_config)
    print(report.summary())
    for error in report.errors:
        print(f"  error: {error}")
    return 0 if report.ok else 1


def cmd_fsck(args: argparse.Namespace) -> int:
    """Audit a bucket's recoverability invariants; optionally repair."""
    from repro.core.pitr import RetentionPolicy
    from repro.fsck import audit, repair

    bucket = DirectoryObjectStore(args.bucket_dir)
    retention = (
        RetentionPolicy(generations=args.retention)
        if args.retention is not None else None
    )
    report = audit(bucket, retention=retention)
    repair_report = None
    if args.repair and not report.ok:
        repair_report = repair(bucket, mode="conservative",
                               retention=retention)
        # Convergence check: the exit code reflects what repair could
        # not fix, which CI asserts is zero for disaster images.
        report = audit(bucket, retention=retention)
    if args.json:
        payload = {"audit": report.to_json()}
        if repair_report is not None:
            payload["repair"] = repair_report.to_json()
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"{args.bucket_dir}: {report.summary()}")
        for violation in report.violations:
            print(f"  {violation.rule}: {violation.key} ({violation.detail})")
        if repair_report is not None:
            skipped = (
                f", {len(repair_report.skipped)} delete(s) skipped"
                if repair_report.skipped else ""
            )
            print(f"repair: deleted {len(repair_report.deleted)} "
                  f"object(s){skipped}; "
                  f"{report.violation_count} violation(s) remain")
    # Exit code = violation count, capped so a pathological bucket does
    # not wrap around the byte-sized exit status back to "clean".
    return min(report.violation_count, 99)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a disaster-drill campaign (or the oracle mutation check)."""
    from repro.chaos import SCENARIOS, run_campaign
    from repro.chaos.campaign import mutation_check

    if args.list:
        from repro.chaos.crashpoints import CRASH_POINTS

        table = TextTable(["scenario", "description"],
                          title="chaos scenarios")
        for scenario in SCENARIOS.values():
            table.add(scenario.name, scenario.description)
        print(table)
        table = TextTable(["crash point", "description"],
                          title="crash points")
        for point in CRASH_POINTS.values():
            table.add(point.name, point.description)
        print(table)
        return 0

    if args.mutation_check:
        outcome = mutation_check(seed=args.mutation_seed)
        print(outcome["mutant"].summary())
        print(outcome["control"].summary())
        if outcome["detected"]:
            print("mutation check: RPO oracle flagged the unbounded-S "
                  "mutant and passed the bounded control — oracle has "
                  "teeth")
            return 0
        print("mutation check FAILED: the RPO oracle did not distinguish "
              "the mutant from the control", file=sys.stderr)
        return 1

    scenarios = None
    if args.scenario:
        unknown = [name for name in args.scenario if name not in SCENARIOS]
        if unknown:
            print(f"error: unknown scenario(s) {unknown}; see "
                  f"'ginja-repro chaos --list'", file=sys.stderr)
            return 2
        scenarios = [SCENARIOS[name] for name in args.scenario]
    report = run_campaign(
        scenarios,
        crash_points=args.crash_point or None,
        seeds=range(args.seeds),
        jobs=args.jobs,
        shrink=not args.no_shrink,
        progress=(lambda line: print(f"  {line}")) if args.verbose else None,
    )
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.out}")
    if args.dump_buckets:
        for result in report.results:
            name = f"{result.scenario}__{result.crash_point}__{result.seed}"
            image = DirectoryObjectStore(os.path.join(args.dump_buckets, name))
            for key, body in sorted(result.snapshot.items()):
                image.put(key, body)
        print(f"{len(report.results)} disaster image(s) written under "
              f"{args.dump_buckets}")
    return 0 if report.ok else 1


def _report_drills(results: list, *, as_json: bool = False,
                   out: str = "") -> int:
    """The one printer of the phased drills (placement, tuner, fleet).

    One summary line per drill on stdout, each failed check's detail on
    stderr; ``--json`` / ``--out`` print / write the canonical report
    (config, booleans and — for the tuner — the trajectory read at a
    settled point; byte-identical across reruns of the same seeds, the
    CI determinism check relies on this).  Exit 0 only if every check
    of every drill passed.
    """
    for result in results:
        print(result.summary())
        for check in result.failures:
            print(f"    {check.name}: {check.detail}", file=sys.stderr)
    report = json.dumps(
        [result.canonical() for result in results],
        indent=2, sort_keys=True,
    )
    if as_json:
        print(report)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"report written to {out}")
    failed = sum(1 for result in results if not result.ok)
    if failed:
        print(f"{failed}/{len(results)} drill(s) FAILED", file=sys.stderr)
    return 1 if failed else 0


def cmd_placement(args: argparse.Namespace) -> int:
    """The §6 provider-outage drill (:mod:`repro.chaos.placement_drill`)
    once per seed, or with ``--costs`` the $/month policy comparison."""
    from repro.chaos.placement_drill import run_placement_drill
    from repro.costmodel import placement_comparison, render_comparison

    if args.costs:
        rows = placement_comparison(
            db_gb=args.db_gb, puts_per_month=args.puts_per_month,
        )
        print(f"monthly placement costs at {args.db_gb} GB, "
              f"{args.puts_per_month} synchronizations/month:")
        print(render_comparison(rows))
        return 0
    results = [
        run_placement_drill(
            providers=args.providers, placement=args.placement, seed=seed,
            rows=args.rows, kill_row=args.kill_row,
        )
        for seed in (args.seed or [0])
    ]
    return _report_drills(results, as_json=args.json, out=args.out)


def cmd_tuner(args: argparse.Namespace) -> int:
    """The latency-shift drill (:mod:`repro.chaos.tuner_drill`) once per
    seed: the batch tuner must re-converge inside budget at RPO 0."""
    from repro.chaos.tuner_drill import run_tuner_drill

    results = [
        run_tuner_drill(
            seed=seed, rows_before=args.rows_before,
            rows_after=args.rows_after, shift_factor=args.shift_factor,
        )
        for seed in (args.seed or [0])
    ]
    return _report_drills(results, as_json=args.json, out=args.out)


def cmd_fleet(args: argparse.Namespace) -> int:
    """The multi-tenant fleet drill (:mod:`repro.chaos.fleet_drill`);
    ``--census-out`` writes its thread census (peak, name-prefix
    breakdown, samples, tenants, budget) as JSON for CI."""
    from repro.chaos.fleet_drill import run_fleet_drill

    result = run_fleet_drill(
        tenants=args.tenants, rows=args.rows, batch=args.batch,
        safety=args.safety, downloaders=args.downloaders, jobs=args.jobs,
        seed=args.seed,
        profile=_profile(args.profile),
        segment_size=parse_bytes(args.segment_size),
        thread_budget=args.thread_budget,
    )
    census = result.extras["census"]
    print(f"thread census: peak {census['peak']} threads over "
          f"{census['samples']} samples {census['peak_by_prefix']}")
    if args.census_out:
        with open(args.census_out, "w", encoding="utf-8") as handle:
            json.dump(census, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"census written to {args.census_out}")
    return _report_drills([result])


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """The ginja-repro argument parser (used by tests and main)."""
    parser = argparse.ArgumentParser(
        prog="ginja-repro",
        description="Ginja (Middleware'17) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="price a deployment (§7 model)")
    cost.add_argument("--db-gb", type=float, default=10.0)
    cost.add_argument("--updates-per-minute", type=float, default=100.0)
    cost.add_argument("--batch", type=int, default=100)
    cost.add_argument("--checkpoint-minutes", type=float, default=60.0)
    cost.add_argument("--compression-ratio", type=float, default=1.43)
    cost.add_argument("--snapshots", type=int, default=0)
    cost.add_argument("--provider", choices=sorted(_PROVIDERS), default="s3")
    cost.set_defaults(func=cmd_cost)

    frontier = sub.add_parser("frontier",
                              help="budget capacity frontier (Figure 1)")
    frontier.add_argument("--budget", type=float, default=1.0)
    frontier.add_argument("--max-rate", type=float, default=250.0)
    frontier.add_argument("--provider", choices=sorted(_PROVIDERS),
                          default="s3")
    frontier.set_defaults(func=cmd_frontier)

    demo = sub.add_parser("demo", help="protect → disaster → recover demo")
    demo.add_argument("--profile", choices=sorted(_PROFILES),
                      default="postgres")
    demo.add_argument("--rows", type=int, default=200)
    demo.add_argument("--batch", type=int, default=10)
    demo.add_argument("--safety", type=int, default=100)
    demo.add_argument("--segment-size", default="1MB")
    demo.add_argument("--bucket-dir", default="",
                      help="persist the bucket as files here")
    demo.add_argument("--trace", action="store_true",
                      help="dump the cloud-transport event trace "
                           "(per-verb latency, retries) after the run")
    demo.set_defaults(func=cmd_demo)

    recover = sub.add_parser("recover",
                             help="rebuild database files from a bucket")
    recover.add_argument("bucket_dir")
    recover.add_argument("data_dir")
    recover.add_argument("--profile", choices=sorted(_PROFILES),
                         default="postgres")
    recover.add_argument("--compress", action="store_true")
    recover.add_argument("--password", default=None)
    recover.add_argument("--downloaders", type=int, default=4,
                         help="parallel recovery download threads "
                              "(1 = sequential)")
    recover.add_argument("--progress", action="store_true",
                         help="narrate the restore object by object "
                              "(the recovery engine's events)")
    recover.set_defaults(func=cmd_recover)

    ls = sub.add_parser("ls", help="inspect a bucket's Ginja contents")
    ls.add_argument("bucket_dir")
    ls.set_defaults(func=cmd_ls)

    verify = sub.add_parser("verify", help="backup verification (§5.4)")
    verify.add_argument("bucket_dir")
    verify.add_argument("--profile", choices=sorted(_PROFILES),
                        default="postgres")
    verify.add_argument("--segment-size", default="1MB")
    verify.add_argument("--compress", action="store_true")
    verify.add_argument("--password", default=None)
    verify.set_defaults(func=cmd_verify)

    fsck = sub.add_parser(
        "fsck",
        help="audit a bucket's recoverability invariants "
             "(exit code = violation count)",
    )
    fsck.add_argument("bucket_dir")
    fsck.add_argument("--repair", action="store_true",
                      help="conservatively delete provably-stale objects, "
                           "then re-audit (exit code = remaining violations)")
    fsck.add_argument("--json", action="store_true",
                      help="emit the audit (and repair) report as JSON")
    fsck.add_argument("--retention", type=int, default=None, metavar="N",
                      help="the bucket's PITR retention generations; omit "
                           "when unknown (superseded dump generations are "
                           "then never flagged or deleted)")
    fsck.set_defaults(func=cmd_fsck)

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet drill: shared pools, one bucket, "
             "per-tenant recovery/fsck/billing (exit 0 iff all checks pass)",
    )
    fleet.add_argument("--tenants", type=int, default=50)
    fleet.add_argument("--rows", type=int, default=30,
                       help="rows each tenant commits")
    fleet.add_argument("--batch", type=int, default=5)
    fleet.add_argument("--safety", type=int, default=50)
    fleet.add_argument("--downloaders", type=int,
                       default=SharedPoolConfig.downloaders,
                       help="concurrent GETs per restore (the restoring "
                            "thread plus helpers); the fleet's restores "
                            "together hold at most this many helper "
                            "threads")
    fleet.add_argument("--jobs", type=int, default=8,
                       help="concurrent commit driver threads")
    fleet.add_argument("--seed", type=int, default=0,
                       help="selects which tenant suffers the disaster")
    fleet.add_argument("--profile", choices=sorted(_PROFILES),
                       default="postgres")
    fleet.add_argument("--segment-size", default="64KB")
    fleet.add_argument("--thread-budget", type=int, default=0,
                       help="fail the drill if the peak live thread count "
                            "ever exceeds this (0 = report only); the "
                            "upload reactor's O(1)-upload-threads guard")
    fleet.add_argument("--census-out", default="",
                       help="write the thread census (peak, name-prefix "
                            "breakdown) as JSON here")
    fleet.set_defaults(func=cmd_fleet)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic disaster-drill campaign with RPO/recovery/"
             "GC/billing oracles",
    )
    chaos.add_argument("--seeds", type=int, default=3,
                       help="sweep seeds 0..N-1 (default 3)")
    chaos.add_argument("--scenario", action="append", default=[],
                       metavar="NAME",
                       help="restrict to these scenarios (repeatable)")
    chaos.add_argument("--crash-point", action="append", default=[],
                       metavar="NAME",
                       help="override every scenario's crash points "
                            "(repeatable)")
    chaos.add_argument("--jobs", type=int, default=4,
                       help="concurrent drills (default 4)")
    chaos.add_argument("--out", default="",
                       help="write the canonical JSON report here "
                            "(byte-identical across reruns)")
    chaos.add_argument("--dump-buckets", default="", metavar="DIR",
                       help="persist each drill's disaster image as a "
                            "directory bucket under DIR "
                            "(<scenario>__<crash_point>__<seed>/)")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip minimizing failing scenarios")
    chaos.add_argument("--verbose", action="store_true",
                       help="print each drill as it completes")
    chaos.add_argument("--list", action="store_true",
                       help="list scenarios and crash points, then exit")
    chaos.add_argument("--mutation-check", action="store_true",
                       help="prove the RPO oracle flags an unbounded-S "
                            "mutant (exit 0 iff detected)")
    chaos.add_argument("--mutation-seed", type=int, default=0)
    chaos.set_defaults(func=cmd_chaos)

    placement = sub.add_parser(
        "placement",
        help="multi-provider placement: provider-outage drill "
             "(RPO-0 from survivors, quorum-gated failover, repair) "
             "or the $/month policy comparison",
    )
    placement.add_argument("--providers", type=int, default=3,
                           help="simulated providers (default 3: "
                                "s3, azure, gcs price books)")
    placement.add_argument(
        "--placement",
        default="wal=mirror-2/q1,db=stripe-2-3,default=mirror-2/q1",
        help="per-class policy spec, e.g. 'mirror-2' or "
             "'wal=mirror-2/q1,db=stripe-2-3'",
    )
    placement.add_argument("--seed", type=int, action="append", default=[],
                           metavar="N",
                           help="drill seed (repeatable; default 0)")
    placement.add_argument("--rows", type=int, default=30,
                           help="rows to commit (default 30)")
    placement.add_argument("--kill-row", type=int, default=None,
                           help="kill the first provider before this row "
                                "(default rows//2)")
    placement.add_argument("--json", action="store_true",
                           help="print the canonical JSON report")
    placement.add_argument("--out", default="",
                           help="write the canonical JSON report here "
                                "(byte-identical across reruns)")
    placement.add_argument("--costs", action="store_true",
                           help="print the mirror/stripe $/month table "
                                "instead of running a drill")
    placement.add_argument("--db-gb", type=float, default=1.0,
                           help="database size for --costs (default 1 GB)")
    placement.add_argument("--puts-per-month", type=int, default=43200,
                           help="synchronizations for --costs "
                                "(default 43200: one per minute)")
    placement.set_defaults(func=cmd_placement)

    tuner = sub.add_parser(
        "tuner",
        help="adaptive batch tuner: latency-shift re-convergence drill",
    )
    tuner.add_argument("--seed", type=int, action="append", default=[],
                       help="drill seed; repeatable (default one run "
                            "at seed 0)")
    tuner.add_argument("--rows-before", type=int, default=64,
                       help="rows committed before the latency shift "
                            "(default 64)")
    tuner.add_argument("--rows-after", type=int, default=192,
                       help="rows committed after the shift (default 192)")
    tuner.add_argument("--shift-factor", type=float, default=14.0,
                       help="mid-run PUT throughput divisor (default 14)")
    tuner.add_argument("--json", action="store_true",
                       help="print the canonical JSON report to stdout")
    tuner.add_argument("--out", default="",
                       help="write the canonical JSON report to this path")
    tuner.set_defaults(func=cmd_tuner)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (2 on bad input)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
