"""``python -m repro``: one entry point for every scenario in the repo.

Subcommands::

    repro list          circuits + fault classes the grids are built from
    repro run           run a (circuit x fault-class) grid, checkpointed
    repro report        re-render tables from a stored campaign
    repro paper-tables  the paper's Section 5 coverage/escape tables
    repro experiment    single paper artifacts (Table I-III, Fig. 3-5, V-C)
    repro demo          the narrated walkthroughs behind ``examples/``
    repro faults        the fault-universe registry (list / census)
    repro campaign      store maintenance (list / verify-store / export /
                        migrate-store)
    repro serve         the async job service (docs/SERVICE.md)
    repro cache stats   in-process memo counters (device/table/compile)

``list``, ``campaign list`` and ``faults census`` take ``--json`` for
machine-readable output (what API clients and the load harness consume
instead of scraping the human tables).

``run`` and ``paper-tables`` shut down gracefully on SIGTERM/SIGINT:
the campaign stops between cells, releases its sqlite claims and
flushes the store (exit code 130), so a rerun resumes instead of
waiting out stale leases.

Copy-paste invocations for each paper table live in
``docs/CAMPAIGNS.md``; the end-to-end walkthrough in
``docs/TUTORIAL.md``.  Typical session::

    python -m repro list --tag tiny
    python -m repro run --circuits c17 rca4 --fault-classes stuck_at polarity
    python -m repro report --store campaign_store.sqlite
    python -m repro paper-tables

``run`` and ``paper-tables`` resume from their store by default:
interrupt them mid-grid and the rerun recomputes only unfinished tasks.
The store is a WAL-mode sqlite database that coordinates *multiple
concurrent runner processes* via atomic task claims — point N
``repro run`` invocations at the same ``--store grid.sqlite`` and they
split the grid.  ``repro campaign export`` prints a store as sorted
JSONL; ``repro campaign migrate-store`` imports a JSONL store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign.backends import (
    migrate_jsonl_to_sqlite,
    open_store,
    require_sqlite,
    scan_records,
)
from repro.campaign.registry import get_registry
from repro.campaign.runner import RetryPolicy, expand_grid, run_campaign
from repro.campaign.store import strip_volatile
from repro.campaign.tables import (
    SECTION5_READING,
    SECTION5_SUITE as PAPER_SUITE,
    ascii_table,
    coverage_table,
    escape_table,
    render_report,
    run_table,
)
from repro.campaign.tasks import DEFAULT_FAULT_CLASSES, TASK_RUNNERS

#: ``--smoke`` grid: 2 circuits x 2 fault classes, seconds on 2 workers
#: (the CI job), still crossing an SP-only and a DP circuit.
SMOKE_CIRCUITS: tuple[str, ...] = ("c17", "tmr_voter")
SMOKE_FAULT_CLASSES: tuple[str, ...] = ("stuck_at", "polarity")

DEFAULT_STORE = "campaign_store.sqlite"
PAPER_STORE = "benchmarks/out/paper_campaign.sqlite"

#: Static name lists so parser construction stays import-light (the
#: drivers behind them are imported lazily by their subcommands).
EXPERIMENT_NAMES: tuple[str, ...] = (
    "table1", "table2", "table3", "fig3", "fig4", "fig5", "sec5c",
    "atpg-coverage",
)
DEMO_NAMES: tuple[str, ...] = (
    "quickstart", "device-characterization", "iddq-screening",
    "channel-break", "atpg-flow", "batched-sweeps",
)


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuits", nargs="+", metavar="NAME",
        help="registry circuit names (see 'repro list')",
    )
    parser.add_argument(
        "--tag", nargs="+", default=None, metavar="TAG",
        help="select circuits carrying all of these tags instead",
    )
    parser.add_argument(
        "--fault-classes", nargs="+", metavar="CLASS",
        choices=sorted(TASK_RUNNERS), default=None,
        help=f"subset of {sorted(TASK_RUNNERS)} (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool size (default 1; 1 = inline, no subprocesses; "
             "--smoke defaults to 2 unless given)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task soft wall-clock bound (overruns become 'timeout' "
             "records); with workers > 1 a hard watchdog kills workers "
             "stuck past it (see --watchdog-grace)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry budget for transient task failures "
             f"(default {RetryPolicy.max_attempts}, exponential backoff)",
    )
    parser.add_argument(
        "--watchdog-grace", type=float, default=None, metavar="SECONDS",
        help="extra time past --timeout before the supervisor kills a "
             f"stuck worker from outside (default "
             f"{RetryPolicy.watchdog_grace:g}s)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync the store after every record (survives machine "
             "crashes, not just process kills)",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="recompute every task even if the store already has it",
    )
    parser.add_argument(
        "--bench", nargs="+", default=(), metavar="FILE",
        help="register external .bench netlists before expanding the grid",
    )


def _register_bench_files(paths) -> list[str]:
    registry = get_registry()
    names = []
    for path in paths:
        names.append(registry.register_bench_file(path, replace=True).name)
    return names


def _retry_policy(args) -> RetryPolicy:
    """The grid flags' retry/watchdog overrides on top of the defaults."""
    overrides = {}
    if args.max_attempts is not None:
        overrides["max_attempts"] = args.max_attempts
    if args.watchdog_grace is not None:
        overrides["watchdog_grace"] = args.watchdog_grace
    return RetryPolicy(**overrides)


def _not_sqlite(path) -> bool:
    """Whether ``path`` holds a file that is not a sqlite store (an
    old JSONL store, say), after printing why; callers exit 2."""
    try:
        require_sqlite(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def _campaign(args, grid, store_path):
    """Run ``grid`` against the store at ``store_path`` with the grid
    flags, winding down gracefully on SIGTERM/SIGINT; ``None`` when the
    path holds no sqlite store."""
    from repro.campaign.supervisor import graceful_shutdown

    if _not_sqlite(store_path):
        return None
    with open_store(store_path, fsync=args.fsync) as store, \
            graceful_shutdown() as stop:
        return run_campaign(
            grid,
            store=store,
            workers=args.workers or 1,
            timeout=args.timeout,
            resume=not args.no_resume,
            progress=lambda line: print(line, file=sys.stderr),
            policy=_retry_policy(args),
            should_stop=stop.is_set,
        )


def _print_store_summary(result) -> None:
    external = (
        f", {result.n_external} run elsewhere" if result.n_external else ""
    )
    print(f"\nstore: {result.store_path} "
          f"({result.n_run} run, {result.n_skipped} resumed, "
          f"{result.n_failed} failed{external})")


def _run_grid(args, circuits, fault_classes, store_path) -> int:
    result = _campaign(args, expand_grid(circuits, fault_classes), store_path)
    if result is None:
        return 2
    print(render_report(result.records))
    _print_store_summary(result)
    if result.interrupted:
        print("interrupted: claims released, store flushed — rerun to "
              "resume", file=sys.stderr)
        return 130
    # Exit nonzero whenever any cell did not finish ok (error, timeout
    # or poisoned) so CI grids actually gate on campaign health.
    return 1 if result.n_failed else 0


def _stored_records(path: Path) -> tuple[int, list[dict]]:
    """The latest record per task of the store at ``path``, read
    without touching it, with the exit status so far: 1 when there is
    no store, 2 when the path holds no sqlite store."""
    if not path.exists():
        print(f"no store at {path}", file=sys.stderr)
        return 1, []
    if _not_sqlite(path):
        return 2, []
    latest = {record["task_id"]: record for record in scan_records(path)}
    return 0, list(latest.values())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def registry_listing(tags=None) -> dict:
    """Machine-readable registry listing (the ``--json`` payload shared
    by ``repro list`` and ``repro campaign list``)."""
    registry = get_registry()
    circuits = []
    for name in registry.names(tags=tags):
        spec = registry.spec(name)
        stats = spec.stats()
        circuits.append({
            "name": name,
            "gates": stats["gates"],
            "inputs": stats["inputs"],
            "outputs": stats["outputs"],
            "depth": stats["depth"],
            "tags": sorted(spec.all_tags()),
        })
    return {
        "circuits": circuits,
        "fault_classes": sorted(TASK_RUNNERS),
        "default_fault_classes": list(DEFAULT_FAULT_CLASSES),
    }


def cmd_list(args) -> int:
    listing = registry_listing(tags=args.tag)
    if getattr(args, "json", False):
        print(json.dumps(listing, indent=1, sort_keys=True))
        return 0
    rows = [
        (
            c["name"], c["gates"], c["inputs"], c["outputs"], c["depth"],
            " ".join(c["tags"]),
        )
        for c in listing["circuits"]
    ]
    print(ascii_table(
        ("circuit", "gates", "PIs", "POs", "depth", "tags"), rows
    ))
    print(f"\nfault classes: {' '.join(DEFAULT_FAULT_CLASSES)}")
    return 0


def cmd_cache_stats(args) -> int:
    """In-process cache counters (device models + compile memo),
    from the same source the ``/metrics`` gauges render."""
    from repro.service.metrics import cache_stats

    stats = cache_stats()
    if getattr(args, "json", False):
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    rows = [
        (cache, *(counters.get(k, 0) for k in ("hits", "misses")),
         counters.get("instance_hits", ""), counters.get("evictions", ""))
        for cache, counters in sorted(stats.items())
    ]
    print(ascii_table(
        ("cache", "hits", "misses", "instance_hits", "evictions"), rows
    ))
    print("\n(counters are per-process; the service exposes them live "
          "as repro_cache_events on /metrics)")
    return 0


def cmd_serve(args) -> int:
    from repro.service.api import serve_forever

    return serve_forever(
        args.state_dir,
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
    )


def _select_circuits(args) -> list[str]:
    """Grid circuit selection shared by ``run`` and ``paper-tables``:
    explicit names, tag selection, and any just-registered ``--bench``
    netlists (which select themselves)."""
    bench_names = _register_bench_files(args.bench)
    if args.tag:
        circuits = get_registry().names(tags=args.tag)
    else:
        circuits = list(args.circuits or ())
    circuits.extend(n for n in bench_names if n not in circuits)
    return circuits


def cmd_run(args) -> int:
    circuits = _select_circuits(args)
    if args.smoke:
        circuits = circuits or list(SMOKE_CIRCUITS)
        fault_classes = list(args.fault_classes or SMOKE_FAULT_CLASSES)
        if args.workers is None:
            args.workers = 2
    else:
        fault_classes = list(args.fault_classes or DEFAULT_FAULT_CLASSES)
        if not circuits:
            print("no circuits selected: pass --circuits, --tag, --bench "
                  "or --smoke", file=sys.stderr)
            return 2
    return _run_grid(args, circuits, fault_classes, args.store)


def cmd_report(args) -> int:
    status, records = _stored_records(Path(args.store))
    if status:
        return status
    if not records:
        print(f"no records in {args.store}", file=sys.stderr)
        return 1
    if args.table == "coverage":
        print(coverage_table(records))
    elif args.table == "escapes":
        print(escape_table(records))
    elif args.table == "tasks":
        print(run_table(records))
    else:
        print(render_report(records))
    return 0


def cmd_paper_tables(args) -> int:
    grid = expand_grid(
        _select_circuits(args) or list(PAPER_SUITE),
        args.fault_classes or DEFAULT_FAULT_CLASSES,
    )
    result = _campaign(args, grid, args.store)
    if result is None:
        return 2
    if result.interrupted:
        print("interrupted: claims released, store flushed — rerun to "
              "resume", file=sys.stderr)
        return 130
    print("Section 5 coverage study: "
          "classic stuck-at tests vs CP fault models")
    print(coverage_table(result.records))
    print()
    print("Escapes of the classic flow "
          "(the faults needing the paper's new tests):")
    print(escape_table(result.records))
    print()
    print(SECTION5_READING)
    _print_store_summary(result)
    return 1 if result.n_failed else 0


def cmd_verify_store(args) -> int:
    """Integrity census of a campaign store, exit 0 iff healthy.  The
    store is opened read-only; ``--repair`` instead opens it for
    writing, quarantines corrupt rows and re-queues their tasks."""
    path = Path(args.store)
    if not path.exists():
        print(f"no store at {path}", file=sys.stderr)
        return 1
    if _not_sqlite(path):
        return 2
    with open_store(path, read_only=not args.repair) as store:
        report = store.verify(repair=args.repair)
    for key in (
        "backend", "path", "store_schema", "n_records", "n_tasks_ok",
        "n_corrupt", "n_quarantined", "n_stale_claims",
    ):
        print(f"{key:>15}: {report[key]}")
    if report.get("tasks"):
        print(f"{'tasks':>15}: {json.dumps(report['tasks'])}")
    for problem in report["problems"]:
        print(f"{'problem':>15}: {problem}")
    print(f"{'ok':>15}: {report['ok']}")
    return 0 if report["ok"] else 1


def cmd_export(args) -> int:
    """Print the latest record of each task as JSONL, sorted by task id
    with the volatile fields stripped — the diff-able form of a store
    (and a valid ``migrate-store`` source)."""
    status, records = _stored_records(Path(args.store))
    if status:
        return status
    for record in strip_volatile(records):
        print(json.dumps(record, sort_keys=True, ensure_ascii=False))
    return 0


def cmd_migrate_store(args) -> int:
    """One-way JSONL → sqlite store import (source left in place)."""
    src, dst = Path(args.store), Path(args.to)
    if not src.exists():
        print(f"no store at {src}", file=sys.stderr)
        return 1
    try:
        count = migrate_jsonl_to_sqlite(src, dst, fsync=args.fsync)
    except (FileExistsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"migrated {count} record(s): {src} -> {dst}")
    print(f"verify with: repro campaign verify-store --store {dst}")
    return 0


def cmd_experiment(args) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    driver = EXPERIMENTS[args.name]
    _result, report = driver()
    print(report)
    if args.out:
        from repro.analysis.report import save_report

        path = save_report(args.name, report, directory=args.out)
        print(f"\nsaved: {path}", file=sys.stderr)
    return 0


def cmd_demo(args) -> int:
    from repro.analysis.demos import DEMOS

    DEMOS[args.name]()
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Campaign orchestration for the CP-SiNWFET fault-modeling "
            "reproduction (see docs/CAMPAIGNS.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="list registered circuits and fault classes"
    )
    p_list.add_argument("--tag", nargs="+", default=None)
    p_list.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (what API clients consume)",
    )
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", help="run a (circuit x fault-class) grid with checkpointing"
    )
    _add_grid_arguments(p_run)
    p_run.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"sqlite checkpoint/result store (default {DEFAULT_STORE})",
    )
    p_run.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI grid: "
            f"{' '.join(SMOKE_CIRCUITS)} x {' '.join(SMOKE_FAULT_CLASSES)}"
            " on 2 workers"
        ),
    )
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser(
        "report", help="render tables from a stored campaign"
    )
    p_report.add_argument("--store", default=DEFAULT_STORE, metavar="PATH")
    p_report.add_argument(
        "--table", default="all",
        choices=("all", "coverage", "escapes", "tasks"),
    )
    p_report.set_defaults(func=cmd_report)

    p_campaign = sub.add_parser(
        "campaign",
        help="store maintenance: integrity checks, JSONL export/import",
    )
    campaign_sub = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    pc_list = campaign_sub.add_parser(
        "list",
        help="list registered circuits and fault classes "
             "(alias of 'repro list')",
    )
    pc_list.add_argument("--tag", nargs="+", default=None)
    pc_list.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (what API clients consume)",
    )
    pc_list.set_defaults(func=cmd_list)
    pc_verify = campaign_sub.add_parser(
        "verify-store",
        help="checksum/claim/quarantine census of a store "
             "(exit 0 iff healthy)",
    )
    pc_verify.add_argument("--store", default=DEFAULT_STORE, metavar="PATH")
    pc_verify.add_argument(
        "--repair", action="store_true",
        help="also quarantine corrupt rows and re-queue their tasks "
             "(without it the store is opened read-only)",
    )
    pc_verify.set_defaults(func=cmd_verify_store)
    pc_export = campaign_sub.add_parser(
        "export",
        help="print the latest record per task as sorted JSONL "
             "(volatile fields stripped)",
    )
    pc_export.add_argument("--store", default=DEFAULT_STORE, metavar="PATH")
    pc_export.set_defaults(func=cmd_export)
    pc_migrate = campaign_sub.add_parser(
        "migrate-store",
        help="one-way JSONL -> sqlite import (source untouched)",
    )
    pc_migrate.add_argument(
        "--store", required=True, metavar="SRC", help="JSONL source store"
    )
    pc_migrate.add_argument(
        "--to", required=True, metavar="DST",
        help="fresh sqlite destination (must not exist)",
    )
    pc_migrate.add_argument(
        "--fsync", action="store_true",
        help="write the destination with synchronous=FULL",
    )
    pc_migrate.set_defaults(func=cmd_migrate_store)

    p_paper = sub.add_parser(
        "paper-tables",
        help="reproduce the paper's Section 5 coverage/escape tables",
    )
    _add_grid_arguments(p_paper)
    p_paper.add_argument(
        "--store", default=PAPER_STORE, metavar="PATH",
        help=f"sqlite store (default {PAPER_STORE})",
    )
    p_paper.set_defaults(func=cmd_paper_tables)

    p_exp = sub.add_parser(
        "experiment",
        help="run one paper-artifact driver (tables I-III, figs 3-5, V-C)",
    )
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument(
        "--out", default=None, metavar="DIR",
        help="also save the report under DIR",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_demo = sub.add_parser(
        "demo", help="run a narrated walkthrough (backs examples/*.py)"
    )
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.set_defaults(func=cmd_demo)

    # Imported here (not at module top) to keep parser construction
    # import-light, like the experiment/demo drivers.
    from repro.faults.cli import cmd_faults_census, cmd_faults_list

    p_faults = sub.add_parser(
        "faults",
        help="fault-universe registry tools (see docs/FAULT_UNIVERSES.md)",
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    pf_list = faults_sub.add_parser(
        "list", help="list registered fault universes"
    )
    pf_list.set_defaults(func=cmd_faults_list)
    pf_census = faults_sub.add_parser(
        "census",
        help="per-universe fault counts (before/after collapsing) "
             "for registry circuits",
    )
    pf_census.add_argument("circuits", nargs="+", metavar="CIRCUIT")
    pf_census.add_argument(
        "--universes", nargs="+", default=None, metavar="NAME",
        help="restrict the census to these universes (default: all)",
    )
    pf_census.add_argument(
        "--json", action="store_true",
        help="machine-readable census (what API clients and the load "
             "harness consume)",
    )
    pf_census.set_defaults(func=cmd_faults_census)

    p_serve = sub.add_parser(
        "serve",
        help="run the async campaign job service (docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8089, help="bind port (default 8089)"
    )
    p_serve.add_argument(
        "--state-dir", default="service_state", metavar="DIR",
        help="job specs + the shared sqlite store live here; a restart "
             "re-attaches and resumes unfinished jobs",
    )
    p_serve.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="concurrent campaigns (worker threads; default 2)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache",
        help="in-process cache tools (device models, compile memo)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    pc_stats = cache_sub.add_parser(
        "stats",
        help="hit/miss counters of the model caches and the "
             "compile_network memo",
    )
    pc_stats.add_argument(
        "--json", action="store_true", help="machine-readable counters"
    )
    pc_stats.set_defaults(func=cmd_cache_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
