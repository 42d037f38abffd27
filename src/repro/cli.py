"""Command-line interface.

::

    python -m repro run --graph LJ --algo SSSP --system graphdyns
    python -m repro trace bfs RM16 --out trace.json
    python -m repro compare --graph HO --algo PR
    python -m repro figure fig6 fig7 --jobs 4
    python -m repro matrix --jobs 4 --checkpoint sweep.jsonl -o reports.json
    python -m repro matrix --resume sweep.jsonl -o reports.json
    python -m repro plan examples/specs/table4.yaml
    python -m repro run-spec examples/specs/table4.yaml --jobs 4 -o out.json
    python -m repro report -o EXPERIMENTS.md
    python -m repro serve --port 8177 --journal jobs.jsonl
    python -m repro submit --algorithms BFS --graphs FR --wait -o out.json
    python -m repro jobs --url http://127.0.0.1:8177
    python -m repro backends
    python -m repro datasets

Systems are resolved through the :mod:`repro.backends` registry, so a
newly registered backend is immediately runnable and comparable.  The
``figure``/``report``/``compare`` commands share a persistent result
cache (disable with ``--no-cache``; relocate with ``--cache-dir``) and
can fan the evaluation matrix out across workers with ``--jobs``.

``matrix`` runs the evaluation matrix under a retry policy
(:mod:`repro.harness.resilience`): per-attempt deadlines, bounded retries
with jittered backoff, process→thread→serial executor degradation, and
a checkpoint manifest (``--checkpoint``/``--resume``) so a killed sweep
re-executes only its unfinished cells.  ``--inject`` enables the
deterministic fault hooks (``crash:N``, ``hang:N:SECONDS``, ``kill:N``,
``flaky-store:N``, ``corrupt-cache:N``) used by the failure-mode tests.

``plan``/``run-spec`` are the declarative surface
(:mod:`repro.harness.specs` + :mod:`repro.harness.planner`): a YAML
spec describes a backend x algorithm x graph x config-override grid
with filters, selected report fields, and named outputs; ``plan``
classifies every cell against the persistent cache without executing
(``--url`` plans against a daemon's cache and in-flight jobs), and
``run-spec`` executes only the pending cells (``--dry-run`` prints the
plan table; ``--url`` fans pending cells into a daemon's job queue).

``serve`` runs the durable simulation daemon
(:mod:`repro.harness.serve`): an HTTP/JSON job API with a write-ahead
journal (crash-safe resume), request coalescing, a bounded FIFO queue
(a full queue answers 503 + Retry-After), and graceful drain on
SIGTERM.  ``submit``/``jobs`` are its thin clients.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from . import backends
from .graph import datasets
from .harness import figures, tables  # noqa: F401 - builder registry deps
from .harness.io import render_table
from .harness.service import RunService
from .harness.specs import MATRIX_BUILDERS, OUTPUT_BUILDERS
from .vcpm.algorithms import algorithm_names, get_algorithm

__all__ = ["main", "build_parser", "DEFAULT_CACHE_DIR"]

#: Where `figure`/`report`/`compare` persist results unless overridden.
DEFAULT_CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro")
)

# The figure registry and the spec language's `outputs` builders are the
# same mapping, so a builder added there is immediately addressable both
# from `repro figure <name>` and from a spec's outputs clause.
_FIGURES: Dict[str, Callable[[], "figures.FigureResult"]] = dict(
    OUTPUT_BUILDERS
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphDynS (MICRO 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Cache/pool knobs alone (no storage/shards): the
    # spec-driven commands take those axes from the spec itself.
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the evaluation matrix (default: 1)",
    )
    cache_flags.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent result cache directory "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    cache_flags.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    cache_flags.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="worker pool kind for --jobs > 1: 'thread' shares one "
        "interpreter, 'process' bypasses the GIL (default: thread)",
    )

    # Out-of-core / sharding knobs, shared by run, trace, and every
    # service-backed command.  Results are byte-identical across all
    # storage x shards combinations; only residency and speed change.
    sharding_flags = argparse.ArgumentParser(add_help=False)
    sharding_flags.add_argument(
        "--storage",
        choices=("memory", "mmap"),
        default="memory",
        help="graph storage backend: 'memory' holds CSR arrays resident, "
        "'mmap' spills them to disk and memory-maps (required for the "
        "paper-scale *-FULL datasets) (default: memory)",
    )
    sharding_flags.add_argument(
        "--shards",
        type=int,
        default=1,
        help="destination-contiguous shards for the Scatter phase; "
        "results are byte-identical to --shards 1 (default: 1)",
    )
    service_flags = argparse.ArgumentParser(
        add_help=False, parents=[cache_flags, sharding_flags]
    )

    run = sub.add_parser(
        "run", parents=[sharding_flags], help="run one algorithm on one system"
    )
    run.add_argument("--graph", default="LJ", help="Table 4 dataset key")
    run.add_argument(
        "--algo", default="SSSP", choices=algorithm_names(), help="algorithm"
    )
    run.add_argument(
        "--system",
        default="graphdyns",
        choices=backends.available_keys(),
        help="which registered backend",
    )
    run.add_argument("--source", type=int, default=0, help="source vertex")
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative entries",
    )
    run.add_argument(
        "--obs",
        action="store_true",
        help="record spans/instruments and write a Chrome trace",
    )
    run.add_argument(
        "--obs-out",
        default="obs-trace.json",
        help="Chrome trace path for --obs (default: obs-trace.json)",
    )

    trace = sub.add_parser(
        "trace",
        parents=[sharding_flags],
        help="run one cell under the span recorder and export the trace",
    )
    trace.add_argument("algo", help="algorithm (case-insensitive, e.g. bfs)")
    trace.add_argument(
        "graph", help="Table 4 dataset key or proxy alias (e.g. RM16)"
    )
    trace.add_argument(
        "--system",
        default="graphdyns",
        choices=backends.available_keys(),
        help="which registered backend to trace",
    )
    trace.add_argument("--source", type=int, default=0, help="source vertex")
    trace.add_argument(
        "--out", default="trace.json", help="output path (default: trace.json)"
    )
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "stats"),
        default="chrome",
        help="chrome (chrome://tracing), jsonl (spans+instruments), or "
        "stats (flat table) (default: chrome)",
    )

    compare = sub.add_parser(
        "compare",
        parents=[service_flags],
        help="run every registered backend",
    )
    compare.add_argument("--graph", default="LJ")
    compare.add_argument("--algo", default="SSSP", choices=algorithm_names())

    figure = sub.add_parser(
        "figure",
        parents=[service_flags],
        help="regenerate paper figures/tables",
    )
    figure.add_argument(
        "names",
        nargs="+",
        choices=sorted(_FIGURES) + ["all"],
        help="artifacts to regenerate",
    )

    matrix = sub.add_parser(
        "matrix",
        parents=[service_flags],
        help="run the evaluation matrix under the resilience layer",
    )
    matrix.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=algorithm_names(),
        help="algorithms to run (default: all; ignored with --resume "
        "unless given)",
    )
    matrix.add_argument(
        "--graphs",
        nargs="+",
        default=None,
        help="Table 4 dataset keys (default: the six real-world proxies)",
    )
    matrix.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max attempts per cell before the sweep aborts (default: 3)",
    )
    matrix.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell attempt deadline in seconds (default: none)",
    )
    matrix.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds, doubled per attempt with "
        "deterministic jitter (default: 0.05)",
    )
    matrix.add_argument(
        "--checkpoint",
        default=None,
        metavar="MANIFEST",
        help="journal completed cells to this manifest file",
    )
    matrix.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help="resume the sweep recorded in this manifest: only "
        "unfinished cells are executed (finished ones replay from the "
        "persistent cache)",
    )
    matrix.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="FAULT",
        help="deterministic fault injection for failure drills, e.g. "
        "crash:2, hang:1:0.5, kill:1, flaky-store:1, corrupt-cache:1 "
        "(repeatable)",
    )
    matrix.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the canonical RunReport JSON of every cell here",
    )
    matrix.add_argument(
        "--obs",
        action="store_true",
        help="record spans/instruments for executed cells and write a "
        "Chrome trace",
    )
    matrix.add_argument(
        "--obs-out",
        default="obs-trace.json",
        help="Chrome trace path for --obs (default: obs-trace.json)",
    )

    report = sub.add_parser(
        "report",
        parents=[service_flags],
        help="regenerate EXPERIMENTS.md (slow: full evaluation)",
    )
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")

    plan = sub.add_parser(
        "plan",
        parents=[cache_flags],
        help="classify a declarative experiment spec against the cache "
        "(never executes)",
    )
    plan.add_argument("spec", help="path to a YAML experiment spec")
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the canonical plan JSON instead of the table",
    )
    plan.add_argument(
        "--url",
        default=None,
        help="plan against a running daemon's cache and in-flight jobs "
        "(POST /v1/plans dry-run) instead of the local cache",
    )

    run_spec = sub.add_parser(
        "run-spec",
        parents=[cache_flags],
        help="plan and execute a declarative experiment spec",
    )
    run_spec.add_argument("spec", help="path to a YAML experiment spec")
    run_spec.add_argument(
        "--dry-run",
        action="store_true",
        help="print the plan table and exit without executing anything",
    )
    run_spec.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the canonical RunReport JSON of every grid cell here",
    )
    run_spec.add_argument(
        "--plan-out",
        default=None,
        help="write the canonical plan JSON here",
    )
    run_spec.add_argument(
        "--url",
        default=None,
        help="submit the plan to a running daemon (pending cells fan "
        "into its job queue) instead of executing locally",
    )

    serve = sub.add_parser(
        "serve",
        parents=[sharding_flags],
        help="run the durable simulation daemon",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8177,
        help="listen port; 0 picks an ephemeral port (use --announce to "
        "learn it) (default: 8177)",
    )
    serve.add_argument(
        "--journal",
        default="repro-jobs.jsonl",
        metavar="WAL",
        help="write-ahead job journal; restarting against the same file "
        "resumes every unfinished job (default: repro-jobs.jsonl)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent result cache directory "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (crash-safe resume "
        "then re-executes finished cells instead of replaying them)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="bounded queue capacity; beyond it submissions are "
        "rejected with 503 + Retry-After (default: 64)",
    )
    serve.add_argument(
        "--max-running",
        type=int,
        default=1,
        help="jobs executing concurrently (each may fan cells out "
        "internally via --jobs) (default: 1)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads per job's cell matrix (default: 1)",
    )
    serve.add_argument(
        "--executor",
        choices=("thread", "process", "serial"),
        default="thread",
        help="executor every job runs on; a broken pool degrades "
        "process->thread->serial (default: thread)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock deadline; the watchdog abandons "
        "over-budget jobs (default: none)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="grace period for running jobs on SIGTERM (default: 5)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max attempts per cell (default: 3)",
    )
    serve.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell attempt deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="FAULT",
        help="deterministic fault injection for failure drills, e.g. "
        "kill-daemon:2, flaky-journal:1:2, queue-overflow:3:5 "
        "(repeatable)",
    )
    serve.add_argument(
        "--announce",
        default=None,
        metavar="PATH",
        help="write {pid, port, url} JSON here once the daemon is ready",
    )

    submit = sub.add_parser(
        "submit", help="submit a job to a running simulation daemon"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8177",
        help="daemon base URL (default: http://127.0.0.1:8177)",
    )
    submit.add_argument(
        "--algorithms",
        nargs="+",
        required=True,
        choices=algorithm_names(),
    )
    submit.add_argument(
        "--graphs",
        nargs="+",
        required=True,
        help="Table 4 dataset keys, e.g. FR PK RM22",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print its final state",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling budget in seconds (default: 600)",
    )
    submit.add_argument(
        "-o",
        "--output",
        default=None,
        help="with --wait: write the job's canonical RunReport JSON here",
    )

    jobs_cmd = sub.add_parser(
        "jobs", help="list or inspect jobs on a running simulation daemon"
    )
    jobs_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8177",
        help="daemon base URL (default: http://127.0.0.1:8177)",
    )
    jobs_cmd.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="job id to inspect (default: list all jobs)",
    )

    sub.add_parser("backends", help="list registered accelerator backends")
    sub.add_parser("datasets", help="list the Table 4 proxies")

    validate = sub.add_parser(
        "validate",
        help="self-check: all execution engines agree on random graphs",
    )
    validate.add_argument("--seeds", type=int, default=3)
    validate.add_argument("--vertices", type=int, default=200)
    validate.add_argument("--edges", type=int, default=1000)

    churn = sub.add_parser(
        "churn",
        help="evolving-graph session: apply deterministic churn batches "
        "and compare incremental recomputation against full reruns",
    )
    churn.add_argument("--graph", default="FR", help="base dataset key")
    churn.add_argument(
        "--algo", default="BFS", choices=algorithm_names(), help="algorithm"
    )
    churn.add_argument(
        "--batches", type=int, default=8, help="churn batches to apply"
    )
    churn.add_argument(
        "--batch-edges", type=int, default=64, help="edge mutations per batch"
    )
    churn.add_argument(
        "--insert-fraction",
        type=float,
        default=0.5,
        help="fraction of each batch that inserts (the rest deletes); "
        "1.0 keeps every step on the frontier-delta path (default: 0.5)",
    )
    churn.add_argument("--seed", type=int, default=0, help="churn trace seed")
    churn.add_argument("--source", type=int, default=0, help="source vertex")

    return parser


def _service_from_args(args: argparse.Namespace, **kwargs) -> RunService:
    """A RunService honouring the shared service flags (and ``kwargs``)."""
    cache_dir: Optional[str]
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    return RunService(
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        executor=args.executor,
        storage=args.storage,
        shards=args.shards,
        **kwargs,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.profile:
        return _profiled(lambda: _cmd_run_body(args))
    return _cmd_run_body(args)


def _profiled(fn: Callable[[], int]) -> int:
    """Run ``fn`` under cProfile, print top-20 cumulative entries.

    Keeps future hot spots discoverable from the CLI without editing
    code: ``repro run --graph RM22 --algo SSSP --profile``.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = fn()
    finally:
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return status


def _cmd_run_body(args: argparse.Namespace) -> int:
    from .obs import NULL_RECORDER, TraceRecorder, use_recorder

    graph = datasets.load(args.graph, storage=args.storage)
    backend = backends.create(args.system)
    recorder = TraceRecorder() if args.obs else NULL_RECORDER
    with use_recorder(recorder):
        result, report = backend.run(
            graph,
            get_algorithm(args.algo),
            source=args.source,
            shards=args.shards,
        )
    if args.obs:
        from .obs.export import write_chrome_trace

        recorder.finish()
        write_chrome_trace(recorder, args.obs_out)
        print(f"wrote {args.obs_out} ({len(recorder.spans)} spans)")
    print(
        render_table(
            ["metric", "value"],
            [
                ["system", report.system],
                ["graph", f"{args.graph} (V={graph.num_vertices:,}, E={graph.num_edges:,})"],
                ["iterations", report.iterations],
                ["converged", result.converged],
                ["modeled cycles", f"{report.cycles:,.0f}"],
                ["time (us)", f"{report.seconds * 1e6:.1f}"],
                ["GTEPS", f"{report.gteps:.2f}"],
                ["bandwidth util", f"{report.bandwidth_utilization:.0%}"],
                ["traffic (MB)", f"{report.total_traffic_bytes / 1e6:.2f}"],
            ],
            title=f"{args.algo} on {args.graph} ({args.system})",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import math

    from .obs import TraceRecorder, use_recorder
    from .obs.export import stats_rows, to_jsonl, write_chrome_trace

    spec = get_algorithm(args.algo)  # raises on unknown, case-insensitive
    graph = datasets.load(args.graph, storage=args.storage)
    backend = backends.create(args.system)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        result, report = backend.run(
            graph, spec, source=args.source, shards=args.shards
        )
    recorder.finish()

    if args.format == "chrome":
        write_chrome_trace(recorder, args.out)
    elif args.format == "jsonl":
        with open(args.out, "w") as handle:
            handle.write(to_jsonl(recorder))
    else:
        headers, rows = stats_rows(recorder)
        with open(args.out, "w") as handle:
            handle.write(render_table(headers, rows) + "\n")
    print(
        f"wrote {args.out} ({len(recorder.spans)} spans, "
        f"{len(recorder.events)} events)"
    )

    # Reconcile the recorded spans against the report's cycle breakdown:
    # per-phase span totals are summed in recording order, so they match
    # the report float-for-float; the clock accumulates across phases and
    # is compared with a tolerance.
    totals = recorder.span_totals(track=report.system)
    scatter = totals.get("scatter", (0, 0.0))[1]
    apply_total = totals.get("apply", (0, 0.0))[1]
    rows = [
        ["iterations", report.iterations, report.iterations, "yes"],
        [
            "scatter cycles",
            f"{scatter:,.0f}",
            f"{report.scatter_cycles_total():,.0f}",
            "yes" if scatter == report.scatter_cycles_total() else "NO",
        ],
        [
            "apply cycles",
            f"{apply_total:,.0f}",
            f"{report.apply_cycles_total():,.0f}",
            "yes" if apply_total == report.apply_cycles_total() else "NO",
        ],
        [
            "total cycles",
            f"{recorder.clock.now:,.0f}",
            f"{report.cycles:,.0f}",
            "yes" if math.isclose(recorder.clock.now, report.cycles) else "NO",
        ],
    ]
    print(
        render_table(
            ["metric", "trace", "report", "reconciled"],
            rows,
            title=(
                f"{spec.name} on {args.graph} ({report.system}), "
                f"converged={result.converged}"
            ),
        )
    )
    reconciled = (
        scatter == report.scatter_cycles_total()
        and apply_total == report.apply_cycles_total()
        and math.isclose(recorder.clock.now, report.cycles)
    )
    return 0 if reconciled else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    cell = _service_from_args(args).cell(args.algo, args.graph)
    names = list(cell.reports)
    baseline_name = "Gunrock" if "Gunrock" in cell.reports else names[0]
    if baseline_name in names:  # baseline row first
        names.remove(baseline_name)
        names.insert(0, baseline_name)
    baseline = cell.reports[baseline_name]
    rows = []
    for system in names:
        report = cell.reports[system]
        energy = cell.energy[system]
        rows.append(
            [
                system,
                f"{report.gteps:.1f}",
                f"{report.speedup_over(baseline):.2f}x",
                f"{report.total_traffic_bytes / 1e6:.1f}",
                f"{energy.total_j * 1e3:.2f}",
            ]
        )
    print(
        render_table(
            ["system", "GTEPS", "speedup", "traffic_MB", "energy_mJ"],
            rows,
            title=f"{args.algo} on {args.graph}",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    names: List[str] = (
        sorted(_FIGURES) if "all" in args.names else args.names
    )
    service = _service_from_args(args)
    for name in names:
        fn = _FIGURES[name]
        result = fn(service=service) if name in MATRIX_BUILDERS else fn()
        print(result.render())
        print()
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .harness.faults import build_injector
    from .harness.resilience import RetryPolicy
    from .harness.service import canonical_reports_json

    manifest_path = args.resume or args.checkpoint
    service = _service_from_args(
        args,
        policy=RetryPolicy(
            max_attempts=max(args.retries, 1),
            backoff_base=args.backoff,
            timeout=args.timeout,
        ),
        faults=build_injector(args.inject),
        manifest_path=manifest_path,
        resume=args.resume is not None,
    )
    from .obs import NULL_RECORDER, TraceRecorder, use_recorder

    recorder = TraceRecorder() if args.obs else NULL_RECORDER
    with use_recorder(recorder):
        cells = service.matrix(args.algorithms, args.graphs)
    if args.obs:
        from .obs.export import write_chrome_trace

        recorder.finish()
        write_chrome_trace(recorder, args.obs_out)
        print(f"wrote {args.obs_out} ({len(recorder.spans)} spans)")
    if args.output:
        payload = canonical_reports_json(cells)
        with open(args.output, "w") as handle:
            handle.write(payload)
        print(f"wrote {args.output} ({len(cells)} cells)")
    stats = service.stats
    print(
        render_table(
            ["counter", "value"],
            [
                ["cells", len(cells)],
                ["cache hits", stats.hits],
                ["executed (misses)", stats.misses],
                ["stores", stats.stores],
                ["store failures", stats.store_failures],
                ["retries", stats.retries],
                ["timeouts", stats.timeouts],
                ["executor degradations", stats.degradations],
            ],
            title="matrix run (resilient)",
        )
    )
    if manifest_path:
        print(f"checkpoint manifest: {manifest_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness.report import generate_experiments_md

    content = generate_experiments_md(_service_from_args(args))
    with open(args.output, "w") as handle:
        handle.write(content)
    print(f"wrote {args.output} ({len(content.splitlines())} lines)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .harness.serve import DaemonConfig, SimulationDaemon

    cache_dir: Optional[str]
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        journal_path=args.journal,
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        capacity=args.capacity,
        max_running=args.max_running,
        job_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        executor=args.executor,
        jobs=args.jobs,
        storage=args.storage,
        shards=args.shards,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        inject=tuple(args.inject),
        announce=args.announce,
    )
    daemon = SimulationDaemon(config)
    resumed = daemon.stats.resumed
    daemon.run_forever()
    print(
        f"daemon exited cleanly (resumed {resumed} job(s) at startup, "
        f"completed {daemon.stats.completed})"
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .harness.serve import fetch_result, submit_job, wait_for_job

    status, headers, body = submit_job(args.url, args.algorithms, args.graphs)
    if status != 202 or not isinstance(body, dict):
        retry = headers.get("Retry-After")
        hint = f" (Retry-After: {retry}s)" if retry else ""
        print(f"rejected [{status}]{hint}: {body}", file=sys.stderr)
        return 1
    job = body["job"]
    verb = "coalesced into" if body.get("coalesced") else "accepted as"
    print(f"{verb} {job['id']} (state: {job['state']})")
    if not args.wait:
        return 0
    final = wait_for_job(args.url, job["id"], timeout=args.timeout)
    print(f"final state: {final['state']}")
    if final["state"] != "done":
        if final.get("error"):
            print(f"error: {final['error']}", file=sys.stderr)
        return 1
    if args.output:
        status, text = fetch_result(args.url, job["id"])
        if status != 200:
            print(f"result fetch failed [{status}]: {text}", file=sys.stderr)
            return 1
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from .harness.serve import http_json

    if args.job_id:
        status, _, body = http_json(f"{args.url}/v1/jobs/{args.job_id}")
        print(_json.dumps(body, indent=2, sort_keys=True))
        return 0 if status == 200 else 1
    status, _, body = http_json(f"{args.url}/v1/jobs")
    if status != 200 or not isinstance(body, dict):
        print(f"daemon error [{status}]: {body}", file=sys.stderr)
        return 1
    rows = [
        [
            job["id"],
            job["state"],
            ",".join(job["algorithms"]),
            ",".join(job["graphs"]),
        ]
        for job in body.get("jobs", [])
    ]
    print(
        render_table(
            ["id", "state", "algorithms", "graphs"],
            rows,
            title=f"daemon jobs ({len(rows)})",
        )
    )
    return 0


def _cmd_backends(_: argparse.Namespace) -> int:
    rows = []
    for name in backends.available():
        backend = backends.create(name)
        rows.append(
            [
                name,
                name.lower(),
                type(backend.config).__name__,
                backend.config_digest(),
            ]
        )
    print(
        render_table(
            ["backend", "cli_key", "config", "config_digest"],
            rows,
            title=f"registered backends ({len(rows)})",
        )
    )
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(tables.table4().render())
    alias_rows = [
        [alias, canonical, "proxy-scale RMAT alias"]
        for alias, canonical in sorted(datasets.ALIASES.items())
    ]
    paper_rows = [
        [
            spec.key,
            spec.key,
            f"paper scale (V={spec.proxy_vertices:,}, "
            f"E={spec.proxy_edges:,}; use --storage mmap)",
        ]
        for spec in datasets.RMAT_PAPER
    ]
    print()
    print(
        render_table(
            ["key", "resolves_to", "notes"],
            alias_rows + paper_rows,
            title="aliases and paper-scale keys (also accepted by --graph)",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .harness.validation import validate_all

    outcomes = validate_all(
        seeds=args.seeds, vertices=args.vertices, edges=args.edges
    )
    failures = [o for o in outcomes if not o.agreed]
    rows = [
        [o.graph_name, o.algorithm, o.engines_checked,
         "ok" if o.agreed else f"FAIL: {o.detail}"]
        for o in outcomes
    ]
    print(
        render_table(
            ["graph", "algo", "engines", "status"],
            rows,
            title="cross-engine validation",
        )
    )
    print(f"\n{len(outcomes) - len(failures)}/{len(outcomes)} checks passed")
    return 1 if failures else 0


def _load_spec_for_cli(path: str):
    """Parse a spec file; prints the SpecError and returns None on failure."""
    from .harness.specs import SpecError, load_spec

    try:
        return load_spec(path)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return None


def _services_for_cli(args: argparse.Namespace, spec):
    from .harness import planner

    cache_dir: Optional[str]
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    return planner.services_for_spec(
        spec,
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        executor=args.executor,
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .harness import planner

    if args.url:
        from .harness.serve import submit_plan

        try:
            with open(args.spec) as handle:
                text = handle.read()
        except OSError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return 2
        status, _, body = submit_plan(args.url, yaml_text=text, dry_run=True)
        if status != 200 or not isinstance(body, dict):
            error = body.get("error") if isinstance(body, dict) else body
            print(f"daemon rejected plan ({status}): {error}", file=sys.stderr)
            return 1
        print(json.dumps(body["plan"], indent=2, sort_keys=True))
        return 0

    spec = _load_spec_for_cli(args.spec)
    if spec is None:
        return 2
    services = _services_for_cli(args, spec)
    plan = planner.build_plan(spec, services)
    if args.json:
        print(planner.canonical_plan_json(plan))
    else:
        print(planner.render_plan_table(plan))
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    import json

    from .harness import planner
    from .harness.service import canonical_reports_json

    if args.url:
        from .harness.serve import submit_plan

        try:
            with open(args.spec) as handle:
                text = handle.read()
        except OSError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return 2
        status, _, body = submit_plan(
            args.url, yaml_text=text, dry_run=args.dry_run
        )
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if status in (200, 202) else 1

    spec = _load_spec_for_cli(args.spec)
    if spec is None:
        return 2
    services = _services_for_cli(args, spec)
    plan = planner.build_plan(spec, services)
    print(planner.render_plan_table(plan))
    if args.plan_out:
        with open(args.plan_out, "w") as handle:
            handle.write(planner.canonical_plan_json(plan))
        print(f"\nwrote plan to {args.plan_out}")
    if args.dry_run:
        return 0

    results = planner.execute_plan(plan, services)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(canonical_reports_json(results))
        print(f"wrote {len(results)} cell reports to {args.output}")

    rows = []
    fields = list(spec.select) or ["cycles", "gteps", "speedup"]
    for row in planner.summarize(spec, plan, results):
        rows.append(
            [row["override"], row["algorithm"], row["graph"], row["system"]]
            + [
                "-" if row[f] is None else f"{row[f]:.6g}"
                for f in fields
            ]
        )
    print()
    print(
        render_table(
            ["override", "algo", "graph", "system"] + fields,
            rows,
            title=f"spec {spec.name}",
        )
    )
    for name, result in planner.build_outputs(spec, services).items():
        print()
        print(f"# output: {name}")
        print(result.render())
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    import time

    from .graph import dynamic
    from .metrics.counters import ChurnStats
    from .vcpm import run_vcpm, run_vcpm_incremental

    base = datasets.load(args.graph)
    key = f"{datasets.resolve_key(args.graph)}-CHURN"
    dyn = dynamic.DynamicGraph(base, key=key)
    dynamic.register(dyn, replace=True)
    spec = get_algorithm(args.algo)
    stats = ChurnStats()
    rows = []
    try:
        previous = run_vcpm(dyn.graph, spec, source=args.source)
        batches = dynamic.churn_batches(
            dyn.graph,
            num_batches=args.batches,
            batch_edges=args.batch_edges,
            insert_fraction=args.insert_fraction,
            seed=args.seed,
        )
        for index, batch in enumerate(batches):
            dyn.apply(batch)
            stats.record_batch(batch)
            t0 = time.perf_counter()
            outcome = run_vcpm_incremental(
                dyn.graph, spec, batch, previous, source=args.source
            )
            incremental_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            reference = run_vcpm(dyn.graph, spec, source=args.source)
            full_s = time.perf_counter() - t0
            identical = (
                outcome.result.properties.tobytes()
                == reference.properties.tobytes()
            )
            stats.record(outcome)
            rows.append(
                [
                    index,
                    outcome.mode,
                    outcome.seed_count,
                    outcome.result.num_iterations,
                    f"{incremental_s * 1e3:.2f}",
                    f"{full_s * 1e3:.2f}",
                    f"{full_s / max(incremental_s, 1e-9):.2f}x",
                    identical,
                ]
            )
            if not identical:
                print(
                    f"ERROR: batch {index}: incremental result diverged "
                    "from the full rerun"
                )
                return 1
            previous = outcome.result
    finally:
        dynamic.unregister(key)
    print(
        render_table(
            [
                "batch",
                "mode",
                "seeds",
                "iters",
                "incr (ms)",
                "full (ms)",
                "speedup",
                "bit-identical",
            ],
            rows,
            title=f"{args.algo} on {args.graph} under churn "
            f"({args.batch_edges} edges/batch, "
            f"{args.insert_fraction:.0%} inserts)",
        )
    )
    print(
        f"\n{stats.batches_applied} batches "
        f"(+{stats.edges_inserted}/-{stats.edges_deleted} edges), "
        f"generation {dyn.generation}; "
        f"delta path on {stats.delta_runs}/{stats.steps} steps "
        f"({stats.delta_fraction:.0%}), "
        f"{stats.delta_edges_processed:,} vs "
        f"{stats.full_edges_processed:,} edges processed"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "trace": _cmd_trace,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "matrix": _cmd_matrix,
        "plan": _cmd_plan,
        "run-spec": _cmd_run_spec,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "report": _cmd_report,
        "backends": _cmd_backends,
        "datasets": _cmd_datasets,
        "validate": _cmd_validate,
        "churn": _cmd_churn,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
