"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — run a monitored query on a generated database and print
                    a live-style progress table for dne/pmax/safe;
* ``sql``         — plan, explain and execute a SQL query against the
                    bundled mini TPC-H database, with progress monitoring;
* ``progress``    — run a query under full progress observability: live
                    JSONL event trace, tick-rate/ETA gauges, per-estimator
                    wall-time profile;
* ``explain``     — just show the physical plan for a SQL query;
* ``serve``       — stress the concurrent query service: admit a workload
                    mix onto a bounded worker pool and poll live progress,
                    with optional mid-flight cancellation and deadlines;
* ``tpch-mu``     — print Table 2 (μ per TPC-H query);
* ``sky-mu``      — print Table 3 (μ per SkyServer query);
* ``experiments`` — regenerate paper artifacts (figures/tables/ablations).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.bench import (
    ablation_bytes_model,
    ablation_scale_sweep,
    ablation_skew_sweep,
    ablation_feedback,
    ablation_hybrid,
    ablation_lower_bound,
    ablation_predictive_orders,
    ablation_scan_based,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    render_series,
    render_table,
    table1,
    table2,
    table3,
)
from repro.bench.harness import downsample
from repro.core import (
    JsonlTraceWriter,
    ProgressRunner,
    estimator_names,
    mu,
    run_with_estimators,
    standard_toolkit,
    toolkit_from_names,
)
from repro.core.runner import ProgressReport
from repro.options import (
    BACKENDS,
    BOUND_PROVIDERS,
    ENGINES,
    ExecutionOptions,
)
from repro.sql import plan_query
from repro.workloads import (
    SKYSERVER_QUERIES,
    build_query,
    build_skyserver_query,
    generate_skyserver,
    generate_tpch,
)

EXPERIMENTS = {
    "figure3": lambda: _series_artifact(figure3(), "Figure 3"),
    "figure4": lambda: _series_artifact(figure4(), "Figure 4"),
    "figure5": lambda: _series_artifact(figure5(), "Figure 5"),
    "figure6": lambda: _series_artifact(figure6(), "Figure 6"),
    "figure7": lambda: _series_artifact(figure7(), "Figure 7"),
    "table1": lambda: render_table(
        ["estimator", "max INL", "max hash", "avg INL", "avg hash"],
        [[r.estimator, r.max_err_inl, r.max_err_hash, r.avg_err_inl,
          r.avg_err_hash] for r in table1()],
        title="Table 1",
    ),
    "table2": lambda: render_table(
        ["query", "mu"], sorted(table2().items()), title="Table 2"
    ),
    "table3": lambda: render_table(
        ["query", "mu"], sorted(table3().items()), title="Table 3"
    ),
    "lower-bound": lambda: str(ablation_lower_bound()),
    "predictive-orders": lambda: str(ablation_predictive_orders()),
    "scan-based": lambda: str(ablation_scan_based()),
    "hybrid": lambda: str(ablation_hybrid()),
    "bytes-model": lambda: str(ablation_bytes_model()),
    "skew-sweep": lambda: str(ablation_skew_sweep()),
    "scale-sweep": lambda: str(ablation_scale_sweep()),
    "feedback": lambda: str(ablation_feedback()),
}


def _series_artifact(result, title: str) -> str:
    return render_series(result["series"], title=title)


def _bounds_for(args: argparse.Namespace) -> Optional[List[str]]:
    if getattr(args, "bounds", None) is None:
        return None
    return [name.strip() for name in args.bounds.split(",") if name.strip()]


def _toolkit_for(args: argparse.Namespace):
    """The run's toolkit: ``--estimators`` names, or the paper's three.

    History-backed estimators (``feedback``, ``robust``) start cold here —
    a CLI invocation is one run — so they answer exactly as safe until an
    application wires a shared history through :class:`repro.api.Session`.
    """
    names = getattr(args, "estimators", None)
    if not names:
        return standard_toolkit()
    return toolkit_from_names(
        [part.strip() for part in names.split(",") if part.strip()]
    )


def _print_progress_table(report: ProgressReport, points: int = 15) -> None:
    names = report.trace.estimator_names()
    print("%9s" % ("actual",) + "".join("%10s" % (name,) for name in names))
    for sample in downsample(report.trace.samples, points):
        cells = "".join(
            "%9.1f%%" % (sample.estimates[name] * 100,) for name in names
        )
        print("%8.1f%%%s" % (sample.actual * 100, cells))
    print("total getnext calls: %d" % (report.total,))
    if report.mu is not None:
        print("mu (work per input tuple): %.3f" % (report.mu,))
    for name in names:
        print(
            "%-10s max abs err %6.2f%%   avg abs err %6.2f%%"
            % (
                name,
                report.trace.max_abs_error(name) * 100,
                report.trace.avg_abs_error(name) * 100,
            )
        )


def cmd_demo(args: argparse.Namespace) -> int:
    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    print("generated mini TPC-H:", db.cardinalities())
    plan = build_query(db, args.query)
    print("\nphysical plan for Q%d:" % (args.query,))
    print(plan.explain())
    print()
    report = run_with_estimators(
        plan, _toolkit_for(args), db.catalog, engine=args.engine,
        bounds=_bounds_for(args),
    )
    _print_progress_table(report)
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    plan = plan_query(args.query, db.catalog, name="cli-sql")
    print(plan.explain())
    print()
    report = run_with_estimators(
        plan, _toolkit_for(args), db.catalog, engine=args.engine,
        bounds=_bounds_for(args),
    )
    _print_progress_table(report)
    if args.rows:
        from repro.engine.executor import execute

        result = execute(plan, engine=args.engine)
        print("\nfirst %d rows:" % (min(args.rows, result.row_count),))
        for row in result.rows[: args.rows]:
            print(" ", row)
    return 0


def cmd_progress(args: argparse.Namespace) -> int:
    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    if args.sql:
        plan = plan_query(args.sql, db.catalog, name="cli-progress")
    else:
        plan = build_query(db, args.tpch)
    print(plan.explain())
    print()
    sinks = []
    if args.trace:
        sinks.append(JsonlTraceWriter(args.trace))
    runner = ProgressRunner(
        plan,
        _toolkit_for(args),
        db.catalog,
        target_samples=args.samples,
        sinks=sinks,
        engine=args.engine,
        bounds=_bounds_for(args),
    )
    report = runner.run()
    _print_progress_table(report)
    profile = report.profile
    if profile is not None:
        print()
        rate = profile.ticks_per_second
        print("elapsed: %.3fs   ticks: %d   rate: %s ticks/s   "
              "sampling overhead: %.1f%%" % (
                  profile.elapsed_seconds,
                  profile.ticks,
                  "%.0f" % (rate,) if rate else "n/a",
                  profile.overhead_fraction * 100,
              ))
        for name, estimator_profile in sorted(profile.estimators.items()):
            print("%-10s %5d calls   avg %8.1fus   max %8.1fus" % (
                name,
                estimator_profile.calls,
                estimator_profile.avg_seconds * 1e6,
                estimator_profile.max_seconds * 1e6,
            ))
    if args.trace:
        print("\nwrote %d events to %s" % (sinks[0].lines_written, args.trace))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Stress the HTTP/WebSocket server: admit a tenant workload mix,
    watch live progress over the wire, and report via ``/metrics``."""
    from repro.server import (
        ReproServer,
        ServerClient,
        ServerConfig,
        TenantQuota,
    )

    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    numbers = [int(part) for part in args.queries.split(",") if part]
    total = len(numbers) * args.repeat
    options = ExecutionOptions(
        engine=args.engine,
        bounds=_bounds_for(args),
        backend=args.backend,
        start_method=args.start_method,
        max_workers=args.workers,
        queue_depth=max(args.queue_depth, total),
        target_samples=args.samples,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        options=options,
        default_quota=TenantQuota(
            max_pending=max(TenantQuota().max_pending, total),
            max_inflight=max(1, args.workers),
        ),
        default_deadline=args.deadline,
    )
    server = ReproServer(db.catalog, config=config)
    with server.running():
        resolved = server.config.options
        client = ServerClient(server.config.host, server.port)
        scheduled = []
        for round_index in range(args.repeat):
            for number in numbers:
                # Plan objects hold runtime state: the scheduler calls the
                # factory at dispatch time so every run gets a fresh plan.
                factory = (lambda db=db, number=number:
                           build_query(db, number))
                scheduled.append(server.scheduler.submit(
                    args.tenant, factory,
                    name="Q%d#%d" % (number, round_index),
                    target_samples=args.samples,
                ))
        print("admitted %d queries onto %d %s workers (engine=%s) "
              "at http://%s:%d"
              % (len(scheduled), resolved.max_workers, resolved.backend,
                 resolved.engine, server.config.host, server.port))
        cancel_target = None
        if args.cancel is not None and 0 <= args.cancel < len(scheduled):
            cancel_target = scheduled[args.cancel]
            # Spin for the first live sample so the DELETE lands while the
            # query is still on a worker (tiny test databases finish in
            # tens of milliseconds — a coarse poll would miss the window).
            while (cancel_target.latest_progress() is None
                   and not cancel_target.done):
                time.sleep(0.001)
            client.cancel(cancel_target.query_id)
            print("cancelled %s mid-flight" % (cancel_target.name,))
        while not all(query.done for query in scheduled):
            line = []
            for query in scheduled:
                record = client.status(query.query_id)
                progress = record.get("progress")
                if record["done"] or progress is None:
                    line.append("%s:%s" % (record["query"],
                                           record["state"]))
                else:
                    # No truth label while the query runs — show the
                    # first estimator's answer.
                    value = next(iter(progress["estimates"].values()), 0.0)
                    line.append("%s:%4.1f%%" % (record["query"],
                                                value * 100))
            print("  ".join(line))
            time.sleep(args.poll)
        print()
        print("%-10s %-10s" % ("query", "state"))
        for record in client.queries():
            print("%-10s %-10s" % (record["query"], record["state"]))
        metrics = client.metrics()
        all_done = all(query.done for query in scheduled)
    queries = metrics["queries"]
    stats = dict(queries["completed"])
    stats["submitted"] = queries["submitted"]
    stats["throttled"] = queries["throttled"]
    print("stats: " + "  ".join(
        "%s=%d" % (key, stats[key]) for key in sorted(stats)
    ))
    tenant = metrics["tenants"].get(args.tenant, {})
    print("ticks=%d  http_requests=%d  p50=%.3fs  p99=%.3fs" % (
        tenant.get("ticks", 0),
        metrics["http_requests"],
        metrics["latency"]["p50_seconds"] or 0.0,
        metrics["latency"]["p99_seconds"] or 0.0,
    ))
    if all_done:
        print("all queries reached a terminal state")
        return 0
    return 1


def cmd_explain(args: argparse.Namespace) -> int:
    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    plan = plan_query(args.query, db.catalog, name="cli-explain")
    print(plan.explain())
    print("scan-based: %s   linear: %s   internal nodes: %d" % (
        plan.is_scan_based(), plan.is_linear(), plan.internal_node_count(),
    ))
    return 0


def cmd_tpch_mu(args: argparse.Namespace) -> int:
    db = generate_tpch(scale=args.scale, skew=args.skew, seed=args.seed)
    rows = []
    for number in range(1, 23):
        rows.append([number, mu(build_query(db, number))])
    print(render_table(["query", "mu"], rows,
                       title="mu per TPC-H query (skew z=%g)" % (args.skew,)))
    return 0


def cmd_sky_mu(args: argparse.Namespace) -> int:
    db = generate_skyserver(scale=args.size, seed=args.seed)
    rows = [
        [number, mu(build_skyserver_query(db, number))]
        for number in sorted(SKYSERVER_QUERIES)
    ]
    print(render_table(["query", "mu"], rows,
                       title="mu per SkyServer query (%d objects)" % (args.size,)))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    names = args.names or sorted(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print("unknown experiment %r (choose from: %s)"
                  % (name, ", ".join(sorted(EXPERIMENTS))), file=sys.stderr)
            return 2
        print("== %s ==" % (name,))
        print(EXPERIMENTS[name]())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Progress estimation for SQL queries (SIGMOD 2005 repro)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    defaults = ExecutionOptions().resolve()

    def add_db_options(p):
        p.add_argument("--scale", type=float, default=0.001,
                       help="TPC-H scale (fraction of SF-1)")
        p.add_argument("--skew", type=float, default=2.0,
                       help="zipf skew parameter z")
        p.add_argument("--seed", type=int, default=42)

    def add_engine_option(p):
        p.add_argument("--engine", choices=ENGINES, default=None,
                       help="execution engine (default: $REPRO_ENGINE or %s)"
                       % (defaults.engine,))

    def add_bounds_option(p):
        p.add_argument("--bounds", default=None, metavar="NAME,NAME,...",
                       help="comma-separated bound-provider stack for the "
                            "runtime bounds tracker (default: $REPRO_BOUNDS "
                            "or %s; choose from: %s)"
                       % (",".join(defaults.bounds),
                          ", ".join(BOUND_PROVIDERS)))

    def add_estimators_option(p):
        p.add_argument("--estimators", default=None, metavar="NAME,NAME,...",
                       help="comma-separated estimator names to sample "
                            "(default: dne,pmax,safe; choose from: %s)"
                       % (", ".join(estimator_names()),))

    demo = subparsers.add_parser("demo", help="monitor a TPC-H query")
    add_db_options(demo)
    add_engine_option(demo)
    add_bounds_option(demo)
    add_estimators_option(demo)
    demo.add_argument("--query", type=int, default=1, choices=range(1, 23),
                      metavar="N", help="TPC-H query number (1-22)")
    demo.set_defaults(func=cmd_demo)

    sql = subparsers.add_parser("sql", help="run SQL with progress monitoring")
    add_db_options(sql)
    add_engine_option(sql)
    add_bounds_option(sql)
    add_estimators_option(sql)
    sql.add_argument("query", help="SQL text against the TPC-H schema")
    sql.add_argument("--rows", type=int, default=0,
                     help="also print the first N result rows")
    sql.set_defaults(func=cmd_sql)

    progress = subparsers.add_parser(
        "progress", help="run with full progress observability"
    )
    add_db_options(progress)
    add_engine_option(progress)
    add_bounds_option(progress)
    add_estimators_option(progress)
    progress.add_argument("sql", nargs="?", default=None,
                          help="SQL text (default: the --tpch query)")
    progress.add_argument("--tpch", type=int, default=1, choices=range(1, 23),
                          metavar="N", help="TPC-H query number (1-22)")
    progress.add_argument("--trace", metavar="OUT.JSONL", default=None,
                          help="stream progress events as JSON Lines")
    progress.add_argument("--samples", type=int, default=200,
                          help="target number of samples")
    progress.set_defaults(func=cmd_progress)

    serve = subparsers.add_parser(
        "serve", help="stress the concurrent query service"
    )
    add_db_options(serve)
    add_engine_option(serve)
    add_bounds_option(serve)
    serve.add_argument("--queries", default="1,3,6,10,12,14,19,6",
                       help="comma-separated TPC-H query numbers")
    serve.add_argument("--repeat", type=int, default=1,
                       help="submit the whole mix this many times")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-depth", type=int, default=16)
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="execution backend: thread (default) shares the "
                            "GIL, process runs queries on worker processes "
                            "($REPRO_BACKEND overrides)")
    serve.add_argument("--start-method", default=None,
                       metavar="{fork,spawn,forkserver}",
                       help="how process workers start (process backend "
                            "only; $REPRO_START_METHOD overrides)")
    serve.add_argument("--samples", type=int, default=50,
                       help="target progress samples per query")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline in seconds")
    serve.add_argument("--cancel", type=int, default=None, metavar="I",
                       help="cancel the I-th admitted query mid-flight")
    serve.add_argument("--poll", type=float, default=0.2,
                       help="seconds between live progress polls")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for the HTTP/WebSocket server")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0: pick an ephemeral port)")
    serve.add_argument("--tenant", default="cli",
                       help="tenant name the workload is admitted under")
    serve.set_defaults(func=cmd_serve)

    explain = subparsers.add_parser("explain", help="show the physical plan")
    add_db_options(explain)
    explain.add_argument("query")
    explain.set_defaults(func=cmd_explain)

    tpch_mu = subparsers.add_parser("tpch-mu", help="Table 2: mu per query")
    add_db_options(tpch_mu)
    tpch_mu.set_defaults(func=cmd_tpch_mu)

    sky_mu = subparsers.add_parser("sky-mu", help="Table 3: mu per query")
    sky_mu.add_argument("--size", type=int, default=6000)
    sky_mu.add_argument("--seed", type=int, default=11)
    sky_mu.set_defaults(func=cmd_sky_mu)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate paper artifacts"
    )
    experiments.add_argument("names", nargs="*",
                             help="subset (default: all): %s"
                             % (", ".join(sorted(EXPERIMENTS)),))
    experiments.set_defaults(func=cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
