"""The tpch-dense workload: one closed-loop caller.

Every pass runs each TPC-H query bare (``Session.execute``) and then
instrumented (``Session.run``, columnar engine, 200 samples, dne/pmax/safe,
one in-memory sink as a live progress bar would attach), in the pass's
seeded order.  Set-up (data generation plus ``analyze_all``) is repeated
on fresh catalogs and each fresh catalog's first pass is the cold pass;
the warm loop then runs on the last catalog until the run's time is up.
"""

from __future__ import annotations

import gc
import math
import os
from typing import Dict, List, Optional

from repro.core.observe import MemorySink

from perfbench import inputs
from perfbench.metrics import (
    END_TO_END, PER_LAYER, median, peak_rss_mb, percentile, result,
)
from perfbench.tracing import (
    Tracer, clock, covered, install_layers, layer_metrics,
)

#: fresh-catalog set-ups per untraced run; setup_s and cold_pass_s report
#: their medians
SETUPS = 3
#: traced spans must cover each query's measured wall time this closely
SPAN_TOLERANCE = 0.05
SPAN_SLACK_S = 0.0005
_RELATIVE = 1e-9

SCALE = 0.02
ENGINE = "columnar"
TARGET_SAMPLES = 200
ESTIMATORS = ("dne", "pmax", "safe")


class _ProgressBar(MemorySink):
    """The in-memory sink a live progress bar would attach; it also notes
    when the run's first ``sample`` event reached it."""

    def __init__(self) -> None:
        super().__init__()
        self.first_sample: Optional[float] = None

    def emit(self, event) -> None:
        if self.first_sample is None and event.kind == "sample":
            self.first_sample = clock()
        self.events.append(event)


class _RowsProbe:
    """Keeps the rows the engine returned to the last run (the runner
    itself discards them): one wrapper call per engine run, untimed."""

    def __init__(self) -> None:
        self.rows = None
        import repro.engine.columnar as columnar_engine
        import repro.engine.compiled as compiled

        probe = self
        for module, attr in ((compiled, "run_fused"),
                             (columnar_engine, "run_columnar")):
            engine_run = getattr(module, attr)

            def keep_rows(*args, _run=engine_run, **kwargs):
                probe.rows = _run(*args, **kwargs)
                return probe.rows

            setattr(module, attr, keep_rows)


def check_trace(trace) -> List[str]:
    """The paper's invariants at every sealed sample."""
    from repro.core.metrics import ratio_error

    problems = []
    total = trace.total
    slack = 1.0 + _RELATIVE
    for index, s in enumerate(trace.samples):
        lower, upper = s.lower_bound, s.upper_bound
        if not (s.curr <= lower * slack and lower <= total * slack
                and total <= upper * slack):
            problems.append("sample %d: Curr<=LB<=total<=UB broken "
                            "(%r, %r, %r, %r)" % (index, s.curr, lower,
                                                  total, upper))
        if s.estimates["pmax"] * slack < s.actual:
            problems.append("sample %d: pmax %r < actual %r"
                            % (index, s.estimates["pmax"], s.actual))
        if lower > 0 and s.actual > 0:
            err = ratio_error(s.estimates["safe"], s.actual)
            if err > math.sqrt(upper / lower) * slack:
                problems.append("sample %d: safe error %r > sqrt(UB/LB)"
                                % (index, err))
    return problems


class _Run:
    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.safe_max = 0.0
        self.dne_avgs: List[float] = []
        self.probe = _RowsProbe()
        self.db = None
        self.session = None

    def setup(self) -> float:
        import repro
        from repro.stats.manager import StatisticsManager
        from repro.workloads.tpch import generate_tpch

        self.db = self.session = None
        gc.collect()
        started = clock()
        db = generate_tpch(scale=self.scale, skew=inputs.SKEW,
                           seed=self.seed, build_statistics=False)
        StatisticsManager(db.catalog).analyze_all()
        self.session = repro.connect(
            catalog=db.catalog, engine=ENGINE, target_samples=TARGET_SAMPLES,
        )
        self.db = db
        return clock() - started

    def query(self, number: int, tracer: Optional[Tracer] = None
              ) -> Optional[Dict[str, float]]:
        """One bare + instrumented pair, checked; None when it failed."""
        from repro.workloads.tpch import build_query

        self.attempted += 1
        label = "q%d" % number
        probe = self.probe
        try:
            if tracer is not None:
                tracer.set_query(label + ":bare")
            started = clock()
            bare = self.session.execute(build_query(self.db, number))
            bare_s = clock() - started
            bar = _ProgressBar()
            plan = build_query(self.db, number)
            if tracer is not None:
                tracer.set_query(label)
            probe.rows = None
            started = clock()
            report = self.session.run(plan, estimators=ESTIMATORS,
                                      sinks=(bar,))
            ended = clock()
        except Exception as exc:  # a failed query is counted, not fatal
            self.fail(label, ["%s: %s" % (type(exc).__name__, exc)])
            return None
        problems = check_trace(report.trace)
        if probe.rows != bare.rows:
            problems.append("instrumented rows differ from bare rows")
        if report.total != bare.total_getnext:
            problems.append("instrumented total %r != bare getnext %r"
                            % (report.total, bare.total_getnext))
        if problems:
            self.fail(label, problems)
            return None
        self.safe_max = max(self.safe_max,
                            report.trace.max_ratio_error("safe"))
        self.dne_avgs.append(report.trace.avg_ratio_error("dne"))
        return {
            "bare_s": bare_s,
            "query_s": ended - started,
            "first_sample_s": (bar.first_sample or ended) - started,
            "ticks": report.total,
            "sample_s": report.profile.sample_seconds,
            "samples": report.profile.samples,
            "started": started,
            "ended": ended,
        }

    def fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.failures.extend("%s: %s" % (label, p) for p in problems[:3])

    def run_pass(self, pass_index: int, tracer: Optional[Tracer] = None
                 ) -> List[Dict[str, float]]:
        rows = []
        for number in inputs.tpch_pass_order(self.seed, pass_index):
            row = self.query(number, tracer)
            if row is not None:
                row["number"] = number
                rows.append(row)
        return rows

    def quality(self) -> Dict[str, float]:
        return {
            "safe_err_max": self.safe_max,
            "dne_err_avg": (sum(self.dne_avgs) / len(self.dne_avgs)
                            if self.dne_avgs else 0.0),
            "ok_frac": ((self.attempted - self.failed) / self.attempted
                        if self.attempted else 0.0),
        }


def _warm_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Each query's median over the warm passes, then the query mix.

    Per-query medians keep a GC pause or a noisy neighbour in one pass
    from moving the percentiles; every run covers the same 22 queries.
    """
    by_query: Dict[int, List[Dict[str, float]]] = {}
    for row in rows:
        by_query.setdefault(row["number"], []).append(row)

    def typical(key: str) -> List[float]:
        return [median([r[key] for r in runs]) for runs in by_query.values()]

    query_s = typical("query_s")
    instrumented = sum(query_s)
    return {
        "query_s_p50": median(query_s),
        "query_s_p90": percentile(query_s, 0.9),
        "first_sample_s_p50": median(typical("first_sample_s")),
        "ticks_per_s": sum(typical("ticks")) / instrumented,
        "overhead_x": instrumented / sum(typical("bare_s")),
        "goodput_qps": sum(1 for s in query_s if s <= inputs.LATENCY_LIMIT_S)
        / instrumented,
    }


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE,
        setups: int = SETUPS, out_dir: Optional[str] = None) -> dict:
    bench = _Run(seed, scale)
    if trace:
        return _traced(bench, seconds, out_dir)
    setup_s, cold_s = [], []
    for _ in range(setups):
        setup_s.append(bench.setup())
        started = clock()
        bench.run_pass(0)
        cold_s.append(clock() - started)
    rows: List[Dict[str, float]] = []
    # Whole passes only, so every run's percentiles cover the same query
    # mix; the run ends with the first pass that finishes after `seconds`.
    deadline = clock() + seconds
    pass_index = 1
    while pass_index == 1 or clock() < deadline:
        rows.extend(bench.run_pass(pass_index))
        pass_index += 1
    values = {
        "setup_s": median(setup_s),
        "cold_pass_s": median(cold_s),
        "rss_mb": peak_rss_mb(),
    }
    values.update(_warm_metrics(rows) if rows else {})
    values.update(bench.quality())
    for name in END_TO_END:
        values.setdefault(name, 0.0)
    return result(bench.attempted, bench.failed, bench.failures, values,
                  END_TO_END)


def span_problems(tracer: Tracer, rows: List[Dict[str, float]]) -> List[str]:
    """The layer spans directly beneath each instrumented query's
    ``Session.run`` span must cover the query's measured wall time."""
    layers: Dict[str, List] = {}
    for span in tracer.spans:
        top = span.parent
        if (top is not None and top.parent is None
                and top.name == "session.run" and top.qid is not None):
            layers.setdefault(top.qid, []).append((span.start, span.end))
    problems = []
    for row in rows:
        wall = row["ended"] - row["started"]
        cover = covered(layers.get("q%d" % row["number"], ()),
                        row["started"], row["ended"])
        if wall - cover > SPAN_TOLERANCE * wall + SPAN_SLACK_S:
            problems.append("q%d: layer spans cover %.6f s of %.6f s"
                            % (row["number"], cover, wall))
    return problems


def _traced(bench: _Run, seconds: float, out_dir: Optional[str]) -> dict:
    """Set-up and the cold pass traced, then untraced and traced warm
    passes alternating until the time is up; per-layer values are per
    traced warm pass.  Untraced passes run with the wrappers removed."""
    tracer = Tracer()
    install_layers(tracer)
    tracer.enabled = True
    bench.setup()
    bench.run_pass(0, tracer=tracer)
    cold = layer_metrics(tracer)
    tracer.uninstall()
    tracer.reset()
    untraced_s = traced_s = 0.0
    rows: List[Dict[str, float]] = []
    passes = 0
    deadline = clock() + seconds
    while passes == 0 or clock() < deadline:
        passes += 1
        started = clock()
        bench.run_pass(passes)
        untraced_s += clock() - started
        install_layers(tracer)
        tracer.enabled = True
        started = clock()
        rows.extend(bench.run_pass(passes, tracer=tracer))
        traced_s += clock() - started
        tracer.uninstall()
    problems = span_problems(tracer, rows)
    if problems:
        bench.fail("spans", problems)
    if out_dir is not None:
        tracer.write(os.path.join(out_dir, "tpch-dense.spans.jsonl"))
    values = {
        name: value if name == "bounds.snapshot_us" else value / passes
        for name, value in layer_metrics(tracer).items()
    }
    values.update({
        "storage.view_build_s": cold["storage.view_build_s"],
        "storage.view_builds": cold["storage.view_builds"],
        "stats.analyze_s": cold["stats.analyze_s"],
        "runner.sample_s": sum(r["sample_s"] for r in rows) / passes,
        "runner.samples": sum(r["samples"] for r in rows) / passes,
        "engine.ticks": sum(r["ticks"] for r in rows) / passes,
        "trace.overhead_x": traced_s / untraced_s,
    })
    values["engine.stepping_s"] = (values["engine.self_s"]
                                   - values["engine.bare_s"])
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    return result(bench.attempted, bench.failed, bench.failures, values,
                  PER_LAYER)
