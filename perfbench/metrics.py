"""Metric names, units, the layer map and the shared arithmetic.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics named in
``BENCHMARK.json`` (the smoke test holds them to it).  ``LAYER_MAP`` writes
down, before any measurement, which end-to-end metric each per-layer
metric should move and on which workload.

Every workload reports every end-to-end metric (tracing off, GC on).  How
each is taken, on tpch-dense and then on server-mixed:

setup_s
    median over fresh set-ups of data generation + ``analyze_all`` (+ the
    session; + the server start and the solo reference runs).
cold_pass_s
    median over fresh set-ups of the first pass (bare + instrumented per
    query; the first sequential pass over the SQL pool through the server).
query_s_p50, query_s_p90
    over each query's median (across the warm passes; across its
    arrivals): ``Session.run`` call to return; due time to terminal frame,
    completed queries only.
first_sample_s_p50
    median over each query's median time from the ``Session.run`` call to
    the first ``sample`` event reaching the attached in-memory sink; from
    due time to the first ``sample`` frame.
ticks_per_s
    ticks over instrumented wall time, over those per-query medians.
overhead_x
    instrumented over bare wall time on the same warm passes; solo
    ``Session.run`` over ``Session.execute`` of the interactive queries,
    back to back after the open loop (per-query medians, then sums).
goodput_qps
    queries within the latency limit per instrumented second; completed
    queries within the limit over the open loop's span (first due time to
    last terminal frame).
rss_mb
    peak RSS of this process; of the server process.
ok_frac
    checked operations that passed over those attempted: the complement of
    the failed fraction, kept positive because metrics must never be 0.
safe_err_max, dne_err_avg
    the maximum of ``ProgressTrace.max_ratio_error("safe")`` and the mean of
    ``ProgressTrace.avg_ratio_error("dne")`` over the sealed traces.

Per-layer metrics come from the separate traced run.  On tpch-dense they are
per traced warm pass (``storage.*`` from the cold pass, ``stats.analyze_s``
from set-up); on server-mixed they are totals over the traced closed pass
and open loop, with ``engine.*`` taken from the solo references (bare and
instrumented runs of the same pool queries).  A layer a workload never
enters reports 0.
"""

from __future__ import annotations

import math
import resource
from typing import Dict, Sequence

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "query_s_p50": "s",
    "query_s_p90": "s",
    "first_sample_s_p50": "s",
    "ticks_per_s": "1/s",
    "overhead_x": "x",
    "goodput_qps": "1/s",
    "rss_mb": "MB",
    "ok_frac": "fraction",
    "safe_err_max": "ratio",
    "dne_err_avg": "ratio",
}

PER_LAYER: Dict[str, str] = {
    "runner.sample_s": "s",
    "runner.samples": "count",
    "runner.self_s": "s",
    "bounds.snapshot_s": "s",
    "bounds.snapshots": "count",
    "bounds.snapshot_us": "us",
    "estimators.dne.estimate_s": "s",
    "estimators.dne.calls": "count",
    "estimators.pmax.estimate_s": "s",
    "estimators.pmax.calls": "count",
    "estimators.safe.estimate_s": "s",
    "estimators.safe.calls": "count",
    "pipelines.decompose_s": "s",
    "pipelines.capture_s": "s",
    "pipelines.output_hint_calls": "count",
    "pipelines.driver_fraction_calls": "count",
    "observe.emit_s": "s",
    "observe.events": "count",
    "engine.bare_s": "s",
    "engine.self_s": "s",
    "engine.stepping_s": "s",
    "engine.ticks": "count",
    "storage.view_build_s": "s",
    "storage.view_builds": "count",
    "stats.analyze_s": "s",
    "stats.estimate_plan_s": "s",
    "sql.plan_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "server.sched_wait_s": "s",
    "server.post_s": "s",
    "server.ws_frames": "count",
    "server.ws_bytes": "bytes",
    "server.ws_tail_s": "s",
    "loadgen.late_s_p90": "s",
    "trace.overhead_x": "x",
}

_PER_SAMPLE = ("overhead_x", "ticks_per_s", "query_s_p50")
#: layer -> (per-layer metrics, [(end-to-end metric, workload), ...]);
#: "(flat)" marks a workload where the metric should not move (server-mixed
#: samples 20 times per query on the fused engine, so sampling is light)
LAYER_MAP = {
    "repro.core.runner": (
        ("runner.sample_s", "runner.samples", "runner.self_s"),
        [(m, "tpch-dense") for m in _PER_SAMPLE]
        + [(m, "server-mixed (flat)") for m in _PER_SAMPLE],
    ),
    "repro.core.bounds": (
        ("bounds.snapshot_s", "bounds.snapshots", "bounds.snapshot_us"),
        [(m, "tpch-dense") for m in _PER_SAMPLE]
        + [(m, "server-mixed (flat)") for m in _PER_SAMPLE],
    ),
    "repro.core.estimators": (
        tuple("estimators.%s.%s" % (name, what)
              for name in ("dne", "pmax", "safe")
              for what in ("estimate_s", "calls")),
        [(m, "tpch-dense") for m in _PER_SAMPLE]
        + [(m, "server-mixed (flat)") for m in _PER_SAMPLE],
    ),
    "repro.core.pipelines": (
        ("pipelines.decompose_s", "pipelines.capture_s",
         "pipelines.output_hint_calls", "pipelines.driver_fraction_calls"),
        [(m, "tpch-dense") for m in _PER_SAMPLE]
        + [(m, "server-mixed (flat)") for m in _PER_SAMPLE],
    ),
    "repro.core.observe": (
        ("observe.emit_s", "observe.events"),
        [("overhead_x", "tpch-dense"), ("query_s_p50", "server-mixed")],
    ),
    "repro.engine": (
        ("engine.bare_s", "engine.self_s", "engine.stepping_s",
         "engine.ticks"),
        [("overhead_x", "tpch-dense"), ("ticks_per_s", "server-mixed")],
    ),
    "repro.storage": (
        ("storage.view_build_s", "storage.view_builds"),
        [("cold_pass_s", "tpch-dense")],
    ),
    "repro.stats": (
        ("stats.analyze_s", "stats.estimate_plan_s"),
        [("setup_s", "all"), ("first_sample_s_p50", "server-mixed")],
    ),
    "repro.sql": (
        ("sql.plan_s",),
        [("query_s_p50", "server-mixed"),
         ("first_sample_s_p50", "server-mixed")],
    ),
    "repro.service": (
        ("service.queue_wait_s", "service.run_s"),
        [("query_s_p90", "server-mixed"),
         ("first_sample_s_p50", "server-mixed")],
    ),
    "repro.server": (
        ("server.sched_wait_s", "server.post_s", "server.ws_frames",
         "server.ws_bytes", "server.ws_tail_s"),
        [("query_s_p50", "server-mixed"), ("query_s_p90", "server-mixed"),
         ("first_sample_s_p50", "server-mixed"), ("rss_mb", "server-mixed")],
    ),
    "benchmark health": (
        ("loadgen.late_s_p90", "trace.overhead_x"),
        [],
    ),
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(attempted: int, failed: int, messages: Sequence[str],
           values: Dict[str, float], units: Dict[str, str]) -> dict:
    """The final output object: every metric of ``units``, with its unit.

    The first failure messages are printed above it.
    """
    for message in messages[:20]:
        print("FAILED %s" % message)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError("metrics not measured: %s" % ", ".join(missing))
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
