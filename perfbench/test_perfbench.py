"""The benchmark's own tests.

    python3 -m pytest perfbench -q

A tiny-scale smoke run of every workload in both modes, the self-time
arithmetic on hand-built spans, seed determinism of the generated inputs,
and the agreement between ``BENCHMARK.json`` and ``perfbench.metrics``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs
from perfbench.metrics import END_TO_END, LAYER_MAP, PER_LAYER
from perfbench.tracing import Span, covered, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# as in run.py: the program is imported from src/ of this checkout
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKLOADS = ("tpch-dense", "server-mixed")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- smoke run --------------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    spec = _spec()
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[0])["seed"] == 3
    output = json.loads(lines[-1])
    assert set(output) == {"correct", "attempted", "failed", "metrics"}
    assert output["correct"] is True
    assert output["failed"] == 0 and output["attempted"] >= 1
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in output["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        for name, metric in output["metrics"].items():
            assert metric["value"] > 0, name


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "tpch-dense", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- self-time arithmetic ---------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    root = Span("runner.run", 0.0, 10.0, None, "q1")
    engine = Span("engine.run", 1.0, 9.0, root, "q1")
    first = Span("runner.sample", 2.0, 4.0, engine, "q1")
    second = Span("runner.sample", 3.0, 5.0, engine, "q1")  # overlaps first
    leaf = Span("bounds.snapshot", 2.5, 3.0, first, "q1")
    selfs = self_times([root, engine, first, second, leaf])
    assert selfs[id(root)] == pytest.approx(2.0)
    assert selfs[id(engine)] == pytest.approx(5.0)
    assert selfs[id(first)] == pytest.approx(1.5)
    assert selfs[id(second)] == pytest.approx(2.0)
    assert selfs[id(leaf)] == pytest.approx(0.5)


def test_record_after_reparents_the_spans_it_contains():
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.enabled = True

    def sample():
        tracer.call("bounds.snapshot", lambda: None, (), {})
        tracer.record_after("runner.sample", 1.0)

    tracer.call("engine.run", sample, (), {})
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["bounds.snapshot"].parent is by_name["runner.sample"]
    assert by_name["runner.sample"].parent is by_name["engine.run"]


# -- span coverage checks ---------------------------------------------------

def test_tpch_span_check_flags_time_outside_the_layer_spans():
    from perfbench.tpch import span_problems
    from perfbench.tracing import Tracer

    tracer = Tracer()
    top = Span("session.run", 0.0, 1.0, None, "q1")
    tracer.spans = [top, Span("runner.run", 0.01, 0.99, top, "q1")]
    row = {"number": 1, "started": 0.0, "ended": 1.0}
    assert span_problems(tracer, [row]) == []
    tracer.spans = [top, Span("runner.run", 0.0, 0.5, top, "q1")]
    assert len(span_problems(tracer, [row])) == 1


def test_server_span_check_flags_gaps_and_disorder():
    from perfbench.server import QueryRecord, _span_problems

    record = QueryRecord(0, due=0.0, sent=0.001, posted=0.004, ws_start=0.005,
                         end=0.100, qid="q-1", state="done")
    marks = {"q-1": {
        "sched_submit": 0.002, "sched_queued": 0.003,
        "service_submit": 0.004, "service_queued": 0.005,
        "run_start": 0.006, "run_end": 0.090,
        "frame_start": 0.0901, "frame_built": 0.0905,
    }}
    assert _span_problems([record], marks) == []
    # unspanned server work between the run and the terminal frame
    gap = {"q-1": dict(marks["q-1"], run_end=0.050)}
    assert "spans cover" in _span_problems([record], gap)[0]
    swapped = {"q-1": dict(marks["q-1"], run_start=0.0045)}
    assert "out of order" in _span_problems([record], swapped)[0]
    missing = {"q-1": {k: v for k, v in marks["q-1"].items()
                       if k != "frame_start"}}
    assert "no server span" in _span_problems([record], missing)[0]


# -- seeded inputs ----------------------------------------------------------

def test_one_seed_always_generates_the_same_inputs():
    assert inputs.sql_pool() == inputs.sql_pool()
    assert inputs.arrival_schedule(7, 15) == inputs.arrival_schedule(7, 15)
    assert inputs.tpch_pass_order(7, 2) == inputs.tpch_pass_order(7, 2)
    assert inputs.arrival_schedule(7, 15) != inputs.arrival_schedule(8, 15)
    assert inputs.tpch_pass_order(7, 2) != inputs.tpch_pass_order(7, 3)


def test_schedule_offers_the_fixed_rate_and_cancel_share():
    schedule = inputs.arrival_schedule(1, 20)
    assert len(schedule) == round(20 * inputs.ARRIVAL_RATE_QPS)
    assert sum(a.cancel for a in schedule) == (
        len(schedule) // inputs.CANCEL_EVERY)
    assert schedule[-1].due < 20
    assert {a.tenant for a in schedule} == set(inputs.TENANTS)


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_server_workload_why_states_the_fixed_constants():
    why = next(w["why"] for w in _spec()["workloads"]
               if w["name"] == "server-mixed")
    assert "%g q/s" % inputs.ARRIVAL_RATE_QPS in why
    assert "%g s latency limit" % inputs.LATENCY_LIMIT_S in why
    assert "1 in %d cancelled" % inputs.CANCEL_EVERY in why


def test_layer_map_names_every_per_layer_metric_once():
    named = [m for metrics, _targets in LAYER_MAP.values() for m in metrics]
    assert sorted(named) == sorted(PER_LAYER)


def test_layer_map_targets_measured_workloads_and_metrics():
    workloads = {w["name"] for w in _spec()["workloads"]} | {"all"}
    for _metrics, targets in LAYER_MAP.values():
        for metric, workload in targets:
            assert metric in END_TO_END
            assert workload.replace(" (flat)", "") in workloads
