"""Differential suite: the compiled engines vs the interpreted reference.

The fused engine (``repro/engine/compiled.py``) and the columnar engine
(``repro/engine/columnar.py``) share one contract: each is *observationally
identical* to the row-at-a-time Volcano reference: the same
rows in the same order, the same per-operator getnext counts, observers
firing at exactly the same total-tick instants (seeing the same per-operator
counters when they do), and — stacking all of that — bit-identical estimator
traces.  This suite asserts each of those layers, for every engine in
``executor.ENGINES``, over all 22 TPC-H plans and the adversarial join plans
of §5 (the merge/NL plans exercise the columnar engine's per-subtree
fallback: unsupported operators run through the fused adapters mid-plan).
Without NumPy, ``engine="columnar"`` resolves to the fused engine; the
resolution tests at the end hide NumPy and hold that run to the same
contract.

Plans hold operator state, so every run builds a fresh plan; counts are
compared positionally over the plan's canonical pre-order traversal (labels
embed a process-wide id counter and differ between builds).
"""

from __future__ import annotations

import sys

import pytest

from repro.core.estimators.dne import DneEstimator
from repro.core.estimators.pmax import PmaxEstimator
from repro.core.estimators.safe import SafeEstimator
from repro.core.runner import run_with_estimators
from repro.engine.executor import ENGINES, execute
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import TableScan
from repro.engine.plan import Plan
from repro.options import ExecutionOptions
from repro.workloads.adversarial import make_example2, make_zipfian_join
from repro.workloads.tpch.queries import build_query

#: observer cadence used for firing-instant comparisons — deliberately an
#: awkward prime so batches rarely line up with it by accident.
EVERY = 37

#: queries whose estimator traces are compared end to end (covers scans,
#: hash/INL joins, sorts, both aggregate kinds, TopN, outer joins).
TRACED_QUERIES = (1, 3, 6, 12, 13, 15, 18, 21)


def _run_differential(build_plan, every: int = EVERY):
    """Run ``build_plan()`` under every engine; return comparable traces."""
    out = {}
    for engine in ENGINES:
        plan = build_plan()
        operators = list(plan.operators())
        monitor = ExecutionMonitor()
        firings = []

        def observe(m, operators=operators, firings=firings):
            counts = m.counts()
            firings.append((
                m.total_ticks,
                tuple(counts.get(op.operator_id, 0) for op in operators),
            ))

        monitor.add_observer(observe, every=every)
        result = execute(plan, ExecutionContext(monitor), engine=engine)
        counts = monitor.counts()
        out[engine] = {
            "rows": result.rows,
            "total": monitor.total_ticks,
            "per_op": tuple(
                (op.name, counts.get(op.operator_id, 0)) for op in operators
            ),
            "firings": firings,
        }
    return out


def _assert_identical(build_plan, every: int = EVERY):
    out = _run_differential(build_plan, every=every)
    interpreted = out["interpreted"]
    for engine in ENGINES:
        if engine == "interpreted":
            continue
        compiled = out[engine]
        assert compiled["rows"] == interpreted["rows"], engine
        assert compiled["total"] == interpreted["total"], engine
        assert compiled["per_op"] == interpreted["per_op"], engine
        assert compiled["firings"] == interpreted["firings"], engine


def _estimator_traces(build_plan, catalog):
    """Per engine: the sealed dne/pmax/safe trace of one run."""
    traces = {}
    for engine in ENGINES:
        report = run_with_estimators(
            build_plan(),
            [DneEstimator(), PmaxEstimator(), SafeEstimator()],
            catalog=catalog,
            engine=engine,
        )
        traces[engine] = [
            (s.curr, s.actual, s.estimates, s.lower_bound, s.upper_bound)
            for s in report.trace.samples
        ]
        assert report.total == traces[engine][-1][0]
    return traces


# -- TPC-H ------------------------------------------------------------------------


@pytest.mark.parametrize("number", range(1, 23))
def test_tpch_query_identical_under_both_engines(tpch_db, number):
    _assert_identical(lambda: build_query(tpch_db, number))


@pytest.mark.parametrize("number", TRACED_QUERIES)
def test_tpch_estimator_traces_identical(tpch_db, number):
    traces = _estimator_traces(
        lambda: build_query(tpch_db, number), tpch_db.catalog
    )
    for engine in ENGINES:
        assert traces[engine] == traces["interpreted"], engine


# -- adversarial joins -------------------------------------------------------------


@pytest.fixture(scope="module")
def zipf():
    return make_zipfian_join(n=2000, z=2.0, order="skew_last", seed=7)


def test_zipfian_inl_identical(zipf):
    _assert_identical(zipf.inl_plan)


def test_zipfian_inl_filtered_identical(zipf):
    _assert_identical(lambda: zipf.inl_plan(skip_top_ranks=3))


def test_zipfian_hash_identical(zipf):
    _assert_identical(zipf.hash_plan)


def test_zipfian_merge_identical(zipf):
    _assert_identical(zipf.merge_plan)


def test_example2_inl_identical():
    workload = make_example2(n=500, matches=40)
    _assert_identical(workload.inl_plan)


def test_nested_loops_rescan_identical(zipf):
    # ⋈NL rescans the inner per outer row: the hardest accounting case
    # (rewind events, spool re-emission) — run it at a smaller n.
    small = make_zipfian_join(n=60, z=1.5, order="random", seed=3)

    def build():
        outer = TableScan(small.r1)
        inner = TableScan(small.r2)
        from repro.engine.expressions import col

        join = NestedLoopsJoin(outer, inner, col("r1.a") == col("r2.b"))
        return Plan(join, "zipf-nl")

    _assert_identical(build)


def test_zipfian_estimator_traces_identical(zipf):
    traces = _estimator_traces(zipf.inl_plan, zipf.catalog)
    for engine in ENGINES:
        assert traces[engine] == traces["interpreted"], engine


# -- cadence edge cases ------------------------------------------------------------


@pytest.mark.parametrize("every", (1, 2, 1000))
def test_observer_cadence_extremes(tpch_db, every):
    # every=1 forces a flush per tick (the batched path degenerates to the
    # interpreted one); a huge cadence means only boundary-forced rounds.
    _assert_identical(lambda: build_query(tpch_db, 6), every=every)
    _assert_identical(lambda: build_query(tpch_db, 18), every=every)


# -- columnar resolution with and without NumPy ------------------------------------


def test_columnar_resolves_to_columnar_with_numpy():
    pytest.importorskip("numpy")
    assert ExecutionOptions(engine="columnar").resolve().engine == "columnar"


def test_columnar_resolves_to_fused_without_numpy(monkeypatch, tpch_db):
    # A None entry in sys.modules makes find_spec report NumPy missing and
    # ``import numpy`` raise ImportError, as on a NumPy-free install.
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert ExecutionOptions(engine="columnar").resolve().engine == "fused"
    _assert_identical(lambda: build_query(tpch_db, 3))
    traces = _estimator_traces(lambda: build_query(tpch_db, 3), tpch_db.catalog)
    assert traces["columnar"] == traces["interpreted"]
