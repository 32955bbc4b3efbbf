"""Single-pass invariant suite: one execution per query, truth at seal time.

§2.2 defines ``total(Q)`` as the number of getnext calls the run itself
makes, so an instrumented run's own final counter is the oracle.  These
tests pin what that buys and costs, on every engine and service backend:

* ``report.total`` equals :func:`measure_total_work` on a fresh copy of the
  plan — an independent bare run;
* the sealed trace — the sampled instants, every estimator answer, every
  bounds value, every back-filled ``actual`` label, µ — is bit-identical
  to the interpreted engine's, including for a stateful estimator;
* a run builds exactly one monitor (no oracle pre-run);
* live labels are ``None`` mid-run, and sealed labels are monotone and end
  at exactly 1.0;
* the query service's traces equal solo traces on both backends.
"""

from __future__ import annotations

import pytest

import repro.core.runner as runner_module
from repro.core import (
    DneEstimator,
    HybridVarianceEstimator,
    MemorySink,
    ProgressRunner,
    run_with_estimators,
    standard_toolkit,
)
from repro.engine.executor import ENGINES, measure_total_work
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Filter,
    NestedLoopsJoin,
    Sort,
    SortKey,
    TableScan,
)
from repro.engine.plan import Plan
from repro.options import ExecutionOptions
from repro.storage import Table, schema_of
from repro.workloads.tpch import build_query


# -- plan builders (fresh plan object per call: operators hold runtime
# -- state, and the bare reference run must not share it) --------------------


def scan_plan():
    table = Table("t", schema_of("t", "a:int"), [(i % 9,) for i in range(900)])
    return Plan(Filter(TableScan(table), col("a") % lit(3) == lit(0)),
                "proto-scan")


def rewind_plan():
    """⋈NL over a filtered inner: rewind/finish-heavy, worst for cadence."""
    left = Table("l", schema_of("l", "k:int"), [(i % 6,) for i in range(40)])
    right = Table("r", schema_of("r", "k:int"), [(i % 6,) for i in range(50)])
    inner = Filter(TableScan(right), col("r.k") > lit(1))
    return Plan(
        NestedLoopsJoin(TableScan(left), inner, col("l.k") == col("r.k")),
        "proto-rewind",
    )


def blocking_plan():
    """Sort pipeline boundary: forced observer rounds must survive sealing."""
    table = Table("t", schema_of("t", "k:int"), [(i % 11,) for i in range(400)])
    return Plan(Sort(TableScan(table), [SortKey(col("t.k"))]), "proto-sort")


ADVERSARIAL = [scan_plan, rewind_plan, blocking_plan]


def run_once(make_plan, *, engine=None, catalog=None, target_samples=25,
             sinks=(), estimators=None):
    return ProgressRunner(
        make_plan() if callable(make_plan) else make_plan,
        estimators if estimators is not None else standard_toolkit(),
        catalog,
        target_samples=target_samples,
        sinks=list(sinks),
        engine=engine,
    ).run()


def assert_reports_identical(a, b):
    assert a.total == b.total
    assert a.mu == b.mu
    assert len(a.trace.samples) == len(b.trace.samples)
    # TraceSample is a plain dataclass: == compares curr, actual, every
    # estimator answer and both bounds bit-for-bit.
    assert a.trace.samples == b.trace.samples


def assert_sealed_labels(report):
    actuals = [sample.actual for sample in report.trace.samples]
    assert None not in actuals
    assert actuals == sorted(actuals)
    assert actuals[-1] == 1.0


class TestBitIdenticalTraces:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make_plan", ADVERSARIAL,
                             ids=lambda f: f.__name__)
    def test_adversarial_plans(self, engine, make_plan):
        report = run_once(make_plan, engine=engine)
        assert report.total == measure_total_work(make_plan(), engine=engine)
        assert_reports_identical(
            report, run_once(make_plan, engine="interpreted")
        )
        assert_sealed_labels(report)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("number", [1, 6, 14])
    def test_tpch(self, engine, number, tpch_db):
        report = run_once(build_query(tpch_db, number), engine=engine,
                          catalog=tpch_db.catalog)
        assert report.total == measure_total_work(
            build_query(tpch_db, number), engine=engine
        )
        reference = run_once(build_query(tpch_db, number),
                             engine="interpreted", catalog=tpch_db.catalog)
        assert_reports_identical(report, reference)
        assert_sealed_labels(report)

    def test_engines_agree_under_single_pass(self):
        # Every engine's bare total agrees with every engine's sealed total.
        totals = {
            run_once(rewind_plan, engine=engine).total for engine in ENGINES
        } | {
            measure_total_work(rewind_plan(), engine=engine)
            for engine in ENGINES
        }
        assert len(totals) == 1

    def test_observer_instants_identical(self):
        """Every engine fires the cadence observer at the same ticks."""
        instants = {}
        for engine in ENGINES:
            sink = MemorySink()
            run_once(blocking_plan, engine=engine, sinks=[sink])
            instants[engine] = [event.curr for event in sink.samples()]
        for engine in ENGINES:
            assert instants[engine] == instants["interpreted"]

    def test_stateful_estimator_sees_identical_observations(self):
        # HybridVarianceEstimator's answer depends on its full observation
        # history; identical answers mean every engine fed it the same
        # sequence, not just the same final state.
        reference = run_once(rewind_plan, engine="interpreted",
                             estimators=[HybridVarianceEstimator()])
        for engine in ENGINES:
            report = run_once(rewind_plan, engine=engine,
                              estimators=[HybridVarianceEstimator()])
            assert_reports_identical(report, reference)


def counting_factory(monitors):
    def factory():
        monitors.append(1)
        return ExecutionMonitor()

    return factory


class TestExecutionCount:
    def test_single_pass_executes_exactly_once(self):
        # One monitor per run, reruns included: no oracle pre-run, and
        # nothing cached across runs that could hide one.
        monitors = []
        runner = ProgressRunner(
            scan_plan(), [DneEstimator()], target_samples=10,
            monitor_factory=counting_factory(monitors),
        )
        for expected in (1, 2, 3):
            runner.run()
            assert len(monitors) == expected

    def test_default_protocol_executes_once(self):
        sink = MemorySink()
        monitors = []
        report = ProgressRunner(
            scan_plan(), [DneEstimator()], target_samples=10,
            monitor_factory=counting_factory(monitors), sinks=[sink],
        ).run()
        assert len(monitors) == 1
        # Live events are unlabeled mid-run; only the terminal instant (at
        # progress 1 by definition) may carry its eager 1.0.
        assert all(
            event.actual is None
            for event in sink.samples() if event.curr < report.total
        )


class TestLiveLabels:
    def test_single_pass_live_actual_is_none(self):
        probes, live = [], []

        class ProbingSink(MemorySink):
            def emit(self, event):
                if event.kind == "sample":
                    live.append(probes[0].live_sample())
                super().emit(event)

        report = ProgressRunner(
            scan_plan(), [DneEstimator()], target_samples=10,
            sinks=[ProbingSink()], on_probe=probes.append,
        ).run()
        assert probes[0].live_sample().curr == report.total
        assert live, "the run produced no cadence samples"
        assert all(sample.actual is None for sample in live)
        assert all(sample.curr <= report.total for sample in live)

    def test_sealed_traces_are_always_fully_labeled(self):
        for engine in ENGINES:
            for make_plan in ADVERSARIAL:
                assert_sealed_labels(run_once(make_plan, engine=engine))


class TestProtocolResolution:
    """There is one protocol, so there is nothing left to resolve."""

    def test_default_is_single_pass(self):
        assert not hasattr(ExecutionOptions().resolve(), "protocol")
        assert not hasattr(
            ProgressRunner(scan_plan(), [DneEstimator()]), "protocol"
        )

    def test_unknown_protocol_rejected(self):
        with pytest.raises(TypeError):
            ProgressRunner(scan_plan(), [DneEstimator()],
                           protocol="single_pass")
        with pytest.raises(TypeError):
            run_with_estimators(scan_plan(), [DneEstimator()],
                                protocol="single_pass")


class TestServiceParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_trace_equals_solo_single_pass(self, backend, tpch_db):
        from repro.service import QueryService

        solo = run_once(build_query(tpch_db, 6), catalog=tpch_db.catalog,
                        target_samples=20)
        service = QueryService(
            tpch_db.catalog, max_workers=2, queue_depth=4,
            backend=backend, target_samples=20,
        )
        try:
            handle = service.submit(build_query(tpch_db, 6), name="Q6")
            report = handle.result(timeout=120)
        finally:
            service.shutdown()
        assert_reports_identical(report, solo)
        assert report.total == measure_total_work(build_query(tpch_db, 6))


class TestDeprecationShim:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            getattr(runner_module, "definitely_not_an_attribute")
