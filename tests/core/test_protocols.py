"""Differential suite: single_pass and two_pass are observationally equal.

The single-pass protocol's whole claim is that deferring truth labels to
completion changes *nothing* about the evaluation: the sealed trace — the
sampled instants, every estimator answer, every bounds value, every
back-filled ``actual`` label, the reported ``total`` and µ — must be
bit-identical to what the legacy two-pass (oracle pre-run) protocol
records, on every engine and every service backend.  What *does* differ is
execution count (one run instead of two) and live-label availability
(``actual=None`` mid-run) — both pinned here too.
"""

from __future__ import annotations

import threading

import pytest

import repro.core.runner as runner_module
from repro.core import (
    PROTOCOLS,
    DneEstimator,
    HybridVarianceEstimator,
    MemorySink,
    ProgressRunner,
    run_with_estimators,
    standard_toolkit,
)
from repro.options import ExecutionOptions
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
from repro.errors import ProgressError
from repro.storage import Table, schema_of
from repro.workloads.tpch import build_query


# -- plan builders (fresh plan object per call: the two_pass total cache is
# -- keyed by plan object, and a shared object would hide the second pass) ----


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


def run_once(make_plan, *, protocol, engine=None, catalog=None,
             target_samples=25, sinks=(), estimators=None):
    return ProgressRunner(
        make_plan() if callable(make_plan) else make_plan,
        estimators if estimators is not None else standard_toolkit(),
        catalog,
        target_samples=target_samples,
        sinks=list(sinks),
        engine=engine,
        protocol=protocol,
    ).run()


def assert_reports_identical(a, b):
    assert a.total == b.total
    assert a.mu == b.mu
    assert len(a.trace.samples) == len(b.trace.samples)
    # TraceSample is a plain dataclass: == compares curr, actual, every
    # estimator answer and both bounds bit-for-bit.
    assert a.trace.samples == b.trace.samples


class TestBitIdenticalTraces:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make_plan", ADVERSARIAL,
                             ids=lambda f: f.__name__)
    def test_adversarial_plans(self, engine, make_plan):
        single = run_once(make_plan, protocol="single_pass", engine=engine)
        two = run_once(make_plan, protocol="two_pass", engine=engine)
        assert_reports_identical(single, two)
        assert single.trace.samples[-1].actual == 1.0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("number", [1, 6, 14])
    def test_tpch(self, engine, number, tpch_db):
        single = run_once(build_query(tpch_db, number),
                          protocol="single_pass", engine=engine,
                          catalog=tpch_db.catalog)
        two = run_once(build_query(tpch_db, number),
                       protocol="two_pass", engine=engine,
                       catalog=tpch_db.catalog)
        assert_reports_identical(single, two)

    def test_engines_agree_under_single_pass(self):
        interpreted = run_once(rewind_plan, protocol="single_pass",
                               engine="interpreted")
        for engine in ENGINES:
            if engine == "interpreted":
                continue
            compiled = run_once(rewind_plan, protocol="single_pass",
                                engine=engine)
            assert_reports_identical(compiled, interpreted)

    def test_observer_instants_identical(self):
        """Both protocols fire the cadence observer at the same ticks."""
        sink_single, sink_two = MemorySink(), MemorySink()
        run_once(blocking_plan, protocol="single_pass", sinks=[sink_single])
        run_once(blocking_plan, protocol="two_pass", sinks=[sink_two])
        instants_single = [e.curr for e in sink_single.samples()]
        instants_two = [e.curr for e in sink_two.samples()]
        assert instants_single == instants_two

    def test_stateful_estimator_sees_identical_observations(self):
        # HybridVarianceEstimator's answer depends on its full observation
        # history; identical answers mean the protocols fed it the same
        # sequence, not just the same final state.
        single = run_once(rewind_plan, protocol="single_pass",
                          estimators=[HybridVarianceEstimator()])
        two = run_once(rewind_plan, protocol="two_pass",
                       estimators=[HybridVarianceEstimator()])
        assert_reports_identical(single, two)


class TestExecutionCount:
    def count_runs(self, protocol, make_plan=scan_plan, runs=1):
        plan = make_plan()
        monitors = []

        def factory():
            monitors.append(1)
            return ExecutionMonitor()

        runner = ProgressRunner(
            plan, [DneEstimator()], target_samples=10,
            monitor_factory=factory, protocol=protocol,
        )
        for _ in range(runs):
            runner.run()
        return len(monitors)

    def test_single_pass_executes_exactly_once(self):
        assert self.count_runs("single_pass") == 1

    def test_two_pass_executes_twice_on_a_fresh_plan(self):
        assert self.count_runs("two_pass") == 2

    def test_two_pass_oracle_cached_across_reruns(self):
        # 2 monitors for the first run (oracle + instrumented), then 1 per
        # warm rerun: the per-plan-object total cache holds.
        assert self.count_runs("two_pass", runs=3) == 4

    def test_default_protocol_executes_once(self):
        sink = MemorySink()
        plan = scan_plan()
        monitors = []

        def factory():
            monitors.append(1)
            return ExecutionMonitor()

        report = ProgressRunner(plan, [DneEstimator()], target_samples=10,
                                monitor_factory=factory, sinks=[sink]).run()
        assert len(monitors) == 1
        # Live events are unlabeled mid-run; only the terminal instant (at
        # progress 1 by definition) may carry its eager 1.0.
        assert all(
            event.actual is None
            for event in sink.samples() if event.curr < report.total
        )


class TestLiveLabels:
    def probe_at_start(self, protocol):
        captured = []

        def on_probe(probe):
            captured.append(probe.live_sample())

        ProgressRunner(
            scan_plan(), [DneEstimator()], target_samples=10,
            on_probe=on_probe, protocol=protocol,
        ).run()
        return captured[0]

    def test_single_pass_live_actual_is_none(self):
        sample = self.probe_at_start("single_pass")
        assert sample.actual is None
        assert sample.curr == 0

    def test_two_pass_live_actual_is_eager(self):
        sample = self.probe_at_start("two_pass")
        assert sample.actual == 0.0

    def test_sealed_traces_are_always_fully_labeled(self):
        for protocol in PROTOCOLS:
            report = run_once(scan_plan, protocol=protocol)
            assert all(s.actual is not None for s in report.trace.samples)
            actuals = [s.actual for s in report.trace.samples]
            assert actuals == sorted(actuals)
            assert actuals[-1] == 1.0


class TestProtocolResolution:
    def test_default_is_single_pass(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROTOCOL", raising=False)
        assert ExecutionOptions().resolve().protocol == "single_pass"
        assert ProgressRunner(scan_plan(), [DneEstimator()]).protocol == \
            "single_pass"

    def test_env_var_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROTOCOL", "two_pass")
        assert ExecutionOptions().resolve().protocol == "two_pass"
        assert ProgressRunner(scan_plan(), [DneEstimator()]).protocol == \
            "two_pass"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROTOCOL", "two_pass")
        assert ExecutionOptions(protocol="single_pass").resolve().protocol \
            == "single_pass"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ProgressError):
            ExecutionOptions(protocol="three_pass").resolve()
        with pytest.raises(ProgressError):
            ProgressRunner(scan_plan(), [DneEstimator()],
                           protocol="three_pass")

    def test_run_with_estimators_accepts_protocol(self):
        report = run_with_estimators(scan_plan(), [DneEstimator()],
                                     protocol="two_pass")
        assert report.trace.samples[-1].actual == 1.0


class TestServiceParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_trace_equals_solo_single_pass(self, backend, tpch_db):
        from repro.service import QueryService

        solo = run_once(build_query(tpch_db, 6), protocol="single_pass",
                        catalog=tpch_db.catalog, target_samples=20)
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

    def test_service_two_pass_matches_single_pass(self, tpch_db):
        from repro.service import QueryService

        reports = {}
        for protocol in PROTOCOLS:
            service = QueryService(
                tpch_db.catalog, max_workers=2, queue_depth=4,
                protocol=protocol, target_samples=20,
            )
            try:
                handle = service.submit(build_query(tpch_db, 6), name="Q6")
                reports[protocol] = handle.result(timeout=120)
            finally:
                service.shutdown()
        assert_reports_identical(reports["single_pass"], reports["two_pass"])


class TestOracleCacheThreadSafety:
    def test_concurrent_first_callers_agree(self):
        plan = scan_plan()
        expected = measure_total_work(scan_plan())
        results = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(5):
                results.append(runner_module._cached_total_work(plan))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 40
        assert set(results) == {expected}


class TestDeprecationShim:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            getattr(runner_module, "definitely_not_an_attribute")
