"""The shared pipeline state equals a from-scratch computation everywhere.

:class:`~repro.core.pipelines.PipelineState` memoizes each operator's
runtime output hint and each pipeline's snapshot and dne weight, and
recomputes only what the bounds tracker's event feed marked dirty.  These
tests hold it, at every observer instant (cadence, boundary-forced and
terminal), to values computed from scratch right there:

* each snapshot equals :meth:`PipelineSnapshot.capture`, so each driver
  fraction equals :meth:`Pipeline.driver_fraction`;
* each weight equals dne's original per-pipeline formula
  (:func:`_reference_weight`, kept here as the oracle);
* the current pipeline equals the original first-started-unfinished scan.

The matrix covers every engine over all 22 TPC-H plans and the adversarial
shapes: ⋈NL rewinds (with a blocking inner that sits in two pipelines),
merge-join and union multi-driver pipelines, LIMIT early stop (operators
released by ``close()`` before the terminal sample), empty inputs and
⋈INL.  Live probe samples taken between cadence instants must not disturb
later instants, and neither may ``monitor.reset()`` followed by a re-run.
"""

from __future__ import annotations

import pytest

from repro.core import DneEstimator, MemorySink, ProgressRunner
from repro.core.bounds import BoundsTracker
from repro.core.estimators.base import ProgressEstimator
from repro.core.pipelines import (
    PipelineSnapshot,
    PipelineState,
    decompose,
    runtime_output_hint,
)
from repro.engine.executor import ENGINES, execute
from repro.engine.expressions import col
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    ExecutionContext,
    HashAggregate,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopsJoin,
    Sort,
    SortKey,
    TableScan,
    TopN,
    UnionAll,
    count_star,
)
from repro.engine.plan import Plan
from repro.stats.estimate import CardinalityEstimator
from repro.storage import Table, schema_of
from repro.workloads.adversarial import make_example2, make_zipfian_join
from repro.workloads.tpch import build_query


# -- from-scratch oracles ---------------------------------------------------------


def _reference_weight(pipeline, estimates):
    """dne's per-pipeline weight, recomputed from live operator state."""
    weight = 0.0
    for operator in pipeline.operators:
        hint = runtime_output_hint(operator, estimates)
        if hint is None:
            hint = max(operator.rows_produced, 1.0)
        weight += hint
    return weight


def _reference_current(pipelines):
    for pipeline in pipelines:
        if pipeline.started() and not pipeline.finished():
            return pipeline
    for pipeline in pipelines:
        if not pipeline.finished():
            return pipeline
    return None


def assert_matches_scratch(state):
    pipelines, estimates = state.pipelines, state.estimates
    expected = tuple(
        PipelineSnapshot.capture(pipeline, estimates) for pipeline in pipelines
    )
    assert state.snapshots == expected
    assert [s.driver_fraction for s in state.snapshots] == [
        pipeline.driver_fraction(estimates) for pipeline in pipelines
    ]
    if len(pipelines) > 1:
        assert state.weights == [
            _reference_weight(pipeline, estimates) for pipeline in pipelines
        ]
    assert state.current() is _reference_current(pipelines)
    return expected


class _Checker(ProgressEstimator):
    """Compares the observation's shared state with scratch values."""

    name = "check"

    def __init__(self):
        self.expected = []

    def estimate(self, observation):
        self.expected.append(assert_matches_scratch(observation.driver_state()))
        return 0.0


# -- plans ----------------------------------------------------------------------------


def _table(name, n):
    return Table(name, schema_of(name, "k:int", "v:int"),
                 [(i % 7, (i * 31) % 11) for i in range(n)])


_T = _table("t", 400)
_A = _table("a", 150)
_B = _table("b", 90)
_EMPTY = Table("e", schema_of("e", "k:int", "v:int"), [])
_SMALL = make_zipfian_join(n=60, z=1.5, order="random", seed=3)
_ZIPF = make_zipfian_join(n=600, z=2.0, order="skew_last", seed=7)
_EXAMPLE2 = make_example2(n=300, matches=30)

ADVERSARIAL = {
    "nl-rewind": lambda: Plan(NestedLoopsJoin(
        TableScan(_SMALL.r1), TableScan(_SMALL.r2),
        col("r1.a") == col("r2.b"))),
    "nl-sorted-inner": lambda: Plan(NestedLoopsJoin(
        TableScan(_SMALL.r1),
        Sort(TableScan(_SMALL.r2), [SortKey(col("r2.b"))]),
        col("r1.a") == col("r2.b"))),
    "merge": lambda: Plan(Sort(MergeJoin(
        Sort(TableScan(_A), [SortKey(col("a.k"))]),
        Sort(TableScan(_B), [SortKey(col("b.k"))]),
        col("a.k"), col("b.k")), [SortKey(col("a.v"))])),
    "zipf-merge": _ZIPF.merge_plan,
    "union": lambda: Plan(Sort(UnionAll(
        Sort(TableScan(_A), [SortKey(col("a.v"))]),
        TopN(TableScan(_B), [SortKey(col("b.v"))], 5)),
        [SortKey(col("a.k")), SortKey(col("a.v"))])),
    "limit-sort": lambda: Plan(Limit(
        Sort(TableScan(_T), [SortKey(col("t.v"))]), 7)),
    "limit-agg": lambda: Plan(Limit(HashAggregate(
        TableScan(_T), [("k", col("t.k"))], [count_star()]), 2)),
    "limit-scan": lambda: Plan(Limit(TableScan(_T), 50)),
    "empty-build": lambda: Plan(HashJoin(
        TableScan(_EMPTY), TableScan(_A), col("e.k"), col("a.k"))),
    "empty-agg": lambda: Plan(HashAggregate(
        TableScan(_EMPTY), [], [count_star()])),
    "zipf-inl": _ZIPF.inl_plan,
    "example2-inl": _EXAMPLE2.inl_plan,
}
CATALOGS = {"zipf-merge": _ZIPF.catalog, "zipf-inl": _ZIPF.catalog,
            "example2-inl": _EXAMPLE2.catalog}


def run_checked(plan, catalog, engine, target_samples, **runner_options):
    """One instrumented run with the checker beside dne; returns it."""
    checker = _Checker()
    sink = MemorySink()
    ProgressRunner(
        plan, [DneEstimator(), checker], catalog,
        target_samples=target_samples, sinks=[sink], engine=engine,
        **runner_options,
    ).run()
    assert checker.expected
    # Every sample event carries the state the estimators just read.
    assert [event.pipelines for event in sink.samples()] == checker.expected
    return checker


# -- the matrix -------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("number", range(1, 23))
def test_tpch_state_matches_scratch(tpch_db, engine, number):
    run_checked(build_query(tpch_db, number), tpch_db.catalog, engine, 60)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
@pytest.mark.parametrize("target_samples", (200, 30))
def test_adversarial_state_matches_scratch(engine, name, target_samples):
    # 30 samples puts a LIMIT-over-aggregate cadence instant on the
    # aggregate's last tick, so the terminal sample after close() must
    # not reuse that instant's hints.
    run_checked(ADVERSARIAL[name](), CATALOGS.get(name), engine,
                target_samples)


class _ProbingMonitor(ExecutionMonitor):
    """Takes a live probe sample before every few recorded batches — the
    instant a process-backend worker serves one — i.e. between cadence
    instants, after the engine changed state but before it announced it."""

    def __init__(self, every):
        super().__init__()
        self.probe = None
        self.every = every
        self.calls = 0
        self.probes = 0

    def _maybe_probe(self):
        self.calls += 1
        if self.probe is not None and self.calls % self.every == 0:
            self.probe.live_sample()
            self.probes += 1

    def record(self, operator_id):
        self._maybe_probe()
        super().record(operator_id)

    def record_batch(self, operator_id, n):
        self._maybe_probe()
        super().record_batch(operator_id, n)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("plan_of", [
    lambda db: build_query(db, 3),
    lambda db: build_query(db, 21),
    lambda db: ADVERSARIAL["nl-sorted-inner"](),
], ids=["q3", "q21", "nl-sorted-inner"])
def test_probe_between_instants_keeps_state_exact(tpch_db, engine, plan_of):
    monitors = []

    def make_monitor():
        monitors.append(_ProbingMonitor(every=7))
        return monitors[-1]

    def attach(probe):
        monitors[-1].probe = probe

    run_checked(plan_of(tpch_db), tpch_db.catalog, engine, 40,
                monitor_factory=make_monitor, on_probe=attach,
                probe_estimators=[DneEstimator()])
    assert monitors[-1].probes > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_reset_then_rerun_keeps_state_exact(tpch_db, engine):
    plan = build_query(tpch_db, 3)
    estimates = CardinalityEstimator(tpch_db.catalog).estimate_plan(plan)
    state = PipelineState(decompose(plan), estimates, plan.operators())
    tracker = BoundsTracker(plan, tpch_db.catalog)
    monitor = ExecutionMonitor()
    tracker.attach(monitor, state)
    instants = []

    def observe(m):
        tracker.snapshot()
        assert_matches_scratch(state.refresh())
        instants.append(m.total_ticks)

    monitor.add_observer(observe, every=97)
    execute(plan, ExecutionContext(monitor), engine=engine)
    first_run = len(instants)
    assert first_run > 0
    # Re-opening the plan zeroes operator state without announcing it; the
    # reset event is what invalidates the state before the re-run.
    monitor.reset()
    execute(plan, ExecutionContext(monitor), engine=engine)
    assert len(instants) > first_run
    tracker.detach()
    assert not state.attached


def test_run_has_one_batch_listener():
    plan = ADVERSARIAL["union"]()
    seen = []

    class Listeners(ProgressEstimator):
        name = "listeners"

        def estimate(self, observation):
            seen.append(len(monitors[-1]._batch_listeners))
            return 0.0

    monitors = []

    def make_monitor():
        monitors.append(ExecutionMonitor())
        return monitors[-1]

    ProgressRunner(plan, [Listeners()], monitor_factory=make_monitor,
                   target_samples=20).run()
    assert seen and set(seen) == {1}
    assert monitors[-1]._batch_listeners == []


def test_clean_pipelines_keep_their_snapshot_instances(tpch_db):
    sink = MemorySink()
    ProgressRunner(build_query(tpch_db, 3), [DneEstimator()],
                   tpch_db.catalog, target_samples=60, sinks=[sink]).run()
    samples = sink.samples()
    shared = sum(
        1
        for before, after in zip(samples, samples[1:])
        for old, new in zip(before.pipelines, after.pipelines)
        if old is new
    )
    assert shared > 0


def test_unattached_state_recomputes_in_full():
    plan = ADVERSARIAL["limit-sort"]()
    state = PipelineState(decompose(plan))
    monitor = ExecutionMonitor()
    checks = []

    def observe(m):
        # No tracker feeds this state: every refresh starts all-dirty.
        assert_matches_scratch(state.refresh())
        checks.append(m.total_ticks)

    monitor.add_observer(observe, every=13)
    execute(plan, ExecutionContext(monitor), engine="interpreted")
    assert len(checks) > 1


def test_tracker_rejects_a_state_in_another_order():
    plan = ADVERSARIAL["merge"]()
    operators = list(plan.operators())
    state = PipelineState(decompose(plan), None, reversed(operators))
    with pytest.raises(ValueError):
        BoundsTracker(plan).attach(ExecutionMonitor(), state)
