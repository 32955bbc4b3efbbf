"""The incremental BoundsTracker must be indistinguishable from the oracle.

The incremental tracker answers snapshots from a dirty-set memo fed by the
monitor's event stream; :class:`ReferenceBoundsTracker` re-walks the plan
from scratch every time.  The contract is *bit-identity*: at every sampled
instant, on every plan shape — including ⋈NL rescans (rewind events),
blocking-operator freezes, LIMIT cutoffs and histogram-backed filters — the
two produce equal ``BoundsSnapshot``\\ s, float for float.
"""

import math

import pytest
from hypothesis import given, settings

from repro.core import BoundsTracker, ReferenceBoundsTracker, total_work
from repro.core.bounds import paper2005
from repro.engine.expressions import Between, col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Distinct,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    IndexSeek,
    Limit,
    MergeJoin,
    NestedLoopsJoin,
    Project,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    TopN,
    UnionAll,
    count_star,
)
from repro.engine.plan import Plan
from repro.stats import StatisticsManager
from repro.storage import Catalog, Table, schema_of
from repro.workloads import build_query, generate_tpch

from tests.core.test_properties import plans


def assert_snapshots_identical(incremental, reference):
    assert incremental.curr == reference.curr
    assert incremental.lower == reference.lower
    assert incremental.upper == reference.upper
    assert incremental.per_node == reference.per_node


def run_comparing(plan, catalog=None, every=1):
    """Execute ``plan`` comparing the two trackers at every observer point."""
    incremental = BoundsTracker(plan, catalog)
    reference = ReferenceBoundsTracker(plan, catalog)
    monitor = ExecutionMonitor()
    incremental.attach(monitor)
    compared = [0]

    def check(m):
        assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
        compared[0] += 1

    monitor.add_observer(check, every=every)
    for _ in plan.root.iterate(ExecutionContext(monitor)):
        pass
    # Terminal state, after close().
    assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
    incremental.detach()
    return compared[0]


@settings(max_examples=80, deadline=None)
@given(plans())
def test_incremental_matches_reference_on_random_plans(plan):
    run_comparing(plan)


@settings(max_examples=40, deadline=None)
@given(plans())
def test_incremental_invariant_at_every_tick(plan):
    """Curr ≤ LB ≤ total(Q) ≤ UB, checked on the incremental tracker."""
    check_invariant_at_every_tick(plan)


def check_invariant_at_every_tick(plan, catalog=None):
    total = total_work(plan)
    tracker = BoundsTracker(plan, catalog)
    monitor = ExecutionMonitor()
    tracker.attach(monitor)

    def check(m):
        snapshot = tracker.snapshot()
        assert snapshot.curr == m.total_ticks
        assert snapshot.curr <= snapshot.lower + 1e-9
        assert snapshot.lower <= total + 1e-9
        assert total <= snapshot.upper + 1e-9

    monitor.add_observer(check, every=1)
    for _ in plan.root.iterate(ExecutionContext(monitor)):
        pass
    assert tracker.snapshot().curr == total


def small_tables():
    left = Table("l", schema_of("l", "k:int"),
                 [(v,) for v in [3, 1, 4, 1, 5, 9, 2, 6]])
    right = Table("r", schema_of("r", "k:int"),
                  [(v,) for v in [2, 7, 1, 8, 2, 8]])
    return left, right


class TestHandWrittenShapes:
    """Shapes the random generator under-covers: rewinds, limits, unions."""

    def test_nested_loops_rescans(self):
        left, right = small_tables()
        plan = Plan(NestedLoopsJoin(TableScan(left), TableScan(right),
                                    col("l.k") == col("r.k")))
        run_comparing(plan)

    def test_nested_loops_over_sorted_inner(self):
        # Blocking inner: spooled across rescans, rewind events still fire.
        left, right = small_tables()
        inner = Sort(TableScan(right), [SortKey(col("r.k"))])
        plan = Plan(NestedLoopsJoin(TableScan(left), inner))
        run_comparing(plan)

    def test_limit_over_sort(self):
        left, _ = small_tables()
        plan = Plan(Limit(Sort(TableScan(left), [SortKey(col("l.k"))]), 3))
        run_comparing(plan)

    def test_limit_cuts_scan_mid_stream(self):
        left, _ = small_tables()
        plan = Plan(Limit(Filter(TableScan(left), col("l.k") >= lit(2)), 2))
        run_comparing(plan)

    def test_topn(self):
        left, _ = small_tables()
        plan = Plan(TopN(TableScan(left), [SortKey(col("l.k"))], 4))
        run_comparing(plan)

    def test_merge_join(self):
        left, right = small_tables()
        plan = Plan(MergeJoin(
            Sort(TableScan(left), [SortKey(col("l.k"))]),
            Sort(TableScan(right), [SortKey(col("r.k"))]),
            col("l.k"), col("r.k"),
        ))
        run_comparing(plan)

    def test_union_all(self):
        left, right = small_tables()
        plan = Plan(UnionAll(
            TableScan(left),
            TableScan(Table("r2", schema_of("r2", "k:int"),
                            [(v,) for v in [1, 2]])),
        ))
        run_comparing(plan)

    def test_stream_aggregate_scalar(self):
        left, _ = small_tables()
        plan = Plan(StreamAggregate(TableScan(left), [], [count_star("n")]))
        run_comparing(plan)


def kinds_catalog():
    """Two small tables with indexes and histograms, so seeks and range
    filters carry their catalog-derived statics."""
    catalog = Catalog()
    catalog.add_table(Table("a", schema_of("a", "k:int", "v:int"), [
        (k, v) for v, k in enumerate([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    ]))
    catalog.add_table(Table("b", schema_of("b", "k:int"),
                            [(v,) for v in [2, 7, 1, 8, 2, 8, 5]]))
    catalog.add_table(Table("o", schema_of("o", "x:int"),
                            [(v,) for v in [10, 20, 30]]))
    catalog.create_sorted_index("a", "k")
    catalog.create_hash_index("b", "k")
    StatisticsManager(catalog).analyze_all()
    return catalog


def _scan(catalog, name):
    return TableScan(catalog.table(name))


def _sorted(catalog, name):
    return Sort(_scan(catalog, name), [SortKey(col("%s.k" % (name,)))])


#: one node per operator kind that ``_classify`` tags, built over
#: :func:`kinds_catalog`
NODE_KINDS = {
    "scan": (paper2005._SCAN, lambda c: _scan(c, "a")),
    "seek": (paper2005._SEEK,
             lambda c: IndexSeek(c.sorted_index("a", "k"), 2, 6)),
    "filter": (paper2005._FILTER, lambda c: Filter(
        _scan(c, "a"), Between(col("a.k"), lit(2), lit(6)))),
    "project": (paper2005._PROJECT, lambda c: Project(
        _scan(c, "a"), [("k", col("a.k"))])),
    "sort": (paper2005._SORT, lambda c: _sorted(c, "a")),
    "topn": (paper2005._TOPN, lambda c: TopN(
        _scan(c, "a"), [SortKey(col("a.k"))], 4)),
    "distinct": (paper2005._DISTINCT, lambda c: Distinct(
        Project(_scan(c, "a"), [("k", col("a.k"))]))),
    "hash_aggregate": (paper2005._AGG_HASH, lambda c: HashAggregate(
        _scan(c, "a"), [("k", col("a.k"))], [count_star("n")])),
    "stream_aggregate": (paper2005._AGG_STREAM, lambda c: StreamAggregate(
        _sorted(c, "a"), [("k", col("a.k"))], [count_star("n")])),
    "hash_join": (paper2005._HASH_JOIN, lambda c: HashJoin(
        _scan(c, "b"), _scan(c, "a"), col("b.k"), col("a.k"))),
    "merge_join": (paper2005._MERGE_JOIN, lambda c: MergeJoin(
        _sorted(c, "a"), _sorted(c, "b"), col("a.k"), col("b.k"))),
    "inl_join": (paper2005._INL_JOIN, lambda c: IndexNestedLoopsJoin(
        _scan(c, "a"), c.hash_index("b", "k"), col("a.k"))),
    "nl_join": (paper2005._NL_JOIN, lambda c: NestedLoopsJoin(
        _scan(c, "a"), _scan(c, "b"), col("a.k") == col("b.k"))),
    "limit": (paper2005._LIMIT, lambda c: Limit(_scan(c, "a"), 5)),
    "union": (paper2005._UNION, lambda c: UnionAll(
        Project(_scan(c, "a"), [("k", col("a.k"))]), _scan(c, "b"))),
}

#: the two edges that break the standard context above a node
NON_STANDARD_PARENTS = {
    "under_limit": lambda node, c: Limit(node, 3),
    "nl_inner": lambda node, c: NestedLoopsJoin(_scan(c, "o"), node),
}


class TestNonStandardContext:
    """Every bound rule evaluated below a LIMIT (``full_scan`` off) and as
    a ⋈NL inner (``single_exec`` off, rescanned per outer row)."""

    def test_every_classified_kind_is_covered(self):
        tags = {tag for tag, _ in NODE_KINDS.values()}
        assert tags == set(range(paper2005._OTHER))

    @pytest.mark.parametrize("parent", sorted(NON_STANDARD_PARENTS))
    @pytest.mark.parametrize("kind", sorted(NODE_KINDS))
    def test_rule_matches_reference(self, kind, parent):
        catalog = kinds_catalog()
        tag, build = NODE_KINDS[kind]
        node = build(catalog)
        assert paper2005._classify(node) == tag
        plan = Plan(NON_STANDARD_PARENTS[parent](node, catalog))
        assert paper2005.standard_flags(plan.root)[node.operator_id] is False
        assert run_comparing(plan, catalog, every=1) > 0
        check_invariant_at_every_tick(plan, catalog)


class TestTpchPlans:
    """The acceptance criterion: bit-identity on the benchmark plans."""

    def test_all_tpch_queries_with_catalog(self):
        db = generate_tpch(scale=0.0005, seed=7)
        for number in range(1, 23):
            plan = build_query(db, number)
            compared = run_comparing(plan, db.catalog, every=37)
            assert compared > 0, "q%d produced no samples" % (number,)


class TestIncrementalMechanics:
    def test_unattached_tracker_recomputes_like_reference(self):
        left, _ = small_tables()
        plan = Plan(Filter(TableScan(left), col("l.k") >= lit(3)))
        incremental = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        monitor = ExecutionMonitor()
        monitor.add_observer(
            lambda m: assert_snapshots_identical(
                incremental.snapshot(), reference.snapshot()
            ),
            every=1,
        )
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass

    def test_clean_snapshot_is_memoized(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        first = tracker.snapshot()
        # No events since: the second snapshot must come from the memo and
        # still be equal (same object identity for the cached per-node map
        # entries is an implementation detail; equality is the contract).
        second = tracker.snapshot()
        assert first == second

    def test_monitor_reset_resets_running_curr(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass
        assert tracker.curr == len(left)
        monitor.reset()
        assert tracker.curr == 0

    def test_foreign_operator_events_are_ignored(self):
        left, right = small_tables()
        plan = Plan(TableScan(left))
        other = Plan(TableScan(right))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        # Run an unrelated plan on the same monitor: its ticks must not
        # count toward this plan's Curr.
        for _ in other.root.iterate(ExecutionContext(monitor)):
            pass
        assert tracker.curr == 0

    def test_snapshot_full_bypasses_memo(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass
        assert_snapshots_identical(tracker.snapshot_full(), reference.snapshot())

    def test_fsum_assembly_matches_reference_exactly(self):
        # A plan wide enough that naive left-to-right summation in a
        # different node order could round differently: fsum must make the
        # totals identical regardless of accumulation order.
        tables = [
            Table("t%d" % (i,), schema_of("t%d" % (i,), "k:int"),
                  [(v,) for v in range(i + 1)])
            for i in range(7)
        ]
        root = UnionAll(*[TableScan(t) for t in tables])
        plan = Plan(root)
        run_comparing(plan)
        incremental = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        inc, ref = incremental.snapshot(), reference.snapshot()
        assert math.isclose(inc.lower, ref.lower, rel_tol=0.0, abs_tol=0.0)
        assert math.isclose(inc.upper, ref.upper, rel_tol=0.0, abs_tol=0.0)
