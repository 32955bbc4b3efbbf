"""The columnar batch engine: fallback paths, edge cases, and list-typed
data columns.

The broad observational-identity matrix lives in
``test_compiled_engine.py`` (all engines over TPC-H + adversarial plans);
this module covers what is specific to ``repro.engine.columnar``:

* per-subtree fallback — a plan with one unsupported operator (merge join,
  ⋈NL, UNION ALL) still matches the interpreter bit for bit, with the
  supported islands under it vectorized;
* data the vectorized kernels refuse (NULLs, mixed-type columns) dropping
  to exact row semantics without changing a single observable;
* LIMIT/OFFSET truncation edges, probe-preserving outer joins, and empty
  inputs;
* NULL-bearing and mixed int/float columns, which stay plain lists, pushed
  through every kernel that keeps a list branch.

The engine requires NumPy (without it, engine resolution picks the fused
engine; ``test_compiled_engine.py`` covers that), so this suite skips
without it.
"""

from __future__ import annotations

import pytest

from repro.engine.executor import (
    ENGINES,
    execute,
)
from repro.options import ExecutionOptions
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Distinct,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
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
    agg_avg,
    agg_min,
    agg_sum,
    count,
    count_star,
)
from repro.engine.plan import Plan
from repro.errors import ExecutionError
from repro.storage import HashIndex, SortedIndex, Table, schema_of
from repro.storage.schema import Column, ColumnType, Schema

pytest.importorskip("numpy")

import repro.storage.columnar as colstore  # noqa: E402
from repro.engine.columnar import _vec_supported  # noqa: E402

EVERY = 3  # tight cadence: every firing instant is compared


def make_table(name="t", n=12, width=1):
    spec = ["k:int", "v:int", "s:str"][: width + 1]
    rows = [tuple([i % 5] + [i * 7 % 11, "s%d" % (i % 3)][:width]) for i in range(n)]
    return Table(name, schema_of(name, *spec), rows)


def run_engine(build_plan, engine, every=EVERY):
    plan = build_plan()
    operators = list(plan.operators())
    monitor = ExecutionMonitor()
    firings = []

    def observe(m):
        counts = m.counts()
        firings.append((
            m.total_ticks,
            tuple(counts.get(op.operator_id, 0) for op in operators),
        ))

    monitor.add_observer(observe, every=every)
    result = execute(plan, ExecutionContext(monitor), engine=engine)
    counts = monitor.counts()
    return {
        "rows": result.rows,
        "total": monitor.total_ticks,
        "per_op": tuple(
            (op.name, counts.get(op.operator_id, 0)) for op in operators
        ),
        "firings": firings,
    }


def assert_columnar_matches(build_plan, every=EVERY):
    interpreted = run_engine(build_plan, "interpreted", every=every)
    columnar = run_engine(build_plan, "columnar", every=every)
    assert columnar == interpreted


# -- engine resolution -------------------------------------------------------------


class TestEngineResolution:
    def test_columnar_is_a_registered_engine(self):
        assert "columnar" in ENGINES
        assert ExecutionOptions(engine="columnar").resolve().engine == \
            "columnar"

    def test_env_var_flips_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert ExecutionOptions().resolve().engine == "columnar"

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionOptions(engine="vectorized").resolve()


# -- per-subtree fallback ----------------------------------------------------------


class TestFallback:
    def test_merge_join_plan_falls_back_and_matches(self):
        left = make_table("l", 30)
        right = make_table("r", 20)

        def build():
            join = MergeJoin(
                Sort(TableScan(left), [SortKey(col("l.k"))]),
                Sort(TableScan(right), [SortKey(col("r.k"))]),
                col("l.k"),
                col("r.k"),
            )
            return Plan(Sort(join, [SortKey(col("l.v"))]))

        assert not _vec_supported(build().root)
        assert_columnar_matches(build)

    def test_nested_loops_rescan_falls_back_and_matches(self):
        outer, inner = make_table("o", 8), make_table("i", 6)

        def build():
            join = NestedLoopsJoin(
                TableScan(outer), TableScan(inner), col("o.k") == col("i.k")
            )
            return Plan(join)

        assert_columnar_matches(build)

    def test_union_all_with_vectorizable_islands_matches(self):
        a, b = make_table("a", 15), make_table("b", 9)

        def build():
            union = UnionAll(
                Sort(TableScan(a), [SortKey(col("a.v"))]),
                TopN(TableScan(b), [SortKey(col("b.v"))], 5),
            )
            return Plan(Sort(union, [SortKey(col("a.k")), SortKey(col("a.v"))]))

        assert not _vec_supported(build().root)
        assert_columnar_matches(build)

    def test_null_group_keys_fall_back_to_row_semantics(self):
        table = Table(
            "n",
            Schema.of("n", [
                Column("k", ColumnType.INT, nullable=True),
                Column("v", ColumnType.INT),
            ]),
            [(None, 1), (2, 2), (None, 3), (2, 4), (5, 5)],
        )

        def build():
            agg = HashAggregate(
                TableScan(table),
                [("k", col("n.k"))],
                [agg_sum(col("n.v"), "total"), count_star()],
            )
            return Plan(Sort(agg, [SortKey(col("total"))]))

        assert_columnar_matches(build)

    def test_mixed_type_column_falls_back_to_row_semantics(self):
        # A FLOAT column holding the occasional plain int refuses array
        # packing (coercion would change float formatting/identity), so the
        # kernels run on plain lists with exact row semantics.
        table = Table(
            "m",
            schema_of("m", "k:int", "x:float"),
            [(1, 1.5), (2, 2.5), (3, 4), (1, 0.5)],
        )
        assert isinstance(colstore.columns_for(table)[1], list)

        def build():
            return Plan(
                Sort(
                    Filter(TableScan(table), col("m.k") >= lit(1)),
                    [SortKey(col("m.x"))],
                )
            )

        assert_columnar_matches(build)


# -- operator edge cases -----------------------------------------------------------


class TestOperatorEdges:
    @pytest.mark.parametrize("limit,offset", [
        (0, 0), (1, 0), (5, 0), (12, 0), (100, 0),
        (3, 2), (0, 4), (5, 100), (100, 12),
    ])
    def test_limit_offset_edges(self, limit, offset):
        table = make_table("t", 12)

        def build():
            return Plan(Limit(TableScan(table), limit, offset))

        assert_columnar_matches(build)

    def test_limit_truncates_blocking_child_mid_pipeline(self):
        table = make_table("t", 40)

        def build():
            sort = Sort(TableScan(table), [SortKey(col("t.v"))])
            return Plan(Limit(sort, 7))

        assert_columnar_matches(build)

    def test_topn_limit_edges(self):
        table = make_table("t", 9)
        for n in (0, 1, 9, 50):
            assert_columnar_matches(
                lambda n=n: Plan(
                    TopN(TableScan(table), [SortKey(col("t.v"), descending=True)], n)
                )
            )

    def test_preserve_probe_outer_join(self):
        build_side, probe = make_table("b", 6), make_table("p", 14)

        def build():
            join = HashJoin(
                TableScan(build_side),
                TableScan(probe),
                col("b.v"),
                col("p.v"),
                preserve_probe=True,
            )
            return Plan(Sort(join, [SortKey(col("p.k")), SortKey(col("p.v"))]))

        assert_columnar_matches(build)

    def test_empty_inputs(self):
        empty = Table("e", schema_of("e", "k:int", "v:int"), [])
        other = make_table("o", 5)
        cases = [
            lambda: Plan(TableScan(empty)),
            lambda: Plan(Filter(TableScan(empty), col("e.k") > lit(0))),
            lambda: Plan(Sort(TableScan(empty), [SortKey(col("e.k"))])),
            lambda: Plan(Distinct(TableScan(empty))),
            lambda: Plan(
                HashJoin(TableScan(empty), TableScan(other), col("e.k"), col("o.k"))
            ),
            lambda: Plan(
                HashJoin(TableScan(other), TableScan(empty), col("o.k"), col("e.k"))
            ),
            lambda: Plan(
                HashAggregate(
                    TableScan(empty), [], [count_star(), agg_sum(col("e.v"), "s")]
                )
            ),
        ]
        for build in cases:
            assert_columnar_matches(build)

    def test_distinct_project_pipeline(self):
        table = make_table("t", 24, width=2)

        def build():
            projected = Project(
                TableScan(table), [("key", col("t.k")), ("tag", col("t.s"))]
            )
            return Plan(Sort(Distinct(projected), [SortKey(col("key")), SortKey(col("tag"))]))

        assert_columnar_matches(build)

    def test_aggregates_over_floats_are_bit_identical(self):
        # Float accumulation order is observable: the batch kernels must
        # reproduce the interpreter's left-fold exactly, not just closely.
        rows = [(i % 4, 0.1 * i * (-1) ** i) for i in range(57)]
        table = Table("f", schema_of("f", "g:int", "x:float"), rows)

        def build():
            agg = HashAggregate(
                TableScan(table),
                [("g", col("f.g"))],
                [
                    agg_sum(col("f.x"), "total"),
                    agg_avg(col("f.x"), "mean"),
                    agg_min(col("f.x"), "low"),
                ],
            )
            return Plan(Sort(agg, [SortKey(col("g"))]))

        interpreted = run_engine(build, "interpreted")
        columnar = run_engine(build, "columnar")
        assert columnar == interpreted  # == on floats: bit-identical or bust


# -- list-typed data columns -------------------------------------------------------

#: NULL-bearing INT keys, and FLOAT keys mixing in plain ints (2 == 2.0
#: joins and groups like one key): neither packs into an array
NULL_KEYS = [None, 1, 2, None, 3, 1, 4, None, 2, 0, 3, None, 5, 1]
MIXED_KEYS = [1.0, 2, 2.0, 3.5, 1, 4.0, 0, 3.5, 2, 6.0, 1.0, 2.5]


def list_table(name, keys, key_type=ColumnType.INT):
    """A table whose ``k`` column stays a list; ``v`` NULLs every 4th row."""
    table = Table(
        name,
        Schema.of(name, [
            Column("k", key_type, nullable=True),
            Column("v", ColumnType.INT, nullable=True),
        ]),
        [
            (key, None if i % 4 == 3 else i * 7 % 11)
            for i, key in enumerate(keys)
        ],
    )
    assert isinstance(colstore.columns_for(table)[0], list)
    return table


@pytest.fixture(params=["null", "mixed"])
def keyed(request):
    """(build/inner table, probe/outer table) over one kind of list keys."""
    if request.param == "null":
        return (
            list_table("b", NULL_KEYS[:9]),
            list_table("p", NULL_KEYS[::-1]),
        )
    return (
        list_table("b", MIXED_KEYS[:7], ColumnType.FLOAT),
        list_table("p", MIXED_KEYS[::-1], ColumnType.FLOAT),
    )


class TestListTypedColumns:
    def test_hash_join(self, keyed):
        build_side, probe = keyed

        def build():
            return Plan(HashJoin(
                TableScan(build_side), TableScan(probe),
                col("b.k"), col("p.k"),
            ))

        assert_columnar_matches(build)

    @pytest.mark.parametrize("index_type", [HashIndex, SortedIndex])
    def test_inl_join(self, keyed, index_type):
        inner, outer = keyed

        def build():
            return Plan(IndexNestedLoopsJoin(
                TableScan(outer), index_type("ix", inner, "k"), col("p.k"),
            ))

        assert_columnar_matches(build)

    def test_probe_preserving_outer_join(self, keyed):
        build_side, probe = keyed

        def build():
            return Plan(HashJoin(
                TableScan(build_side), TableScan(probe),
                col("b.k"), col("p.k"), preserve_probe=True,
            ))

        assert_columnar_matches(build)

    def test_group_by_aggregates_over_nulls(self, keyed):
        _, table = keyed

        def build():
            agg = HashAggregate(
                TableScan(table),
                [("k", col("p.k"))],
                [
                    agg_sum(col("p.v"), "total"),
                    agg_avg(col("p.v"), "mean"),
                    agg_min(col("p.v"), "low"),
                    count(col("p.v"), "present"),
                    count_star(),
                ],
            )
            return Plan(agg)

        assert_columnar_matches(build)

    def test_stream_aggregate_over_list_keys(self, keyed):
        _, table = keyed

        def build():
            ordered = Sort(TableScan(table), [SortKey(col("p.k"))])
            return Plan(StreamAggregate(
                ordered,
                [("k", col("p.k"))],
                [agg_sum(col("p.v"), "total"), count_star()],
            ))

        assert_columnar_matches(build)

    def test_topn_over_nulls(self, keyed):
        _, table = keyed
        for descending in (False, True):
            assert_columnar_matches(
                lambda descending=descending: Plan(TopN(
                    TableScan(table),
                    [SortKey(col("p.k"), descending=descending),
                     SortKey(col("p.v"))],
                    5,
                ))
            )

    def test_distinct_over_nulls(self, keyed):
        _, table = keyed

        def build():
            projected = Project(
                TableScan(table),
                [("key", col("p.k")), ("value", col("p.v"))],
            )
            return Plan(Distinct(projected))

        assert_columnar_matches(build)
