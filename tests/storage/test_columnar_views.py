"""Columnar table views: packing rules and caching.

The typing contract (see ``repro/storage/columnar.py``): a column becomes
an array only when every value has *exactly* the declared Python type and
none is NULL, so kernel arithmetic and ``tolist()`` round-trips are
bit-identical to row-at-a-time execution.  Anything questionable stays a
plain list.  The module requires NumPy (without it, engine resolution picks
the fused engine and never builds a view), so this suite skips without it.
"""

from __future__ import annotations

import pytest

from repro.storage import Table, schema_of
from repro.storage.schema import Column, ColumnType, Schema

numpy = pytest.importorskip("numpy")

from repro.storage.columnar import columns_for, pack_values  # noqa: E402


def table_of(spec, rows, name="t"):
    return Table(name, schema_of(name, *spec), rows)


class TestPacking:
    def test_exact_int_column_packs_to_int64(self):
        view = columns_for(table_of(["k:int"], [(1,), (2,), (3,)]))
        assert isinstance(view[0], numpy.ndarray)
        assert view[0].dtype == numpy.int64
        assert view[0].tolist() == [1, 2, 3]

    def test_exact_float_and_str_columns_pack(self):
        view = columns_for(
            table_of(["x:float", "s:str"], [(1.5, "a"), (-0.25, "bb")])
        )
        assert view[0].dtype == numpy.float64
        assert view[0].tolist() == [1.5, -0.25]
        assert view[1].dtype.kind == "U"
        assert view[1].tolist() == ["a", "bb"]

    def test_int_valued_float_column_stays_a_list(self):
        # 4 is a legal FLOAT value but not exactly a float: coercing it to
        # 4.0 would change what a row-at-a-time engine observes.
        view = columns_for(table_of(["x:float"], [(1.5,), (4,)]))
        assert view[0] == [1.5, 4]
        assert type(view[0][1]) is int

    def test_nullable_column_with_null_stays_a_list(self):
        table = Table(
            "n",
            Schema.of("n", [Column("k", ColumnType.INT, nullable=True)]),
            [(1,), (None,), (3,)],
        )
        assert columns_for(table)[0] == [1, None, 3]

    def test_out_of_int64_range_stays_a_list(self):
        big = 2 ** 63
        view = columns_for(table_of(["k:int"], [(1,), (big,)]))
        assert view[0] == [1, big]

    def test_bool_column_packs_and_round_trips(self):
        view = columns_for(table_of(["b:bool"], [(True,), (False,)]))
        assert view[0].dtype == numpy.bool_
        assert view[0].tolist() == [True, False]

    def test_empty_table_packs_empty_columns(self):
        view = columns_for(table_of(["k:int", "s:str"], []))
        assert len(view) == 2
        assert all(len(column) == 0 for column in view)


class TestCaching:
    def test_view_is_cached_per_table_object(self):
        table = table_of(["k:int"], [(1,), (2,)])
        assert columns_for(table) is columns_for(table)

    def test_distinct_table_objects_get_distinct_views(self):
        a = table_of(["k:int"], [(1,)], name="a")
        b = table_of(["k:int"], [(1,)], name="b")
        assert columns_for(a) is not columns_for(b)


class TestPackValues:
    def test_sniffs_int_float_str(self):
        assert pack_values([1, 2], None).dtype == numpy.int64
        assert pack_values([1.0, 2.0], None).dtype == numpy.float64
        assert pack_values(["x", "y"], None).dtype.kind == "U"

    def test_mixed_values_stay_a_list(self):
        assert pack_values([1, "x"], None) == [1, "x"]
        assert pack_values([1, 2.0], None) == [1, 2.0]

    def test_explicit_type_uses_packing_rules(self):
        packed = pack_values([1, 2], ColumnType.INT)
        assert packed.dtype == numpy.int64
        assert pack_values([1, None], ColumnType.INT) == [1, None]
