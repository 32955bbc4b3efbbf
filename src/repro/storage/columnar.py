"""Columnar views over heap tables: one array per column, built lazily.

The columnar engine (:mod:`repro.engine.columnar`) evaluates predicates and
join keys over whole columns instead of row by row.  This module owns the
row→column transposition and the typing rules that make that safe:

* a column becomes a NumPy array only when *every* value has exactly the
  type its :class:`~repro.storage.schema.ColumnType` promises (``int`` for
  INT, ``float`` for FLOAT, ``str`` for STR/DATE, ``bool`` for BOOL) and no
  value is NULL — so arithmetic, comparisons and ``.tolist()`` round-trips
  are bit-identical to the row-at-a-time engines (a FLOAT column holding
  the occasional ``int`` stays a plain list rather than silently coercing);
* anything else — NULLs, mixed representations, exotic types — stays a
  plain Python list, which the engine processes with exact row semantics.

Views are cached per table object (weakly, so dropped tables free their
arrays) and tables are immutable after load, so the transposition runs at
most once per table per process.

This module, like the columnar engine it feeds, requires NumPy; engine
resolution picks the fused engine instead when NumPy is not installed (see
:meth:`repro.options.ExecutionOptions.resolve`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as _np

from repro.storage.schema import ColumnType
from repro.storage.table import Table

#: exact Python type a column must hold, per declared column type, to be
#: eligible for array packing (bool is an int subclass, so identity checks)
_EXACT_TYPES = {
    ColumnType.INT: int,
    ColumnType.FLOAT: float,
    ColumnType.STR: str,
    ColumnType.DATE: str,
    ColumnType.BOOL: bool,
}

_NP_DTYPES = {
    ColumnType.INT: "int64",
    ColumnType.FLOAT: "float64",
    ColumnType.BOOL: "bool",
    # STR/DATE use NumPy's native '<U' sizing
}

_view_cache: "WeakKeyDictionary[Table, List[object]]" = WeakKeyDictionary()


def _pack_column(values: List[object], column_type: ColumnType):
    """An array for ``values`` when exactly typed and NULL-free, else the list."""
    exact = _EXACT_TYPES.get(column_type)
    if exact is None:
        return values
    for value in values:
        if type(value) is not exact:
            return values
    if exact is int:
        # int64 packing must round-trip: Python ints are unbounded.
        if values and not (-(2 ** 63) <= min(values) and max(values) < 2 ** 63):
            return values
    dtype = _NP_DTYPES.get(column_type)
    if dtype is not None:
        return _np.array(values, dtype=dtype)
    return _np.array(values)  # STR/DATE -> '<U…'


def columns_for(table: Table) -> List[object]:
    """The cached columnar view of ``table``: one array or list per column.

    Row order is the table's storage order (scan order); the i-th element
    of every column belongs to heap row i.
    """
    cached = _view_cache.get(table)
    if cached is not None:
        return cached
    rows = table._rows
    schema_columns = table.schema.columns
    if rows:
        transposed = list(zip(*rows))
    else:
        transposed = [() for _ in schema_columns]
    view = [
        _pack_column(list(values), column.type)
        for values, column in zip(transposed, schema_columns)
    ]
    _view_cache[table] = view
    return view


def pack_values(values: Sequence[object], column_type: Optional[ColumnType]):
    """Pack an ad-hoc value sequence under the same typing rules.

    Used for materialized intermediates (e.g. a blocking operator's emitted
    rows re-entering a vectorized chain).  ``column_type`` None means
    "sniff": try int, then float, then str, exact-type rules as above.
    """
    values = list(values)
    if column_type is not None:
        return _pack_column(values, column_type)
    if not values:
        return values
    first = type(values[0])
    if first is int:
        return _pack_column(values, ColumnType.INT)
    if first is float:
        return _pack_column(values, ColumnType.FLOAT)
    if first is str:
        return _pack_column(values, ColumnType.STR)
    if first is bool:
        return _pack_column(values, ColumnType.BOOL)
    return values
