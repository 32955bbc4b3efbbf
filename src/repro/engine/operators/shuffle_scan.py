"""Random-order scan: the §7 online-aggregation connection.

"There has been prior work in the context of online aggregation which
propose specialized operators (e.g., ripple joins) in order to provide a
random order.  The dne estimator is guaranteed to work well for such
operators."  :class:`RandomOrderScan` is that access path: a table scan
that returns rows in a seeded random permutation of the heap order, making
Theorem 3's random-order assumption true *by construction* regardless of
how adversarially the table is laid out.

It subclasses :class:`TableScan`, so every structural analysis (scanned
leaves, pipeline drivers, cardinality bounds) treats it exactly like an
ordinary full scan — only the row order differs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine.operators.scan import TableScan
from repro.storage.table import Row, Table


class RandomOrderScan(TableScan):
    """Scan in a seeded random permutation of the stored row order.

    The permutation is fixed per seed, so runs stay reproducible; with
    ``reshuffle=True`` every fresh ``open`` draws a new permutation (the
    online-aggregation setting wants a new sample order per run — note a
    bare :func:`~repro.engine.executor.measure_total_work` run and an
    instrumented run then see different orders, which is fine:
    ``total(Q)`` does not depend on scan order).
    """

    def __init__(self, table: Table, seed: int = 0,
                 alias: Optional[str] = None, reshuffle: bool = False) -> None:
        super().__init__(table, alias)
        self.seed = seed
        self.reshuffle = reshuffle
        self._order = self._permutation(seed)
        self._runs = 0

    def _permutation(self, seed: int):
        order = list(range(len(self.table)))
        random.Random(seed).shuffle(order)
        return order

    @property
    def name(self) -> str:
        return "RandomOrderScan"

    def describe(self) -> str:
        return "RandomOrderScan(%s as %s, seed=%d)" % (
            self.table.name, self.alias, self.seed,
        )

    def _open(self) -> None:
        if self.reshuffle and self._runs > 0:
            self._order = self._permutation(self.seed + self._runs)
        self._runs += 1
        self._cursor = 0

    def _next(self) -> Optional[Row]:
        if self._cursor >= len(self._order):
            return None
        row = self.table[self._order[self._cursor]]
        self._cursor += 1
        return row
