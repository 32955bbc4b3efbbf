"""Fused pipeline compiler: the batched execution engine.

The interpreted engine walks the Volcano tree one row at a time: every row
pays an abstract ``get_next`` per plan level plus two listener/observer
loops inside :meth:`ExecutionMonitor.record`.  This module compiles a plan —
*after* ``open`` has bound its expressions — into nested Python generators:
each maximal non-blocking chain (scan→σ→π, the probe side of ⋈hash, the
outer side of ⋈INL) becomes one specialized generator whose bound
expressions, source lists and accounting cells live in closure locals.

Accounting is batched but **tick-exact**.  Every produced row increments a
per-operator pending cell and decrements a shared budget equal to
``monitor.ticks_until_next_observer()``; when the budget reaches zero the
pending counts are applied via ``record_batch`` — the cumulative total then
lands *exactly* on the next cadence multiple, so every observer fires at
precisely the tick number the interpreted engine fires it at, and sees the
same per-operator counts and live operator state (``rows_produced`` is
updated inline, and blocking operators mutate their ordinary state fields:
``Sort._rows``, ``HashAggregate._groups``, …).  A flush always precedes a
``finish`` event, so pipeline-boundary forced observer rounds are identical
too.  Ticks reach batch listeners coalesced per flush; that is exact for
the bounds tracker, the run's one listener, because its per-event work is
additive or idempotent.

Operators without a hand-fused translation (merge join, stream aggregate,
index seeks, random-order scans, user-defined operators) run through a
generic adapter that drives the operator's own ``_next`` while its children
are temporarily shimmed to pull from their compiled generators — exact
semantics at interpreter speed for the node itself, fused speed below it.

Entry point: :func:`run_fused`; callers normally go through
``repro.engine.executor.execute(plan, engine="fused")``.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, Optional

from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext, Operator
from repro.engine.operators.aggregate import (
    HashAggregate,
    StreamAggregate,
    _Accumulator,
)
from repro.engine.operators.filter import Filter
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.misc import Distinct, Limit, UnionAll
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.project import Project
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort, _null_first_key
from repro.errors import ExecutionError
from repro.engine.operators.topn import TopN, _OrderedRow
from repro.storage.table import Row

#: budget value used when no cadence observers are attached — flushes then
#: happen only at finish events
_UNBOUNDED = 1 << 62


class _Accounting:
    """Pending per-operator tick counts plus the shared observer budget.

    ``budget[0]`` is the number of ticks that may still be produced before
    a cadence observer is due; generators decrement it inline and call
    :meth:`flush` when it reaches zero.  Flushing applies every pending
    count through ``record_batch`` — the batch that crosses the cadence
    multiple is by construction the one that lands exactly on it, so the
    observer fires at the interpreted engine's tick number with all counts
    applied.
    """

    __slots__ = ("monitor", "budget", "_cells")

    def __init__(self, monitor: ExecutionMonitor) -> None:
        self.monitor = monitor
        self.budget = [0]
        self._cells: List[tuple] = []

    def cell(self, op: Operator) -> List[int]:
        pending = [0]
        self._cells.append((op.operator_id, pending))
        return pending

    def reset_budget(self) -> None:
        headroom = self.monitor.ticks_until_next_observer()
        self.budget[0] = _UNBOUNDED if headroom is None else headroom

    def flush(self) -> None:
        record_batch = self.monitor.record_batch
        for op_id, pending in self._cells:
            n = pending[0]
            if n:
                pending[0] = 0
                record_batch(op_id, n)
        self.reset_budget()

    def finish(self, op: Operator) -> None:
        """End-of-stream on ``op``: flush, then emit its finish event.

        The flush must come first — a pipeline-boundary finish forces an
        observer round, which has to see every tick up to this instant.
        """
        self.flush()
        op.finished = True
        self.monitor.record_finish(op.operator_id)


class _Node:
    """One compiled plan node: a generator factory plus a rewinder.

    ``make()`` returns a fresh single-pass iterator over the node's output;
    it may be called again only after ``rewind()`` (⋈NL rescans).  ``gen``
    holds the current pass's iterator for shimmed adapter children.
    """

    __slots__ = ("op", "make", "rewind", "gen")

    def __init__(self, op: Operator, make: Callable[[], Iterator[Row]],
                 rewind: Callable[[], None]) -> None:
        self.op = op
        self.make = make
        self.rewind = rewind
        self.gen: Optional[Iterator[Row]] = None


class _Compiler:
    """Compiles an opened operator tree into :class:`_Node` generators."""

    def __init__(self, monitor: ExecutionMonitor) -> None:
        self.monitor = monitor
        self.acct = _Accounting(monitor)
        #: operators whose get_next/rewind were shadowed for the adapter
        self.shimmed: List[Operator] = []

    # -- rewinders ---------------------------------------------------------------

    def rewinder(self, op: Operator, child_rewinds) -> Callable[[], None]:
        """Mirror ``Operator.rewind``: pre-order events, post-order resets.

        Pending ticks are flushed before the rewind event goes out: in the
        interpreted engine the tick that *caused* the rescan (the ⋈NL outer
        row) is recorded before the inner subtree rewinds, so event-stream
        consumers must see the same accumulation at the rewind instant.
        """
        record_rewind = self.monitor.record_rewind
        flush = self.acct.flush

        def rewind() -> None:
            flush()
            op.finished = False
            record_rewind(op.operator_id)
            for child_rewind in child_rewinds:
                child_rewind()
            op._rewind()

        return rewind

    # -- dispatch -----------------------------------------------------------------

    def compile(self, op: Operator) -> _Node:
        kind = type(op)
        if kind is TableScan or kind is RowSource:
            return self._compile_scan(op)
        if kind is Filter:
            return self._compile_filter(op)
        if kind is Project:
            return self._compile_project(op)
        if kind is HashJoin:
            return self._compile_hash_join(op)
        if kind is IndexNestedLoopsJoin:
            return self._compile_inl(op)
        if kind is NestedLoopsJoin:
            return self._compile_nl(op)
        if kind is MergeJoin:
            return self._compile_merge_join(op)
        if kind is HashAggregate:
            return self._compile_hash_aggregate(op)
        if kind is StreamAggregate:
            return self._compile_stream_aggregate(op)
        if kind is Sort:
            return self._compile_sort(op)
        if kind is TopN:
            return self._compile_topn(op)
        if kind is Limit:
            return self._compile_limit(op)
        if kind is Distinct:
            return self._compile_distinct(op)
        if kind is UnionAll:
            return self._compile_union(op)
        return self._compile_adapter(op)

    # -- leaf chains --------------------------------------------------------------

    @staticmethod
    def _source_rows(op: Operator) -> List[Row]:
        """The backing row list of a plain scan leaf (storage order)."""
        if type(op) is TableScan:
            return op.table._rows
        return op.rows  # RowSource

    def _compile_scan(self, op: Operator) -> _Node:
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        source = self._source_rows

        def make() -> Iterator[Row]:
            for row in source(op):
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, ()))

    def _compile_filter(self, op: Filter) -> _Node:
        child = op.child
        if type(child) is TableScan or type(child) is RowSource:
            return self._compile_filter_scan(op, child)
        child_node = self.compile(child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            predicate = op._bound
            for row in child_node.make():
                if predicate(row) is True:
                    op.rows_produced += 1
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                    yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_filter_scan(self, op: Filter, scan: Operator) -> _Node:
        """σ fused directly over a scan leaf: one generator, zero hops."""
        acct = self.acct
        scan_cell = acct.cell(scan)
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        source = self._source_rows

        def make() -> Iterator[Row]:
            predicate = op._bound
            for row in source(scan):
                scan.rows_produced += 1
                scan_cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                if predicate(row) is True:
                    op.rows_produced += 1
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                    yield row
            acct.finish(scan)
            acct.finish(op)

        scan_rewind = self.rewinder(scan, ())
        return _Node(op, make, self.rewinder(op, (scan_rewind,)))

    def _compile_project(self, op: Project) -> _Node:
        child = op.child
        if type(child) is Filter and (
            type(child.child) is TableScan or type(child.child) is RowSource
        ):
            return self._compile_project_filter_scan(op, child, child.child)
        if type(child) is TableScan or type(child) is RowSource:
            return self._compile_project_scan(op, child)
        child_node = self.compile(child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            project = op._project
            for row in child_node.make():
                out = project(row)
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield out
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_project_scan(self, op: Project, scan: Operator) -> _Node:
        acct = self.acct
        scan_cell = acct.cell(scan)
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        source = self._source_rows

        def make() -> Iterator[Row]:
            project = op._project
            for row in source(scan):
                scan.rows_produced += 1
                scan_cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                out = project(row)
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield out
            acct.finish(scan)
            acct.finish(op)

        scan_rewind = self.rewinder(scan, ())
        return _Node(op, make, self.rewinder(op, (scan_rewind,)))

    def _compile_project_filter_scan(
        self, op: Project, filt: Filter, scan: Operator
    ) -> _Node:
        """The full scan→σ→π pipeline as a single generator."""
        acct = self.acct
        scan_cell = acct.cell(scan)
        filter_cell = acct.cell(filt)
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        source = self._source_rows

        def make() -> Iterator[Row]:
            predicate = filt._bound
            project = op._project
            for row in source(scan):
                scan.rows_produced += 1
                scan_cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                if predicate(row) is not True:
                    continue
                filt.rows_produced += 1
                filter_cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                out = project(row)
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield out
            acct.finish(scan)
            acct.finish(filt)
            acct.finish(op)

        scan_rewind = self.rewinder(scan, ())
        filter_rewind = self.rewinder(filt, (scan_rewind,))
        return _Node(op, make, self.rewinder(op, (filter_rewind,)))

    # -- joins --------------------------------------------------------------------

    def _compile_hash_join(self, op: HashJoin) -> _Node:
        build_node = self.compile(op.left)
        probe_node = self.compile(op.right)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            if not op._built:
                # The build runs inside the first pull, exactly like the
                # interpreted engine (blocking wrt the probe pipeline).
                build_fn = op._build_fn
                table = op._table
                for row in build_node.make():
                    key = build_fn(row)
                    if key is None:
                        continue  # NULL keys never join
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = [row]
                    else:
                        bucket.append(row)
                op._built = True
            table = op._table
            probe_fn = op._probe_fn
            residual = op._residual_fn
            preserve = op.preserve_probe
            null_pad = op._null_pad
            get_bucket = table.get
            for probe_row in probe_node.make():
                key = probe_fn(probe_row)
                matches = None if key is None else get_bucket(key)
                emitted = 0
                if matches:
                    for build_row in matches:
                        joined = build_row + probe_row
                        if residual is None or residual(joined) is True:
                            emitted += 1
                            op.rows_produced += 1
                            cell[0] += 1
                            budget[0] -= 1
                            if budget[0] <= 0:
                                flush()
                            yield joined
                if preserve and emitted == 0:
                    op.rows_produced += 1
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                    yield null_pad + probe_row
            acct.finish(op)

        return _Node(
            op, make,
            self.rewinder(op, (build_node.rewind, probe_node.rewind)),
        )

    def _compile_inl(self, op: IndexNestedLoopsJoin) -> _Node:
        outer_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            key_fn = op._key_fn
            residual = op._residual_fn
            lookup = op.index.lookup
            for outer_row in outer_node.make():
                key = key_fn(outer_row)
                if key is None:
                    continue  # NULL keys never match
                for inner_row in lookup(key):
                    joined = outer_row + inner_row
                    if residual is None or residual(joined) is True:
                        op.rows_produced += 1
                        cell[0] += 1
                        budget[0] -= 1
                        if budget[0] <= 0:
                            flush()
                        yield joined
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (outer_node.rewind,)))

    def _compile_nl(self, op: NestedLoopsJoin) -> _Node:
        outer_node = self.compile(op.left)
        inner_node = self.compile(op.right)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            predicate = op._bound
            inner_rewind = inner_node.rewind
            inner_make = inner_node.make
            for outer_row in outer_node.make():
                inner_rewind()
                for inner_row in inner_make():
                    joined = outer_row + inner_row
                    if predicate is None or predicate(joined) is True:
                        op.rows_produced += 1
                        cell[0] += 1
                        budget[0] -= 1
                        if budget[0] <= 0:
                            flush()
                        yield joined
            acct.finish(op)

        return _Node(
            op, make,
            self.rewinder(op, (outer_node.rewind, inner_node.rewind)),
        )

    def _compile_merge_join(self, op: MergeJoin) -> _Node:
        """⋈merge transliterated over the compiled inputs.

        The generator replays ``MergeJoin._next``'s exact pull sequence —
        lookahead row on each side, NULL keys skipped, sortedness verified,
        duplicate right groups buffered — so every child tick and finish
        event lands on the interpreted instant.  When the left side runs
        dry first the right input is abandoned mid-stream without a finish
        event, exactly as the interpreter leaves it.
        """
        left_node = self.compile(op.left)
        right_node = self.compile(op.right)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            left_fn = op._left_fn
            right_fn = op._right_fn
            left_iter = left_node.make()
            right_iter = right_node.make()
            left_row = None
            right_row = None
            last_left_key = None
            last_right_key = None

            def advance_left():
                nonlocal left_row, last_left_key
                while True:
                    left_row = next(left_iter, None)
                    if left_row is None:
                        return None
                    key = left_fn(left_row)
                    if key is None:
                        continue  # NULLs never join
                    if last_left_key is not None and key < last_left_key:
                        raise ExecutionError(
                            "merge join: left input not sorted on key"
                        )
                    last_left_key = key
                    return key

            def advance_right():
                nonlocal right_row, last_right_key
                while True:
                    right_row = next(right_iter, None)
                    if right_row is None:
                        return None
                    key = right_fn(right_row)
                    if key is None:
                        continue
                    if last_right_key is not None and key < last_right_key:
                        raise ExecutionError(
                            "merge join: right input not sorted on key"
                        )
                    last_right_key = key
                    return key

            if advance_left() is None:
                acct.finish(op)
                return
            advance_right()
            right_group: List[Row] = []
            group_key = None
            while left_row is not None:
                left_key = left_fn(left_row)
                if group_key is not None and left_key == group_key:
                    # Emit the buffered matches for this left row; the
                    # interpreter emits them over consecutive pulls with no
                    # child activity in between, so a tight loop is
                    # tick-identical.
                    for right_match in right_group:
                        joined = left_row + right_match
                        op.rows_produced += 1
                        cell[0] += 1
                        budget[0] -= 1
                        if budget[0] <= 0:
                            flush()
                        yield joined
                    if advance_left() is None:
                        break
                    continue
                # Align the right side with the current left key.
                while (
                    right_row is not None
                    and right_fn(right_row) < left_key
                ):
                    advance_right()
                if (
                    right_row is not None
                    and right_fn(right_row) == left_key
                ):
                    right_group = []
                    while (
                        right_row is not None
                        and right_fn(right_row) == left_key
                    ):
                        right_group.append(right_row)
                        advance_right()
                    group_key = left_key
                    continue
                # No right match for this left key.
                group_key = None
                right_group = []
                if advance_left() is None:
                    break
            acct.finish(op)

        return _Node(
            op, make,
            self.rewinder(op, (left_node.rewind, right_node.rewind)),
        )

    # -- blocking operators --------------------------------------------------------

    def _compile_sort(self, op: Sort) -> _Node:
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            if op._rows is None:
                rows = list(child_node.make())
                # Same stable multi-key sort as Sort._materialize; _rows is
                # only assigned afterwards so the boundary observer at the
                # child's finish still sees materialized_count() == None.
                child_schema = op.child.schema
                for key in reversed(op.keys):
                    bound = key.expression.bind(child_schema)
                    rows.sort(
                        key=lambda row, fn=bound: _null_first_key(fn(row)),
                        reverse=key.descending,
                    )
                op._rows = rows
            for row in op._rows:
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_topn(self, op: TopN) -> _Node:
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            if op._buffer is None:
                functions = op._key_functions()
                limit = op.limit
                buffer: List[_OrderedRow] = []
                row_key = op._row_key
                for row in child_node.make():
                    if limit == 0:
                        continue  # still drain the child (blocking contract)
                    entry = _OrderedRow(row_key(row, functions), row)
                    if len(buffer) < limit:
                        bisect.insort(buffer, entry)
                    elif entry < buffer[-1]:
                        bisect.insort(buffer, entry)
                        buffer.pop()
                op._buffer = buffer
            for entry in op._buffer:
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield entry.row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    @staticmethod
    def _compile_update(op: HashAggregate):
        """exec-specialize the per-row accumulator update into one function.

        ``_Accumulator.update`` loops over every spec maintaining
        count/sum/min/max for each; ``finalize`` only ever reads the slot
        matching the spec's kind, so the generated function touches just
        those slots, evaluates a shared argument expression object once
        (they are pure; reprs are not reliably structural — CASE elides its
        branches — so sharing is by identity), and folds the whole loop —
        including ``count_star`` — into a single frame per input row.  Emitted rows are identical; the untouched slots are not
        observable (progress bounds read ``groups_seen()``/
        ``input_consumed``, never accumulator internals).
        """
        env: dict = {}
        lines = ["def update(acc, row):", "    acc.count_star += 1"]
        preamble = []
        needs = set()
        values: dict = {}  # structural expression repr -> local name
        for index, (spec, fn) in enumerate(
            zip(op.aggregates, op._argument_fns)
        ):
            if fn is None:  # COUNT(*): only count_star, handled above
                continue
            key = id(spec.argument)
            value = values.get(key)
            if value is None:
                value = "v%d" % (len(values),)
                values[key] = value
                env["arg_" + value] = fn
                lines.append("    %s = arg_%s(row)" % (value, value))
            kind = spec.kind.name
            if kind == "COUNT":
                needs.add("counts")
                lines.append(
                    "    if %s is not None: counts[%d] += 1" % (value, index)
                )
                continue
            lines.append("    if %s is not None:" % (value,))
            if kind in ("SUM", "AVG"):
                if kind == "AVG":
                    needs.add("counts")
                    lines.append("        counts[%d] += 1" % (index,))
                needs.add("sums")
                # `cls is not bool and isinstance(...)` reproduces the
                # reference's bool-excluding numeric guard with the common
                # int/float case answered by two identity checks.
                lines += [
                    "        cls = %s.__class__" % (value,),
                    "        if cls is float or cls is int or ("
                    "cls is not bool and isinstance(%s, (int, float))):"
                    % (value,),
                    "            cur = sums[%d]" % (index,),
                    "            sums[%d] = %s if cur is None else cur + %s"
                    % (index, value, value),
                ]
            elif kind == "MIN":
                needs.add("mins")
                lines += [
                    "        cur = mins[%d]" % (index,),
                    "        if cur is None or %s < cur: mins[%d] = %s"
                    % (value, index, value),
                ]
            else:  # MAX
                needs.add("maxs")
                lines += [
                    "        cur = maxs[%d]" % (index,),
                    "        if cur is None or %s > cur: maxs[%d] = %s"
                    % (value, index, value),
                ]
        for name in sorted(needs):
            preamble.append("    %s = acc.%s" % (name, name))
        source = "\n".join(lines[:2] + preamble + lines[2:])
        exec(source, env)  # noqa: S102 — fn cells only, no user input
        return env["update"]

    def _compile_hash_aggregate(self, op: HashAggregate) -> _Node:
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            if op._output is None:
                # Accumulate into op._groups in place: mid-build observers
                # read groups_seen() exactly as under the interpreted engine.
                groups = op._groups
                group_fns = op._group_fns
                spec_count = len(op.aggregates)
                update_row = self._compile_update(op)
                get_group = groups.get
                single_key = group_fns[0] if len(group_fns) == 1 else None
                for row in child_node.make():
                    if single_key is not None:
                        key = (single_key(row),)
                    else:
                        key = tuple([fn(row) for fn in group_fns])
                    accumulator = get_group(key)
                    if accumulator is None:
                        accumulator = _Accumulator(spec_count)
                        groups[key] = accumulator
                    update_row(accumulator, row)
                if not op.group_by and not groups:
                    groups[()] = _Accumulator(spec_count)
                op._materialized = True
                op._output = iter(
                    [op._emit(key, acc) for key, acc in groups.items()]
                )
            output = op._output
            while True:
                row = next(output, None)
                if row is None:
                    break
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_stream_aggregate(self, op: StreamAggregate) -> _Node:
        """Order-based γ fused over the compiled child.

        Replicates ``StreamAggregate._next``'s lookahead loop: a group is
        emitted when the next key differs (or the input ends), the scalar
        no-GROUP-BY form emits one row on empty input, and the child's
        finish event fires during the pull that drains it — exactly the
        interpreted instants.  Keys are pure expressions, so computing each
        row's key once (the interpreter computes it twice) is unobservable.
        """
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            group_fns = op._group_fns
            single_key = group_fns[0] if len(group_fns) == 1 else None
            spec_count = len(op.aggregates)
            update_row = self._compile_update(op)
            emit = op._emit
            child_iter = child_node.make()
            pending = next(child_iter, None)
            if pending is None:
                if not op.group_by:
                    row = emit((), _Accumulator(spec_count))
                    op.rows_produced += 1
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                    yield row
                acct.finish(op)
                return
            if single_key is not None:
                pending_key = (single_key(pending),)
            else:
                pending_key = tuple([fn(pending) for fn in group_fns])
            while pending is not None:
                key = pending_key
                accumulator = _Accumulator(spec_count)
                while pending is not None and pending_key == key:
                    update_row(accumulator, pending)
                    pending = next(child_iter, None)
                    if pending is not None:
                        if single_key is not None:
                            pending_key = (single_key(pending),)
                        else:
                            pending_key = tuple(
                                [fn(pending) for fn in group_fns]
                            )
                row = emit(key, accumulator)
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    # -- auxiliaries ----------------------------------------------------------------

    def _compile_limit(self, op: Limit) -> _Node:
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            child_iter = child_node.make()
            skipped = 0
            offset = op.offset
            limit = op.limit
            while skipped < offset:
                if next(child_iter, None) is None:
                    acct.finish(op)
                    return
                skipped += 1
            returned = 0
            while returned < limit:
                row = next(child_iter, None)
                if row is None:
                    break
                returned += 1
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            # Once the limit is reached the child is simply abandoned,
            # like the interpreted engine: no finish event for it.
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_distinct(self, op: Distinct) -> _Node:
        child_node = self.compile(op.child)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            seen = op._seen
            add = seen.add
            for row in child_node.make():
                if row in seen:
                    continue
                add(row)
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, self.rewinder(op, (child_node.rewind,)))

    def _compile_union(self, op: UnionAll) -> _Node:
        child_nodes = [self.compile(child) for child in op.children]
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush

        def make() -> Iterator[Row]:
            for child_node in child_nodes:
                for row in child_node.make():
                    op.rows_produced += 1
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                    yield row
            acct.finish(op)

        return _Node(
            op, make,
            self.rewinder(op, tuple(node.rewind for node in child_nodes)),
        )

    # -- generic adapter -------------------------------------------------------------

    def _compile_adapter(self, op: Operator) -> _Node:
        """Drive ``op``'s own ``_next`` over compiled children.

        The children's ``get_next``/``rewind`` methods are shadowed with
        instance attributes that pull from their compiled generators, so
        the operator's exact row logic runs unchanged while everything
        below it stays fused.  Used for merge joins, stream aggregates,
        index seeks, random-order scans and user-defined operators.
        """
        child_nodes = [self.compile(child) for child in op.children]
        for child, node in zip(op.children, child_nodes):
            self._install_shim(child, node)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        counted = op.counted

        def make() -> Iterator[Row]:
            # Fresh child generators every pass: after a rescan the shims
            # must pull from the rewound state, not an exhausted iterator.
            for node in child_nodes:
                node.gen = node.make()
            produce = op._next
            while True:
                row = produce()
                if row is None:
                    break
                op.rows_produced += 1
                if counted:
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                yield row
            acct.finish(op)

        return _Node(
            op, make,
            self.rewinder(op, tuple(node.rewind for node in child_nodes)),
        )

    def _install_shim(self, child: Operator, node: _Node) -> None:
        def shim_get_next() -> Optional[Row]:
            gen = node.gen
            if gen is None:
                gen = node.gen = node.make()
            return next(gen, None)

        def shim_rewind() -> None:
            node.rewind()
            node.gen = node.make()

        child.get_next = shim_get_next  # type: ignore[method-assign]
        child.rewind = shim_rewind  # type: ignore[method-assign]
        self.shimmed.append(child)

    def remove_shims(self) -> None:
        for child in self.shimmed:
            for attribute in ("get_next", "rewind"):
                try:
                    delattr(child, attribute)
                except AttributeError:
                    pass
        self.shimmed = []


def run_fused(root: Operator, context: Optional[ExecutionContext] = None) -> List[Row]:
    """Open ``root``, execute it through the fused engine, close it.

    Tick-for-tick equivalent to ``root.run(context)``: same rows in the
    same order, same per-operator counts, same observer firing instants,
    same finish/rewind event stream (tick events are coalesced on the
    batch-listener channel).
    """
    context = context or ExecutionContext()
    monitor = context.monitor
    root.open(context)
    compiler = _Compiler(monitor)
    try:
        program = compiler.compile(root)
        compiler.acct.reset_budget()
        return list(program.make())
    finally:
        # On an exception mid-batch the pending counts are still applied so
        # the monitor reflects every getnext that actually happened (a
        # partial batch can never cross a cadence multiple, so no observer
        # fires here).
        compiler.acct.flush()
        compiler.remove_shims()
        root.close()
