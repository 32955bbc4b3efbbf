"""The two bounds trackers: incremental production + full-recompute oracle.

Both trackers execute the ``paper2005`` rule set natively (see
:mod:`repro.core.bounds.paper2005` — :func:`_derive` spells the rules out
once, :func:`_compile_derive` specializes them per node):

* :class:`BoundsTracker` — the production tracker.  It caches every static
  quantity at construction (catalog cardinalities, histogram bucket sums,
  predicate shapes, dispatch tags), compiles one visitor closure per node
  with its rule, statics and children bound in, and, once
  :meth:`BoundsTracker.attach`\\ ed to an
  :class:`~repro.engine.monitor.ExecutionMonitor`, consumes the monitor's
  event stream to maintain a running ``Curr`` and a dirty set (plus the
  dirty set of a shared :class:`~repro.core.pipelines.PipelineState`), so each
  :meth:`~BoundsTracker.snapshot` only re-derives bounds for subtrees
  whose runtime counters actually changed.
* :class:`ReferenceBoundsTracker` — the full-recompute oracle: it re-walks
  the whole plan and re-resolves every statistic on every call, exactly like
  the original implementation.  Equivalence tests assert the incremental
  tracker is bit-identical to it at every sampled instant; the overhead
  benchmark uses it as the per-sample cost baseline.

Overlay providers (``bounds=["paper2005", "degree_seq"]``) plug in as a
snapshot post-step: their per-node caps are composed once at construction
(they declare the ``"static"`` maintenance contract, so nothing about them
changes while the query runs and the incremental dirty-set memo stays
valid), and each snapshot intersects them into a *copy* of the per-node
map before re-summing the totals.  With the default stack the caps map is
empty and the snapshot path is exactly the pre-overlay code.  Both
trackers run the identical post-step over bit-identical inputs, so the
incremental/reference equivalence guarantee survives with overlays active.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bounds.model import BoundRefinement, BoundsSnapshot, NodeBounds
from repro.core.bounds.paper2005 import (
    _AGG_HASH,
    _HASH_JOIN,
    _LIMIT,
    _NL_JOIN,
    _SCAN,
    _SORT,
    _TOPN,
    _classify,
    _compile_derive,
    _compile_derive_std,
    _derive,
    _static_payload,
)
from repro.core.bounds.providers import (
    apply_caps,
    compose_caps,
    resolve_providers,
)
from repro.core.pipelines import PipelineState
from repro.engine.monitor import (
    EVENT_RESET,
    EVENT_TICK,
    ExecutionMonitor,
)
from repro.engine.operators.base import Operator
from repro.engine.plan import Plan
from repro.storage.catalog import Catalog


def _compose(
    plan: Plan,
    catalog: Optional[Catalog],
    bounds: Optional[Sequence[str]],
) -> Tuple[
    Tuple[object, ...],
    Dict[int, Tuple[Optional[float], Optional[float], str]],
    Dict[int, str],
]:
    """Shared constructor tail: resolve the stack, compose the static caps."""
    providers = resolve_providers(bounds)
    caps = compose_caps(plan, catalog, providers)
    describe = (
        {op.operator_id: type(op).__name__ for op in plan.operators()}
        if caps
        else {}
    )
    return providers, caps, describe


class BoundsTracker:
    """Incremental :class:`BoundsSnapshot` producer for a plan.

    Construction caches every static quantity and compiles one specialized
    visitor closure per node (see :func:`_compile_derive`).  :meth:`attach`
    subscribes to a monitor's event stream; from then on each
    tick/finish/rewind marks the event's operator and its ancestors dirty,
    and :meth:`snapshot` re-derives bounds only for dirty subtrees whose
    execution context changed — clean subtrees are answered from the memo in
    O(1).  Unattached, every snapshot is a full recompute (still benefiting
    from the static caches and the compiled visitors).
    """

    def __init__(
        self,
        plan: Plan,
        catalog: Optional[Catalog] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.providers, self._caps, self._describe = _compose(
            plan, catalog, bounds
        )
        #: overlay refinements applied by the most recent snapshot
        self.last_refinements: List[BoundRefinement] = []
        # -- static caches (never change during execution) ----------------------
        self._ops: List[Operator] = list(plan.operators())
        self._count = len(self._ops)
        self._idx: Dict[int, int] = {
            op.operator_id: i for i, op in enumerate(self._ops)
        }
        self._kinds: List[int] = [_classify(op) for op in self._ops]
        self._statics: List[object] = [
            _static_payload(op, kind, catalog)
            for op, kind in zip(self._ops, self._kinds)
        ]
        self._parent_idx: List[int] = [-1] * self._count
        self._subtree_idx: List[List[int]] = []
        for i, op in enumerate(self._ops):
            for child in op.children:
                self._parent_idx[self._idx[child.operator_id]] = i
            self._subtree_idx.append([
                self._idx[descendant.operator_id]
                for descendant in op.walk()
                if descendant is not op
            ])
        self._root_idx = self._idx[plan.root.operator_id]
        self._all_true = (True,) * self._count
        self._all_false = (False,) * self._count
        # -- incremental runtime state ------------------------------------------
        # The compiled visitors capture these list/dict objects by reference:
        # they must only ever be mutated in place, never rebound.
        self._monitor: Optional[ExecutionMonitor] = None
        self._curr = 0
        self._scanned: List[bool] = [False] * self._count
        for leaf in plan.scanned_leaves():
            self._scanned[self._idx[leaf.operator_id]] = True
        self._leaf_consumed = 0
        self._state: Optional[PipelineState] = None
        # stands in for the state's dirty set when none is attached: never
        # cleared, so the ancestor walk in _on_batch ignores it
        self._always_dirty = [True] * self._count
        self._state_dirty: List[bool] = self._always_dirty
        self._dirty: List[bool] = [True] * self._count
        self._any_dirty = True
        self._ctx_valid: List[bool] = [False] * self._count
        self._total_lo: List[float] = [0.0] * self._count
        self._total_hi: List[float] = [0.0] * self._count
        self._node_bounds: List[Optional[NodeBounds]] = [None] * self._count
        self._per_node: Dict[int, NodeBounds] = {}
        self._visitors: List[Callable] = [None] * self._count
        self._build_visitor(plan.root)
        self._root_visit = self._visitors[self._root_idx]

    # -- monitor wiring ------------------------------------------------------------

    def attach(
        self,
        monitor: ExecutionMonitor,
        state: Optional[PipelineState] = None,
    ) -> None:
        """Feed this tracker — and ``state``, if given — from ``monitor``'s
        event stream.

        One batch listener maintains everything an instrumented run derives
        from events: the running ``Curr``, the scanned-leaf input count
        (:attr:`leaf_input_consumed`), this tracker's dirty set and the
        pipeline state's.  ``state`` must index the plan's operators in
        plan pre-order, like the tracker.  Resets all runtime state: attach
        before the monitored execution begins (the runner does this for
        every run).
        """
        self.detach()
        if state is not None:
            if [op.operator_id for op in state.operators] != [
                op.operator_id for op in self._ops
            ]:
                raise ValueError(
                    "pipeline state must index the plan's operators in "
                    "plan pre-order"
                )
            state.attached = True
            self._state = state
            self._state_dirty = state.dirty
        self._monitor = monitor
        # The batch channel: per-event work here is additive (curr, leaf
        # input) or idempotent (dirty marking), so coalesced ticks from the
        # batched engines' record_batch are exact — and the interpreted
        # engine delivers the same events with n == 1.
        monitor.add_batch_listener(self._on_batch)
        self._reset_runtime()

    def detach(self) -> None:
        if self._monitor is not None:
            self._monitor.remove_batch_listener(self._on_batch)
            self._monitor = None
        if self._state is not None:
            self._state.attached = False
            self._state = None
            self._state_dirty = self._always_dirty

    @property
    def curr(self) -> int:
        """Running counted-getnext total (only meaningful while attached)."""
        return self._curr

    @property
    def leaf_input_consumed(self) -> int:
        """Tuples consumed so far from the plan's scanned leaves (μ̂'s
        denominator; only meaningful while attached)."""
        return self._leaf_consumed

    def _reset_runtime(self) -> None:
        self._curr = 0
        self._leaf_consumed = 0
        self._dirty[:] = self._all_true
        self._any_dirty = True
        self._ctx_valid[:] = self._all_false
        self._node_bounds[:] = (None,) * self._count
        self._per_node.clear()
        if self._state is not None:
            self._state.invalidate()

    def _on_batch(self, operator_id: int, event: str, n: int) -> None:
        if event == EVENT_RESET:
            self._reset_runtime()
            return
        i = self._idx.get(operator_id)
        if i is None:
            return
        if event == EVENT_TICK:
            self._curr += n
            if self._scanned[i]:
                self._leaf_consumed += n
        # tick, finish and rewind all invalidate the node and its ancestors
        # in both dirty sets; stop as soon as an ancestor is dirty in both
        # (its own ancestors are, by induction — each set is only ever
        # cleared whole).
        dirty = self._dirty
        state_dirty = self._state_dirty
        parent = self._parent_idx
        while i >= 0 and not (dirty[i] and state_dirty[i]):
            dirty[i] = True
            state_dirty[i] = True
            i = parent[i]
        self._any_dirty = True

    # -- public ------------------------------------------------------------------

    def snapshot(self) -> BoundsSnapshot:
        if self._monitor is None:
            # No event feed: nothing tells us what changed, so everything is
            # presumed dirty and curr is re-summed from live counters.
            self._dirty[:] = self._all_true
            self._any_dirty = True
            curr = sum(op.rows_produced for op in self._ops)
        else:
            curr = self._curr
        if self._any_dirty:
            self._root_visit(1.0, 1.0, True, True)
            self._dirty[:] = self._all_false
            self._any_dirty = False
        if self._caps:
            # Overlay post-step: intersect the static caps into a copy of
            # the per-node map (the memo keeps the pure paper2005 entries)
            # and re-sum.  fsum over the map's values equals fsum over the
            # totals lists — after the first visit the map has exactly one
            # entry per operator, holding the same floats.
            per_node = dict(self._per_node)
            self.last_refinements = apply_caps(
                per_node, self._caps, self._describe
            )
            lower = math.fsum(entry.lower for entry in per_node.values())
            upper = math.fsum(entry.upper for entry in per_node.values())
            lower = max(lower, float(curr))
            upper = max(upper, lower)
            snap = BoundsSnapshot.__new__(BoundsSnapshot)
            fields = snap.__dict__
            fields["curr"] = curr
            fields["lower"] = lower
            fields["upper"] = upper
            fields["per_node"] = per_node
            return snap
        # math.fsum is exactly rounded and therefore order-independent: the
        # incremental and reference trackers agree bit-for-bit even though
        # they accumulate per-node entries in different orders.
        lower = math.fsum(self._total_lo)
        upper = math.fsum(self._total_hi)
        # The work already done is itself a lower bound on the total.
        lower = max(lower, float(curr))
        upper = max(upper, lower)
        # A frozen dataclass funnels __init__ through object.__setattr__;
        # populating __dict__ directly halves the cost of this hot exit
        # path and yields an indistinguishable instance.
        snap = BoundsSnapshot.__new__(BoundsSnapshot)
        fields = snap.__dict__
        fields["curr"] = curr
        fields["lower"] = lower
        fields["upper"] = upper
        fields["per_node"] = dict(self._per_node)
        return snap

    def snapshot_full(self) -> BoundsSnapshot:
        """Force a full recompute (bypasses the dirty-set memo)."""
        self._dirty[:] = self._all_true
        self._any_dirty = True
        return self.snapshot()

    def dirty_flags(self) -> Tuple[bool, ...]:
        """The current dirty-flag vector (pre-order), for diagnostics and
        benchmark replay (see :meth:`restore_dirty`)."""
        return tuple(self._dirty)

    def restore_dirty(self, flags: Tuple[bool, ...]) -> None:
        """Restore a vector captured by :meth:`dirty_flags`.

        The overhead benchmark uses this to re-run the exact per-sample
        recompute several times at one paused instant: a second plain
        :meth:`snapshot` would be answered from the memo and measure
        nothing.
        """
        if len(flags) != self._count:
            raise ValueError("dirty-flag vector does not match this plan")
        self._dirty[:] = flags
        self._any_dirty = True in flags

    # -- compiled recursion --------------------------------------------------------

    def _build_visitor(self, node: Operator, standard: bool = True) -> Callable:
        """Compile the visitor closure for ``node`` (children first).

        The visitor wraps the node's specialized derive rule with the memo
        check, the finished-subtree freeze and the total-bounds
        bookkeeping; all per-node state lives in closure cells or captured
        lists, so a visit touches no ``self``.

        ``standard`` tracks, at compile time, whether this node can only
        ever be visited under the root context ``(1.0, 1.0, True, True)``.
        The root is; blocking drains (sort, top-n, hash aggregate, hash-join
        build) re-impose it on their child whatever their own context is;
        streaming edges preserve it; only a LIMIT's child (loses
        ``full_scan``) and a ⋈NL's inner (loses ``single_exec``) break it.
        Standard nodes get a leaner visitor: the 4-field context memo
        degenerates to the dirty bit and the derive rule comes from
        :func:`_compile_derive_std` with the context constants folded.
        """
        i = self._idx[node.operator_id]
        kind = self._kinds[i]
        children = node.children
        if kind == _SORT or kind == _TOPN or kind == _AGG_HASH:
            child_standard = [True] * len(children)
        elif kind == _HASH_JOIN:
            child_standard = [True, standard]
        elif kind == _NL_JOIN:
            child_standard = [standard, False]
        elif kind == _LIMIT:
            child_standard = [False] * len(children)
        else:
            child_standard = [standard] * len(children)
        child_visits = [
            self._build_visitor(child, child_std)
            for child, child_std in zip(children, child_standard)
        ]
        dirty = self._dirty
        ctx_valid = self._ctx_valid
        node_bounds = self._node_bounds
        per_node = self._per_node
        total_lo = self._total_lo
        total_hi = self._total_hi
        op_id = node.operator_id
        subtree = [
            (j, self._ops[j], self._ops[j].operator_id)
            for j in self._subtree_idx[i]
        ]

        def freeze() -> None:
            # A finished node is never pulled again, so nothing below it can
            # do further work either: freeze the whole subtree at its
            # current tick counts.  (This also nails the case of a finished
            # LIMIT whose descendants stopped mid-stream without finishing.)
            for j, sub_op, sub_id in subtree:
                ticks = float(sub_op.rows_produced)
                entry = node_bounds[j]
                if entry is None or entry.lower != ticks or entry.upper != ticks:
                    entry = NodeBounds.__new__(NodeBounds)
                    entry.__dict__["lower"] = ticks
                    entry.__dict__["upper"] = ticks
                    node_bounds[j] = entry
                    per_node[sub_id] = entry
                total_lo[j] = ticks
                total_hi[j] = ticks
                # The frozen entries bypass the memo bookkeeping; drop the
                # descendants' contexts so a later un-freeze (⋈NL rewind)
                # can never wrongly reuse pre-freeze memos.
                ctx_valid[j] = False

        if standard and kind == _SCAN:
            n = self._statics[i]
            scan_memo = [0.0, 0.0]

            def visit(
                exec_lower: float,
                exec_upper: float,
                single_exec: bool,
                full_scan: bool,
            ) -> Tuple[float, float]:
                # A scan is a leaf (nothing to freeze) and its standard
                # per-pass bounds are the constant (n, n), so the whole
                # derive step folds away.
                if not dirty[i] and ctx_valid[i]:
                    return scan_memo[0], scan_memo[1]
                if node.finished:
                    lower = upper = float(node.rows_produced)
                else:
                    lower = upper = n
                ticks = float(node.rows_produced)
                total_lower = lower if lower >= ticks else ticks
                total_upper = upper if upper >= total_lower else total_lower
                entry = node_bounds[i]
                if (
                    entry is None
                    or entry.lower != total_lower
                    or entry.upper != total_upper
                ):
                    entry = NodeBounds.__new__(NodeBounds)
                    entry.__dict__["lower"] = total_lower
                    entry.__dict__["upper"] = total_upper
                    node_bounds[i] = entry
                    per_node[op_id] = entry
                total_lo[i] = total_lower
                total_hi[i] = total_upper
                ctx_valid[i] = True
                scan_memo[0] = lower
                scan_memo[1] = upper
                return lower, upper

            self._visitors[i] = visit
            return visit

        if standard:
            derive_std = _compile_derive_std(
                node, kind, self._statics[i], child_visits
            )
            # memoized per-pass return: lower, upper
            memo_std = [0.0, 0.0]

            def visit(
                exec_lower: float,
                exec_upper: float,
                single_exec: bool,
                full_scan: bool,
            ) -> Tuple[float, float]:
                # The context is compile-time constant for this node, so a
                # clean subtree needs no context comparison at all.
                if not dirty[i] and ctx_valid[i]:
                    return memo_std[0], memo_std[1]
                if node.finished:
                    freeze()
                    lower = upper = float(node.rows_produced)
                else:
                    lower, upper = derive_std()
                ticks = float(node.rows_produced)
                # Folded from max(lower * 1.0, ticks): `max` returns its
                # first argument on ties, so the conditional is
                # value-identical.
                total_lower = lower if lower >= ticks else ticks
                total_upper = upper if upper >= total_lower else total_lower
                entry = node_bounds[i]
                if (
                    entry is None
                    or entry.lower != total_lower
                    or entry.upper != total_upper
                ):
                    entry = NodeBounds.__new__(NodeBounds)
                    entry.__dict__["lower"] = total_lower
                    entry.__dict__["upper"] = total_upper
                    node_bounds[i] = entry
                    per_node[op_id] = entry
                total_lo[i] = total_lower
                total_hi[i] = total_upper
                ctx_valid[i] = True
                memo_std[0] = lower
                memo_std[1] = upper
                return lower, upper

            self._visitors[i] = visit
            return visit

        derive = _compile_derive(node, kind, self._statics[i], child_visits)
        # memoized context and per-pass return: el, eu, se, fs, lower, upper
        memo = [0.0, 0.0, False, False, 0.0, 0.0]

        def visit(
            exec_lower: float,
            exec_upper: float,
            single_exec: bool,
            full_scan: bool,
        ) -> Tuple[float, float]:
            if (
                not dirty[i]
                and ctx_valid[i]
                and memo[0] == exec_lower
                and memo[1] == exec_upper
                and memo[2] == single_exec
                and memo[3] == full_scan
            ):
                # Nothing in this subtree changed and it executes under the
                # same context: the memoized per-pass bounds and every
                # per-node entry below are still exact.
                return memo[4], memo[5]
            if single_exec and node.finished:
                freeze()
                lower = upper = float(node.rows_produced)
            else:
                lower, upper = derive(
                    exec_lower, exec_upper, single_exec, full_scan
                )
            ticks = float(node.rows_produced)
            total_lower = max(lower * exec_lower, ticks)
            total_upper = max(upper * exec_upper, total_lower)
            entry = node_bounds[i]
            if (
                entry is None
                or entry.lower != total_lower
                or entry.upper != total_upper
            ):
                entry = NodeBounds.__new__(NodeBounds)
                entry.__dict__["lower"] = total_lower
                entry.__dict__["upper"] = total_upper
                node_bounds[i] = entry
                per_node[op_id] = entry
            total_lo[i] = total_lower
            total_hi[i] = total_upper
            ctx_valid[i] = True
            memo[0] = exec_lower
            memo[1] = exec_upper
            memo[2] = single_exec
            memo[3] = full_scan
            memo[4] = lower
            memo[5] = upper
            return lower, upper

        self._visitors[i] = visit
        return visit


class ReferenceBoundsTracker:
    """Full-recompute oracle: re-walks the plan and re-resolves statistics
    on every snapshot, exactly like the pre-incremental implementation.

    Kept as the ground truth for equivalence tests and as the baseline the
    sampling-overhead benchmark measures the incremental tracker against.
    """

    def __init__(
        self,
        plan: Plan,
        catalog: Optional[Catalog] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.providers, self._caps, self._describe = _compose(
            plan, catalog, bounds
        )
        self.last_refinements: List[BoundRefinement] = []

    def snapshot(self) -> BoundsSnapshot:
        per_node: Dict[int, NodeBounds] = {}
        self._visit(self.plan.root, 1.0, 1.0, True, True, per_node)
        curr = sum(op.rows_produced for op in self.plan.operators())
        if self._caps:
            self.last_refinements = apply_caps(
                per_node, self._caps, self._describe
            )
        lower = math.fsum(bounds.lower for bounds in per_node.values())
        upper = math.fsum(bounds.upper for bounds in per_node.values())
        # The work already done is itself a lower bound on the total.
        lower = max(lower, float(curr))
        upper = max(upper, lower)
        return BoundsSnapshot(curr, lower, upper, per_node)

    def _visit(
        self,
        node: Operator,
        exec_lower: float,
        exec_upper: float,
        single_exec: bool,
        full_scan: bool,
        out: Dict[int, NodeBounds],
    ) -> Tuple[float, float]:
        produced = node.rows_produced if single_exec else 0
        if node.finished and single_exec:
            for descendant in node.walk():
                if descendant is node:
                    continue
                ticks = float(descendant.rows_produced)
                out[descendant.operator_id] = NodeBounds(ticks, ticks)
            lower = upper = float(produced)
        else:
            kind = _classify(node)

            def visit(
                child: Operator,
                child_exec_lower: float,
                child_exec_upper: float,
                child_single_exec: bool,
                child_full_scan: bool,
            ) -> Tuple[float, float]:
                return self._visit(
                    child,
                    child_exec_lower,
                    child_exec_upper,
                    child_single_exec,
                    child_full_scan,
                    out,
                )

            lower, upper = _derive(
                node,
                kind,
                _static_payload(node, kind, self.catalog),
                produced,
                single_exec,
                full_scan,
                exec_lower,
                exec_upper,
                visit,
            )
        ticks = float(node.rows_produced)
        total_lower = max(lower * exec_lower, ticks)
        total_upper = max(upper * exec_upper, total_lower)
        out[node.operator_id] = NodeBounds(total_lower, total_upper)
        return lower, upper
