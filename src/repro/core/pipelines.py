"""Pipeline decomposition and driver-node identification (§4.1).

A *pipeline* is a maximal set of concurrently executing operators; blocking
operators (sort, the build phase of a hash join, hash aggregation) cut the
plan into pipelines that run in a partial order.  Each pipeline is *driven*
by its input node(s): the node whose consumed fraction the dne estimator
reads.

Decomposition rules for this engine's operators:

* leaves (table scan, row source, index seek) start a pipeline as drivers;
* σ, π, stream-γ, distinct, limit stay in their child's pipeline;
* sort and hash-γ terminate their child's pipeline and *drive* a new one;
* hash join's build child terminates its own pipeline at the join; the join
  output belongs to the probe child's pipeline;
* ⋈NL and ⋈INL stay in the *outer* child's pipeline; a ⋈NL's entire inner
  subtree is swallowed into that same pipeline (its rescans are interleaved
  work, not an independent input);
* merge join and union-all produce multi-driver pipelines — the case the
  paper's footnote 1 sets aside; we support it by summing driver fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.operators.aggregate import HashAggregate
from repro.engine.operators.base import LeafOperator, Operator
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.index_seek import IndexSeek
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.misc import UnionAll
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.topn import TopN
from repro.engine.plan import Plan


@dataclass
class Pipeline:
    """One pipeline: its operators, its driver nodes, and its consumer."""

    index: int
    operators: List[Operator] = field(default_factory=list)
    drivers: List[Operator] = field(default_factory=list)
    #: the blocking operator that consumes this pipeline's output, if any
    consumer: Optional[Operator] = None

    def contains(self, operator: Operator) -> bool:
        return any(op is operator for op in self.operators)

    # -- runtime state -----------------------------------------------------------

    def driver_total(
        self,
        estimates: Optional[Dict[int, float]] = None,
        driver_hints: Optional[Sequence[Optional[float]]] = None,
    ) -> float:
        """Expected number of tuples the drivers will produce in total.

        Exact for leaves (catalog cardinalities / index match counts) and
        for blocking drivers that finished materializing; otherwise falls
        back to the optimizer estimate for that node.  ``driver_hints`` are
        the drivers' :func:`runtime_output_hint` values when the caller
        already holds them (a :class:`PipelineState` memo); otherwise they
        are computed here.
        """
        if driver_hints is None:
            driver_hints = [
                runtime_output_hint(driver, estimates) for driver in self.drivers
            ]
        total = 0.0
        for hint in driver_hints:
            total += hint if hint is not None else 0.0
        return total

    def driver_consumed(self) -> int:
        """Tuples retrieved from the drivers so far."""
        return sum(driver.rows_produced for driver in self.drivers)

    def driver_fraction(
        self,
        estimates: Optional[Dict[int, float]] = None,
        driver_hints: Optional[Sequence[Optional[float]]] = None,
    ) -> float:
        """dne's core quantity: fraction of the driver input consumed."""
        if self.finished():
            return 1.0
        total = self.driver_total(estimates, driver_hints)
        consumed = self.driver_consumed()
        if total <= 0:
            return 1.0 if consumed > 0 else 0.0
        return min(1.0, consumed / total)

    def started(self) -> bool:
        return self.driver_consumed() > 0

    def finished(self) -> bool:
        return all(driver.finished for driver in self.drivers)

    def __repr__(self) -> str:
        return "Pipeline(%d: drivers=%s, %d operators)" % (
            self.index,
            [driver.label() for driver in self.drivers],
            len(self.operators),
        )


#: type → small dispatch code for :func:`runtime_output_hint`.  The hint
#: runs several times per progress sample; repeated ``isinstance`` checks
#: against ABC-backed operator classes dominate its cost, so the class is
#: classified once and remembered.
_HINT_LEAF, _HINT_SEEK, _HINT_SORT, _HINT_TOPN, _HINT_AGG, _HINT_OTHER = (
    range(6)
)
_HINT_KINDS: Dict[type, int] = {}


def _hint_kind(cls: type) -> int:
    kind = _HINT_KINDS.get(cls)
    if kind is None:
        if issubclass(cls, (TableScan, RowSource)):
            kind = _HINT_LEAF
        elif issubclass(cls, IndexSeek):
            kind = _HINT_SEEK
        elif issubclass(cls, TopN):
            kind = _HINT_TOPN
        elif issubclass(cls, Sort):
            kind = _HINT_SORT
        elif issubclass(cls, HashAggregate):
            kind = _HINT_AGG
        else:
            kind = _HINT_OTHER
        _HINT_KINDS[cls] = kind
    return kind


def runtime_output_hint(
    operator: Operator, estimates: Optional[Dict[int, float]]
) -> Optional[float]:
    """Best current guess of an operator's final output cardinality.

    Exact for finished operators, leaves and materialized blocking
    operators; live for aggregates (groups seen so far grow during the
    build — execution feedback the estimators are allowed to use); the
    optimizer estimate otherwise.  No guarantee attaches to the last case.
    """
    if operator.finished:
        return float(operator.rows_produced)
    kind = _hint_kind(operator.__class__)
    if kind == _HINT_LEAF:
        return float(operator.base_cardinality())
    if kind == _HINT_SEEK:
        return float(operator.exact_match_count())
    if kind == _HINT_SORT or kind == _HINT_TOPN:
        materialized = operator.materialized_count()
        if materialized is not None:
            return float(materialized)
        if kind == _HINT_TOPN:
            child_hint = runtime_output_hint(operator.child, estimates)
            if child_hint is not None:
                return min(float(operator.limit), child_hint)
            return float(operator.limit)
        return runtime_output_hint(operator.child, estimates)
    if kind == _HINT_AGG:
        if not operator.group_by:
            return 1.0
        if operator.input_consumed:
            return float(operator.groups_seen())
        # The group count only grows; once the build is underway it is a
        # far better forecast than the optimizer's grouping-fraction guess.
        if operator.groups_seen() > 0:
            return float(operator.groups_seen())
    if estimates is not None and operator.operator_id in estimates:
        return max(estimates[operator.operator_id], float(operator.rows_produced))
    if operator.rows_produced > 0:
        return float(operator.rows_produced)
    return None


def decompose(plan: Plan) -> List[Pipeline]:
    """Split ``plan`` into pipelines, in rough execution order."""
    pipelines: List[Pipeline] = []

    def new_pipeline(driver: Operator) -> Pipeline:
        pipeline = Pipeline(index=len(pipelines))
        pipeline.drivers.append(driver)
        pipeline.operators.append(driver)
        pipelines.append(pipeline)
        return pipeline

    def swallow(pipeline: Pipeline, node: Operator) -> None:
        """Absorb an entire subtree into ``pipeline`` (⋈NL inner sides)."""
        for descendant in node.walk():
            if not pipeline.contains(descendant):
                pipeline.operators.append(descendant)

    def visit(node: Operator) -> Pipeline:
        """Return the pipeline that ``node``'s *output* ticks belong to."""
        if isinstance(node, LeafOperator):
            return new_pipeline(node)
        if isinstance(node, (Sort, HashAggregate, TopN)):
            child_pipeline = visit(node.children[0])
            child_pipeline.consumer = node
            return new_pipeline(node)
        if isinstance(node, HashJoin):
            build_pipeline = visit(node.build_child)
            build_pipeline.consumer = node
            probe_pipeline = visit(node.probe_child)
            probe_pipeline.operators.append(node)
            return probe_pipeline
        if isinstance(node, NestedLoopsJoin):
            outer_pipeline = visit(node.left)
            swallow(outer_pipeline, node.right)
            outer_pipeline.operators.append(node)
            return outer_pipeline
        if isinstance(node, IndexNestedLoopsJoin):
            outer_pipeline = visit(node.child)
            outer_pipeline.operators.append(node)
            return outer_pipeline
        if isinstance(node, MergeJoin):
            left_pipeline = visit(node.left)
            right_pipeline = visit(node.right)
            return _merge(pipelines, left_pipeline, right_pipeline, node)
        if isinstance(node, UnionAll):
            merged = visit(node.children[0])
            for child in node.children[1:]:
                merged = _merge(pipelines, merged, visit(child), None)
            merged.operators.append(node)
            return merged
        # Unary streaming operators: σ, π, stream-γ, distinct, limit.
        pipeline = visit(node.children[0])
        pipeline.operators.append(node)
        return pipeline

    visit(plan.root)
    return pipelines


def _merge(
    pipelines: List[Pipeline],
    left: Pipeline,
    right: Pipeline,
    tail: Optional[Operator],
) -> Pipeline:
    """Fuse two pipelines into one multi-driver pipeline (merge join, union)."""
    left.operators.extend(op for op in right.operators if not left.contains(op))
    left.drivers.extend(driver for driver in right.drivers if driver not in left.drivers)
    pipelines.remove(right)
    for i, pipeline in enumerate(pipelines):
        pipeline.index = i
    if tail is not None:
        left.operators.append(tail)
    return left


def pipeline_of(pipelines: List[Pipeline], operator: Operator) -> Optional[Pipeline]:
    """The pipeline whose output ticks include ``operator``'s, if any."""
    for pipeline in pipelines:
        if pipeline.contains(operator):
            return pipeline
    return None


def current_pipeline(pipelines: List[Pipeline]) -> Optional[Pipeline]:
    """The earliest pipeline that has started but not finished."""
    return PipelineState(pipelines).refresh().current()


@dataclass(frozen=True)
class PipelineSnapshot:
    """One pipeline's driver state at a sampled instant."""

    index: int
    drivers: Tuple[str, ...]
    started: bool
    finished: bool
    driver_consumed: int
    driver_fraction: float

    @classmethod
    def capture(
        cls, pipeline: Pipeline, estimates: Optional[Dict[int, float]] = None
    ) -> "PipelineSnapshot":
        """``pipeline``'s snapshot, computed from scratch."""
        return cls._assemble(
            pipeline,
            tuple(driver.label() for driver in pipeline.drivers),
            estimates,
            None,
        )

    @classmethod
    def _assemble(
        cls,
        pipeline: Pipeline,
        drivers: Tuple[str, ...],
        estimates: Optional[Dict[int, float]],
        driver_hints: Optional[Sequence[Optional[float]]],
    ) -> "PipelineSnapshot":
        consumed = pipeline.driver_consumed()
        return cls(
            index=pipeline.index,
            drivers=drivers,
            started=consumed > 0,
            finished=pipeline.finished(),
            driver_consumed=consumed,
            driver_fraction=pipeline.driver_fraction(estimates, driver_hints),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "drivers": list(self.drivers),
            "started": self.started,
            "finished": self.finished,
            "driver_consumed": self.driver_consumed,
            "driver_fraction": self.driver_fraction,
        }


class PipelineState:
    """Every pipeline's driver state at the current instant, shared by all
    of its readers and recomputed only where events changed it.

    At an observer instant dne (and through it dne+bounds), robust's
    current-pipeline segment, the runner's live probe and the sample event
    all read the same per-pipeline values: a frozen
    :class:`PipelineSnapshot` (driver consumed, started, finished, driver
    fraction) and dne's weight.  They come from a per-operator
    :func:`runtime_output_hint` memo.

    Invalidation: a :class:`~repro.core.bounds.BoundsTracker` attached with
    this state marks :attr:`dirty` for each event's operator and all its
    ancestors — the walk that already maintains its own bounds memo.  A
    hint reads only its operator's subtree, so those are exactly the hints
    an event can change.  :meth:`refresh` recomputes each dirty operator's
    hint, re-sums (in operator order) the weight of each pipeline with a
    dirty member and re-assembles the snapshot of each pipeline with a
    dirty driver — a snapshot reads only its drivers' subtrees.  Every
    value is bit-identical to a from-scratch computation
    (:meth:`PipelineSnapshot.capture`, :meth:`Pipeline.driver_fraction`),
    and other pipelines keep their snapshot instances.  Unattached, every
    refresh recomputes in full.
    """

    def __init__(
        self,
        pipelines: List[Pipeline],
        estimates: Optional[Dict[int, float]] = None,
        operators: Optional[Iterable[Operator]] = None,
    ) -> None:
        self.pipelines = list(pipelines)
        self.estimates = estimates
        if operators is None:
            unique: Dict[int, Operator] = {}
            for pipeline in self.pipelines:
                for operator in pipeline.operators:
                    unique.setdefault(operator.operator_id, operator)
            operators = unique.values()
        #: the indexing of :attr:`dirty`; a feeding tracker requires plan
        #: pre-order (see :meth:`BoundsTracker.attach`)
        self.operators: List[Operator] = list(operators)
        count = len(self.operators)
        #: per-operator invalidation flags, set in place by the feeding
        #: tracker and cleared by :meth:`refresh`
        self.dirty: List[bool] = [True] * count
        #: True while a tracker feeds :attr:`dirty` from a monitor's events
        self.attached = False
        self._all_true = [True] * count
        self._all_false = [False] * count
        index = {op.operator_id: i for i, op in enumerate(self.operators)}
        #: per operator, the pipelines it belongs to (a ⋈NL inner's
        #: blocking operator belongs to two) and the pipelines it drives
        self._owners: List[List[int]] = [[] for _ in range(count)]
        self._driven: List[List[int]] = [[] for _ in range(count)]
        self._members: List[List[int]] = []
        self._drivers: List[List[int]] = []
        for p, pipeline in enumerate(self.pipelines):
            members = [index[op.operator_id] for op in pipeline.operators]
            drivers = [index[op.operator_id] for op in pipeline.drivers]
            self._members.append(members)
            self._drivers.append(drivers)
            for i in members:
                self._owners[i].append(p)
            for i in drivers:
                self._driven[i].append(p)
        self._labels = [
            tuple(driver.label() for driver in pipeline.drivers)
            for pipeline in self.pipelines
        ]
        # Driver hints feed every fraction; dne reads a lone pipeline's
        # fraction alone, so weights (and the other operators' hints) are
        # kept only for multi-pipeline plans.
        self._weighted = len(self.pipelines) > 1
        self._hinted = [self._weighted] * count
        for drivers in self._drivers:
            for i in drivers:
                self._hinted[i] = True
        self._hints: List[Optional[float]] = [None] * count
        #: dne's weight per pipeline: its expected counted getnext calls
        #: (all 0.0 for a single-pipeline plan)
        self.weights: List[float] = [0.0] * len(self.pipelines)
        #: one frozen snapshot per pipeline, as of the last refresh
        self.snapshots: Tuple[PipelineSnapshot, ...] = ()

    def invalidate(self) -> None:
        """Mark every operator dirty: the next refresh recomputes in full."""
        self.dirty[:] = self._all_true

    def refresh(self) -> "PipelineState":
        """Recompute whatever changed since the last refresh; returns self."""
        dirty = self.dirty
        if not self.attached:
            dirty[:] = self._all_true
        elif True not in dirty:
            return self
        estimates = self.estimates
        operators = self.operators
        hints = self._hints
        hinted = self._hinted
        owners = self._owners
        driven = self._driven
        count = len(self.pipelines)
        reweigh = [False] * count
        recapture = [False] * count
        for i, changed in enumerate(dirty):
            if changed:
                if hinted[i]:
                    hints[i] = runtime_output_hint(operators[i], estimates)
                for p in owners[i]:
                    reweigh[p] = True
                for p in driven[i]:
                    recapture[p] = True
        snapshots = list(self.snapshots) or [None] * count
        for p, pipeline in enumerate(self.pipelines):
            if recapture[p]:
                snapshots[p] = PipelineSnapshot._assemble(
                    pipeline,
                    self._labels[p],
                    estimates,
                    [hints[i] for i in self._drivers[p]],
                )
            if self._weighted and reweigh[p]:
                # Finished operators weigh their exact tick counts,
                # unfinished ones their optimizer estimate; no guarantee
                # attaches — weights only apportion progress across
                # pipelines, exactly as in [5].
                weight = 0.0
                for i in self._members[p]:
                    hint = hints[i]
                    if hint is None:
                        hint = max(operators[i].rows_produced, 1.0)
                    weight += hint
                self.weights[p] = weight
        self.snapshots = tuple(snapshots)
        dirty[:] = self._all_false
        return self

    def current(self) -> Optional[Pipeline]:
        """The earliest pipeline that has started but not finished, else the
        earliest unfinished one (as of the last :meth:`refresh`)."""
        for pipeline, snapshot in zip(self.pipelines, self.snapshots):
            if snapshot.started and not snapshot.finished:
                return pipeline
        for pipeline, snapshot in zip(self.pipelines, self.snapshots):
            if not snapshot.finished:
                return pipeline
        return None
