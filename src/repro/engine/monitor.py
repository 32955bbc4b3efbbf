"""GetNext instrumentation: the observable side of the work model.

The paper models the execution of a query as a sequence of ``getnext`` calls
across all operators of the plan (§2.2).  :class:`ExecutionMonitor` *is* that
sequence: every counted operator reports each row-returning ``get_next`` call
("a tick"), and observers — progress estimators, trace recorders — are
invoked on a configurable cadence.

Only calls that return a row are counted; the final end-of-stream call is
free.  Which operators count at all is an operator-level property (e.g. the
inner index lookups of an index-nested-loops join are not plan operators and
therefore never tick; see DESIGN.md §4).

Beyond cadence observers, the monitor carries a low-level *event* channel:
batch listeners (``add_batch_listener``) receive every state transition —
``tick`` (counted rows), ``finish`` (an operator returned end-of-stream),
``rewind`` (a subtree restarted for a ⋈NL rescan), ``reset`` (counters
zeroed) — as ``listener(operator_id, event, n)``, with ticks coalesced per
``record_batch`` call (``n == 1`` per :meth:`ExecutionMonitor.record`).
This is the feed the incremental :class:`repro.core.bounds.BoundsTracker`
uses to maintain ``Curr`` and its dirty sets instead of re-walking the plan
on every sample.  Together with
:meth:`ExecutionMonitor.ticks_until_next_observer` it lets the fused and
columnar engines account whole row batches in O(1) while firing every
cadence observer at exactly the same tick numbers as the row-at-a-time
path.

Operators marked as *pipeline boundaries* (blocking operators and the nodes
that feed them) additionally force all observers to run the moment they
finish, so blocking-operator transitions are always sampled regardless of
the observer cadence.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

Observer = Callable[["ExecutionMonitor"], None]
#: ``listener(operator_id, event, n)`` with event one of the EVENT_*
#: constants; ``n`` is the number of coalesced ticks for EVENT_TICK and 0
#: for finish/rewind/reset
BatchListener = Callable[[int, str, int], None]

EVENT_TICK = "tick"
EVENT_FINISH = "finish"
EVENT_REWIND = "rewind"
EVENT_RESET = "reset"


class ExecutionMonitor:
    """Counts getnext calls per operator and drives tick observers."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._labels: Dict[int, str] = {}
        self.total_ticks = 0
        #: True while observers run from :meth:`notify_now` (a boundary- or
        #: caller-forced round, as opposed to a cadence firing); observers
        #: that must treat forced rounds specially read this flag
        self.forced_notification = False
        self._observers: List[Tuple[int, Observer]] = []
        self._batch_listeners: List[BatchListener] = []
        self._boundary_ops: frozenset = frozenset()

    # -- operator registration -------------------------------------------------

    def register(self, operator_id: int, label: str) -> None:
        """Declare a counted operator before execution begins."""
        self._counts.setdefault(operator_id, 0)
        self._labels[operator_id] = label

    # -- ticking ----------------------------------------------------------------

    def record(self, operator_id: int) -> None:
        """One counted getnext call returned a row on ``operator_id``."""
        self._counts[operator_id] = self._counts.get(operator_id, 0) + 1
        total = self.total_ticks + 1
        self.total_ticks = total
        if self._batch_listeners:
            for listener in self._batch_listeners:
                listener(operator_id, EVENT_TICK, 1)
        if self._observers:
            for every, observer in self._observers:
                if total % every == 0:
                    observer(self)

    def record_batch(self, operator_id: int, n: int) -> None:
        """``n`` counted getnext calls on ``operator_id``, coalesced.

        Equivalent to ``n`` calls to :meth:`record`, except that batch
        listeners are invoked once with the coalesced count and cadence
        observers fire once per cadence multiple the batch *crosses* (an
        oversized batch crossing k multiples of an observer's ``every``
        fires that observer k times — the same number of firings as k
        row-at-a-time ticks, though every firing sees the post-batch
        total).  Callers who need observers at *exactly* the interpreted
        tick numbers (the fused and columnar engines) must keep ``n``
        within :meth:`ticks_until_next_observer`, so the batch lands
        precisely on the next cadence multiple and each observer fires at
        most once.
        """
        if n <= 0:
            return
        self._counts[operator_id] = self._counts.get(operator_id, 0) + n
        before = self.total_ticks
        total = before + n
        self.total_ticks = total
        if self._batch_listeners:
            for listener in self._batch_listeners:
                listener(operator_id, EVENT_TICK, n)
        if self._observers:
            for every, observer in self._observers:
                crossings = total // every - before // every
                for _ in range(crossings):
                    observer(self)

    def ticks_until_next_observer(self) -> Optional[int]:
        """Ticks left before any cadence observer is due, or None if none.

        This is the batching headroom: a ``record_batch`` of at most this
        many ticks fires each observer at exactly the tick number the
        row-at-a-time path would have.
        """
        if not self._observers:
            return None
        total = self.total_ticks
        return min(every - total % every for every, _ in self._observers)

    def record_finish(self, operator_id: int) -> None:
        """``operator_id`` returned end-of-stream (not a counted tick).

        If the operator was marked as a pipeline boundary, all observers run
        immediately: blocking-operator transitions (a sort finishing its
        input, a hash join completing its build) are sampled even when they
        fall between cadence points.
        """
        for listener in self._batch_listeners:
            listener(operator_id, EVENT_FINISH, 0)
        if operator_id in self._boundary_ops:
            self.notify_now()

    def record_rewind(self, operator_id: int) -> None:
        """``operator_id`` restarted for a rescan (⋈NL inner side)."""
        for listener in self._batch_listeners:
            listener(operator_id, EVENT_REWIND, 0)

    def notify_now(self) -> None:
        """Force all observers to run (used at pipeline/plan boundaries).

        :attr:`forced_notification` is True for the duration, so observers
        can distinguish a forced round from a cadence firing (the runner
        pins boundary-forced samples against trace decimation).
        """
        self.forced_notification = True
        try:
            for _, observer in self._observers:
                observer(self)
        finally:
            self.forced_notification = False

    # -- observers ---------------------------------------------------------------

    def add_observer(self, observer: Observer, every: int = 1) -> None:
        """Invoke ``observer(self)`` after every ``every``-th tick."""
        if every < 1:
            raise ValueError("observer cadence must be >= 1")
        self._observers.append((every, observer))

    def set_observer_cadence(self, observer: Observer, every: int) -> None:
        """Retune a registered observer's cadence mid-run.

        Takes effect from the next recorded tick.  Safe to call from inside
        the observer itself: the row-at-a-time path re-reads the observer
        list on every tick, and the fused engine re-reads
        :meth:`ticks_until_next_observer` after every flush, so both engines
        pick the new cadence up at exactly the same tick number.
        """
        if every < 1:
            raise ValueError("observer cadence must be >= 1")
        rebound: List[Tuple[int, Observer]] = []
        found = False
        for current, existing in self._observers:
            if existing is observer:
                rebound.append((every, existing))
                found = True
            else:
                rebound.append((current, existing))
        if not found:
            raise ValueError("observer is not registered")
        self._observers = rebound

    def clear_observers(self) -> None:
        self._observers = []

    # -- event listeners ----------------------------------------------------------

    def add_batch_listener(self, listener: BatchListener) -> None:
        """Subscribe as ``listener(operator_id, event, n)``.

        Batch listeners see EVENT_TICK coalesced (one call per recorded
        batch, with the tick count as ``n``); finish/rewind/reset arrive
        individually with ``n == 0``.  Coalescing is exact for consumers
        whose per-tick work is additive (counters) or idempotent (dirty
        marking), and it is what keeps the batched engines' accounting
        flat; the interpreted engine delivers every tick with ``n == 1``.
        """
        self._batch_listeners.append(listener)

    def remove_batch_listener(self, listener: BatchListener) -> None:
        # ``!=``, not ``is not``: each access to a bound method builds a new
        # object, so only equality (same function, same instance) finds it.
        self._batch_listeners = [
            l for l in self._batch_listeners if l != listener
        ]

    # -- pipeline boundaries ------------------------------------------------------

    def mark_pipeline_boundaries(self, operator_ids: Iterable[int]) -> None:
        """Operators whose ``finish`` constitutes a pipeline boundary."""
        self._boundary_ops = frozenset(operator_ids)

    # -- inspection ----------------------------------------------------------------

    def count_for(self, operator_id: int) -> int:
        """Getnext calls recorded so far for one operator."""
        return self._counts.get(operator_id, 0)

    def counts(self) -> Dict[int, int]:
        """A snapshot of all per-operator counts."""
        return dict(self._counts)

    def label_for(self, operator_id: int) -> str:
        return self._labels.get(operator_id, "op#%d" % (operator_id,))

    def reset(self) -> None:
        """Zero all counters (observers and listeners are kept)."""
        self._counts = {key: 0 for key in self._counts}
        self.total_ticks = 0
        for listener in self._batch_listeners:
            listener(0, EVENT_RESET, 0)

    def __repr__(self) -> str:
        return "ExecutionMonitor(%d ticks over %d operators)" % (
            self.total_ticks,
            len(self._counts),
        )
