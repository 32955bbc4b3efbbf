"""Layer spans recorded from outside the program.

The traced run wraps public callables of each layer from the benchmark's
own files: a wrapper records a span (name, start, end, parent span, query
id) around the call and nothing else.  Only callees are wrapped.  The
runner hands one observer callable to both ``add_observer`` and
``set_observer_cadence``, so the sampling observer itself is never
replaced; its spans are recovered instead from the runner's own
``RunProfile.sample_seconds`` accumulation (see :class:`_TracedProfile`).

Spans live in memory until :meth:`Tracer.write` dumps them at the end of a
run.  A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).

Times come from ``time.perf_counter``, which is the system-wide monotonic
clock on Linux, so spans from the server process and the load generator
compare directly when both run on one host.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional["Span"], qid: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.qid = qid

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]],
            start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span (keyed by ``id(span)``): duration minus child
    coverage, where the children are the spans whose ``parent`` it is."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end)
            )
    return {
        id(span): span.duration - covered(
            children.get(id(span), ()), span.start, span.end,
        )
        for span in spans
    }


class Tracer:
    """Span and counter store plus the wrappers that feed it.

    Wrappers are installed once and gated by :attr:`enabled`, so a run can
    alternate untraced and traced passes at the cost of one branch per
    wrapped call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._thread_counts: List[Dict[str, int]] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.closed = []
            local.qid = None
            local.counts = {}
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def set_query(self, qid: Optional[str]) -> None:
        """Tag the calling thread's next top-level spans with ``qid``."""
        self._state().qid = qid

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        with self._lock:
            for counts in self._thread_counts:
                for name, n in counts.items():
                    merged[name] = merged.get(name, 0) + n
        return merged

    def reset(self) -> None:
        self.spans = []
        with self._lock:
            for counts in self._thread_counts:
                counts.clear()

    # -- recording -----------------------------------------------------------

    def _close(self, state, span: Span) -> None:
        self.spans.append(span)
        closed = state.closed
        closed.append(span)
        if len(closed) > 4096:
            del closed[:2048]

    def call(self, name: str, func: Callable, args, kwargs,
             qid_of: Optional[Callable] = None,
             qid_result: Optional[Callable] = None):
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        qid = parent.qid if parent is not None else state.qid
        if qid_of is not None:
            qid = qid_of(args, kwargs) or qid
        span = Span(name, 0.0, 0.0, parent, qid)
        stack.append(span)
        span.start = clock()
        try:
            result = func(*args, **kwargs)
            if qid_result is not None:
                span.qid = qid_result(result)
            return result
        finally:
            span.end = clock()
            stack.pop()
            self._close(state, span)

    def record_after(self, name: str, seconds: float) -> None:
        """Record a span that just ended and lasted ``seconds``.

        Spans already closed inside that interval under the current parent
        are re-parented to it, so self-time arithmetic sees the nesting.
        """
        end = clock()
        start = end - seconds
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        span = Span(name, start, end, parent,
                    parent.qid if parent is not None else state.qid)
        closed = state.closed
        for index in range(len(closed) - 1, -1, -1):
            child = closed[index]
            if child.end < start:
                break
            if child.parent is parent and child.start >= start - 1e-6:
                child.parent = span
        self._close(state, span)

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *,
             qid_of: Optional[Callable] = None,
             qid_result: Optional[Callable] = None,
             count_only: bool = False,
             when: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper around it.

        ``count_only`` counts calls without timing them (for callables that
        run many times per sample); ``qid_of(args, kwargs)`` and
        ``qid_result(result)`` name the query a call belongs to when the
        caller's thread does not know it; ``when(args)`` limits span
        recording to the calls it accepts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        if count_only:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if tracer.enabled:
                    tracer.count(name)
                return func(*args, **kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not tracer.enabled or (when is not None
                                          and not when(args)):
                    return func(*args, **kwargs)
                return tracer.call(name, func, args, kwargs, qid_of,
                                   qid_result)

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        self.enabled = False

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": (index.get(id(span.parent))
                               if span.parent is not None else None),
                    "qid": span.qid,
                }) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    ``repro.service.procpool`` is deliberately left unwrapped: the
    process backend is out of this benchmark's scope.
    """
    import repro.core.runner as runner
    import repro.engine.columnar as columnar_engine
    import repro.engine.compiled as compiled
    import repro.sql as sql
    import repro.storage.columnar as storage
    from repro.api import Session
    from repro.core.bounds import BoundsTracker
    from repro.core.estimators.dne import DneEstimator
    from repro.core.estimators.pmax import PmaxEstimator
    from repro.core.estimators.safe import SafeEstimator
    from repro.core import pipelines
    from repro.core.observe import PipelineSnapshot, RunProfile
    import repro.server.scheduler as scheduler
    from repro.server.scheduler import FairScheduler
    from repro.service.service import QueryService
    from repro.stats.estimate import CardinalityEstimator
    from repro.stats.manager import StatisticsManager

    wrap = tracer.wrap
    wrap(Session, "run", "session.run")
    wrap(Session, "execute", "session.execute")
    wrap(sql, "plan_query", "sql.plan")
    wrap(StatisticsManager, "analyze_all", "stats.analyze")
    wrap(CardinalityEstimator, "estimate_plan", "stats.estimate_plan")
    wrap(runner.ProgressRunner, "run", "runner.run",
         qid_of=lambda args, kwargs: args[0].plan.name)
    wrap(runner, "decompose", "pipelines.decompose")
    wrap(runner, "emit_to_all", "observe.emit")
    wrap(PipelineSnapshot, "capture", "pipelines.capture")
    wrap(pipelines, "runtime_output_hint", "pipelines.output_hint",
         count_only=True)
    wrap(pipelines.Pipeline, "driver_fraction", "pipelines.driver_fraction",
         count_only=True)
    wrap(BoundsTracker, "snapshot", "bounds.snapshot")
    for cls in (DneEstimator, PmaxEstimator, SafeEstimator):
        wrap(cls, "estimate", "estimators.%s.estimate" % cls.name)
    wrap(compiled, "run_fused", "engine.run")
    wrap(columnar_engine, "run_columnar", "engine.run")
    # A view is built on the first columns_for call per table object (the
    # module caches views per table for the life of the process).
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def cold(args) -> bool:
        if args[0] in seen:
            return False
        seen.add(args[0])
        return True

    wrap(storage, "columns_for", "storage.view_build", when=cold)
    wrap(columnar_engine, "columns_for", "storage.view_build", when=cold)
    wrap(FairScheduler, "submit", "server.sched_submit",
         qid_result=lambda scheduled: scheduled.query_id)
    wrap(QueryService, "submit", "service.submit",
         qid_of=lambda args, kwargs: kwargs.get("name"))
    # A finished query's terminal frame is built, then published to its
    # WebSocket subscribers.
    wrap(scheduler, "terminal_frame", "server.terminal_frame",
         qid_of=lambda args, kwargs: args[0].query_id)

    class _TracedProfile(RunProfile):
        # The runner adds each sample's duration to sample_seconds as the
        # sample's last act; that update closes a "runner.sample" span.
        def __setattr__(self, key, value):
            if key == "sample_seconds" and tracer.enabled:
                before = self.__dict__.get(key)
                if before is not None:
                    tracer.record_after("runner.sample", value - before)
            object.__setattr__(self, key, value)

    tracer._restore.append((runner, "RunProfile", RunProfile))
    runner.RunProfile = _TracedProfile


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer totals over the tracer's spans and counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1

    def under_runner(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == "runner.run":
                return True
            parent = parent.parent
        return False

    engine_self = sum(
        selfs[id(s)] for s in spans
        if s.name == "engine.run" and under_runner(s)
    )
    runner_self = sum(selfs[id(s)] for s in spans if s.name == "runner.run")
    counts = tracer.counts()
    snapshots = calls.get("bounds.snapshot", 0)
    metrics = {
        "runner.self_s": runner_self,
        "bounds.snapshot_s": totals.get("bounds.snapshot", 0.0),
        "bounds.snapshots": snapshots,
        "bounds.snapshot_us": (
            1e6 * totals.get("bounds.snapshot", 0.0) / snapshots
            if snapshots else 0.0
        ),
        "pipelines.decompose_s": totals.get("pipelines.decompose", 0.0),
        "pipelines.capture_s": totals.get("pipelines.capture", 0.0),
        "pipelines.output_hint_calls": counts.get("pipelines.output_hint", 0),
        "pipelines.driver_fraction_calls": counts.get(
            "pipelines.driver_fraction", 0),
        "observe.emit_s": totals.get("observe.emit", 0.0),
        "observe.events": calls.get("observe.emit", 0),
        "engine.bare_s": totals.get("session.execute", 0.0),
        "engine.self_s": engine_self,
        "storage.view_build_s": totals.get("storage.view_build", 0.0),
        "storage.view_builds": calls.get("storage.view_build", 0),
        "stats.analyze_s": totals.get("stats.analyze", 0.0),
        "stats.estimate_plan_s": totals.get("stats.estimate_plan", 0.0),
        "sql.plan_s": totals.get("sql.plan", 0.0),
    }
    for name in ("dne", "pmax", "safe"):
        key = "estimators.%s.estimate" % name
        metrics["estimators.%s.estimate_s" % name] = totals.get(key, 0.0)
        metrics["estimators.%s.calls" % name] = calls.get(key, 0)
    return metrics


def query_marks(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per query id: when it crossed each server-side admission boundary."""
    marks: Dict[str, Dict[str, float]] = {}
    for span in tracer.spans:
        if span.qid is None:
            continue
        entry = marks.setdefault(span.qid, {})
        if span.name == "server.sched_submit":
            entry["sched_submit"] = span.start
            entry["sched_queued"] = span.end
        elif span.name == "service.submit":
            entry["service_submit"] = span.start
            entry["service_queued"] = span.end
        elif span.name == "runner.run":
            entry["run_start"] = span.start
            entry["run_end"] = span.end
        elif span.name == "server.terminal_frame":
            entry["frame_start"] = span.start
            entry["frame_built"] = span.end
    return marks
