"""Progress-estimator interface (§2.4).

An estimator maps an :class:`Observation` — everything it is *allowed* to
see: the getnext trace so far, runtime cardinality bounds derived from it
plus catalog statistics, the pipeline structure, and optimizer estimates —
to a progress value in [0, 1].  It never sees ``total(Q)``; that oracle
lives only in the evaluation harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bounds import BoundsSnapshot
from repro.core.pipelines import Pipeline, PipelineState
from repro.engine.plan import Plan
from repro.errors import DegenerateBoundsError


@dataclass
class Observation:
    """A snapshot of what an estimator may legally observe at one instant."""

    #: counted getnext calls so far (``Curr``)
    curr: int
    #: runtime cardinality bounds (``LB``/``UB`` summed over the plan)
    bounds: BoundsSnapshot
    #: pipeline decomposition with live driver state
    pipelines: List[Pipeline]
    #: optimizer per-operator output estimates (no guarantees attached)
    estimates: Optional[Dict[int, float]] = None
    #: total tuples consumed so far from scanned leaves (μ̂'s denominator)
    leaf_input_consumed: int = 0
    #: the run's event-invalidated driver state of ``pipelines``, shared by
    #: every estimator and the event stream (read it via :meth:`driver_state`)
    pipeline_state: Optional[PipelineState] = None

    def driver_state(self) -> PipelineState:
        """The pipelines' driver state at this instant, brought up to date.

        An observation built without a state gets a transient unattached
        one, which recomputes in full on every refresh.
        """
        state = self.pipeline_state
        if state is None:
            state = self.pipeline_state = PipelineState(
                self.pipelines, self.estimates
            )
        return state.refresh()


class ProgressEstimator(abc.ABC):
    """Base class for all progress estimators."""

    #: short identifier used in traces, tables and plots
    name: str = "estimator"

    def prepare(self, plan: Plan) -> None:
        """Optional one-time hook before execution starts."""

    @abc.abstractmethod
    def estimate(self, observation: Observation) -> float:
        """Point estimate of the progress, in [0, 1]."""

    def interval(self, observation: Observation) -> Tuple[float, float]:
        """Interval guarantee; defaults to the degenerate point interval."""
        value = self.estimate(observation)
        return value, value

    def event_extras(self) -> Optional[Dict[str, object]]:
        """Structured extras describing the *last* estimate, for event sinks.

        Combining estimators override this to expose which candidate they
        preferred and with what weights; the runner attaches the result to
        each sample event's payload (and emits an ``estimator_selected``
        event when the selection changes).  ``None`` — the default — means
        "nothing to report" and costs nothing.
        """
        return None

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)


def clamp_progress(value: float) -> float:
    """Progress estimates live in [0, 1]."""
    if value != value:  # NaN guard
        return 0.0
    return max(0.0, min(1.0, value))


def degenerate_reason(curr: float, bounds: BoundsSnapshot) -> Optional[str]:
    """Why these bounds cannot constrain an estimate, or None if they can.

    Degenerate cases: a non-positive or infinite UB, a non-positive LB, an
    inverted pair (``UB < LB``), or bounds stale below ``Curr``.  The clamp
    path (:func:`progress_interval`) survives all of them by widening to the
    unconstrained interval; strict estimators instead surface them as a
    typed :class:`repro.errors.DegenerateBoundsError` so a supervising
    service can degrade the toolkit precisely.
    """
    if bounds.upper <= 0:
        return "upper bound is not positive"
    if bounds.upper == float("inf"):
        return "upper bound is infinite"
    if bounds.lower <= 0:
        return "lower bound is not positive"
    if bounds.upper < bounds.lower:
        return "bounds are inverted (UB < LB)"
    if curr > bounds.upper:
        return "bounds are stale (Curr beyond UB)"
    return None


def require_sound_bounds(curr: float, bounds: BoundsSnapshot) -> None:
    """Raise :class:`DegenerateBoundsError` unless the bounds can constrain.

    The raise path behind every ``strict=True`` estimator.
    """
    reason = degenerate_reason(curr, bounds)
    if reason is not None:
        raise DegenerateBoundsError(reason, curr, bounds.lower, bounds.upper)


def progress_interval(curr: float, bounds: BoundsSnapshot) -> Tuple[float, float]:
    """The sound progress interval ``[Curr/UB, Curr/LB]``, degenerate-safe.

    Since ``LB ≤ total(Q) ≤ UB``, the true progress lies in that interval.
    Degenerate bounds must not invert it: a zero or infinite UB contributes
    no floor (low = 0), a zero LB no ceiling (high = 1), and if the inputs
    are inconsistent (``UB < LB``, or ``Curr`` beyond a stale bound) the
    endpoints are reordered so that ``low ≤ high`` always holds.
    """
    low = 0.0
    if bounds.upper > 0 and bounds.upper != float("inf"):
        low = clamp_progress(curr / bounds.upper)
    high = 1.0
    if bounds.lower > 0:
        high = clamp_progress(curr / bounds.lower)
    if low > high:
        low, high = high, low
    return low, high
