"""Accuracy metrics for progress traces (§2.5's guarantee notions).

Two families of guarantees are evaluated:

* the **ratio-error** requirement — the estimate is within a factor *e* of
  the true progress at every instant;
* the **threshold** requirement (τ, δ) — the estimator correctly answers
  "above or below τ?" whenever the true progress is outside the grey area
  τ ± δ.

Plus the absolute max/avg errors the paper's Table 1 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def ratio_error(estimate: float, actual: float) -> float:
    """max(estimate/actual, actual/estimate), with zero handling.

    Both zero → 1 (perfect); exactly one zero → ∞ (no finite factor works).
    """
    if estimate == actual:
        return 1.0
    if estimate <= 0 or actual <= 0:
        return float("inf")
    return max(estimate / actual, actual / estimate)


#: floor for log-ratio residuals: a zero estimate against a non-zero truth
#: is "very wrong", not "infinitely wrong" — an unbounded residual would
#: let one early sample dominate every statistic built on it
RESIDUAL_FLOOR = 1e-9


def log_ratio_residual(estimate: float, actual: float) -> float:
    """Signed log-space residual ``log(estimate / actual)``.

    The currency of the robust-combination machinery (König et al. 2012):
    ``|r|`` is ``log`` of the ratio error, so squared residuals aggregate
    like variances and the sign keeps over- vs under-estimation visible.
    Non-positive inputs are floored at :data:`RESIDUAL_FLOOR`.
    """
    return math.log(
        max(estimate, RESIDUAL_FLOOR) / max(actual, RESIDUAL_FLOOR)
    )


@dataclass(frozen=True)
class TraceSample:
    """One sampled instant of an instrumented execution.

    ``curr`` is an integer tick count under the GetNext model but a float
    under weighted work models (bytes processed).

    ``actual`` is the true progress at the sampled instant.  Truth is only
    known once the run finishes, so live samples (those observed through a
    probe or service handle while the query is still executing) carry
    ``actual=None``; sealed traces — what :class:`ProgressTrace` holds —
    are always fully labeled.
    """

    curr: float
    actual: Optional[float]
    estimates: Dict[str, float]
    lower_bound: float = 0.0
    upper_bound: float = 0.0


@dataclass
class ProgressTrace:
    """All labeled samples of one instrumented run, plus total(Q).

    Construction is two-phase: the runner's ``TraceBuilder`` accumulates
    raw samples during execution and labels every ``actual`` at seal time,
    so a ProgressTrace in the wild never contains unlabeled samples.
    """

    total: float
    samples: List[TraceSample] = field(default_factory=list)

    def estimator_names(self) -> List[str]:
        return list(self.samples[0].estimates) if self.samples else []

    def series(self, name: str) -> List[Tuple[float, float]]:
        """(actual, estimate) pairs — the axes of Figures 3-5 and 7."""
        return [(s.actual, s.estimates[name]) for s in self.samples]

    # -- absolute errors (Table 1's metric) -------------------------------------

    def abs_errors(self, name: str) -> List[float]:
        return [abs(s.estimates[name] - s.actual) for s in self.samples]

    def max_abs_error(self, name: str) -> float:
        errors = self.abs_errors(name)
        return max(errors) if errors else 0.0

    def avg_abs_error(self, name: str) -> float:
        errors = self.abs_errors(name)
        return sum(errors) / len(errors) if errors else 0.0

    # -- ratio errors (the paper's guarantee currency) ----------------------------

    def ratio_errors(self, name: str, min_actual: float = 0.0) -> List[float]:
        return [
            ratio_error(s.estimates[name], s.actual)
            for s in self.samples
            if s.actual > min_actual
        ]

    def max_ratio_error(self, name: str, min_actual: float = 0.0) -> float:
        errors = self.ratio_errors(name, min_actual)
        return max(errors) if errors else 1.0

    def avg_ratio_error(self, name: str, min_actual: float = 0.0) -> float:
        errors = self.ratio_errors(name, min_actual)
        return sum(errors) / len(errors) if errors else 1.0

    def ratio_error_series(self, name: str) -> List[Tuple[float, float]]:
        """(actual progress, ratio error) pairs — the axes of Figure 6."""
        return [
            (s.actual, ratio_error(s.estimates[name], s.actual))
            for s in self.samples
            if s.actual > 0
        ]

    def ratio_error_after(self, name: str, fraction: float) -> float:
        """Worst ratio error over samples with actual progress ≥ fraction.

        This is how Property 2 ("after half the tuples...") and Figure 6
        ("drops to 1.5 after 30%") are checked.
        """
        errors = [
            ratio_error(s.estimates[name], s.actual)
            for s in self.samples
            if s.actual >= fraction
        ]
        return max(errors) if errors else 1.0

    # -- threshold requirement ------------------------------------------------------

    def threshold_violations(
        self, name: str, tau: float, delta: float
    ) -> List[TraceSample]:
        """Samples violating the (τ, δ) threshold requirement (§2.5)."""
        violations = []
        for sample in self.samples:
            estimate = sample.estimates[name]
            if sample.actual < tau - delta and estimate >= tau:
                violations.append(sample)
            elif sample.actual > tau + delta and estimate <= tau:
                violations.append(sample)
        return violations

    def meets_threshold(self, name: str, tau: float, delta: float) -> bool:
        return not self.threshold_violations(name, tau, delta)

    # -- summaries ----------------------------------------------------------------------

    def summary(self, names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
        """Per-estimator metric table."""
        names = list(names) if names is not None else self.estimator_names()
        return {
            name: {
                "max_abs_error": self.max_abs_error(name),
                "avg_abs_error": self.avg_abs_error(name),
                "max_ratio_error": self.max_ratio_error(name, min_actual=0.01),
                "avg_ratio_error": self.avg_ratio_error(name, min_actual=0.01),
            }
            for name in names
        }

    def __len__(self) -> int:
        return len(self.samples)
