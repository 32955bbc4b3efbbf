"""Concurrent query service: admission, cancellation, deadlines, live progress.

Public surface:

* :class:`QueryService` — bounded worker pool with backpressure;
* :class:`QueryHandle` / :class:`QueryState` — per-query tickets with
  cooperative cancellation, deadlines and thread-safe progress sampling;
* :class:`ServiceExecutionMonitor` — the tick-boundary control monitor;
* :class:`ResilientEstimator` — safe-fallback estimator degradation;
* :data:`BACKENDS` / :class:`CatalogSpec` — the execution-backend surface
  (``backend="thread"`` or ``"process"``, see
  :mod:`repro.service.procpool`), resolved through
  :class:`repro.api.ExecutionOptions`.

Typical use goes through the facade (:func:`repro.api.connect` →
``Session.submit``); this package is the engine room.
"""

from repro.service.handle import QueryHandle, QueryState
from repro.service.monitor import ServiceExecutionMonitor
from repro.service.procpool import BACKENDS, CatalogSpec
from repro.service.resilient import ResilientEstimator
from repro.service.service import QueryService

__all__ = [
    "BACKENDS",
    "CatalogSpec",
    "QueryHandle",
    "QueryService",
    "QueryState",
    "ResilientEstimator",
    "ServiceExecutionMonitor",
]
