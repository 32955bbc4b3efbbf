"""The service's execution monitor: cooperative control at tick boundaries.

The engine is pure Python, so "stopping a query" means raising out of its
own getnext stream.  Every counted tick (interpreted engine) and every
coalesced tick batch (fused engine) funnels through
:meth:`ExecutionMonitor.record` / :meth:`ExecutionMonitor.record_batch`;
this subclass checks the query's cancel flag and deadline right there, so a
cancel lands within one tick (row-at-a-time) or one observer-cadence batch
(fused) — and the fused engine's batches are already capped at the observer
cadence, so responsiveness does not degrade with batching.  Finish and
rewind events are checked as well: a ⋈NL rescan over an already-filtered
inner emits long finish/rewind trains with no counted tick in between, and
those must not stretch the cancel bound.

The same subclass provides the *sampling lock*: all monitor entry points
that mutate progress state (ticks, finishes, rewinds, resets — and the
cadence observers they trigger, which walk the incremental bounds tracker)
run under one re-entrant lock.  A monitor thread that takes the same lock
can therefore snapshot the tracker and run estimators mid-flight without
racing the executor.  The lock is re-entrant because a boundary ``finish``
forces an observer round from inside ``record_finish``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.engine.monitor import ExecutionMonitor
from repro.service.handle import QueryHandle, cancelled_error, timeout_error


class ServiceExecutionMonitor(ExecutionMonitor):
    """An :class:`ExecutionMonitor` wired to one query handle.

    Raises :class:`repro.errors.QueryCancelled` /
    :class:`repro.errors.QueryTimeout` from the recording path when the
    handle asks for it, and serializes all recording (plus the observer
    rounds it triggers) under :attr:`lock`.

    Each query has exactly one monitored execution, so this is the *only*
    place control is checked.
    """

    def __init__(
        self,
        handle: QueryHandle,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__()
        self.handle = handle
        self.clock = clock
        self.lock = threading.RLock()

    def _check_control(self) -> None:
        handle = self.handle
        if handle.cancel_requested:
            raise cancelled_error(handle)
        deadline = handle.deadline_at
        if deadline is not None and self.clock() >= deadline:
            raise timeout_error(handle)

    # -- recording entry points, control-checked and lock-scoped -----------------

    def record(self, operator_id: int) -> None:
        self._check_control()
        with self.lock:
            super().record(operator_id)

    def record_batch(self, operator_id: int, n: int) -> None:
        self._check_control()
        with self.lock:
            super().record_batch(operator_id, n)

    def record_finish(self, operator_id: int) -> None:
        # Finish events are control-checked too: a rewind-heavy ⋈NL rescan
        # emits long finish/rewind trains between counted ticks, and
        # skipping the check there would defer a cancel past the documented
        # one-tick/one-batch bound.
        self._check_control()
        with self.lock:
            super().record_finish(operator_id)

    def record_rewind(self, operator_id: int) -> None:
        self._check_control()
        with self.lock:
            super().record_rewind(operator_id)

    def notify_now(self) -> None:
        with self.lock:
            super().notify_now()

    def reset(self) -> None:
        with self.lock:
            super().reset()
