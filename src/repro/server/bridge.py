"""The thread→event-loop bridge for live progress streams.

Queries execute on worker threads (or in worker processes whose shepherd
threads relay events); WebSocket subscribers live on the asyncio event
loop.  :class:`EventStream` is the rendezvous: worker-side ``publish`` is
plain thread-safe Python, and each loop-side subscriber gets an
``asyncio.Queue`` fed via ``loop.call_soon_threadsafe`` — the only safe
way to wake a coroutine from a foreign thread.

Streams buffer everything they publish, so a subscriber that connects
mid-run (or after completion) replays the full frame sequence first and
then follows live — every subscriber sees the same frames in the same
order, which is what lets the load benchmark assert streamed traces
bit-identical to solo runs.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional

from repro.core.observe import ProgressEvent, ProgressEventSink

#: queue sentinel marking the end of a stream
_EOS = None


class EventStream:
    """One query's ordered frame sequence, fan-out to asyncio subscribers."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        self._frames: List[Dict[str, object]] = []
        self._subscribers: List[asyncio.Queue] = []
        self._closed = False

    # -- worker side (any thread) -------------------------------------------------

    def publish(self, frame: Dict[str, object]) -> None:
        """Append a frame and wake every subscriber.  No-op once closed."""
        with self._lock:
            if self._closed:
                return
            self._frames.append(frame)
            targets = list(self._subscribers)
        self._wake(targets, frame)

    def close(self) -> None:
        """Seal the stream; subscribers drain buffered frames then finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            targets = list(self._subscribers)
        self._wake(targets, _EOS)

    def _wake(self, targets: List[asyncio.Queue], item) -> None:
        for queue in targets:
            try:
                self._loop.call_soon_threadsafe(queue.put_nowait, item)
            except RuntimeError:
                # Loop already closed (server shutting down): subscribers
                # are gone, frames stay buffered for post-hoc inspection.
                pass

    # -- loop side ------------------------------------------------------------------

    def subscribe(self) -> "asyncio.Queue":
        """Register a subscriber (call on the loop thread).

        The returned queue first replays every frame published so far, then
        receives live frames, then ``None`` when the stream closes.
        """
        queue: asyncio.Queue = asyncio.Queue()
        with self._lock:
            for frame in self._frames:
                queue.put_nowait(frame)
            if self._closed:
                queue.put_nowait(_EOS)
            else:
                self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        with self._lock:
            try:
                self._subscribers.remove(queue)
            except ValueError:
                pass

    # -- inspection -------------------------------------------------------------------

    def frames(self) -> List[Dict[str, object]]:
        """A copy of everything published so far (tests, post-hoc checks)."""
        with self._lock:
            return list(self._frames)

    @property
    def closed(self) -> bool:
        return self._closed


class StreamSink(ProgressEventSink):
    """Per-query sink: forwards cadence samples into an :class:`EventStream`.

    Attached through ``QueryService.submit(..., sinks=(StreamSink(s),))``,
    so it receives exactly the sample stream both backends publish.  Frames
    are ``ProgressEvent.to_dict()`` plus an ``"event": "sample"`` marker —
    already JSON-ready, and floats survive the JSON round trip exactly.
    """

    def __init__(self, stream: EventStream) -> None:
        self.stream = stream

    def emit(self, event: ProgressEvent) -> None:
        if event.kind != "sample":
            return
        frame: Dict[str, object] = {"event": "sample"}
        frame.update(event.to_dict())
        self.stream.publish(frame)


def sample_to_dict(sample) -> Dict[str, object]:
    """A sealed :class:`~repro.core.metrics.TraceSample` as a JSON object."""
    return {
        "curr": sample.curr,
        "actual": sample.actual,
        "estimates": dict(sample.estimates),
        "lower_bound": sample.lower_bound,
        "upper_bound": sample.upper_bound,
    }


def terminal_frame(scheduled) -> Dict[str, object]:
    """The stream's final frame: state, error, profile, sealed trace.

    The trace rides along so a client can verify bit-identity against a
    solo in-process run without a second HTTP round trip; ``actual`` labels
    are the truth back-filled at completion.
    """
    handle = scheduled.handle
    frame: Dict[str, object] = {
        "event": "end",
        "id": scheduled.query_id,
        "query": scheduled.name,
        "tenant": scheduled.tenant,
        "state": scheduled.state_name(),
    }
    error: Optional[BaseException] = (
        handle.error if handle is not None else scheduled.pre_dispatch_error
    )
    if error is not None:
        frame["error"] = str(error)
    report = None
    if handle is not None and handle.error is None and handle.done:
        report = handle.result(timeout=0)
    if report is not None:
        frame["total"] = report.total
        frame["trace"] = [
            sample_to_dict(sample) for sample in report.trace.samples
        ]
        if report.profile is not None:
            frame["profile"] = report.profile.to_dict()
    return frame
