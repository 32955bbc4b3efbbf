"""``repro.server`` — the async HTTP/WebSocket front door.

An asyncio network tier over the :mod:`repro.api` facade: HTTP admission
(``POST /queries``), status and cooperative cancel, a WebSocket per query
streaming live :class:`~repro.core.observe.ProgressEvent` samples (truth
back-filled at completion), per-tenant admission quotas with
deficit-round-robin fair dispatch, and a ``/metrics`` endpoint.  Pure
standard library; ``uvloop``/``websockets`` are optional accelerators
picked up via :mod:`repro.server.compat`.

The server consumes the facade surface only — ``ExecutionOptions``,
``QueryService``, progress sinks — never engine internals, which is what
keeps streamed traces bit-identical to solo in-process runs on either
execution backend.
"""

from repro.server.app import ReproServer
from repro.server.bridge import EventStream, StreamSink
from repro.server.client import ServerClient, ServerClientError
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.server.scheduler import (
    FairScheduler,
    ScheduledQuery,
    TenantQuota,
    TenantThrottled,
)

__all__ = [
    "EventStream",
    "FairScheduler",
    "ReproServer",
    "ScheduledQuery",
    "ServerClient",
    "ServerClientError",
    "ServerConfig",
    "ServerMetrics",
    "StreamSink",
    "TenantQuota",
    "TenantThrottled",
]
