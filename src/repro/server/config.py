"""Server configuration: one object, consumed whole.

:class:`ServerConfig` carries the bind address, the per-tenant quotas and —
crucially — a single :class:`~repro.options.ExecutionOptions` for every
execution knob, so the server resolves engine/backend/pool sizing
through exactly the same path as ``repro.connect``.  No ``REPRO_*``
environment variable is read here; that is :meth:`ExecutionOptions.resolve`'s
job, at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.options import ExecutionOptions
from repro.server.scheduler import TenantQuota


@dataclass
class ServerConfig:
    """Everything the network tier needs to come up."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); the bound port is readable off
    #: the running server
    port: int = 0
    options: ExecutionOptions = field(default_factory=ExecutionOptions)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: per-tenant quota overrides (tenant name -> quota)
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: observability sinks receiving tenant_admitted / tenant_throttled
    sinks: Sequence = ()
    #: default per-query deadline in seconds (None: unlimited)
    default_deadline: Optional[float] = None
    #: cap on an HTTP request body (a POSTed SQL text) in bytes
    max_body_bytes: int = 1 << 20

    def resolved(self) -> "ServerConfig":
        """A copy whose execution options are fully resolved."""
        return ServerConfig(
            host=self.host,
            port=self.port,
            options=self.options.resolve(),
            default_quota=self.default_quota,
            quotas=dict(self.quotas),
            sinks=tuple(self.sinks),
            default_deadline=self.default_deadline,
            max_body_bytes=self.max_body_bytes,
        )
