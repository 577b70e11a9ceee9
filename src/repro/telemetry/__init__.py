"""Unified telemetry: uniform component stats, spans, one sink.

Every component counts its own events and reports them through
``.stats()``; the :class:`Telemetry` sink adds the span timeline and
samples the registered components at snapshot time.  See docs/api.md
("Telemetry & stats") for the user-facing walkthrough and
docs/architecture.md for where the components register.
"""

from .export import to_json, write_json
from .sink import NULL_TELEMETRY, NullTelemetry, Telemetry, coalesce
from .spans import Span, SpanLog
from .stats import (
    CacheStats,
    ComponentStats,
    HfiDeviceStats,
    KernelStats,
    MpkDomainStats,
    MpkVirtStats,
    OooStats,
    PoolStats,
    PredictorStats,
    SandboxManagerStats,
    SandboxStats,
    ServingStats,
    ShardedPoolStats,
    TlbStats,
    TracerStats,
    VerifyStats,
)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "coalesce",
    "Span", "SpanLog",
    "ComponentStats", "CacheStats", "TlbStats",
    "PredictorStats", "TracerStats", "SandboxStats",
    "SandboxManagerStats", "HfiDeviceStats", "PoolStats", "KernelStats",
    "OooStats", "MpkDomainStats", "MpkVirtStats",
    "VerifyStats", "ServingStats", "ShardedPoolStats",
    "to_json", "write_json",
]
