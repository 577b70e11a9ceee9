"""Unified telemetry: metrics registry, spans, uniform component stats.

The observability layer every other layer reports into — see
docs/api.md ("Telemetry & stats") for the user-facing walkthrough and
docs/architecture.md for where the sink hooks live.
"""

from .export import (
    attribution_to_csv,
    metrics_to_csv,
    spans_to_csv,
    to_json,
    write_csv,
    write_json,
)
from .registry import Counter, CycleAccumulator, Histogram, MetricsRegistry
from .sink import NULL_TELEMETRY, SANDBOX_CYCLES, NullTelemetry, Telemetry, coalesce
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
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "SANDBOX_CYCLES",
    "coalesce", "Counter", "Histogram", "CycleAccumulator",
    "MetricsRegistry", "Span", "SpanLog",
    "ComponentStats", "CacheStats", "TlbStats",
    "PredictorStats", "TracerStats", "SandboxStats",
    "SandboxManagerStats", "HfiDeviceStats", "PoolStats", "KernelStats",
    "OooStats", "MpkDomainStats", "MpkVirtStats",
    "VerifyStats", "ServingStats", "ShardedPoolStats",
    "to_json", "metrics_to_csv", "spans_to_csv", "attribution_to_csv",
    "write_json", "write_csv",
]
