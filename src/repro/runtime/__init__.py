"""Trusted runtimes: sandbox management, transitions, FaaS serving,
and the supervised (robustness) serving loop."""

from .chaining import ChainHop, ChainModel
from .pool import InstancePool, PoolSlot, ShardedInstancePool
from .sandbox import (
    InvokeResult,
    SandboxError,
    SandboxHandle,
    SandboxManager,
)
from .scheduling import MultiplexModel, ScheduleOutcome
from .serving import (
    SERVING_SCHEMES,
    ArrivalProcess,
    MmppArrivals,
    PoissonArrivals,
    SchemeCosts,
    ServingConfig,
    ServingMetrics,
    ServingSimulator,
    TraceArrivals,
    arrival_process,
    build_requests,
    connection_lifecycle_costs,
    load_trace,
    percentile,
    save_trace,
    scheme_costs,
    simulate_serving,
)
from .startup import StartupModel
from .supervisor import (
    CLASSIFICATIONS,
    FaultKind,
    Injection,
    Priority,
    Request,
    RequestOutcome,
    Supervisor,
    SupervisorConfig,
    TenantBreaker,
    record_breaker_fault,
    shed_victims,
)
from .transitions import TransitionKind, TransitionModel

__all__ = [
    "percentile", "InvokeResult",
    "SandboxError", "SandboxHandle", "SandboxManager", "TransitionKind",
    "TransitionModel", "ChainHop", "ChainModel", "InstancePool",
    "PoolSlot", "StartupModel", "MultiplexModel", "ScheduleOutcome",
    "Supervisor", "SupervisorConfig", "Request",
    "RequestOutcome", "Priority", "FaultKind", "Injection",
    "TenantBreaker", "CLASSIFICATIONS", "shed_victims",
    "record_breaker_fault", "ShardedInstancePool", "ArrivalProcess",
    "PoissonArrivals", "MmppArrivals", "TraceArrivals",
    "arrival_process", "build_requests", "save_trace", "load_trace",
    "SchemeCosts", "scheme_costs", "SERVING_SCHEMES", "ServingConfig",
    "ServingMetrics", "ServingSimulator", "simulate_serving",
    "connection_lifecycle_costs",
]
