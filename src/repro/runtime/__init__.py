"""Trusted runtimes: sandbox management, transitions, and the one
serving loop, which runs its invocations on a cost model
(``SchemeCosts``) or on real sandboxes (``SandboxExecutor``) under the
recovery policy of ``runtime/supervisor.py``."""

from .chaining import ChainHop, ChainModel
from .pool import InstancePool, PoolSlot, ShardedInstancePool
from .sandbox import (
    InvokeResult,
    SandboxError,
    SandboxExecutor,
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
    percentile,
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
    TenantBreaker,
    record_breaker_fault,
)
from .transitions import TransitionKind, TransitionModel

__all__ = [
    "percentile", "InvokeResult",
    "SandboxError", "SandboxHandle", "SandboxManager", "TransitionKind",
    "TransitionModel", "ChainHop", "ChainModel", "InstancePool",
    "PoolSlot", "StartupModel", "MultiplexModel", "ScheduleOutcome",
    "SandboxExecutor", "Request",
    "RequestOutcome", "Priority", "FaultKind", "Injection",
    "TenantBreaker", "CLASSIFICATIONS",
    "record_breaker_fault", "ShardedInstancePool", "ArrivalProcess",
    "PoissonArrivals", "MmppArrivals", "TraceArrivals",
    "arrival_process", "build_requests",
    "SchemeCosts", "scheme_costs", "SERVING_SCHEMES", "ServingConfig",
    "ServingMetrics", "ServingSimulator", "simulate_serving",
    "connection_lifecycle_costs",
]
