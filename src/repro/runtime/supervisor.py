"""The serving loop's recovery policy (robustness layer).

The paper's FaaS/CDN scenario (§6.3) assumes the host *survives* its
guests: Gobi-style graceful recovery from sandboxed-library faults is a
first-class requirement once one process multiplexes thousands of
tenants.  :class:`~repro.runtime.serving.ServingSimulator` is the one
serving loop, and this module holds the policy it applies to every
guest misbehavior, so each one ends in a bounded, accounted recovery
action:

* **watchdog** — every invocation gets a cycle budget
  (:func:`watchdog_budget`); a guest that spins past it is killed, its
  sandbox reaped, its pool slot quarantined, and the request fails.
* **quarantine** — any slot a fault touched leaves circulation until
  :meth:`~repro.runtime.pool.InstancePool.scrub` poison-verifies the
  mapping (§3.3.2 made mechanical).
* **one run after a transient failure** — a transient kernel-call
  failure or a heap-grow OOM waits :data:`BACKOFF_CYCLES` and then runs
  the request once.  An HFI fault reaps the sandbox and fails the
  request: a real faulting guest would fault again on a fresh one.
* **circuit breaker** — per tenant: ``breaker_threshold`` consecutive
  faults open the circuit for ``breaker_cooldown_cycles``; a half-open
  probe closes it again.
* **admission control / load shedding** — a bounded number in flight;
  overflow sheds the *lowest-priority, newest* requests first and
  never sheds :data:`NO_SHED_PRIORITY` (graceful degradation).

Each policy value is a module constant below, and each decision is a
module-level function (``shed_rank``, ``pending_fault``,
``classify_fault``, ``watchdog_budget`` and the breaker's
``breaker_admits``/``record_breaker_fault``/``record_breaker_success``).
Every injected or observed fault is stamped with exactly one
classification — ``retried`` / ``shed`` / ``quarantined`` / ``killed``
— which is the ledger the chaos soak gate audits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class FaultKind(str, enum.Enum):
    """The chaos injector catalog (docs/architecture.md)."""

    GUEST_FAULT = "guest-fault"          # HFI violation mid-invoke
    GUEST_HANG = "guest-hang"            # infinite loop / budget overrun
    SLOT_CORRUPTION = "slot-corruption"  # guest scribbled outside its heap
    TRANSIENT_KERNEL = "transient-kernel"  # kernel call failed transiently
    HEAP_OOM = "heap-oom"                # heap grow denied (memory pressure)
    BURST_OVERLOAD = "burst-overload"    # arrival burst beyond capacity


#: The only admissible classifications for an injected fault.
CLASSIFICATIONS = ("retried", "shed", "quarantined", "killed")


class Priority(enum.IntEnum):
    LOW = 0
    NORMAL = 1
    HIGH = 2


# The recovery policy's values.
#: Watchdog budget: this multiple of the declared service, and at
#: least ``WATCHDOG_MIN_CYCLES``.
WATCHDOG_MULTIPLIER = 4.0
WATCHDOG_MIN_CYCLES = 50_000
#: Backoff before the run that follows a transient kernel failure or
#: a heap-grow OOM.
BACKOFF_CYCLES = 20_000
#: Default circuit breaker: this many consecutive faults open a
#: tenant's circuit for ``BREAKER_COOLDOWN_CYCLES``.
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN_CYCLES = 2_000_000
#: Admission control never sheds a request at or above this priority.
NO_SHED_PRIORITY = Priority.HIGH
#: Share of its declared service a guest runs before its HFI fault.
FAULT_PROGRESS = 0.5


def shed_rank(order_key: int, request: "Request") -> tuple:
    """The admission-control shed order: the smallest rank is shed
    first — lowest priority first, newest (largest ``order_key``)
    first within a priority."""
    return (request.priority, -order_key)


def breaker_admits(breaker: "TenantBreaker", clock: int) -> bool:
    """The circuit breaker's admission check: an open circuit sheds
    the tenant until ``open_until``, then turns half-open and admits
    one probe."""
    if breaker.state == "open":
        if clock < breaker.open_until:
            return False
        breaker.state = "half-open"
    return True


def record_breaker_success(breaker: "TenantBreaker") -> None:
    """A clean invocation closes the tenant's circuit."""
    breaker.consecutive_faults = 0
    breaker.state = "closed"


def record_breaker_fault(breaker: "TenantBreaker", clock: int,
                         threshold: int, cooldown_cycles: int) -> bool:
    """Advance a tenant breaker through one observed fault.

    A failed half-open probe re-opens the circuit without counting a
    new trip; crossing ``threshold`` consecutive faults opens it and
    counts one.  Returns True exactly when a new trip occurred, so
    callers can keep their own trip counters/telemetry.
    """
    breaker.consecutive_faults += 1
    if breaker.state == "half-open":
        # the probe failed: straight back to open
        breaker.state = "open"
        breaker.open_until = clock + cooldown_cycles
        return False
    if breaker.consecutive_faults >= threshold:
        breaker.state = "open"
        breaker.open_until = clock + cooldown_cycles
        breaker.trips += 1
        return True
    return False


def pending_fault(injection: Optional["Injection"]) -> Optional[FaultKind]:
    """The one-shot fault an invocation must act on, or None.

    An injection applies until the ledger classifies it; a burst
    overload shapes the arrival stream and never faults an invocation.
    """
    if (injection is not None and injection.classified is None
            and injection.kind is not FaultKind.BURST_OVERLOAD):
        return injection.kind
    return None


def classify_fault(injection: Optional["Injection"],
                   classification: str) -> bool:
    """Stamp ``injection`` in the fault ledger; the first
    classification wins.  Returns True when this call stamped it."""
    assert classification in CLASSIFICATIONS, classification
    if injection is None or injection.classified is not None:
        return False
    injection.classified = classification
    return True


def watchdog_budget(service_cycles: int) -> int:
    """Cycles a guest may run before the watchdog kills it:
    :data:`WATCHDOG_MULTIPLIER`× its declared service, at least
    :data:`WATCHDOG_MIN_CYCLES`."""
    return max(WATCHDOG_MIN_CYCLES, int(WATCHDOG_MULTIPLIER * service_cycles))


@dataclass
class Injection:
    """One planned fault, stamped by the serving loop when handled."""

    injection_id: int
    request_index: int
    kind: FaultKind
    classified: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class Request:
    """One unit of tenant traffic through the serving loop."""

    index: int
    tenant: str
    service_cycles: int
    priority: int = Priority.NORMAL
    arrival_cycle: int = 0
    #: Set on synthetic burst traffic: the parent burst injection.
    injection: Optional[Injection] = None


@dataclass(slots=True)
class RequestOutcome:
    """One request's fate.  The serving loop keeps one per request for
    the whole run, so it carries no per-instance ``__dict__``."""

    request: Request
    status: str                 # "ok" | "shed" | "failed"
    attempts: int = 0
    cycles: int = 0
    detail: str = ""


@dataclass
class TenantBreaker:
    """Per-tenant circuit breaker state."""

    consecutive_faults: int = 0
    state: str = "closed"       # closed | open | half-open
    open_until: int = 0
    trips: int = 0
