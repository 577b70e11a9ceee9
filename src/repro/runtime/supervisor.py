"""A supervised serving loop over the sandbox runtime (robustness layer).

The paper's FaaS/CDN scenario (§6.3) assumes the host *survives* its
guests: Gobi-style graceful recovery from sandboxed-library faults is a
first-class requirement once one process multiplexes thousands of
tenants.  :class:`Supervisor` wraps a
:class:`~repro.runtime.sandbox.SandboxManager` and an
:class:`~repro.runtime.pool.InstancePool` in a state machine that
turns every guest misbehavior into a bounded, accounted recovery
action:

* **watchdog** — every invocation gets a cycle budget
  (:func:`watchdog_budget`); a guest that spins past it is killed, its
  sandbox reaped and rebuilt, its pool slot quarantined.
* **quarantine** — any slot a fault touched leaves circulation until
  :meth:`~repro.runtime.pool.InstancePool.scrub` poison-verifies the
  mapping (§3.3.2 made mechanical).
* **one recovery, then one clean attempt** — a pending fault is
  one-shot, so a request is recovered at most once and then runs
  clean.  A transient kernel-call failure or a heap-grow OOM waits
  :func:`backoff_cycles` (with deterministic, seeded jitter) before
  the clean attempt; a hang or an HFI fault reaps the sandbox and
  makes the clean attempt on a fresh one.
* **circuit breaker** — per tenant: ``breaker_threshold`` consecutive
  faults open the circuit for ``breaker_cooldown_cycles``; a half-open
  probe closes it again.
* **admission control / load shedding** — a bounded arrival backlog;
  overflow sheds the *lowest-priority, newest* requests first and
  never sheds :data:`NO_SHED_PRIORITY` (graceful degradation).

Guest faults reach the supervisor the way the paper says they must:
as SIGSEGV through :class:`~repro.os.signals.SignalTable`, with the
HFI cause MSR in the payload.  The supervisor masks SIGSEGV during
its reap critical section, so a fault raised mid-recovery queues and
is drained in order (see ``os/signals.py``).

Every injected or observed fault is stamped with exactly one
classification — ``retried`` / ``shed`` / ``quarantined`` / ``killed``
— which is the ledger the chaos soak gate audits.

This module is the one home of the recovery policy, for this loop and
for the discrete-event serving simulator (:mod:`repro.runtime.serving`)
alike.  Each policy value is a module constant below, and each
decision is a module-level function (``shed_rank``, ``shed_victims``,
``pending_fault``, ``classify_fault``, ``watchdog_budget``,
``backoff_cycles`` and the breaker's ``breaker_admits``/
``record_breaker_fault``/``record_breaker_success``).  The two loops
still differ in two ways.  After a watchdog kill or a guest fault this
loop retries on a fresh sandbox, while the simulator fails the
request.  And this loop draws each backoff's jitter from its seeded
RNG, while the simulator, a cost model, charges the mean backoff.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core import FaultCause
from ..os.signals import SigInfo, Signal, SignalTable
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import RobustnessStats
from .pool import InstancePool, PoolSlot
from .transitions import TransitionKind

if TYPE_CHECKING:
    # sandbox.py imports FAULT_PROGRESS from this module, so importing
    # it back at run time would be circular
    from .sandbox import SandboxHandle, SandboxManager


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


# The recovery policy's values, read by both serving loops.
#: Watchdog budget: this multiple of the declared service, and at
#: least ``WATCHDOG_MIN_CYCLES``.
WATCHDOG_MULTIPLIER = 4.0
WATCHDOG_MIN_CYCLES = 50_000
#: Mean backoff before the retry of a transient kernel failure or a
#: heap-grow OOM, and its jitter as a fraction either side of the mean.
BACKOFF_CYCLES = 20_000
BACKOFF_JITTER = 0.25
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


def shed_victims(candidates, overflow: int) -> List[int]:
    """Admission-control victim selection for the batch
    :class:`Supervisor` loop.

    ``candidates`` are ``(order_key, request)`` pairs where a larger
    ``order_key`` means *newer*; victims are taken in
    :func:`shed_rank` order, and requests at or above
    :data:`NO_SHED_PRIORITY` are never chosen.  Returns the chosen order
    keys, at most ``overflow`` of them.  The discrete-event serving
    simulator (:mod:`repro.runtime.serving`) keeps its queued requests
    in a heap ordered by the same :func:`shed_rank` instead of
    re-sorting them per arrival; this function is its test reference.
    """
    if overflow <= 0:
        return []
    sheddable = [(key, request) for key, request in candidates
                 if request.priority < NO_SHED_PRIORITY]
    ranked = sorted(sheddable, key=lambda kr: shed_rank(*kr))
    return [key for key, _ in ranked[:overflow]]


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


def backoff_cycles(jitter: float) -> int:
    """Cycles a request waits after a transient kernel failure or a
    heap-grow OOM, before its clean attempt.  ``jitter`` in [-1, 1]
    moves the wait across :data:`BACKOFF_JITTER` either side of
    :data:`BACKOFF_CYCLES`; 0 gives the mean."""
    return int(BACKOFF_CYCLES * (1.0 + BACKOFF_JITTER * jitter))


@dataclass
class Injection:
    """One planned fault, stamped by the supervisor when handled."""

    injection_id: int
    request_index: int
    kind: FaultKind
    classified: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class Request:
    """One unit of tenant traffic through the supervised loop."""

    index: int
    tenant: str
    service_cycles: int
    priority: int = Priority.NORMAL
    arrival_cycle: int = 0
    #: Set on synthetic burst traffic: the parent burst injection.
    injection: Optional[Injection] = None


@dataclass
class RequestOutcome:
    request: Request
    status: str                 # "ok" | "shed" | "failed"
    attempts: int = 0
    cycles: int = 0
    detail: str = ""


@dataclass
class SupervisorConfig:
    #: Admission control: arrived-but-unserved requests beyond this are
    #: shed, lowest priority first.
    queue_limit: int = 32
    breaker_threshold: int = BREAKER_THRESHOLD
    breaker_cooldown_cycles: int = BREAKER_COOLDOWN_CYCLES


@dataclass
class TenantBreaker:
    """Per-tenant circuit breaker state."""

    consecutive_faults: int = 0
    state: str = "closed"       # closed | open | half-open
    open_until: int = 0
    trips: int = 0


#: Written at the top of an acquired slot's heap; checked after every
#: invocation.  A mismatch means the guest escaped its heap bounds (or
#: chaos said it did) — the slot is quarantined, never trusted again
#: until scrubbed.
CANARY_BYTES = 8


class Supervisor:
    """Supervised serving loop: watchdogs, quarantine, retry, shedding."""

    def __init__(self, manager: SandboxManager, pool: InstancePool,
                 config: Optional[SupervisorConfig] = None, *,
                 seed: int = 0,
                 telemetry: Optional[Telemetry] = None):
        self.manager = manager
        self.pool = pool
        self.config = config if config is not None else SupervisorConfig()
        self.params = manager.params
        self.telemetry = coalesce(telemetry)
        self.rng = random.Random((seed << 16) ^ 0xC4A05)
        self.clock = 0
        #: Fault delivery: the manager raises SIGSEGV into this table;
        #: our handler files it in the inbox for the recovery path.
        self.signals = (manager.signals if manager.signals is not None
                        else SignalTable())
        manager.signals = self.signals
        self.signals.register(Signal.SIGSEGV, self._on_segv)
        self._fault_inbox: List[SigInfo] = []
        self._tenants: Dict[str, SandboxHandle] = {}
        self._breakers: Dict[str, TenantBreaker] = {}
        self.outcomes: List[RequestOutcome] = []
        self.counters = RobustnessStats(component="supervisor")
        if self.telemetry.enabled:
            self.telemetry.register_component("supervisor", self.stats)

    # ------------------------------------------------------------------
    # signal plumbing (os layer -> supervisor)
    # ------------------------------------------------------------------
    def _on_segv(self, info: SigInfo) -> None:
        self._fault_inbox.append(info)
        self.counters.signals_handled += 1

    def _drain_fault(self) -> Optional[SigInfo]:
        return self._fault_inbox.pop(0) if self._fault_inbox else None

    # ------------------------------------------------------------------
    # fault ledger
    # ------------------------------------------------------------------
    def _account(self, injection: Optional[Injection],
                 classification: str) -> None:
        if (classify_fault(injection, classification)
                and self.telemetry.enabled):
            self.telemetry.count(f"supervisor.fault[{classification}]")

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[Request],
              injector=None) -> List[RequestOutcome]:
        """Run ``requests`` (arrival order) through the state machine.

        ``injector`` is an optional chaos planner exposing
        ``injection_for(request_index) -> Optional[Injection]``; None
        means production mode.
        """
        requests = list(requests)
        shed_indices: set = set()
        outcomes: List[RequestOutcome] = []
        n = len(requests)
        for i, request in enumerate(requests):
            if i in shed_indices:
                continue
            self.clock = max(self.clock, request.arrival_cycle)
            # --- admission control -------------------------------------
            backlog = [j for j in range(i, n)
                       if j not in shed_indices
                       and requests[j].arrival_cycle <= self.clock]
            overflow = len(backlog) - self.config.queue_limit
            if overflow > 0:
                victims = shed_victims(
                    [(j, requests[j]) for j in backlog], overflow)
                for j in victims:
                    shed_indices.add(j)
                    victim = requests[j]
                    outcomes.append(self._shed(victim, "admission",
                                               injector))
            if i in shed_indices:
                continue
            outcomes.append(self._submit(request, injector))
        self.outcomes.extend(outcomes)
        return outcomes

    def _shed(self, request: Request, why: str,
              injector=None) -> RequestOutcome:
        self.counters.requests += 1
        self.counters.shed += 1
        injection = request.injection or (
            injector.injection_for(request.index) if injector else None)
        self._account(injection, "shed")
        if self.telemetry.enabled:
            self.telemetry.count("supervisor.shed")
        return RequestOutcome(request, "shed", detail=why)

    # ------------------------------------------------------------------
    def _submit(self, request: Request, injector=None) -> RequestOutcome:
        self.counters.requests += 1
        breaker = self._breakers.setdefault(request.tenant,
                                            TenantBreaker())
        injection = request.injection or (
            injector.injection_for(request.index) if injector else None)
        # --- circuit breaker ------------------------------------------
        if not breaker_admits(breaker, self.clock):
            self.counters.shed += 1
            self.counters.breaker_shed += 1
            self._account(injection, "shed")
            return RequestOutcome(request, "shed", detail="breaker")
        # --- slot acquisition -----------------------------------------
        slot = self._acquire_slot()
        if slot is None:
            self.counters.shed += 1
            self._account(injection, "shed")
            return RequestOutcome(request, "shed", detail="capacity")
        handle = self._tenant_sandbox(request.tenant)
        # A pending fault is one-shot: it gets at most one recovery,
        # and the attempt after that recovery runs clean.
        pending = pending_fault(injection)
        attempts, spent = 1, 0
        if pending is not None and pending is not FaultKind.SLOT_CORRUPTION:
            handle, slot, spent = self._recover(
                request, pending, injection, breaker, handle, slot)
            if slot is None:
                self.counters.shed += 1
                detail = ("capacity-after-kill"
                          if pending is FaultKind.GUEST_HANG
                          else "capacity-after-fault")
                return self._finish(request, "shed", attempts, spent,
                                    detail)
            attempts = 2
            self.counters.retry_attempts += 1
        # --- clean attempt (possibly with slot corruption) ------------
        canary_addr = slot.heap_base + slot.heap_bytes - CANARY_BYTES
        canary = 0xC0DE_0000_0000 | (slot.index << 8) | attempts
        self.manager.space.write(canary_addr, canary, check=False)
        result = self.manager.invoke(handle, request.service_cycles,
                                     TransitionKind.ZERO_COST)
        spent += result.cycles
        if pending is FaultKind.SLOT_CORRUPTION:
            # The guest scribbled past its heap during this invoke.
            self.manager.space.write(
                canary_addr, self.rng.getrandbits(63), check=False)
        if self.manager.space.read(canary_addr, check=False) != canary:
            # Integrity breach: never recycle this slot unscrubbed.
            # The request's answer was produced, but the tenant
            # counts a fault toward its breaker.
            self.pool.quarantine(slot)
            self._account(injection, "quarantined")
            self.counters.quarantined += 1
            self._breaker_fault(breaker)
        else:
            self.manager.space.write(canary_addr, 0, check=False)
            spent += self.pool.release(slot)
            record_breaker_success(breaker)
        self.counters.succeeded += 1
        return self._finish(request, "ok", attempts, spent)

    def _recover(self, request: Request, pending: FaultKind,
                 injection: Optional[Injection], breaker: TenantBreaker,
                 handle: SandboxHandle, slot: PoolSlot):
        """The one recovery a pending fault gets.  Returns the sandbox
        and slot for the clean attempt (no slot if a reap left no
        capacity) and the cycles spent."""
        if pending in (FaultKind.TRANSIENT_KERNEL, FaultKind.HEAP_OOM):
            # The pre-invoke kernel interaction (e.g. the slot's
            # madvise) failed transiently, or a heap grow was denied
            # under memory pressure: remediate by flushing deferred
            # discards.  Either way, back off.
            spent = self.params.syscall_cycles
            if pending is FaultKind.HEAP_OOM:
                spent += self.pool.flush_discards()
            self._account(injection, "retried")
            self.counters.retried += 1
            wait = backoff_cycles(2 * self.rng.random() - 1)
            self.counters.backoff_cycles += wait
            return handle, slot, spent + wait
        if pending is FaultKind.GUEST_HANG:
            # The guest never yields: the watchdog fires at the budget
            # and the supervisor kills the whole sandbox.
            result = self.manager.invoke(
                handle, watchdog_budget(request.service_cycles),
                TransitionKind.ZERO_COST)
            spent = result.cycles + self.params.signal_delivery_cycles
            classification = "killed"
            self.counters.killed += 1
            self.counters.watchdog_kills += 1
        else:
            cause = self.rng.choice((
                FaultCause.DATA_OUT_OF_BOUNDS,
                FaultCause.DATA_PERMISSION,
                FaultCause.HMOV_OUT_OF_BOUNDS))
            spent = self.manager.invoke_faulting(
                handle, request.service_cycles, cause,
                fault_addr=slot.heap_base + slot.heap_bytes).cycles
            self._drain_fault()     # the SIGSEGV that carried it
            classification = "quarantined"
            self.counters.quarantined += 1
        handle, slot, cost = self._kill_and_replace(
            request.tenant, handle, slot)
        self._account(injection, classification)
        self._breaker_fault(breaker)
        return handle, slot, spent + cost

    def _finish(self, request: Request, status: str, attempts: int,
                spent: int, detail: str = "") -> RequestOutcome:
        self.clock += spent
        self.counters.total_cycles += spent
        if self.telemetry.enabled:
            self.telemetry.count(f"supervisor.request[{status}]")
            self.telemetry.observe("supervisor.request_cycles", spent)
        return RequestOutcome(request, status, attempts, spent, detail)

    # ------------------------------------------------------------------
    # recovery machinery
    # ------------------------------------------------------------------
    def _kill_and_replace(self, tenant: str, handle: SandboxHandle,
                          slot: PoolSlot):
        """Reap a misbehaving sandbox and quarantine its slot.

        SIGSEGV is masked for the duration: a fault delivered while we
        tear state down queues on the signal table and is drained — in
        arrival order — once the runtime is consistent again.
        """
        self.signals.block(Signal.SIGSEGV)
        try:
            cost = self.manager.destroy_sandbox(handle)
            self.counters.sandboxes_reaped += 1
            self.pool.quarantine(slot)
            fresh = self._make_sandbox(tenant)
            self._tenants[tenant] = fresh
        finally:
            self.signals.unblock(Signal.SIGSEGV)
        replacement = self._acquire_slot()
        return fresh, replacement, cost

    def _breaker_fault(self, breaker: TenantBreaker) -> None:
        if record_breaker_fault(breaker, self.clock,
                                self.config.breaker_threshold,
                                self.config.breaker_cooldown_cycles):
            self.counters.breaker_trips += 1
            if self.telemetry.enabled:
                self.telemetry.count("supervisor.breaker_trip")

    def _acquire_slot(self) -> Optional[PoolSlot]:
        slot = self.pool.acquire()
        if slot is None:
            self.clock += self.pool.flush_discards()
            slot = self.pool.acquire()
        if slot is None and self.pool.quarantined:
            cost = self.pool.scrub_all()
            self.counters.scrub_cycles += cost
            self.clock += cost
            slot = self.pool.acquire()
        return slot

    def _tenant_sandbox(self, tenant: str) -> SandboxHandle:
        handle = self._tenants.get(tenant)
        if handle is None:
            handle = self._make_sandbox(tenant)
            self._tenants[tenant] = handle
        return handle

    def _make_sandbox(self, tenant: str) -> SandboxHandle:
        return self.manager.create_sandbox(
            heap_bytes=1 << 20, hybrid=True,
            serialized=False)

    # ------------------------------------------------------------------
    def shutdown(self) -> int:
        """Quiesce: scrub quarantine, flush discards, reap every
        sandbox.  Returns the cycle cost; afterwards the pool must be
        fully available and the manager must hold zero live sandboxes
        (the chaos soak's leak gate)."""
        cost = self.pool.scrub_all()
        self.counters.scrub_cycles += cost
        cost += self.pool.flush_discards()
        reaped = len(self._tenants)
        # a SandboxError (double destroy) here is a supervisor bug: let
        # it surface
        cost += self.manager.reap_all()
        self.counters.sandboxes_reaped += reaped
        self._tenants.clear()
        self.clock += cost
        self.counters.total_cycles += cost
        return cost

    # ------------------------------------------------------------------
    def breaker(self, tenant: str) -> TenantBreaker:
        return self._breakers.setdefault(tenant, TenantBreaker())

    def stats(self) -> RobustnessStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        snapshot = RobustnessStats(**{
            f.name: getattr(self.counters, f.name)
            for f in self.counters.__dataclass_fields__.values()})
        snapshot.component = "supervisor"
        return snapshot
