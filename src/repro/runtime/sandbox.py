"""A trusted runtime managing many HFI sandboxes (paper §3.1, §3.3).

:class:`SandboxManager` is the high-level analytic API: it owns one
core's :class:`~repro.core.HfiState` plus an address space, creates
sandboxes (native or hybrid), enters each by installing its
:class:`~repro.core.SandboxDescriptor` on that state, and accounts the
cycle cost of every lifecycle operation.  Because HFI keeps no
per-sandbox on-chip state, the manager can hold an arbitrary number of
sandboxes and multiplex them over the single register bank — the
scalability property (§3).

:class:`SandboxExecutor` puts a manager under the serving loop
(:class:`~repro.runtime.serving.ServingSimulator`), so served
requests run on real sandboxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core import (
    ExplicitDataRegion,
    FaultCause,
    HfiState,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    SandboxDescriptor,
)
from ..os.address_space import AddressSpace, Prot
from ..os.signals import SigInfo, Signal, SignalTable
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import SandboxManagerStats, SandboxStats
from ..wasm.strategies import HfiStrategy
from .pool import PoolSlot
from .supervisor import FAULT_PROGRESS, Request
from .transitions import TransitionKind, TransitionModel


class SandboxError(RuntimeError):
    """A sandbox lifecycle operation was invalid (unknown handle,
    double destroy, invoke or heap growth of a destroyed sandbox)."""


@dataclass
class SandboxHandle:
    """The runtime's bookkeeping for one sandbox (all off-chip state)."""

    sandbox_id: int
    descriptor: SandboxDescriptor
    code_base: int
    heap_base: int
    heap_bytes: int
    #: End of the heap's address-space reservation: growth stops here.
    reservation_end: int
    is_hybrid: bool
    invocations: int = 0
    cycles: int = 0


@dataclass
class InvokeResult:
    """Typed result of one sandbox invocation.

    Field names shared with :class:`repro.cpu.machine.RunResult`
    (``reason``, ``cycles``, ``fault``) so analysis code can consume
    either interchangeably; the extra fields break the total down the
    way Fig. 5 does.
    """

    reason: str
    cycles: int
    sandbox_id: int
    invocation: int
    enter_cycles: int = 0
    exit_cycles: int = 0
    software_cycles: int = 0
    service_cycles: int = 0
    fault: Optional[FaultCause] = None
    cause: FaultCause = FaultCause.NONE
    #: Pool bookkeeping, set only by :meth:`SandboxManager.invoke_pooled`.
    slot_index: Optional[int] = None
    recycle_cycles: int = 0

    def as_dict(self) -> dict:
        return {
            "reason": self.reason, "cycles": self.cycles,
            "sandbox_id": self.sandbox_id, "invocation": self.invocation,
            "enter_cycles": self.enter_cycles,
            "exit_cycles": self.exit_cycles,
            "software_cycles": self.software_cycles,
            "service_cycles": self.service_cycles,
            "cause": self.cause.name,
            "fault": self.fault.name if self.fault else None,
            "slot_index": self.slot_index,
            "recycle_cycles": self.recycle_cycles,
        }


class SandboxManager:
    """Creates and invokes in-process sandboxes over one HFI core.

    The manager is the one per-sandbox cycle ledger: every cycle it
    adds to ``total_cycles`` is booked to exactly one sandbox, and
    :meth:`stats` lists destroyed sandboxes too, so the per-sandbox
    cycles always sum to the total.  With a telemetry sink it
    registers itself and its HFI device, and spans each invocation on
    the ledger's clock.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 space: Optional[AddressSpace] = None,
                 telemetry: Optional[Telemetry] = None,
                 signals: Optional[SignalTable] = None):
        self.params = params
        self.space = space if space is not None else AddressSpace(params)
        #: Where faulting invocations are delivered as SIGSEGV (§3.3.2);
        #: the runtime registers its handler here.
        self.signals = signals
        self.telemetry = coalesce(telemetry)
        self.hfi = HfiState(params)
        self.transitions = TransitionModel(params)
        #: Live sandboxes by id.
        self._handles: Dict[int, SandboxHandle] = {}
        #: Every sandbox ever created, in creation order.
        self._ledger: List[SandboxHandle] = []
        self._next_id = 1
        self.total_cycles = 0
        self.sandboxes_created = 0
        self.invocations = 0
        self.faults = 0
        if self.telemetry.enabled:
            self.telemetry.register_component("sandbox_manager", self.stats)
            self.telemetry.register_component("hfi", self.hfi.stats)

    def _attribute(self, handle: SandboxHandle, cycles: int) -> None:
        """Charge cycles to the manager total and to one sandbox."""
        self.total_cycles += cycles
        handle.cycles += cycles

    def _check_live(self, handle: SandboxHandle, operation: str) -> None:
        if self._handles.get(handle.sandbox_id) is not handle:
            raise SandboxError(
                f"{operation} of unknown or destroyed sandbox "
                f"{handle.sandbox_id}")

    # ------------------------------------------------------------------
    def create_sandbox(self, *, heap_bytes: int, code_bytes: int = 1 << 20,
                       hybrid: bool = False, serialized: bool = True,
                       switch_on_exit: bool = False,
                       exit_handler: int = 0x7000_0000) -> SandboxHandle:
        """Allocate memory and build the descriptor for a new sandbox.

        Creation is near-zero cost on the HFI side (§3: "near-zero
        overhead on sandbox setup") — the accounted cycles are almost
        entirely the memory mapping the developer asked for.
        """
        align = 1 << max(16, (heap_bytes - 1).bit_length())
        reserved = heap_bytes + align
        raw = self.space.mmap(reserved, Prot.NONE, name="sbx-heap")
        heap_base = (raw + align - 1) & ~(align - 1)
        cost = self.space.mprotect(heap_base, heap_bytes, Prot.rw())
        cost += 2 * self.params.syscall_cycles
        code_base = self.space.mmap(code_bytes, Prot.rx(), name="sbx-code")

        # Region 6 covers exactly the heap: a large region when the
        # size is 64 KiB-granular, else a small one (§3.2).  The heap
        # starts less than ``align`` past ``raw``, so the region ends
        # inside the reservation.
        heap = ExplicitDataRegion(heap_base, heap_bytes,
                                  permission_read=True,
                                  permission_write=True,
                                  is_large_region=heap_bytes % (1 << 16) == 0)
        regions = [
            (0, ImplicitCodeRegion.covering(code_base, code_bytes)),
            (2, ImplicitDataRegion.covering(heap_base, heap_bytes)),
            (6, heap),
        ]
        if hybrid:
            descriptor = SandboxDescriptor.hybrid(
                regions, serialized=serialized,
                switch_on_exit=switch_on_exit)
        else:
            descriptor = SandboxDescriptor.native(
                exit_handler, regions, serialized=serialized,
                switch_on_exit=switch_on_exit)
        handle = SandboxHandle(
            sandbox_id=self._next_id, descriptor=descriptor,
            code_base=code_base, heap_base=heap_base,
            heap_bytes=heap_bytes, reservation_end=raw + reserved,
            is_hybrid=hybrid)
        self._next_id += 1
        self._handles[handle.sandbox_id] = handle
        self._ledger.append(handle)
        self.sandboxes_created += 1
        self._attribute(handle, cost)
        if self.telemetry.enabled:
            self.telemetry.event("sandbox.create", self.total_cycles,
                                 sandbox_id=handle.sandbox_id,
                                 heap_bytes=heap_bytes, hybrid=hybrid)
        return handle

    # ------------------------------------------------------------------
    def invoke(self, handle: SandboxHandle, service_cycles: int,
               transition: TransitionKind = TransitionKind.ZERO_COST,
               ) -> InvokeResult:
        """Run one invocation: enter, do ``service_cycles`` of sandboxed
        work, exit.  Returns an :class:`InvokeResult`; its ``cycles``
        is the invocation's total."""
        self._check_live(handle, "invoke")
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.begin_span("sandbox.invoke", self.total_cycles,
                                 sandbox_id=handle.sandbox_id,
                                 transition=transition.value)
        enter = handle.descriptor.install(self.hfi)
        outcome = self.hfi.exit()
        software = 2 * self.transitions.software_cost(transition)
        total = enter + outcome.cycles + software + service_cycles
        handle.invocations += 1
        self.invocations += 1
        self._attribute(handle, total)
        if telemetry.enabled:
            telemetry.end_span(self.total_cycles, name="sandbox.invoke",
                               cycles=total)
        return InvokeResult(
            reason="hlt", cycles=total, sandbox_id=handle.sandbox_id,
            invocation=handle.invocations, enter_cycles=enter,
            exit_cycles=outcome.cycles, software_cycles=software,
            service_cycles=service_cycles, cause=outcome.cause)

    def invoke_pooled(self, handle: SandboxHandle, pool,
                      service_cycles: int,
                      transition: TransitionKind = TransitionKind.ZERO_COST,
                      ) -> InvokeResult:
        """One invocation scheduled through an
        :class:`~repro.runtime.pool.InstancePool`: acquire a slot,
        run, release (charging the recycle cost to the sandbox)."""
        self._check_live(handle, "invoke")
        slot = pool.acquire()
        if slot is None:
            raise RuntimeError("instance pool exhausted")
        result = self.invoke(handle, service_cycles, transition)
        recycle = pool.release(slot)
        self._attribute(handle, recycle)
        result.slot_index = slot.index
        result.recycle_cycles = recycle
        result.cycles += recycle
        return result

    def invoke_faulting(self, handle: SandboxHandle, service_cycles: int,
                        cause: FaultCause = FaultCause.DATA_OUT_OF_BOUNDS,
                        *, fault_addr: int = 0,
                        progress: float = FAULT_PROGRESS,
                        ) -> InvokeResult:
        """One invocation that faults partway through the guest's work.

        Architecturally (§3.3.2) the HFI check fails, the sandbox is
        disabled, the cause lands in the MSR, and the trap is delivered
        as SIGSEGV to the trusted runtime — here, into the manager's
        :class:`~repro.os.signals.SignalTable` if one is wired, which
        is how the runtime observes guest faults.
        """
        self._check_live(handle, "invoke")
        enter = handle.descriptor.install(self.hfi)
        outcome = self.hfi.fault(cause, fault_addr)
        done = int(service_cycles * max(0.0, min(1.0, progress)))
        total = (enter + done + outcome.cycles
                 + self.params.signal_delivery_cycles)
        handle.invocations += 1
        self.invocations += 1
        self.faults += 1
        self._attribute(handle, total)
        if self.signals is not None:
            self.signals.deliver(SigInfo(
                Signal.SIGSEGV, fault_addr=fault_addr,
                hfi_cause=int(cause),
                description=f"sandbox {handle.sandbox_id}: {cause.name}"))
        if self.telemetry.enabled:
            self.telemetry.event("sandbox.fault", self.total_cycles,
                                 sandbox_id=handle.sandbox_id,
                                 cause=cause.name)
        return InvokeResult(
            reason="fault", cycles=total, sandbox_id=handle.sandbox_id,
            invocation=handle.invocations, enter_cycles=enter,
            exit_cycles=outcome.cycles, service_cycles=done,
            fault=cause, cause=cause)

    def grow_heap(self, handle: SandboxHandle, new_bytes: int) -> int:
        """Resize the sandbox's explicit region — a register update,
        priced as Wasm's HFI heap growth is (§6.1).  The heap may grow
        only within the span :meth:`create_sandbox` reserved; past it
        lies other mappings, another sandbox's heap among them."""
        self._check_live(handle, "heap growth")
        if handle.heap_base + new_bytes > handle.reservation_end:
            raise SandboxError(
                f"heap growth of sandbox {handle.sandbox_id} to "
                f"{new_bytes:#x} bytes passes its reservation")
        for i, (number, region) in enumerate(handle.descriptor.regions):
            if number == 6:
                handle.descriptor.regions[i] = (
                    number, region.resize(new_bytes))
        cost = HfiStrategy().grow_cost(self.space, handle.heap_base,
                                       handle.heap_bytes, new_bytes,
                                       self.params)
        handle.heap_bytes = new_bytes
        self._attribute(handle, cost)
        return cost

    def destroy_sandbox(self, handle: SandboxHandle,
                        *, discard_memory: bool = True) -> int:
        """Tear down: HFI itself needs nothing; memory discard is the
        developer's choice (§3 footnote: HFI does isolation, not
        resource management).

        Destroying an unknown or already-destroyed handle raises a
        typed :class:`SandboxError` — a double reap is a runtime
        accounting bug and must not pass silently (or surface as a
        bare ``KeyError``).
        """
        self._check_live(handle, "destroy")
        cost = 0
        if discard_memory:
            cost = (self.params.syscall_cycles
                    + self.space.madvise_dontneed(handle.heap_base,
                                                  handle.heap_bytes))
        del self._handles[handle.sandbox_id]
        self._attribute(handle, cost)
        if self.telemetry.enabled:
            self.telemetry.event("sandbox.destroy", self.total_cycles,
                                 sandbox_id=handle.sandbox_id)
        return cost

    def reap_all(self, *, discard_memory: bool = True) -> int:
        """Destroy every live sandbox; returns the total cycle cost.

        The runtime's shutdown/abandon path: after a chaos run or a
        serving-loop teardown, no zombie sandboxes may survive."""
        cost = 0
        for handle in list(self._handles.values()):
            cost += self.destroy_sandbox(handle,
                                         discard_memory=discard_memory)
        return cost

    @property
    def live_sandboxes(self) -> int:
        return len(self._handles)

    # ------------------------------------------------------------------
    def stats(self) -> SandboxManagerStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return SandboxManagerStats(
            component="sandbox_manager",
            sandboxes_created=self.sandboxes_created,
            live_sandboxes=self.live_sandboxes,
            invocations=self.invocations,
            faults=self.faults,
            total_cycles=self.total_cycles,
            sandboxes=[
                SandboxStats(component=f"sandbox[{h.sandbox_id}]",
                             sandbox_id=h.sandbox_id,
                             invocations=h.invocations, cycles=h.cycles,
                             heap_bytes=h.heap_bytes,
                             is_hybrid=h.is_hybrid)
                for h in self._ledger
            ])


#: Staged in the top word of a pool slot's heap before each invocation
#: (:attr:`~repro.runtime.pool.PoolSlot.canary_address`).
CANARY = 0xC0DE_CAFE_F00D_C0DE
#: The causes a guest's HFI fault reports, picked by request index.
FAULT_CAUSES = (FaultCause.DATA_OUT_OF_BOUNDS, FaultCause.DATA_PERMISSION,
                FaultCause.HMOV_OUT_OF_BOUNDS)


class SandboxExecutor:
    """Serving invocations on real HFI sandboxes.

    The executor :class:`~repro.runtime.serving.ServingSimulator` runs
    when its invocations must touch real state, as the chaos soak's
    do.  Each tenant gets a hybrid sandbox on one
    :class:`SandboxManager`, entered and exited on its HFI device.  The
    pool lives in the manager's address space, and a canary staged in
    the top word of each slot's heap catches a guest that scribbled
    over it.  A guest's HFI fault reaches the runtime as SIGSEGV, with
    its cause in the payload (§3.3.2).  Nothing here is random: a
    fault's cause follows from the request's index.

    The simulator's other executor is the cost model,
    :class:`~repro.runtime.serving.SchemeCosts`.  Which fault an
    invocation meets, and what the loop does about it, is the loop's
    decision, not the executor's.
    """

    #: Released slots wait for one batched discard (§5.1).
    batch_teardown = True
    #: No per-connection teardown beyond the slot's discard.
    teardown_cycles = 0

    def __init__(self, strategy_name: str = "hfi",
                 params: MachineParams = DEFAULT_PARAMS):
        self.name = self.strategy_name = strategy_name
        self.manager = SandboxManager(params, signals=SignalTable())
        self.space = self.manager.space
        #: Every SIGSEGV the runtime received, in delivery order.
        self.faults: List[SigInfo] = []
        self.manager.signals.register(Signal.SIGSEGV, self.faults.append)
        self._sandboxes: Dict[str, SandboxHandle] = {}

    def _sandbox(self, tenant: str) -> SandboxHandle:
        handle = self._sandboxes.get(tenant)
        if handle is None:
            handle = self._sandboxes[tenant] = self.manager.create_sandbox(
                heap_bytes=1 << 20, hybrid=True, serialized=False)
        return handle

    def run(self, request: Request, slot: PoolSlot,
            service_cycles: int) -> int:
        """Stage the slot's canary, then enter the tenant's sandbox, do
        ``service_cycles`` of guest work and exit."""
        self.space.write(slot.canary_address, CANARY, check=False)
        return self.manager.invoke(self._sandbox(request.tenant),
                                   service_cycles).cycles

    def fault(self, request: Request, slot: PoolSlot) -> int:
        """Run the guest until it touches the byte past the slot's heap
        and HFI faults.  Returns the cycles up to the trap: the loop
        charges the SIGSEGV's delivery, as it does a watchdog kill's."""
        cause = FAULT_CAUSES[request.index % len(FAULT_CAUSES)]
        result = self.manager.invoke_faulting(
            self._sandbox(request.tenant), request.service_cycles, cause,
            fault_addr=slot.heap_base + slot.heap_bytes)
        return result.enter_cycles + result.service_cycles + result.exit_cycles

    def reap(self, request: Request) -> int:
        """Destroy the tenant's sandbox; its next request gets a fresh
        one.  SIGSEGV is masked meanwhile, so a fault raised during the
        teardown queues and is delivered, in order, once it is done."""
        handle = self._sandboxes.pop(request.tenant)
        signals = self.manager.signals
        signals.block(Signal.SIGSEGV)
        try:
            return self.manager.destroy_sandbox(handle)
        finally:
            signals.unblock(Signal.SIGSEGV)

    def intact(self, space: AddressSpace, slot: PoolSlot) -> bool:
        """Whether the canary :meth:`run` staged survived the guest."""
        return space.read(slot.canary_address, check=False) == CANARY
