"""A trusted runtime managing many HFI sandboxes (paper §3.1, §3.3).

:class:`SandboxManager` is the high-level analytic API: it owns one
core's :class:`~repro.core.Hfi` device plus an address space, creates
sandboxes (native or hybrid), and accounts the cycle cost of every
lifecycle operation.  Because HFI keeps no per-sandbox on-chip state,
the manager can hold an arbitrary number of sandboxes and multiplex
them over the single register bank — the scalability property (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import (
    ExplicitDataRegion,
    FaultCause,
    Hfi,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    SandboxDescriptor,
)
from ..os.address_space import AddressSpace, Prot
from ..os.signals import SigInfo, Signal, SignalTable
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import SandboxManagerStats, SandboxStats
from .supervisor import FAULT_PROGRESS
from .transitions import TransitionKind, TransitionModel


class SandboxError(RuntimeError):
    """A sandbox lifecycle operation was invalid (unknown handle,
    double destroy, invoke of a destroyed sandbox)."""


@dataclass
class SandboxHandle:
    """The runtime's bookkeeping for one sandbox (all off-chip state)."""

    sandbox_id: int
    descriptor: SandboxDescriptor
    code_base: int
    heap_base: int
    heap_bytes: int
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
    """Creates and invokes in-process sandboxes over one HFI core."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 space: Optional[AddressSpace] = None,
                 telemetry: Optional[Telemetry] = None,
                 signals: Optional[SignalTable] = None):
        self.params = params
        self.space = space if space is not None else AddressSpace(params)
        #: Where faulting invocations are delivered as SIGSEGV (§3.3.2);
        #: the supervisor registers its handler here.
        self.signals = signals
        self.telemetry = coalesce(telemetry)
        self.hfi = Hfi(params, telemetry=self.telemetry)
        self.transitions = TransitionModel(params, telemetry=self.telemetry)
        self._handles: Dict[int, SandboxHandle] = {}
        self._next_id = 1
        self.total_cycles = 0
        self.sandboxes_created = 0
        self.invocations = 0
        if self.telemetry.enabled:
            self.telemetry.register_component("sandbox_manager", self.stats)

    def _attribute(self, handle: Optional[SandboxHandle],
                   cycles: int) -> None:
        """Charge cycles to both the manager total and the telemetry
        attribution ledger, so the two always sum identically."""
        self.total_cycles += cycles
        if handle is not None:
            handle.cycles += cycles
        if self.telemetry.enabled:
            self.telemetry.attribute(
                handle.sandbox_id if handle is not None else None, cycles)

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
        raw = self.space.mmap(heap_bytes + align, Prot.NONE, name="sbx-heap")
        heap_base = (raw + align - 1) & ~(align - 1)
        cost = self.space.mprotect(heap_base, heap_bytes, Prot.rw())
        cost += 2 * self.params.syscall_cycles
        code_base = self.space.mmap(code_bytes, Prot.rx(), name="sbx-code")

        regions = [
            (0, ImplicitCodeRegion.covering(code_base, code_bytes)),
            (2, ImplicitDataRegion.covering(heap_base, heap_bytes)),
            (6, ExplicitDataRegion(heap_base, align,
                                   permission_read=True,
                                   permission_write=True)),
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
            heap_bytes=heap_bytes, is_hybrid=hybrid)
        self._next_id += 1
        self._handles[handle.sandbox_id] = handle
        self.sandboxes_created += 1
        self._attribute(handle, cost)
        if self.telemetry.enabled:
            self.telemetry.count("sandbox.create")
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
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("sandbox.invoke")
            telemetry.begin_span("sandbox.invoke", self.total_cycles,
                                 sandbox_id=handle.sandbox_id,
                                 transition=transition.value)
        enter = self.hfi.enter(handle.descriptor)
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
        is how the supervisor observes guest faults.
        """
        if handle.sandbox_id not in self._handles:
            raise SandboxError(
                f"invoke of unknown/destroyed sandbox {handle.sandbox_id}")
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("sandbox.fault")
        enter = self.hfi.enter(handle.descriptor)
        outcome = self.hfi.fault(cause, fault_addr)
        done = int(service_cycles * max(0.0, min(1.0, progress)))
        total = (enter + done + outcome.cycles
                 + self.params.signal_delivery_cycles)
        handle.invocations += 1
        self.invocations += 1
        self._attribute(handle, total)
        if self.signals is not None:
            self.signals.deliver(SigInfo(
                Signal.SIGSEGV, fault_addr=fault_addr,
                hfi_cause=int(cause),
                description=f"sandbox {handle.sandbox_id}: {cause.name}"))
        if telemetry.enabled:
            telemetry.event("sandbox.fault", self.total_cycles,
                            sandbox_id=handle.sandbox_id,
                            cause=cause.name)
        return InvokeResult(
            reason="fault", cycles=total, sandbox_id=handle.sandbox_id,
            invocation=handle.invocations, enter_cycles=enter,
            exit_cycles=outcome.cycles, service_cycles=done,
            fault=cause, cause=cause)

    def grow_heap(self, handle: SandboxHandle, new_bytes: int) -> int:
        """Resize the sandbox's explicit region — a register update."""
        for i, (number, region) in enumerate(handle.descriptor.regions):
            if number == 6:
                handle.descriptor.regions[i] = (
                    number, region.resize(new_bytes))
        cost = (self.params.hfi_set_region_cycles
                + 3 * (self.params.base_cycles
                       + self.params.l1d_hit_cycles))
        handle.heap_bytes = new_bytes
        self._attribute(handle, cost)
        if self.telemetry.enabled:
            self.telemetry.count("sandbox.grow_heap")
        return cost

    def destroy_sandbox(self, handle: SandboxHandle,
                        *, discard_memory: bool = True) -> int:
        """Tear down: HFI itself needs nothing; memory discard is the
        developer's choice (§3 footnote: HFI does isolation, not
        resource management).

        Destroying an unknown or already-destroyed handle raises a
        typed :class:`SandboxError` — a double reap is a supervisor
        accounting bug and must not pass silently (or surface as a
        bare ``KeyError``).
        """
        if self._handles.get(handle.sandbox_id) is not handle:
            raise SandboxError(
                f"destroy of unknown or already-destroyed sandbox "
                f"{handle.sandbox_id}")
        cost = 0
        if discard_memory:
            cost = (self.params.syscall_cycles
                    + self.space.madvise_dontneed(handle.heap_base,
                                                  handle.heap_bytes))
        del self._handles[handle.sandbox_id]
        self._attribute(handle, cost)
        if self.telemetry.enabled:
            self.telemetry.count("sandbox.destroy")
            self.telemetry.event("sandbox.destroy", self.total_cycles,
                                 sandbox_id=handle.sandbox_id)
        return cost

    def reap_all(self, *, discard_memory: bool = True) -> int:
        """Destroy every live sandbox; returns the total cycle cost.

        The supervisor's shutdown/abandon path: after a chaos run or a
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
            total_cycles=self.total_cycles,
            sandboxes=[
                SandboxStats(component=f"sandbox[{h.sandbox_id}]",
                             sandbox_id=h.sandbox_id,
                             invocations=h.invocations, cycles=h.cycles,
                             heap_bytes=h.heap_bytes,
                             is_hybrid=h.is_hybrid)
                for h in self._handles.values()
            ])
