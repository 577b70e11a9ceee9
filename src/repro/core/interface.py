"""High-level HFI facade — the public API a sandboxing runtime uses.

Wraps :class:`HfiState` with cycle accounting and with the descriptor
convention the paper's runtimes follow: a sandbox is described by a
flags word, an exit handler, and a set of (region number, descriptor)
pairs which the runtime installs with ``hfi_set_region`` before entry
(§3.3.1).  Region descriptors live in memory, so each ``hfi_set_region``
additionally pays descriptor-load cycles — the per-transition metadata
cost visible in Fig. 5.

The facade reports nothing to a telemetry sink: its device counters
live on :class:`HfiState` (``state.stats()``), and the caller that
owns the clock — :class:`~repro.runtime.sandbox.SandboxManager` —
registers them and brackets each enter/exit pair with its own span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..params import DEFAULT_PARAMS, MachineParams
from .faults import ExitInfo, FaultCause
from .regions import Region
from .registers import SandboxFlags
from .state import ExitOutcome, HfiState

#: 64-bit words a region descriptor occupies in memory (base/mask-or-
#: bound/permissions+type) — loaded by hfi_set_region.
_DESCRIPTOR_WORDS = 3


@dataclass
class SandboxDescriptor:
    """Everything needed to start a sandbox (paper appendix A.1)."""

    flags: SandboxFlags = field(default_factory=SandboxFlags)
    exit_handler: int = 0
    regions: List[Tuple[int, Region]] = field(default_factory=list)

    @classmethod
    def native(cls, exit_handler: int, regions, *,
               serialized: bool = True,
               switch_on_exit: bool = False) -> "SandboxDescriptor":
        """A native sandbox: untrusted code, syscalls interposed."""
        return cls(SandboxFlags(is_hybrid=False, is_serialized=serialized,
                                switch_on_exit=switch_on_exit),
                   exit_handler, list(regions))

    @classmethod
    def hybrid(cls, regions, *, exit_handler: int = 0,
               serialized: bool = False,
               switch_on_exit: bool = False) -> "SandboxDescriptor":
        """A hybrid sandbox: trusted (compiler-verified) code, e.g. Wasm."""
        return cls(SandboxFlags(is_hybrid=True, is_serialized=serialized,
                                switch_on_exit=switch_on_exit),
                   exit_handler, list(regions))


class Hfi:
    """One core's HFI device, with a cycle ledger.

    This is the façade used by the runtime layer and the analytic
    models; the cycle-level CPU simulator drives :class:`HfiState`
    directly instead, so both paths share one semantics.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS):
        self.params = params
        self.state = HfiState(params)
        self.cycles = 0

    # ------------------------------------------------------------------
    def install_regions(self, regions) -> int:
        """Run ``hfi_set_region`` for each (number, region) pair.

        Charges the instruction cost plus the descriptor loads from
        memory (assumed L1-resident: the runtime just wrote them).
        """
        cost = 0
        load = self.params.base_cycles + self.params.l1d_hit_cycles
        for number, region in regions:
            cost += self.state.set_region(number, region)
            cost += _DESCRIPTOR_WORDS * load
        self.cycles += cost
        return cost

    def enter(self, descriptor: SandboxDescriptor) -> int:
        """Install regions then ``hfi_enter``; returns total cycle cost."""
        cost = self.install_regions(descriptor.regions)
        cost += self._charge(self.state.enter(descriptor.flags,
                                              descriptor.exit_handler))
        return cost

    def exit(self) -> ExitOutcome:
        outcome = self.state.exit()
        self.cycles += outcome.cycles
        return outcome

    def fault(self, cause: FaultCause, addr: int = 0) -> ExitOutcome:
        """An HFI violation while sandboxed (§3.3.2): disable the
        sandbox, record the cause MSR, leave via the OS signal path."""
        outcome = self.state.fault(cause, addr)
        self.cycles += outcome.cycles
        return outcome

    def reenter(self) -> int:
        return self._charge(self.state.reenter())

    def syscall(self, nr: int = 0) -> Optional[ExitOutcome]:
        outcome = self.state.syscall_attempt(nr)
        if outcome is not None:
            self.cycles += outcome.cycles
        return outcome

    def set_region(self, number: int, region: Optional[Region]) -> int:
        load = _DESCRIPTOR_WORDS * (self.params.base_cycles
                                    + self.params.l1d_hit_cycles)
        return self._charge(self.state.set_region(number, region) + load)

    def clear_region(self, number: int) -> int:
        return self._charge(self.state.clear_region(number))

    def clear_all_regions(self) -> int:
        return self._charge(self.state.clear_all_regions())

    def resize_region(self, number: int, new_bound: int) -> int:
        """Grow/shrink an explicit region — HFI heap growth (§6.1)."""
        region, _ = self.state.get_region(number)
        if region is None:
            raise ValueError(f"region {number} not configured")
        return self.set_region(number, region.resize(new_bound))

    def exit_info(self) -> ExitInfo:
        return self.state.exit_info()

    @property
    def cause_msr(self) -> FaultCause:
        return self.state.cause_msr

    def _charge(self, cost: int) -> int:
        self.cycles += cost
        return cost
