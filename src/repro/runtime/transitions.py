"""Context-switch (transition) cost models — paper §3.3.1.

HFI leaves save/restore entirely to software, so runtimes choose:

* **Springboards/trampolines** (untrusted native code): clear and save
  registers, switch stacks — NaCl-style assembly stubs.
* **Zero-cost transitions** (Wasm, trusted compiler): the compiler
  guarantees the sandbox can't misuse stack or scratch registers, so
  entry/exit is essentially a function call.

Costs are expressed in cycles from :class:`MachineParams` so the same
numbers feed the analytic models and the benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.encoding import REGION_DESCRIPTOR_BYTES, descriptor_cycles
from ..params import DEFAULT_PARAMS, MachineParams

#: Registers a springboard saves/clears (SysV caller+callee saved).
_SPRINGBOARD_REG_OPS = 30   # save 15 + restore 15
_STACK_SWITCH_OPS = 4

#: ERIM call-gate work beyond the bare wrpkru: the inspect-PKRU
#: compare (the gate must verify the value it just wrote, or a jump
#: into the middle of the gate forges a domain) plus the scratch
#: scrub around it.
_MPK_GATE_VALIDATE_CYCLES = 20


class TransitionKind(enum.Enum):
    #: Full register save/clear + stack switch (native sandboxes).
    SPRINGBOARD = "springboard"
    #: Compiler-proven safe: function-call-like (Wasm sandboxes).
    ZERO_COST = "zero-cost"


@dataclass
class TransitionModel:
    """Cycle costs of crossing a sandbox boundary, one way."""

    params: MachineParams = None

    def __post_init__(self):
        if self.params is None:
            self.params = DEFAULT_PARAMS

    def software_cost(self, kind: TransitionKind) -> int:
        """The save/restore work, excluding HFI instructions."""
        if kind is TransitionKind.SPRINGBOARD:
            return ((_SPRINGBOARD_REG_OPS + _STACK_SWITCH_OPS)
                    * self.params.base_cycles
                    + _SPRINGBOARD_REG_OPS // 2
                    * self.params.l1d_hit_cycles)
        return 2 * self.params.base_cycles

    def hfi_enter_cost(self, *, serialized: bool,
                       regions_installed: int = 3) -> int:
        """hfi_set_region x N (with descriptor loads) + hfi_enter."""
        per_region = (self.params.hfi_set_region_cycles
                      + descriptor_cycles(self.params,
                                          REGION_DESCRIPTOR_BYTES))
        cost = regions_installed * per_region + self.params.hfi_enter_cycles
        if serialized:
            cost += self.params.serialize_drain_cycles
        return cost

    def hfi_exit_cost(self, *, serialized: bool) -> int:
        cost = self.params.hfi_exit_cycles
        if serialized:
            cost += self.params.serialize_drain_cycles
        return cost

    def round_trip(self, kind: TransitionKind, *, serialized: bool,
                   regions_installed: int = 3) -> int:
        """Full enter + exit cost for one sandbox invocation."""
        return (2 * self.software_cost(kind)
                + self.hfi_enter_cost(serialized=serialized,
                                      regions_installed=regions_installed)
                + self.hfi_exit_cost(serialized=serialized))

    def mpk_switch_cost(self) -> int:
        """One ERIM-style switch gate, one way: wrpkru + the gate's
        PKRU-value validation + an lfence-class speculation barrier.

        This is the *single source of truth* for the MPK switch
        formula — :class:`repro.mpk.MpkSandboxSwitcher` and
        :class:`repro.workloads.NginxModel` both read it, so the
        baseline cannot drift between the domain model and the
        workload models (it previously did: ``//4`` vs ``//2 + 20``).
        """
        return (self.params.wrpkru_cycles
                + self.params.serialize_drain_cycles // 2
                + _MPK_GATE_VALIDATE_CYCLES)

    def mpk_round_trip(self) -> int:
        """ERIM-style wrpkru in + out (with speculation barriers)."""
        switch = self.mpk_switch_cost()
        return 2 * (switch + self.software_cost(
            TransitionKind.SPRINGBOARD) // 2)
