"""The per-core HFI state machine.

This is the architectural heart of the reproduction: enter/exit with
native/hybrid sandbox types, region-register updates with locking and
serialization rules (§4.3), system-call interposition (§4.4), and the
switch-on-exit Spectre extension (§3.4, §4.5).

All methods return cycle *costs* alongside their semantic effect so
both the cycle-level simulator and the analytic models charge the same
prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..telemetry.stats import HfiDeviceStats
from ..params import DEFAULT_PARAMS, MachineParams
from .checks import (
    hmov_effective_address,
    implicit_code_check,
    implicit_data_check,
)
from .faults import ExitInfo, FaultCause, HfiFault
from .regions import Region
from .registers import HfiRegisterFile, SandboxFlags


@dataclass
class ExitOutcome:
    """Result of leaving a sandbox (hfi_exit / syscall / fault)."""

    cause: FaultCause
    #: True if switch-on-exit restored the trusted-runtime bank instead
    #: of disabling HFI.
    switched_back: bool = False
    #: Branch target if control is redirected (exit handler), else None.
    redirect_to: Optional[int] = None
    #: Cycle cost of the transition, including serialization if any.
    cycles: int = 0


class HfiState:
    """HFI state for one core: register file + shadow bank + MSR."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS):
        self.params = params
        self.regs = HfiRegisterFile()
        #: Shadow bank used by switch-on-exit (§4.5) — doubles the
        #: internal register count when the extension is in use.
        self._shadow: Optional[HfiRegisterFile] = None
        #: Last-exited configuration, for hfi_reenter.
        self._reenter_bank: Optional[HfiRegisterFile] = None
        #: Count of pipeline serializations performed (observability).
        self.serializations = 0
        #: Lifecycle counters sampled by :meth:`stats`.  These live on
        #: the state object itself (not a telemetry sink) deliberately:
        #: the CPU snapshots/restores HfiState around speculation
        #: windows, so counters here are squashed with the wrong path,
        #: while a shared sink would leak wrong-path events.  A sink
        #: reads them through :meth:`stats`; the only sink calls about
        #: HFI are the spans the CPU's commit-path handlers emit
        #: (cpu.exec_hfi, cpu.machine).
        self.enters = 0
        self.exits = 0
        self.region_installs = 0
        #: When a CPU speculation window is open, this points at its
        #: undo journal; mutating methods save this state on first
        #: write so the wrong path rolls back without any deepcopy.
        self._journal = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.regs.enabled

    @property
    def flags(self) -> SandboxFlags:
        return self.regs.flags

    @property
    def cause_msr(self) -> FaultCause:
        return self.regs.cause_msr

    def read_cause_msr(self) -> FaultCause:
        """The exit handler / signal handler reads this to learn why it
        was invoked (§3.3.2)."""
        return self.regs.cause_msr

    def stats(self) -> HfiDeviceStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return HfiDeviceStats(
            component="hfi", enabled=self.regs.enabled,
            is_hybrid=self.regs.flags.is_hybrid,
            serializations=self.serializations, enters=self.enters,
            exits=self.exits, region_installs=self.region_installs)

    def snapshot(self) -> HfiRegisterFile:
        """For xsave with the save-hfi-regs flag (§3.3.3)."""
        return self.regs.snapshot()

    def restore(self, saved: HfiRegisterFile) -> None:
        """For xrstor.  Traps if executed inside a native sandbox."""
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        if self.regs.locked:
            raise HfiFault(FaultCause.XRSTOR_IN_SANDBOX)
        self.regs.restore(saved)

    # ------------------------------------------------------------------
    # region management (§4.3)
    # ------------------------------------------------------------------
    def set_region(self, number: int, region: Optional[Region]) -> int:
        """hfi_set_region: write a region register; returns cycle cost.

        Locked inside native sandboxes.  Serializes when executed in a
        hybrid sandbox (to keep in-flight operations correct); when HFI
        is disabled no serialization is needed because an hfi_enter
        (which may serialize) always follows before checks take effect.
        """
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        if self.regs.locked:
            raise HfiFault(FaultCause.REGION_LOCKED)
        self.regs.set(number, region)
        self.region_installs += 1
        cost = self.params.hfi_set_region_cycles
        if self.regs.enabled and not self.params.hfi_region_rename:
            # hybrid sandbox: serialize so in-flight operations see a
            # consistent region set (§4.3) — unless the metadata
            # registers are renamed like GPRs (the §4.3 extension).
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        return cost

    def get_region(self, number: int) -> Tuple[Optional[Region], int]:
        if self.regs.locked:
            raise HfiFault(FaultCause.REGION_LOCKED)
        return self.regs.get(number), self.params.hfi_clear_region_cycles

    def clear_region(self, number: int) -> int:
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        if self.regs.locked:
            raise HfiFault(FaultCause.REGION_LOCKED)
        self.regs.set(number, None)
        cost = self.params.hfi_clear_region_cycles
        if self.regs.enabled:  # hybrid sandbox: serialize (§4.3)
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        return cost

    def clear_all_regions(self) -> int:
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        if self.regs.locked:
            raise HfiFault(FaultCause.REGION_LOCKED)
        self.regs.clear_all()
        cost = self.params.hfi_clear_region_cycles
        if self.regs.enabled:
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        return cost

    # ------------------------------------------------------------------
    # enter / exit / reenter (§3.3, §4.4)
    # ------------------------------------------------------------------
    def enter(self, flags: SandboxFlags, exit_handler: int = 0) -> int:
        """hfi_enter: enable sandboxing; returns cycle cost.

        With ``switch_on_exit`` the current register bank (the trusted
        runtime's sandbox) is preserved in the shadow bank before the
        new configuration takes effect (§4.5), and entry need not
        serialize; otherwise ``is_serialized`` adds a full pipeline
        drain (§3.4).
        """
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        cost = self.params.hfi_enter_cycles
        self.enters += 1
        if flags.switch_on_exit:
            self._shadow = self.regs.snapshot()
        if flags.is_serialized:
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        self.regs.flags = flags
        self.regs.exit_handler = exit_handler
        self.regs.enabled = True
        self.regs.cause_msr = FaultCause.NONE
        return cost

    def exit(self) -> ExitOutcome:
        """hfi_exit: leave the sandbox (or switch back, §4.5)."""
        if not self.regs.enabled:
            # hfi_exit outside a sandbox is a no-op fall-through.
            return ExitOutcome(FaultCause.NONE, cycles=1)
        return self._leave(FaultCause.EXIT_INSTRUCTION)

    def syscall_attempt(self, nr: int = 0,
                        legacy: bool = False) -> Optional[ExitOutcome]:
        """Called when sandboxed code executes a syscall instruction.

        Hybrid sandboxes may call the OS directly (trusted code, §3.3);
        native sandboxes have the syscall converted into a jump to the
        exit handler by a one-cycle microcode check (§4.4).  Returns
        None when the syscall should proceed to the kernel.
        """
        if not self.regs.enabled or self.regs.flags.is_hybrid:
            return None
        cause = FaultCause.INT80 if legacy else FaultCause.SYSCALL
        outcome = self._leave(cause)
        outcome.cycles += self.params.hfi_syscall_check_cycles
        return outcome

    def fault(self, cause: FaultCause, addr: int = 0) -> ExitOutcome:
        """An HFI violation or hardware trap while sandboxed (§3.3.2).

        Disables the sandbox, records the cause, and (architecturally)
        raises the trap the OS turns into SIGSEGV.  Returns the exit
        outcome so callers can model the signal path.
        """
        outcome = self._leave(cause)
        outcome.redirect_to = None  # faults go via the OS signal path
        return outcome

    def _leave(self, cause: FaultCause) -> ExitOutcome:
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        flags = self.regs.flags
        self.exits += 1
        self.regs.cause_msr = cause
        self._reenter_bank = self.regs.snapshot()
        cost = self.params.hfi_exit_cycles
        if flags.switch_on_exit and self._shadow is not None:
            # Atomically switch back to the trusted runtime's bank;
            # HFI stays enabled, no serialization needed (§4.5).
            cause_now = cause
            self.regs.restore(self._shadow)
            self.regs.cause_msr = cause_now
            self._shadow = None
            return ExitOutcome(cause, switched_back=True, cycles=cost)
        if flags.is_serialized:
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        self.regs.enabled = False
        redirect = self.regs.exit_handler or None
        if cause.is_fault:
            redirect = None
        return ExitOutcome(cause, redirect_to=redirect, cycles=cost)

    def reenter(self) -> int:
        """hfi_reenter: resume the sandbox that was just exited.

        Like ``hfi_set_region``, the instruction is locked inside a
        native sandbox: restoring the last-exited bank would rewrite
        the (frozen) region registers from inside untrusted code.
        """
        if self._journal is not None:
            self._journal.snapshot_hfi(self)
        if self.regs.locked:
            raise HfiFault(FaultCause.REGION_LOCKED)
        if self._reenter_bank is None:
            raise HfiFault(FaultCause.BAD_REENTER)
        # The shadow bank pairs with the enter that saved it; installing
        # the last-exited bank breaks that pairing, so a pending shadow
        # must not survive into the restored sandbox's next exit (it
        # would swap in another bank's regions while still enabled).
        self._shadow = None
        bank = self._reenter_bank
        flags = bank.flags
        self.enters += 1
        cost = self.params.hfi_enter_cycles
        if flags.is_serialized:
            cost += self.params.serialize_drain_cycles
            self.serializations += 1
        self.regs.restore(bank)
        self.regs.enabled = True
        self.regs.cause_msr = FaultCause.NONE
        return cost

    def exit_info(self) -> ExitInfo:
        return ExitInfo(cause=self.regs.cause_msr)

    # ------------------------------------------------------------------
    # access checks (§4.1, §4.2) — called by the CPU's data/fetch paths
    # ------------------------------------------------------------------
    def check_data_access(self, addr: int, size: int, is_write: bool) -> None:
        """Implicit data-region check for a non-hmov load/store."""
        if not self.regs.enabled:
            return
        implicit_data_check(self.regs.data, addr, size, is_write)

    def check_code_fetch(self, addr: int) -> None:
        """Implicit code-region check on the program counter."""
        if not self.regs.enabled:
            return
        implicit_code_check(self.regs.code, addr)

    def hmov_address(self, region_index: int, index: int, scale: int,
                     disp: int, size: int, is_write: bool) -> int:
        """Resolve an hmov effective address through explicit region
        ``region_index`` (0-3), enforcing §3.2's trap rules.

        hmov outside HFI mode is an invalid-opcode-style fault — we
        model it as an HFI fault with the region-clear cause.
        """
        if not self.regs.enabled:
            raise HfiFault(FaultCause.HMOV_REGION_CLEAR,
                           detail="hmov with HFI disabled")
        region = self.regs.explicit[region_index]
        return hmov_effective_address(region, index, scale, disp,
                                      size, is_write)
