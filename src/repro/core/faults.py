"""HFI fault causes, exit reasons, and the cause MSR.

Paper §3.3.2: on any sandbox exit (``hfi_exit``, an interposed system
call, an access violation, or a hardware trap) HFI records the cause in
a model-specific register that the trusted runtime's exit handler or
SIGSEGV handler reads to disambiguate what happened.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FaultCause(enum.IntEnum):
    """Values of the HFI cause MSR (nonzero values are HFI-originated)."""

    NONE = 0
    # exits
    EXIT_INSTRUCTION = 1      # sandbox executed hfi_exit
    SYSCALL = 2               # native sandbox executed syscall
    INT80 = 3                 # native sandbox executed int 0x80
    # faults
    DATA_OUT_OF_BOUNDS = 16   # load/store matched no implicit region
    DATA_PERMISSION = 17      # first-match region lacked the permission
    CODE_OUT_OF_BOUNDS = 18   # fetch outside code regions
    HMOV_OUT_OF_BOUNDS = 19   # hmov effective address >= bound
    HMOV_NEGATIVE_OPERAND = 20  # hmov disp or index negative (§3.2)
    HMOV_OVERFLOW = 21        # effective-address computation overflowed
    HMOV_PERMISSION = 22
    HMOV_REGION_CLEAR = 23    # hmov through an unconfigured region
    REGION_LOCKED = 24        # region update inside a native sandbox
    XRSTOR_IN_SANDBOX = 25    # xrstor w/ save-hfi-regs inside sandbox (§3.3.3)
    NO_CODE_REGION = 26       # hfi_enter with no code region mapped (§3.3.1)
    HARDWARE_TRAP = 27        # non-HFI trap while sandboxed (e.g. page fault)
    BAD_REENTER = 28          # hfi_reenter with no exited sandbox

    @property
    def is_fault(self) -> bool:
        return self >= 16


class HfiFault(Exception):
    """An HFI check failed.

    Architecturally this disables the sandbox, stores the cause in the
    MSR, and raises a trap delivered as SIGSEGV (§3.3.2).  The CPU
    simulator and runtime layers catch it and do exactly that.
    """

    def __init__(self, cause: FaultCause, addr: int = 0, detail: str = ""):
        super().__init__(f"{cause.name} at {addr:#x}" +
                         (f": {detail}" if detail else ""))
        self.cause = cause
        self.addr = addr
        self.detail = detail


@dataclass
class ExitInfo:
    """What the exit handler learns after a sandbox exit."""

    cause: FaultCause
    fault_addr: int = 0
    syscall_nr: int = 0
