"""The HFI register file: 22 internal 64-bit registers per core.

Paper §4: 10 regions x 2 registers each, one exit-handler register and
one configuration register — plus an optional duplicate bank for the
switch-on-exit extension (§4.5).  Only the *currently executing*
sandbox's state is on-chip, which is what makes HFI scale to an
unbounded number of sandboxes (§3 property 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .faults import FaultCause
from .regions import (
    CODE_BASE_NUMBER,
    EXPLICIT_BASE_NUMBER,
    IMPLICIT_DATA_BASE_NUMBER,
    NUM_CODE_REGIONS,
    NUM_EXPLICIT_REGIONS,
    NUM_IMPLICIT_DATA_REGIONS,
    NUM_REGIONS,
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    Region,
    check_region_type,
)

#: Registers per region (base+mask or base+bound).
_REGS_PER_REGION = 2

#: Total internal 64-bit registers, matching the paper's count (§4).
REGISTER_COUNT = NUM_REGIONS * _REGS_PER_REGION + 2  # == 22


@dataclass(frozen=True)
class SandboxFlags:
    """``hfi_enter`` option flags (paper appendix A.1)."""

    is_hybrid: bool = False
    is_serialized: bool = False
    switch_on_exit: bool = False


@dataclass
class HfiRegisterFile:
    """Architectural HFI state for one core."""

    code: List[Optional[ImplicitCodeRegion]] = field(
        default_factory=lambda: [None] * NUM_CODE_REGIONS)
    data: List[Optional[ImplicitDataRegion]] = field(
        default_factory=lambda: [None] * NUM_IMPLICIT_DATA_REGIONS)
    explicit: List[Optional[ExplicitDataRegion]] = field(
        default_factory=lambda: [None] * NUM_EXPLICIT_REGIONS)
    exit_handler: int = 0
    flags: SandboxFlags = field(default_factory=SandboxFlags)
    enabled: bool = False
    cause_msr: FaultCause = FaultCause.NONE

    @property
    def locked(self) -> bool:
        """Region registers are locked inside a *native* sandbox (§3.3.1)."""
        return self.enabled and not self.flags.is_hybrid

    # ------------------------------------------------------------------
    # region slot access by paper region number
    # ------------------------------------------------------------------
    def get(self, number: int) -> Optional[Region]:
        slot, idx = self._slot(number)
        return slot[idx]

    def set(self, number: int, region: Optional[Region]) -> None:
        if region is not None:
            check_region_type(number, region)
        slot, idx = self._slot(number)
        slot[idx] = region

    def _slot(self, number: int):
        if number < 0 or number >= NUM_REGIONS:
            raise IndexError(f"region number {number} out of range")
        if number < IMPLICIT_DATA_BASE_NUMBER:
            return self.code, number - CODE_BASE_NUMBER
        if number < EXPLICIT_BASE_NUMBER:
            return self.data, number - IMPLICIT_DATA_BASE_NUMBER
        return self.explicit, number - EXPLICIT_BASE_NUMBER

    def clear_all(self) -> None:
        self.code = [None] * NUM_CODE_REGIONS
        self.data = [None] * NUM_IMPLICIT_DATA_REGIONS
        self.explicit = [None] * NUM_EXPLICIT_REGIONS

    def snapshot(self) -> "HfiRegisterFile":
        """Copy the full register file (xsave / switch-on-exit bank).

        Slot-wise, not deepcopy: regions and flags are frozen
        dataclasses, so fresh lists of shared references make the bank
        fully independent of later writes to this file.
        """
        return HfiRegisterFile(
            code=list(self.code), data=list(self.data),
            explicit=list(self.explicit), exit_handler=self.exit_handler,
            flags=self.flags, enabled=self.enabled,
            cause_msr=self.cause_msr)

    def restore(self, saved: "HfiRegisterFile") -> None:
        """Adopt a saved bank in place (this object's identity persists,
        and ``saved`` stays reusable — its lists are copied)."""
        self.code = list(saved.code)
        self.data = list(saved.data)
        self.explicit = list(saved.explicit)
        self.exit_handler = saved.exit_handler
        self.flags = saved.flags
        self.enabled = saved.enabled
        self.cause_msr = saved.cause_msr
