"""Binary layout of HFI descriptors in memory.

``hfi_set_region`` and ``hfi_enter`` take a pointer to an in-memory
descriptor and move it into HFI's internal registers (§5.2 emulation:
"moving the hfi region metadata from memory to general-purpose
registers"; §6.4.2: "HFI takes a few cycles to move metadata from
memory to HFI registers on each transition").  This module defines the
layout so the cycle simulator performs *real* loads for those moves.

Region descriptor (24 bytes, 3 words):
  word0: type/permission flags
  word1: base_prefix / base_address
  word2: lsb_mask / bound

Sandbox descriptor (16 bytes, 2 words):
  word0: flags (bit0 is_hybrid, bit1 is_serialized, bit2 switch_on_exit)
  word1: exit handler address

:class:`SandboxDescriptor` is the one description of a sandbox: it
stages itself in this layout, emits the ``hfi_set_region`` …
``hfi_enter`` sequence that loads it, and performs the same install
on an :class:`~repro.core.state.HfiState` for the analytic runtime.
:func:`descriptor_cycles` is the one price of moving descriptor bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from ..isa.operands import Imm
from ..isa.registers import Reg
from .regions import (
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    Region,
)
from .registers import SandboxFlags

if TYPE_CHECKING:
    from ..isa.assembler import Assembler
    from ..os.address_space import AddressSpace
    from ..params import MachineParams
    from .state import HfiState

REGION_DESCRIPTOR_BYTES = 24
SANDBOX_DESCRIPTOR_BYTES = 16

_TYPE_CODE = 0
_TYPE_IMPLICIT_DATA = 1
_TYPE_EXPLICIT = 2

_F_READ = 1 << 2
_F_WRITE = 1 << 3
_F_EXEC = 1 << 4
_F_LARGE = 1 << 5


def encode_region(region: Region) -> bytes:
    """Pack a region descriptor into its 24-byte memory form."""
    if isinstance(region, ImplicitCodeRegion):
        flags = _TYPE_CODE | (_F_EXEC if region.permission_exec else 0)
        return struct.pack("<QQQ", flags, region.base_prefix,
                           region.lsb_mask)
    if isinstance(region, ImplicitDataRegion):
        flags = _TYPE_IMPLICIT_DATA
        flags |= _F_READ if region.permission_read else 0
        flags |= _F_WRITE if region.permission_write else 0
        return struct.pack("<QQQ", flags, region.base_prefix,
                           region.lsb_mask)
    if isinstance(region, ExplicitDataRegion):
        flags = _TYPE_EXPLICIT
        flags |= _F_READ if region.permission_read else 0
        flags |= _F_WRITE if region.permission_write else 0
        flags |= _F_LARGE if region.is_large_region else 0
        return struct.pack("<QQQ", flags, region.base_address, region.bound)
    raise TypeError(f"not a region: {region!r}")


def decode_region(data: bytes) -> Region:
    """Unpack a 24-byte region descriptor."""
    flags, word1, word2 = struct.unpack("<QQQ", data)
    kind = flags & 0b11
    if kind == _TYPE_CODE:
        return ImplicitCodeRegion(base_prefix=word1, lsb_mask=word2,
                                  permission_exec=bool(flags & _F_EXEC))
    if kind == _TYPE_IMPLICIT_DATA:
        return ImplicitDataRegion(base_prefix=word1, lsb_mask=word2,
                                  permission_read=bool(flags & _F_READ),
                                  permission_write=bool(flags & _F_WRITE))
    if kind == _TYPE_EXPLICIT:
        return ExplicitDataRegion(base_address=word1, bound=word2,
                                  permission_read=bool(flags & _F_READ),
                                  permission_write=bool(flags & _F_WRITE),
                                  is_large_region=bool(flags & _F_LARGE))
    raise ValueError(f"bad region descriptor type {kind}")


def encode_sandbox(flags: SandboxFlags, exit_handler: int = 0) -> bytes:
    """Pack an hfi_enter sandbox descriptor into its 16-byte form."""
    word0 = ((1 if flags.is_hybrid else 0)
             | (2 if flags.is_serialized else 0)
             | (4 if flags.switch_on_exit else 0))
    return struct.pack("<QQ", word0, exit_handler)


def decode_sandbox(data: bytes) -> Tuple[SandboxFlags, int]:
    """Unpack a 16-byte sandbox descriptor."""
    word0, handler = struct.unpack("<QQ", data)
    return SandboxFlags(is_hybrid=bool(word0 & 1),
                        is_serialized=bool(word0 & 2),
                        switch_on_exit=bool(word0 & 4)), handler


def descriptor_cycles(params: MachineParams, nbytes: int) -> int:
    """Cycles to move ``nbytes`` of descriptor between memory and HFI:
    one L1-hit word access per 8 bytes (the runtime just wrote them)."""
    return (nbytes // 8) * (params.base_cycles + params.l1d_hit_cycles)


@dataclass
class SandboxDescriptor:
    """Everything needed to start a sandbox (paper appendix A.1): the
    flags word, the exit handler and the numbered regions.

    Staged at ``base``, the regions take consecutive 24-byte slots in
    list order and the 16-byte sandbox descriptor follows them.
    """

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

    def sandbox_address(self, base: int) -> int:
        """Where :meth:`stage` puts the sandbox descriptor."""
        return base + len(self.regions) * REGION_DESCRIPTOR_BYTES

    def stage(self, space: AddressSpace, base: int) -> None:
        """Write the region descriptors and then the sandbox descriptor
        into memory from ``base``."""
        for slot, (_, region) in enumerate(self.regions):
            space.write_bytes(base + slot * REGION_DESCRIPTOR_BYTES,
                              encode_region(region), check=False)
        space.write_bytes(self.sandbox_address(base),
                          encode_sandbox(self.flags, self.exit_handler),
                          check=False)

    def emit_install(self, asm: Assembler, base: int) -> None:
        """Emit ``mov rdi, slot; hfi_set_region n, rdi`` per region."""
        for slot, (number, _) in enumerate(self.regions):
            asm.mov(Reg.RDI, Imm(base + slot * REGION_DESCRIPTOR_BYTES))
            asm.hfi_set_region(number, Reg.RDI)

    def emit_enter(self, asm: Assembler, base: int) -> None:
        """Emit ``mov rdi, sandbox; hfi_enter rdi``."""
        asm.mov(Reg.RDI, Imm(self.sandbox_address(base)))
        asm.hfi_enter(Reg.RDI)

    def install(self, state: HfiState) -> int:
        """What the emitted install and enter do, on ``state``: each
        ``hfi_set_region`` with its descriptor load, then ``hfi_enter``.
        Returns the cycles, which leave out the sandbox-descriptor load
        and the base cycles the emitted instructions also cost
        (ROADMAP.md open item 10)."""
        load = descriptor_cycles(state.params, REGION_DESCRIPTOR_BYTES)
        cost = 0
        for number, region in self.regions:
            cost += state.set_region(number, region) + load
        return cost + state.enter(self.flags, self.exit_handler)
