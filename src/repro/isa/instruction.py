"""Instruction objects and the byte-length encoding model.

Encoded lengths matter for fidelity: the paper attributes 445.gobmk's
small HFI slowdown to the *longer encodings* of ``hmov`` pressuring the
instruction cache (§6.1), and Table 1 reports Swivel's binary bloat.
The length model below follows x86-64 conventions closely enough to
reproduce both effects: REX prefixes, ModRM/SIB bytes, 1/4-byte
displacements and immediates, and a 2-byte prefix for ``hmov``
(§5.2: "a new prefix for x86's mov").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import CONDITIONAL_JUMPS, HFI_REGION_OPS, HMOV_REGION, Opcode
from .operands import Imm, LabelRef, Mem, Operand
from .registers import Reg


@dataclass
class Instruction:
    """A single decoded instruction.

    ``operands`` are in destination-first (Intel) order.  ``addr`` and
    ``length`` are filled in by the assembler during layout.
    """

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    label: Optional[str] = None      # label attached *to* this instruction
    addr: int = 0                    # byte address after layout
    length: int = 0                  # encoded byte length
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.length:
            self.length = encoded_length(self.opcode, self.operands)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(repr(o) for o in self.operands)
        lbl = f"{self.label}: " if self.label else ""
        return f"{lbl}{self.opcode.value} {ops}".strip()


def _disp_len(disp: int) -> int:
    """Displacement encoding size: 0, 1, or 4 bytes."""
    if disp == 0:
        return 0
    if -128 <= disp <= 127:
        return 1
    return 4


def _imm_len(value: int) -> int:
    """Immediate encoding size: 1, 4, or 8 bytes."""
    if -128 <= value <= 127:
        return 1
    if -(1 << 31) <= value < (1 << 32):
        return 4
    return 8


def _mem_len(mem: Mem) -> int:
    """ModRM + optional SIB + displacement bytes for a memory operand."""
    length = 1  # ModRM
    if mem.index is not None or mem.base is None:
        length += 1  # SIB
    if mem.base is None:
        length += 4  # absolute disp32 (RIP-relative or abs)
    else:
        length += _disp_len(mem.disp)
    return length


#: Opcodes whose length does not depend on their operands.
_FIXED_LENGTHS = {
    Opcode.NOP: 1,
    Opcode.RET: 1,
    Opcode.PUSH: 2,
    Opcode.POP: 2,
    Opcode.SYSCALL: 2,
    Opcode.CPUID: 2,
    Opcode.RDTSC: 2,
    Opcode.INT80: 2,
    Opcode.HLT: 2,
    Opcode.LFENCE: 3,
    Opcode.CLFLUSH: 3,
    Opcode.WRPKRU: 3,
    Opcode.RDPKRU: 3,
    Opcode.XSAVE: 3,
    Opcode.XRSTOR: 3,
    # two-byte opcode + REX + modrm-ish
    Opcode.HFI_ENTER: 4,
    Opcode.HFI_EXIT: 4,
    Opcode.HFI_REENTER: 4,
    Opcode.HFI_CLEAR_ALL_REGIONS: 4,
    # jcc rel32 (conservative: long form)
    **dict.fromkeys(CONDITIONAL_JUMPS, 6),
}


def encoded_length(opcode: Opcode, operands: Tuple[Operand, ...]) -> int:
    """Return the modelled encoded byte length of an instruction.

    This is a faithful-in-spirit x86-64 length model, not a byte-exact
    encoder; what matters downstream is that relative code sizes across
    isolation strategies are realistic.
    """
    length = _FIXED_LENGTHS.get(opcode)
    if length is not None:
        return length
    if opcode is Opcode.JMP or opcode is Opcode.CALL:
        if operands and isinstance(operands[0], Reg):
            return 3  # jmp/call r64 (REX + FF /4)
        return 5  # rel32
    if opcode in HFI_REGION_OPS:  # clear-all returned above
        length = 4
        for op in operands:
            if isinstance(op, Mem):
                length += _mem_len(op)
            elif isinstance(op, Imm):
                length += 1  # region number fits a byte
        return length

    # General two-operand forms (mov/alu/lea/hmov/...): the primary
    # opcode byte plus REX.W (64-bit operand size throughout).  hmov
    # adds a 2-byte prefix on top of a normal mov encoding (§5.2),
    # giving it the "longer encoding" the paper blames for 445.gobmk's
    # i-cache pressure.
    length = 4 if opcode in HMOV_REGION else 2

    has_modrm = False
    for op in operands:
        if isinstance(op, Mem):
            length += _mem_len(op)
            has_modrm = True
        elif isinstance(op, Reg):
            if not has_modrm:
                length += 1
                has_modrm = True
        elif isinstance(op, Imm):
            length += _imm_len(op.value)
        elif isinstance(op, LabelRef):
            length += 4
    return length


@dataclass
class Program:
    """An assembled program: laid-out instructions plus label map."""

    instructions: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)   # name -> byte addr
    base: int = 0

    @property
    def size(self) -> int:
        """Total encoded byte size (Swivel bloat / i-cache footprint)."""
        if not self.instructions:
            return 0
        last = self.instructions[-1]
        return last.addr + last.length - self.base

    def __len__(self) -> int:
        return len(self.instructions)
