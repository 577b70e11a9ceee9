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

from .opcodes import CONDITIONAL_JUMPS, HMOV_REGION, Opcode
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


def encoded_length(opcode: Opcode, operands: Tuple[Operand, ...]) -> int:
    """Return the modelled encoded byte length of an instruction.

    This is a faithful-in-spirit x86-64 length model, not a byte-exact
    encoder; what matters downstream is that relative code sizes across
    isolation strategies are realistic.
    """
    if opcode is Opcode.NOP:
        return 1
    if opcode is Opcode.RET:
        return 1
    if opcode in (Opcode.PUSH, Opcode.POP):
        return 2
    if opcode in (Opcode.SYSCALL, Opcode.CPUID, Opcode.RDTSC,
                  Opcode.INT80, Opcode.HLT):
        return 2
    if opcode in (Opcode.LFENCE, Opcode.CLFLUSH, Opcode.WRPKRU,
                  Opcode.RDPKRU, Opcode.XSAVE, Opcode.XRSTOR):
        return 3
    if opcode in CONDITIONAL_JUMPS:
        return 6  # jcc rel32 (conservative: long form)
    if opcode in (Opcode.JMP, Opcode.CALL):
        target = operands[0] if operands else None
        if isinstance(target, Reg):
            return 3  # jmp/call r64 (REX + FF /4)
        return 5  # rel32
    if opcode in (Opcode.HFI_ENTER, Opcode.HFI_EXIT, Opcode.HFI_REENTER,
                  Opcode.HFI_CLEAR_ALL_REGIONS):
        return 4  # two-byte opcode + REX + modrm-ish
    if opcode in (Opcode.HFI_SET_REGION, Opcode.HFI_GET_REGION,
                  Opcode.HFI_CLEAR_REGION):
        length = 4
        for op in operands:
            if isinstance(op, Mem):
                length += _mem_len(op)
            elif isinstance(op, Imm):
                length += 1  # region number fits a byte
        return length

    # General two-operand forms (mov/alu/lea/hmov/...)
    length = 1  # primary opcode byte
    length += 1  # REX.W prefix (64-bit operand size throughout)
    if opcode in HMOV_REGION:
        # hmov uses an added 2-byte prefix on top of a normal mov
        # encoding (§5.2), giving it the "longer encoding" the paper
        # blames for 445.gobmk's i-cache pressure.
        length += 2

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

    def at(self, addr: int) -> Optional[Instruction]:
        """Return the instruction at byte address ``addr`` (exact match)."""
        return self._by_addr.get(addr)

    def finalize(self) -> None:
        """Build the address index after layout."""
        self._by_addr = {ins.addr: ins for ins in self.instructions}

    def __len__(self) -> int:
        return len(self.instructions)
