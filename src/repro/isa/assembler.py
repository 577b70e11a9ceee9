"""A small two-pass assembler with a builder-style API.

Usage::

    asm = Assembler(base=0x40_0000)
    asm.mov(Reg.RAX, Imm(0))
    asm.label("loop")
    asm.add(Reg.RAX, Imm(1))
    asm.cmp(Reg.RAX, Imm(10))
    asm.jne("loop")
    asm.hlt()
    program = asm.assemble()

Labels resolve to byte addresses; jump targets may be label names,
:class:`LabelRef`, absolute addresses (``Imm``), or registers (indirect).
"""

from __future__ import annotations

from typing import List, Optional, Union

from .instruction import Instruction, Program
from .opcodes import Opcode
from .operands import Imm, LabelRef, Mem, Operand
from .registers import Reg

Target = Union[str, LabelRef, Imm, Reg]
#: The operand types an instruction may hold besides a label reference.
_OPERANDS = (Reg, Imm, Mem)


class AssemblerError(Exception):
    """Raised for unresolved labels or malformed operands."""


def _as_target(target: Target) -> Operand:
    if isinstance(target, str):
        return LabelRef(target)
    return target


class Assembler:
    """Accumulates instructions, then lays them out and resolves labels."""

    def __init__(self, base: int = 0x40_0000):
        self.base = base
        self._instructions: List[Instruction] = []
        self._pending_label: Optional[str] = None

    # ------------------------------------------------------------------
    # emission core
    # ------------------------------------------------------------------
    def emit(self, opcode: Opcode, *operands: Operand,
             comment: str = "") -> Instruction:
        ins = Instruction(opcode, tuple(operands), comment=comment)
        if self._pending_label is not None:
            ins.label = self._pending_label
            self._pending_label = None
        self._instructions.append(ins)
        return ins

    def label(self, name: str) -> None:
        if self._pending_label is not None:
            # Two labels on the same spot: emit a nop to anchor the first.
            self.emit(Opcode.NOP)
        self._pending_label = name

    def extend(self, instructions: List[Instruction]) -> None:
        for ins in instructions:
            if self._pending_label is not None and ins.label is None:
                ins.label = self._pending_label
                self._pending_label = None
            self._instructions.append(ins)

    # ------------------------------------------------------------------
    # mnemonics
    # ------------------------------------------------------------------
    def mov(self, dst, src, **kw):
        return self.emit(Opcode.MOV, dst, src, **kw)

    def lea(self, dst: Reg, src: Mem, **kw):
        return self.emit(Opcode.LEA, dst, src, **kw)

    def push(self, src, **kw):
        return self.emit(Opcode.PUSH, src, **kw)

    def pop(self, dst: Reg, **kw):
        return self.emit(Opcode.POP, dst, **kw)

    def hmov(self, region: int, dst, src, **kw):
        opcode = [Opcode.HMOV0, Opcode.HMOV1, Opcode.HMOV2,
                  Opcode.HMOV3][region]
        return self.emit(opcode, dst, src, **kw)

    def add(self, dst, src, **kw):
        return self.emit(Opcode.ADD, dst, src, **kw)

    def sub(self, dst, src, **kw):
        return self.emit(Opcode.SUB, dst, src, **kw)

    def and_(self, dst, src, **kw):
        return self.emit(Opcode.AND, dst, src, **kw)

    def or_(self, dst, src, **kw):
        return self.emit(Opcode.OR, dst, src, **kw)

    def xor(self, dst, src, **kw):
        return self.emit(Opcode.XOR, dst, src, **kw)

    def not_(self, dst, **kw):
        return self.emit(Opcode.NOT, dst, **kw)

    def neg(self, dst, **kw):
        return self.emit(Opcode.NEG, dst, **kw)

    def shl(self, dst, src, **kw):
        return self.emit(Opcode.SHL, dst, src, **kw)

    def shr(self, dst, src, **kw):
        return self.emit(Opcode.SHR, dst, src, **kw)

    def sar(self, dst, src, **kw):
        return self.emit(Opcode.SAR, dst, src, **kw)

    def imul(self, dst, src, **kw):
        return self.emit(Opcode.IMUL, dst, src, **kw)

    def idiv(self, dst, src, **kw):
        return self.emit(Opcode.IDIV, dst, src, **kw)

    def imod(self, dst, src, **kw):
        return self.emit(Opcode.IMOD, dst, src, **kw)

    def cmp(self, a, b, **kw):
        return self.emit(Opcode.CMP, a, b, **kw)

    def test(self, a, b, **kw):
        return self.emit(Opcode.TEST, a, b, **kw)

    def inc(self, dst, **kw):
        return self.emit(Opcode.INC, dst, **kw)

    def dec(self, dst, **kw):
        return self.emit(Opcode.DEC, dst, **kw)

    def jmp(self, target: Target, **kw):
        return self.emit(Opcode.JMP, _as_target(target), **kw)

    def je(self, target: Target, **kw):
        return self.emit(Opcode.JE, _as_target(target), **kw)

    def jne(self, target: Target, **kw):
        return self.emit(Opcode.JNE, _as_target(target), **kw)

    def jl(self, target: Target, **kw):
        return self.emit(Opcode.JL, _as_target(target), **kw)

    def jle(self, target: Target, **kw):
        return self.emit(Opcode.JLE, _as_target(target), **kw)

    def jg(self, target: Target, **kw):
        return self.emit(Opcode.JG, _as_target(target), **kw)

    def jge(self, target: Target, **kw):
        return self.emit(Opcode.JGE, _as_target(target), **kw)

    def jb(self, target: Target, **kw):
        return self.emit(Opcode.JB, _as_target(target), **kw)

    def jbe(self, target: Target, **kw):
        return self.emit(Opcode.JBE, _as_target(target), **kw)

    def ja(self, target: Target, **kw):
        return self.emit(Opcode.JA, _as_target(target), **kw)

    def jae(self, target: Target, **kw):
        return self.emit(Opcode.JAE, _as_target(target), **kw)

    def call(self, target: Target, **kw):
        return self.emit(Opcode.CALL, _as_target(target), **kw)

    def ret(self, **kw):
        return self.emit(Opcode.RET, **kw)

    def syscall(self, **kw):
        return self.emit(Opcode.SYSCALL, **kw)

    def int80(self, **kw):
        return self.emit(Opcode.INT80, **kw)

    def cpuid(self, **kw):
        return self.emit(Opcode.CPUID, **kw)

    def lfence(self, **kw):
        return self.emit(Opcode.LFENCE, **kw)

    def clflush(self, mem: Mem, **kw):
        return self.emit(Opcode.CLFLUSH, mem, **kw)

    def rdtsc(self, **kw):
        return self.emit(Opcode.RDTSC, **kw)

    def nop(self, **kw):
        return self.emit(Opcode.NOP, **kw)

    def hlt(self, **kw):
        return self.emit(Opcode.HLT, **kw)

    def xsave(self, mem: Mem, **kw):
        return self.emit(Opcode.XSAVE, mem, **kw)

    def xrstor(self, mem: Mem, **kw):
        return self.emit(Opcode.XRSTOR, mem, **kw)

    def wrpkru(self, **kw):
        return self.emit(Opcode.WRPKRU, **kw)

    def rdpkru(self, **kw):
        return self.emit(Opcode.RDPKRU, **kw)

    # HFI instructions (paper appendix A.1).  hfi_enter takes the
    # sandbox-descriptor pointer in a register; hfi_set_region /
    # hfi_get_region take a region number immediate and a descriptor
    # pointer (register or memory), modelling the metadata move from
    # memory into HFI registers (§6.4.2).
    def hfi_enter(self, descriptor: Reg, **kw):
        return self.emit(Opcode.HFI_ENTER, descriptor, **kw)

    def hfi_exit(self, **kw):
        return self.emit(Opcode.HFI_EXIT, **kw)

    def hfi_reenter(self, **kw):
        return self.emit(Opcode.HFI_REENTER, **kw)

    def hfi_set_region(self, number: int, descriptor: Reg, **kw):
        return self.emit(Opcode.HFI_SET_REGION, Imm(number), descriptor, **kw)

    def hfi_get_region(self, number: int, descriptor: Reg, **kw):
        return self.emit(Opcode.HFI_GET_REGION, Imm(number), descriptor, **kw)

    def hfi_clear_region(self, number: int, **kw):
        return self.emit(Opcode.HFI_CLEAR_REGION, Imm(number), **kw)

    def hfi_clear_all_regions(self, **kw):
        return self.emit(Opcode.HFI_CLEAR_ALL_REGIONS, **kw)

    # ------------------------------------------------------------------
    # layout & resolution
    # ------------------------------------------------------------------
    def assemble(self) -> Program:
        """Lay out instructions from ``base`` and resolve label refs.

        An operand that is not a :class:`Reg`, :class:`Imm`,
        :class:`Mem` or :class:`LabelRef` raises
        :class:`AssemblerError` naming its instruction.
        """
        if self._pending_label is not None:
            self.emit(Opcode.NOP)

        program = Program(instructions=list(self._instructions),
                          base=self.base)
        addr = self.base
        for ins in program.instructions:
            ins.addr = addr
            addr += ins.length
            if ins.label is not None:
                if ins.label in program.labels:
                    raise AssemblerError(f"duplicate label {ins.label!r}")
                program.labels[ins.label] = ins.addr

        # every operand is checked; only the few operand tuples that
        # hold a label are rebuilt
        for ins in program.instructions:
            labelled = False
            for op in ins.operands:
                if not isinstance(op, _OPERANDS):
                    if not isinstance(op, LabelRef):
                        raise AssemblerError(
                            f"{ins.opcode.name.lower()} at {ins.addr:#x}: "
                            f"operand {op!r} is not a Reg, Imm, Mem or "
                            f"LabelRef")
                    labelled = True
            if labelled:
                ins.operands = tuple(
                    Imm(self._resolve(program, operand))
                    if isinstance(operand, LabelRef) else operand
                    for operand in ins.operands
                )
        return program

    def _resolve(self, program: Program, ref: LabelRef) -> int:
        try:
            return program.labels[ref.name]
        except KeyError:
            raise AssemblerError(f"undefined label {ref.name!r}") from None
