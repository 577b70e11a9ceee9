"""Exec unit: control flow with branch prediction and speculation.

Condition predicates and branch targets bind at decode time.  The
prediction protocol is preserved exactly from the old interpreter:

* conditional jumps consult/update the PHT *before* any speculation
  window opens; on the wrong path they resolve architecturally (no
  nested windows, no predictor updates);
* indirect jumps and calls update the BTB before the mispredict check,
  so a first encounter (``predicted is None``) pays the penalty but
  cannot speculate anywhere;
* returns pop the RSB only at commit, after the stack load (which may
  fault first).
"""

from __future__ import annotations

from ..isa.opcodes import Opcode
from ..isa.operands import Imm
from ..isa.registers import Reg
from .decode import STACK_READ, STACK_WRITE, decoder


#: Condition predicates over the flags word (x86 semantics).
CONDITIONS = {
    Opcode.JE: lambda f: f.zf,
    Opcode.JNE: lambda f: not f.zf,
    Opcode.JL: lambda f: f.sf != f.of,
    Opcode.JGE: lambda f: f.sf == f.of,
    Opcode.JLE: lambda f: f.zf or f.sf != f.of,
    Opcode.JG: lambda f: not f.zf and f.sf == f.of,
    Opcode.JB: lambda f: f.cf,
    Opcode.JAE: lambda f: not f.cf,
    Opcode.JBE: lambda f: f.cf or f.zf,
    Opcode.JA: lambda f: not f.cf and not f.zf,
}


@decoder(*CONDITIONS)
def _jcc(ins, addr, next_rip):
    cond = CONDITIONS[ins.opcode]
    target = ins.operands[0].value

    def run(cpu):
        regs = cpu.regs
        regs.rip = next_rip
        taken = cond(regs.flags)
        if cpu._speculative:
            # No nested speculation windows; resolve architecturally.
            regs.rip = target if taken else next_rip
            return
        stats = cpu.stats
        stats.branches += 1
        predicted = cpu.pht.resolve(addr, taken)
        if predicted != taken:
            stats.mispredicts += 1
            cpu.timing.mispredict()
            wrong_path = target if predicted else next_rip
            regs.rip = wrong_path
            cpu._speculate(wrong_path)
        regs.rip = target if taken else next_rip
    return run


@decoder(Opcode.JMP)
def _jmp(ins, addr, next_rip):
    op = ins.operands[0]
    if isinstance(op, Imm):
        target = op.value

        def run(cpu):
            cpu.regs.rip = target
        return run

    # indirect jump: BTB-predicted
    def run(cpu):
        regs = cpu.regs
        regs.rip = next_rip
        actual = regs.regs[op]
        if cpu._speculative:
            regs.rip = actual
            return
        stats = cpu.stats
        stats.branches += 1
        predicted = cpu.btb.predict(addr)
        cpu.btb.update(addr, actual)
        if predicted is None or predicted != actual:
            stats.mispredicts += 1
            cpu.timing.mispredict()
            if predicted is not None:
                regs.rip = predicted
                cpu._speculate(predicted)
        regs.rip = actual
    return run


@decoder(Opcode.CALL)
def _call(ins, addr, next_rip):
    op = ins.operands[0]
    direct = isinstance(op, Imm)
    target = op.value if direct else None

    def run(cpu):
        regs = cpu.regs
        regs.rip = next_rip
        cpu._wreg(Reg.RSP, regs.regs[Reg.RSP] - 8)
        STACK_WRITE(cpu, next_rip)
        if not cpu._speculative:
            cpu.rsb.push(next_rip)
        if direct:
            regs.rip = target
            return
        actual = regs.regs[op]
        if cpu._speculative:
            regs.rip = actual
            return
        stats = cpu.stats
        stats.branches += 1
        predicted = cpu.btb.predict(addr)
        cpu.btb.update(addr, actual)
        if predicted is None or predicted != actual:
            stats.mispredicts += 1
            cpu.timing.mispredict()
            if predicted is not None:
                regs.rip = predicted
                cpu._speculate(predicted)
        regs.rip = actual
    return run


@decoder(Opcode.RET)
def _ret(ins, addr, next_rip):
    def run(cpu):
        regs = cpu.regs
        regs.rip = next_rip
        actual = STACK_READ(cpu)
        cpu._wreg(Reg.RSP, regs.regs[Reg.RSP] + 8)
        if cpu._speculative:
            regs.rip = actual
            return
        stats = cpu.stats
        stats.branches += 1
        predicted = cpu.rsb.pop()
        if predicted is None or predicted != actual:
            stats.mispredicts += 1
            cpu.timing.mispredict()
            if predicted is not None:
                regs.rip = predicted
                cpu._speculate(predicted)
        regs.rip = actual
    return run
