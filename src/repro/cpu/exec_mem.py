"""Exec unit: data movement (mov, hmov, lea, push, pop).

hmov's load-vs-store form and its explicit-region number are resolved
at decode time; the per-access region arithmetic and trap rules stay
in :meth:`HfiState.hmov_address` (paper §3.2), reached through the
accessor closures.
"""

from __future__ import annotations

from ..isa.opcodes import HMOV_REGION, Opcode
from ..isa.operands import Imm, Mem
from ..isa.registers import MASK64, Reg
from .decode import (
    STACK_READ,
    STACK_WRITE,
    decoder,
    make_ea,
    make_hmov_reader,
    make_hmov_writer,
    make_reader,
    make_writer,
)


@decoder(Opcode.MOV)
def _mov(ins, addr, next_rip):
    dst, src = ins.operands[0], ins.operands[1]
    # Fully inlined fast paths for the dominant register-destination
    # shapes (no accessor-closure indirection on the hot loop).
    if type(dst) is Reg:
        if type(src) is Reg:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                if cpu._speculative:
                    cpu._journal.entries.append((dst, regs[dst]))
                regs[dst] = regs[src]
            return run
        if type(src) is Imm:
            const = src.value & MASK64

            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                if cpu._speculative:
                    cpu._journal.entries.append((dst, regs[dst]))
                regs[dst] = const
            return run

    read_src = make_reader(src)
    write_dst = make_writer(dst)

    def run(cpu):
        cpu.regs.rip = next_rip
        write_dst(cpu, read_src(cpu))
    return run


@decoder(Opcode.HMOV0, Opcode.HMOV1, Opcode.HMOV2, Opcode.HMOV3)
def _hmov(ins, addr, next_rip):
    region = HMOV_REGION[ins.opcode]
    ops = ins.operands
    if isinstance(ops[1], Mem):           # load form
        read_src = make_hmov_reader(ops[1], region)
        write_dst = make_writer(ops[0])
    else:                                 # store form
        read_src = make_reader(ops[1])
        if isinstance(ops[0], Mem):
            write_dst = make_hmov_writer(ops[0], region)
        else:
            write_dst = make_writer(ops[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        timing = cpu.timing
        extra = cpu.params.hmov_extra_cycles
        # §4.2: the bounds check is its own micro-op.  In-order backends
        # only pay when a calibration makes it non-free; the OoO
        # backend always routes it through ``hmov_check`` so the check
        # can overlap the access's dTLB lookup structurally.
        if extra or not timing.inline_commit:
            timing.hmov_check(extra)
        write_dst(cpu, read_src(cpu))
    return run


@decoder(Opcode.LEA)
def _lea(ins, addr, next_rip):
    ea_of = make_ea(ins.operands[1])
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        write_dst(cpu, ea_of(cpu))
    return run


@decoder(Opcode.PUSH)
def _push(ins, addr, next_rip):
    read_src = make_reader(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        value = read_src(cpu)
        cpu._wreg(Reg.RSP, cpu.regs.regs[Reg.RSP] - 8)
        STACK_WRITE(cpu, value)
    return run


@decoder(Opcode.POP)
def _pop(ins, addr, next_rip):
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        value = STACK_READ(cpu)
        cpu._wreg(Reg.RSP, cpu.regs.regs[Reg.RSP] + 8)
        write_dst(cpu, value)
    return run
