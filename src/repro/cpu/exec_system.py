"""Exec unit: system interaction (syscalls, fences, xsave, MPK).

Serializing instructions, ``wrpkru``, ``xrstor``, and syscalls are
squash points: on the wrong path they raise ``_StopSpeculation``
before any architectural effect, exactly as the old interpreter did.
"""

from __future__ import annotations

from ..isa.opcodes import Opcode
from ..isa.registers import Reg
from ..os.address_space import AccessKind, PageFault
from .decode import _StopSpeculation, decoder, make_ea


def _serialize(cpu, cost=None):
    if cpu._speculative:
        raise _StopSpeculation()
    cpu.timing.serialize_drain(cost)


@decoder(Opcode.SYSCALL, Opcode.INT80)
def _syscall(ins, addr, next_rip):
    legacy = ins.opcode is Opcode.INT80

    def run(cpu):
        regs = cpu.regs
        regs.rip = next_rip
        if cpu._speculative:
            raise _StopSpeculation()
        nr = regs.regs[Reg.RAX]
        outcome = cpu.hfi.syscall_attempt(nr, legacy=legacy)
        stats = cpu.stats
        if outcome is not None:
            # Native sandbox: the syscall became a jump to the exit
            # handler (§4.4); the cause MSR already says which call.
            stats.interposed_syscalls += 1
            # The interposed transition serializes like an exit but is
            # counted by its own lifecycle counter.
            cpu.timing.serialize_drain(outcome.cycles, count=False)
            telemetry = cpu.telemetry
            if telemetry.enabled:
                cpu.timing.settle()
                telemetry.event("syscall.interposed", stats.cycles, nr=nr)
                telemetry.end_span(stats.cycles, name="hfi.sandbox",
                                   reason="syscall")
            if outcome.redirect_to is not None:
                regs.rip = outcome.redirect_to
            return
        stats.syscalls += 1
        if cpu.kernel is not None and cpu.process is not None:
            result = cpu.kernel.syscall(
                cpu.process, nr, regs.regs[Reg.RDI], regs.regs[Reg.RSI],
                regs.regs[Reg.RDX])
            cpu._wreg(Reg.RAX, result.value)
            # The ring transition drains the window; kernel time is
            # serial by construction.
            cpu.timing.serialize_drain(result.cycles, count=False)
        else:
            cpu.timing.serialize_drain(cpu.params.syscall_cycles,
                                       count=False)
    return run


@decoder(Opcode.CPUID)
def _cpuid(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        _serialize(cpu)
    return run


@decoder(Opcode.LFENCE)
def _lfence(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        _serialize(cpu, cost=cpu.params.serialize_drain_cycles // 2)
    return run


@decoder(Opcode.CLFLUSH)
def _clflush(ins, addr, next_rip):
    ea_of = make_ea(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        cpu.caches.flush_line(ea_of(cpu))
        cpu.timing.charge(cpu.params.clflush_cycles)
    return run


@decoder(Opcode.RDTSC)
def _rdtsc(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        # rdtsc reads the real cycle counter even on the wrong path.
        timing = cpu.timing
        timing.charge_always(cpu.params.rdtsc_cycles)
        timing.settle()
        cpu._wreg(Reg.RAX, cpu.stats.cycles)
        cpu._wreg(Reg.RDX, 0)
    return run


@decoder(Opcode.NOP)
def _nop(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
    return run


@decoder(Opcode.HLT)
def _hlt(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        if cpu._speculative:
            raise _StopSpeculation()
        cpu._halted = True
    return run


@decoder(Opcode.XSAVE)
def _xsave(ins, addr, next_rip):
    ea_of = make_ea(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        ea = ea_of(cpu)
        if not cpu._speculative:
            pkru = cpu.process.pkru if cpu.process is not None else 0
            cpu._xsave_areas[ea] = (cpu.regs.copy(), cpu.hfi.snapshot(),
                                    pkru)
            cpu.timing.charge_always(cpu.params.xsave_cycles
                                     + cpu.params.xsave_hfi_extra_cycles)
    return run


@decoder(Opcode.XRSTOR)
def _xrstor(ins, addr, next_rip):
    ea_of = make_ea(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        if cpu._speculative:
            raise _StopSpeculation()
        ea = ea_of(cpu)
        area = cpu._xsave_areas.get(ea)
        if area is None:
            raise PageFault(ea, AccessKind.READ, "xrstor from bad area")
        saved_regs, hfi_bank, pkru = area
        # Traps inside a native sandbox (§3.3.3).
        cpu.hfi.restore(hfi_bank)
        cpu.regs.load_from(saved_regs)    # in place; rip stays current
        if cpu.process is not None:
            cpu.process.pkru = pkru
        cpu.timing.charge_always(cpu.params.xrstor_cycles
                                 + cpu.params.xsave_hfi_extra_cycles)
    return run


@decoder(Opcode.WRPKRU)
def _wrpkru(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        if cpu._speculative:
            raise _StopSpeculation()  # wrpkru is not speculated past
        if cpu.process is not None:
            cpu.process.pkru = cpu.regs.regs[Reg.RAX] & 0xFFFF_FFFF
        cpu.timing.charge_always(cpu.params.wrpkru_cycles)
    return run


@decoder(Opcode.RDPKRU)
def _rdpkru(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        pkru = cpu.process.pkru if cpu.process is not None else 0
        cpu._wreg(Reg.RAX, pkru)
        cpu.timing.charge(cpu.params.rdpkru_cycles)
    return run
