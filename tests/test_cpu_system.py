"""System-level CPU behaviours: syscall variants, xsave/xrstor,
hfi_get_region, fault resumption, and robustness edges."""

import pytest

from repro.core import (
    ExplicitDataRegion,
    FaultCause,
    ImplicitCodeRegion,
    SandboxFlags,
)
from repro.core.encoding import decode_region, encode_region, encode_sandbox
from repro.cpu import Cpu
from repro.cpu.decode import DECODERS
from repro.isa import Assembler, Imm, Mem, Opcode, Reg
from repro.os import AddressSpace, FileSystem, Kernel, Prot, Sys
from repro.params import MachineParams

CODE = 0x40_0000
DATA = 0x10_0000
DESC = 0x0E_0000


@pytest.fixture
def params():
    return MachineParams()


def machine(params, with_kernel=False):
    if with_kernel:
        kernel = Kernel(params, FileSystem({"f": b"abc"}))
        proc = kernel.spawn()
        space = proc.address_space
        cpu = Cpu(params, process=proc, kernel=kernel)
    else:
        space = AddressSpace(params)
        cpu = Cpu(params, memory=space)
        kernel = proc = None
    space.mmap(1 << 16, Prot.rw(), addr=DATA)
    space.mmap(1 << 12, Prot.rw(), addr=DESC)
    space.mmap(1 << 16, Prot.rw(), addr=0x30_0000)
    cpu.regs.write(Reg.RSP, 0x30_0000 + (1 << 16) - 64)
    return cpu, space, kernel, proc


class TestSyscallVariants:
    def test_kernel_syscall_via_cpu(self, params):
        cpu, space, kernel, proc = machine(params, with_kernel=True)
        asm = Assembler(base=CODE)
        asm.mov(Reg.RAX, Imm(int(Sys.GETPID)))
        asm.syscall()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        assert cpu.regs.read(Reg.RAX) == proc.pid

    def test_int80_interposed_in_native_sandbox(self, params):
        cpu, space, *_ = machine(params)
        code = ImplicitCodeRegion.covering(CODE, 1 << 16)
        space.write_bytes(DESC, encode_region(code))
        space.write_bytes(DESC + 24, encode_sandbox(
            SandboxFlags(is_hybrid=False), exit_handler=0x40_8000))
        asm = Assembler(base=CODE)
        asm.mov(Reg.RDI, Imm(DESC))
        asm.hfi_set_region(0, Reg.RDI)
        asm.mov(Reg.RDI, Imm(DESC + 24))
        asm.hfi_enter(Reg.RDI)
        asm.int80()
        asm.hlt()
        handler = Assembler(base=0x40_8000)
        handler.hlt()
        program, hprog = asm.assemble(), handler.assemble()
        cpu.load_program(program)
        cpu.load_program(hprog)
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.hfi.read_cause_msr() is FaultCause.INT80
        assert cpu.regs.rip >= 0x40_8000

    def test_syscall_without_kernel_still_charged(self, params):
        cpu, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.mov(Reg.RAX, Imm(39))
        asm.syscall()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base)
        assert result.stats.cycles >= params.syscall_cycles


class TestXsaveXrstor:
    def test_roundtrip_restores_registers(self, params):
        cpu, space, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.mov(Reg.RBX, Imm(0x1111))
        asm.xsave(Mem(disp=DATA + 0x100))
        asm.mov(Reg.RBX, Imm(0x2222))
        asm.xrstor(Mem(disp=DATA + 0x100))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        assert cpu.regs.read(Reg.RBX) == 0x1111

    def test_xrstor_in_native_sandbox_faults(self, params):
        cpu, space, *_ = machine(params)
        code = ImplicitCodeRegion.covering(CODE, 1 << 16)
        space.write_bytes(DESC, encode_region(code))
        space.write_bytes(DESC + 24, encode_sandbox(
            SandboxFlags(is_hybrid=False)))
        asm = Assembler(base=CODE)
        asm.xsave(Mem(disp=DATA + 0x200))
        asm.mov(Reg.RDI, Imm(DESC))
        asm.hfi_set_region(0, Reg.RDI)
        asm.mov(Reg.RDI, Imm(DESC + 24))
        asm.hfi_enter(Reg.RDI)
        asm.xrstor(Mem(disp=DATA + 0x200))   # traps (§3.3.3)
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base)
        assert result.reason == "fault"
        assert result.fault.hfi_cause is FaultCause.XRSTOR_IN_SANDBOX

    def test_xrstor_from_bad_area_faults(self, params):
        cpu, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.xrstor(Mem(disp=DATA + 0x300))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "fault"


class TestHfiGetRegion:
    def test_get_region_writes_descriptor_back(self, params):
        cpu, space, *_ = machine(params)
        region = ExplicitDataRegion(0x10_0000, 1 << 16,
                                    permission_read=True,
                                    permission_write=True)
        space.write_bytes(DESC, encode_region(region))
        asm = Assembler(base=CODE)
        asm.mov(Reg.RDI, Imm(DESC))
        asm.hfi_set_region(6, Reg.RDI)
        asm.mov(Reg.RSI, Imm(DESC + 64))
        asm.hfi_get_region(6, Reg.RSI)
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        got = decode_region(space.read_bytes(DESC + 64, 24))
        assert got == region

    def test_clear_region_on_cpu(self, params):
        cpu, space, *_ = machine(params)
        region = ExplicitDataRegion(0x10_0000, 1 << 16,
                                    permission_read=True)
        space.write_bytes(DESC, encode_region(region))
        asm = Assembler(base=CODE)
        asm.mov(Reg.RDI, Imm(DESC))
        asm.hfi_set_region(6, Reg.RDI)
        asm.hfi_clear_region(6)
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        assert cpu.hfi.regs.get(6) is None

    def test_clear_all_on_cpu(self, params):
        cpu, space, *_ = machine(params)
        region = ExplicitDataRegion(0x10_0000, 1 << 16,
                                    permission_read=True)
        space.write_bytes(DESC, encode_region(region))
        asm = Assembler(base=CODE)
        asm.mov(Reg.RDI, Imm(DESC))
        asm.hfi_set_region(6, Reg.RDI)
        asm.hfi_clear_all_regions()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        assert all(cpu.hfi.regs.get(i) is None for i in range(10))


class TestFaultResumption:
    def test_runtime_can_resume_after_fault(self, params):
        """Models a SIGSEGV handler that recovers control (§3.3.2)."""
        cpu, space, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.mov(Reg.RBX, Imm(0x66_0000))    # unmapped
        asm.mov(Reg.RAX, Mem(base=Reg.RBX))
        asm.hlt()
        asm.label("recover")
        asm.mov(Reg.RAX, Imm(0))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.fault_resume_address = program.labels["recover"]
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.stats.page_faults == 1
        assert cpu.regs.rip >= program.labels["recover"]


class TestRobustness:
    def test_every_opcode_has_a_decoder(self):
        """Predecode has no fallback: every opcode needs a builder."""
        assert set(DECODERS) == set(Opcode)

    def test_division_by_zero_is_a_fault(self, params):
        cpu, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.mov(Reg.RAX, Imm(10))
        asm.mov(Reg.RBX, Imm(0))
        asm.idiv(Reg.RAX, Reg.RBX)
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "fault"

    def test_run_off_the_end_reports_no_instruction(self, params):
        cpu, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.nop()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "no_instruction"

    def test_instruction_limit(self, params):
        cpu, *_ = machine(params)
        asm = Assembler(base=CODE)
        asm.label("spin")
        asm.jmp("spin")
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base, max_instructions=100)
        assert result.reason == "instruction_limit"