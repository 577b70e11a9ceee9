"""Speculative-execution semantics of the CPU model (paper §4.1).

These tests pin down the properties the security evaluation rests on:
wrong-path work is architecturally invisible, but cache state persists
— except when HFI refuses the access before the fill.

Victims use data-dependent addresses (the real Spectre gadget shape):
training runs exercise the path with in-bounds indices, then the
attack run flips the index out of bounds so the interesting access
happens *only* on the mispredicted path.
"""

import pytest

from repro.core import ImplicitCodeRegion, ImplicitDataRegion, SandboxFlags
from repro.core.encoding import encode_region, encode_sandbox
from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace, Prot
from repro.params import MachineParams

CODE = 0x40_0000
DATA = 0x10_0000
FAR = 0x20_0000        # mapped, outside any HFI region
PROBE = 0x28_0000
DESC = 0x0E_0000

#: x such that DATA + x*8 == FAR
OOB_X = (FAR - DATA) // 8


@pytest.fixture
def params():
    return MachineParams()


def fresh_cpu(params):
    space = AddressSpace(params)
    cpu = Cpu(params, memory=space)
    space.mmap(1 << 16, Prot.rw(), addr=DATA)
    space.mmap(1 << 20, Prot.rw(), addr=FAR)
    space.mmap(1 << 16, Prot.rw(), addr=0x30_0000)  # stack
    space.mmap(1 << 12, Prot.rw(), addr=DESC)
    cpu.regs.write(Reg.RSP, 0x30_0000 + (1 << 16) - 64)
    return cpu, space


def train_flush_attack(cpu, program, oob_x=OOB_X, flush=(FAR,)):
    for value in (0, 1, 2, 3):
        cpu.mem.write(DATA, value, 8)
        cpu.run(program.base, max_instructions=80)
    for addr in flush:
        cpu.caches.flush_line(addr)
    cpu.mem.write(DATA, oob_x, 8)
    cpu.run(program.base, max_instructions=80)


def bounds_check_prologue(asm):
    """mov rbx, [DATA]; cmp rbx, 4; jae skip"""
    asm.mov(Reg.RBX, Mem(disp=DATA))
    asm.cmp(Reg.RBX, Imm(4))
    asm.jae("skip")


class TestWrongPathInvisibility:
    def test_wrong_path_load_squashed_but_cache_fill_persists(
            self, params):
        cpu, space = fresh_cpu(params)
        asm = Assembler(base=CODE)
        bounds_check_prologue(asm)
        asm.mov(Reg.R8, Mem(base=Reg.RBX, scale=1, index=Reg.RBX,
                            disp=0))  # placeholder, replaced below
        asm.label("skip")
        asm.hlt()
        program = asm.assemble()
        # r8 = [DATA + rbx*8]
        program.instructions[3].operands = (
            Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        cpu.load_program(program)
        cpu.regs.write(Reg.R8, 0xDEAD)
        space.write(FAR, 0x1234, 8)
        train_flush_attack(cpu, program)
        # architectural: branch taken, load never committed
        assert cpu.regs.read(Reg.R8) != 0x1234
        # microarchitectural: the line was filled on the wrong path
        assert cpu.caches.l1d.lookup(FAR)
        assert cpu.stats.speculative_instructions > 0

    def test_wrong_path_store_never_commits(self, params):
        cpu, space = fresh_cpu(params)
        asm = Assembler(base=CODE)
        bounds_check_prologue(asm)
        asm.mov(Reg.RCX, Imm(7))
        asm.mov(Mem(index=Reg.RBX, scale=8, disp=DATA), Reg.RCX)
        asm.label("skip")
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        # the speculative store targeted FAR; memory must be untouched
        assert space.read(FAR) == 0
        # while the training stores (in-bounds path) did commit
        assert space.read(DATA + 3 * 8) == 7

    def test_speculative_store_to_load_forwarding(self, params):
        """A wrong-path load observes a wrong-path store through the
        window's page shadow, and transmits it via the cache."""
        cpu, space = fresh_cpu(params)
        oob_x = OOB_X + 0x41            # low byte 0x41 -> slot 65
        asm = Assembler(base=CODE)
        bounds_check_prologue(asm)
        asm.mov(Mem(index=Reg.RBX, scale=8, disp=DATA), Reg.RBX)
        asm.mov(Reg.RDX, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.and_(Reg.RDX, Imm(0xFF))
        asm.shl(Reg.RDX, Imm(6))
        asm.mov(Reg.RSI, Mem(index=Reg.RDX, scale=1, disp=PROBE))
        asm.label("skip")
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        flush = [PROBE + slot * 64 for slot in range(256)]
        train_flush_attack(cpu, program, oob_x=oob_x, flush=flush)
        # forwarding: rdx got oob_x's low byte from the page shadow
        assert cpu.caches.l1d.lookup(PROBE + 0x41 * 64)
        # without forwarding it would have read 0 from memory
        assert not cpu.caches.l1d.lookup(PROBE)
        # and the store itself never committed
        assert space.read(DATA + oob_x * 8, 8) == 0


def wrong_path_program(body):
    """``cmp rax, rax; je done``: the branch is taken, and the PHT's
    first prediction is not-taken, so ``body`` (then a ``hlt``, which
    squashes) runs only on the wrong path."""
    asm = Assembler(base=CODE)
    asm.cmp(Reg.RAX, Reg.RAX)
    asm.je("done")
    body(asm)
    asm.hlt()
    asm.label("done")
    asm.hlt()
    return asm.assemble()


class WrongPathSpy:
    """A tracer that keeps the GPRs and flags as each wrong-path
    instruction is fetched, so its last entry is the state the whole
    wrong path left behind."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.seen = []

    def record(self, addr, ins, hfi_enabled, speculative=False):
        if speculative:
            regs = self.cpu.regs
            f = regs.flags
            self.seen.append((dict(regs.regs), (f.zf, f.sf, f.cf, f.of)))


def run_wrong_path(cpu, body):
    """Run ``body`` on one wrong path; return its final GPRs and flags."""
    program = wrong_path_program(body)
    cpu.load_program(program)
    spy = WrongPathSpy(cpu)
    cpu.tracer = spy
    result = cpu.run(program.base, max_instructions=80)
    assert result.reason == "hlt"
    assert cpu.stats.mispredicts == 1
    assert len(spy.seen) == len(program.instructions) - 3
    return spy.seen[-1]


class TestWrongPathState:
    """Wrong-path stores forward to wrong-path loads at any size and
    alignment, and squash restores every register and byte."""

    def test_byte_store_merges_into_a_committed_word(self, params):
        cpu, space = fresh_cpu(params)
        space.write(DATA + 8, 0x1122_3344_5566_7788, 8)

        def body(asm):
            asm.mov(Reg.RCX, Imm(0xAB))
            asm.mov(Mem(disp=DATA + 11, size=1), Reg.RCX)
            asm.mov(Reg.RDX, Mem(disp=DATA + 8))
        regs, _ = run_wrong_path(cpu, body)
        assert regs[Reg.RDX] == 0x1122_3344_AB66_7788
        assert space.read(DATA + 8, 8) == 0x1122_3344_5566_7788
        assert cpu.regs.read(Reg.RDX) == 0

    def test_store_and_load_across_a_page_boundary(self, params):
        cpu, space = fresh_cpu(params)
        edge = DATA + 0x1000
        space.write(edge + 5, 0xEE, 1)
        present = space.present_pages

        def body(asm):
            asm.mov(Reg.RCX, Imm(0x0102_0304_0506_0708))
            asm.mov(Mem(disp=edge - 3), Reg.RCX)
            asm.mov(Reg.RDX, Mem(disp=edge - 3))
            asm.mov(Reg.RSI, Mem(disp=edge - 2))   # 7 stored, 1 not
        regs, _ = run_wrong_path(cpu, body)
        assert regs[Reg.RDX] == 0x0102_0304_0506_0708
        assert regs[Reg.RSI] == 0xEE01_0203_0405_0607
        assert space.read(edge - 2, 8) == 0xEE << 56
        assert space.present_pages == present

    def test_store_to_a_never_written_page(self, params):
        cpu, space = fresh_cpu(params)
        fresh = DATA + 0x5000
        present = space.present_pages

        def body(asm):
            asm.mov(Reg.RCX, Imm(0x5A5A))
            asm.mov(Mem(disp=fresh + 16), Reg.RCX)
            asm.mov(Reg.RDX, Mem(disp=fresh + 16))
            asm.mov(Reg.RSI, Mem(disp=fresh + 24))
        regs, _ = run_wrong_path(cpu, body)
        assert (regs[Reg.RDX], regs[Reg.RSI]) == (0x5A5A, 0)
        assert space.present_pages == present
        assert space.read(fresh + 16) == 0
        assert space.present_pages == present

    def test_every_register_and_flag_restored(self, params):
        cpu, _ = fresh_cpu(params)
        committed = {reg: 0x100 + i for i, reg in enumerate(Reg)}
        for reg, value in committed.items():
            cpu.regs.write(reg, value)
        gprs = cpu.regs.regs

        def body(asm):
            for i, reg in enumerate(Reg):
                asm.mov(reg, Imm(0xF00 + i))
            asm.mov(Reg.RAX, Imm((1 << 63) - 1))
            asm.mov(Reg.RBX, Imm((1 << 64) - 1))
            asm.cmp(Reg.RAX, Reg.RBX)        # zf=0 sf=1 cf=1 of=1
        regs, flags = run_wrong_path(cpu, body)
        assert all(regs[reg] != committed[reg] for reg in Reg)
        assert flags == (False, True, True, True)
        assert cpu.regs.regs is gprs
        assert gprs == committed
        f = cpu.regs.flags
        assert (f.zf, f.sf, f.cf, f.of) == (True, False, False, False)


class TestSpeculationBarriers:
    def _victim(self, barrier):
        asm = Assembler(base=CODE)
        bounds_check_prologue(asm)
        if barrier == "lfence":
            asm.lfence()
        elif barrier == "cpuid":
            asm.cpuid()
        asm.mov(Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.label("skip")
        asm.hlt()
        return asm.assemble()

    @pytest.mark.parametrize("barrier", ["lfence", "cpuid"])
    def test_serializing_instruction_stops_wrong_path(self, params,
                                                      barrier):
        cpu, _ = fresh_cpu(params)
        program = self._victim(barrier)
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        assert not cpu.caches.l1d.lookup(FAR)

    def test_without_barrier_line_is_filled(self, params):
        cpu, _ = fresh_cpu(params)
        program = self._victim(None)
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        assert cpu.caches.l1d.lookup(FAR)

    def test_speculation_window_is_bounded(self, params):
        small = params.with_overrides(speculation_window=4)
        cpu, _ = fresh_cpu(small)
        asm = Assembler(base=CODE)
        bounds_check_prologue(asm)
        for _ in range(6):               # 6 nops > window of 4
            asm.nop()
        asm.mov(Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.label("skip")
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        assert not cpu.caches.l1d.lookup(FAR)


def _stage_hybrid(space, *, serialized, extra_sandbox=None):
    """Descriptors: code covers CODE block, data covers DATA only."""
    code = ImplicitCodeRegion.covering(CODE, 1 << 16)
    data = ImplicitDataRegion.covering(DATA, 1 << 16, read=True,
                                       write=True)
    space.write_bytes(DESC, encode_region(code))
    space.write_bytes(DESC + 24, encode_region(data))
    space.write_bytes(DESC + 48, encode_sandbox(SandboxFlags(
        is_hybrid=True, is_serialized=serialized)))
    if extra_sandbox is not None:
        space.write_bytes(DESC + 64, encode_sandbox(extra_sandbox))


def _enter_sequence(asm, sandbox_off=48):
    asm.mov(Reg.RDI, Imm(DESC))
    asm.hfi_set_region(0, Reg.RDI)
    asm.mov(Reg.RDI, Imm(DESC + 24))
    asm.hfi_set_region(2, Reg.RDI)
    asm.mov(Reg.RDI, Imm(DESC + sandbox_off))
    asm.hfi_enter(Reg.RDI)


class TestHfiUnderSpeculation:
    def test_hfi_blocks_speculative_oob_cache_fill(self, params):
        cpu, space = fresh_cpu(params)
        _stage_hybrid(space, serialized=True)
        asm = Assembler(base=CODE)
        _enter_sequence(asm)
        bounds_check_prologue(asm)
        asm.mov(Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.label("skip")
        asm.hfi_exit()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        assert not cpu.caches.l1d.lookup(FAR)
        assert cpu.stats.hfi_faults == 0   # the OOB was wrong-path only

    def _exit_gadget_victim(self, cpu, space, *, serialized):
        _stage_hybrid(space, serialized=serialized)
        asm = Assembler(base=CODE)
        _enter_sequence(asm)
        bounds_check_prologue(asm)
        asm.hfi_exit()                       # speculated past if unser.
        asm.mov(Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.label("skip")
        asm.hfi_exit()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        return program

    def test_unserialized_exit_lets_wrong_path_escape(self, params):
        """§3.4's motivating risk: a speculative, unserialized
        hfi_exit disables HFI on the wrong path."""
        cpu, space = fresh_cpu(params)
        program = self._exit_gadget_victim(cpu, space, serialized=False)
        train_flush_attack(cpu, program)
        assert cpu.caches.l1d.lookup(FAR)    # the attack worked

    def test_serialized_exit_blocks_the_escape(self, params):
        cpu, space = fresh_cpu(params)
        program = self._exit_gadget_victim(cpu, space, serialized=True)
        train_flush_attack(cpu, program)
        assert not cpu.caches.l1d.lookup(FAR)

    def test_switch_on_exit_keeps_protection_unserialized(self, params):
        """§4.5: with switch-on-exit, a speculative hfi_exit lands in
        the runtime's bank — still sandboxed — so the OOB faults."""
        cpu, space = fresh_cpu(params)
        _stage_hybrid(space, serialized=True, extra_sandbox=SandboxFlags(
            is_hybrid=True, switch_on_exit=True))
        asm = Assembler(base=CODE)
        _enter_sequence(asm)                  # runtime's own sandbox
        asm.mov(Reg.RDI, Imm(DESC + 64))
        asm.hfi_enter(Reg.RDI)                # child: switch-on-exit
        bounds_check_prologue(asm)
        asm.hfi_exit()                        # switches banks, stays on
        asm.mov(Reg.R8, Mem(index=Reg.RBX, scale=8, disp=DATA))
        asm.label("skip")
        asm.hfi_exit()
        asm.hfi_exit()
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        train_flush_attack(cpu, program)
        assert not cpu.caches.l1d.lookup(FAR)


class TestIndirectPrediction:
    def test_btb_wrong_target_fills_cache(self, params):
        cpu, space = fresh_cpu(params)
        asm = Assembler(base=CODE)
        asm.mov(Reg.R8, Mem(disp=DATA + 8))
        asm.jmp(Reg.R8)
        asm.label("gadget")
        asm.mov(Reg.R9, Mem(disp=FAR))
        asm.hlt()
        asm.label("benign")
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        space.write(DATA + 8, program.labels["gadget"], 8)
        cpu.run(program.base, max_instructions=20)
        cpu.run(program.base, max_instructions=20)
        cpu.caches.flush_line(FAR)
        space.write(DATA + 8, program.labels["benign"], 8)
        cpu.run(program.base, max_instructions=20)
        assert cpu.caches.l1d.lookup(FAR)    # ran speculatively only

    def test_rsb_mismatch_counts_a_mispredict(self, params):
        cpu, space = fresh_cpu(params)
        asm = Assembler(base=CODE)
        asm.call("fn")
        asm.hlt()
        asm.label("fn")
        asm.mov(Reg.RAX, Imm(0))  # patched below
        asm.mov(Mem(base=Reg.RSP), Reg.RAX)
        asm.ret()
        asm.label("elsewhere")
        asm.hlt()
        program = asm.assemble()
        patched = program.labels["elsewhere"]
        program.instructions[2].operands = (Reg.RAX, Imm(patched))
        cpu.load_program(program)
        result = cpu.run(program.base, max_instructions=20)
        assert result.reason == "hlt"
        assert cpu.regs.rip >= patched
        assert cpu.stats.mispredicts >= 1