"""Staged execution engine: predecode cache, journal, and run-loop edges.

These pin down behaviours introduced by the split of the Cpu monolith
into decode / exec / timing / journal stages:

* the ``max_instructions`` boundary resolves a pending halt or fault
  instead of silently reporting ``instruction_limit``;
* a core's code is the map of decoded ops its loads made: the latest
  load at an address wins, and an unload drops an address only while
  it still maps the program's own op (held to a plain model);
* speculation squashes via the undo journal — the register file and
  HFI state keep their object identity, and ``copy.deepcopy`` never
  runs on the speculation or snapshot paths;
* the verify differential's cells are the staged ``Cpu`` under each
  timing model and the reference oracle, each exposing the state the
  differential digests.
"""

import copy
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace, Prot
from repro.params import MachineParams
from repro.telemetry import Telemetry
from repro.telemetry.stats import DecodeCacheStats
from repro.verify.fuzz_isa import CELLS
from repro.verify.reference import ReferenceCpu

UNMAPPED = 0x66_0000


@pytest.fixture
def params():
    return MachineParams()


def make_cpu(params):
    mem = AddressSpace(params)
    cpu = Cpu(params, memory=mem)
    mem.mmap(1 << 16, Prot.rw(), addr=0x10_0000)
    stack = mem.mmap(1 << 16, Prot.rw(), addr=0x7F_0000)
    cpu.regs.write(Reg.RSP, stack + (1 << 16) - 64)
    return cpu


class TestInstructionLimitEdge:
    """The budget boundary must not swallow the last instruction's fate."""

    def test_halt_on_final_instruction(self, params):
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.mov(Reg.RBX, Imm(2))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base, max_instructions=3)
        assert result.reason == "hlt"

    def test_fault_on_final_instruction(self, params):
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.mov(Reg.RBX, Imm(2))
        asm.mov(Reg.RCX, Mem(disp=UNMAPPED))
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base, max_instructions=3)
        assert result.reason == "fault"
        assert result.fault is not None
        assert result.fault.kind == "page"
        assert result.fault.addr == UNMAPPED

    def test_fault_on_final_instruction_with_resume(self, params):
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.mov(Reg.RCX, Mem(disp=UNMAPPED))
        asm.label("recover")
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.fault_resume_address = program.labels["recover"]
        result = cpu.run(program.base, max_instructions=2)
        # The fault resolved into a redirect, but the budget is spent:
        # the caller sees the limit with rip already at the handler.
        assert result.reason == "instruction_limit"
        assert result.rip == program.labels["recover"]

    def test_limit_without_pending_event(self, params):
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.mov(Reg.RBX, Imm(2))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base, max_instructions=2)
        assert result.reason == "instruction_limit"
        assert cpu.regs.read(Reg.RBX) == 2


class TestPredecodeCache:
    def test_program_predecoded_once(self, params):
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(7))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        stats = cpu.decode_stats()
        assert stats.predecoded == len(program.instructions)
        assert stats.cached_ops == len(program.instructions)
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.decode_stats() == stats

    def test_load_over_decoded_code_replaces_it(self, params):
        """A whole run through code loaded over another program's (the
        model property below runs one instruction at a time)."""
        cpu = make_cpu(params)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.hlt()
        first = asm.assemble()
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(2))
        asm.add(Reg.RAX, Imm(3))   # lands where first's hlt was
        asm.hlt()                  # a fresh address
        second = asm.assemble()
        cpu.load_program(first)
        assert cpu.run(first.base).reason == "hlt"

        cpu.load_program(second)
        assert cpu.run(second.base).reason == "hlt"
        assert cpu.regs.read(Reg.RAX) == 5

        cpu.unload_program(first)
        assert cpu.decode_stats().cached_ops == len(second.instructions)
        cpu.regs.write(Reg.RAX, 0)
        assert cpu.run(second.base).reason == "hlt"
        assert cpu.regs.read(Reg.RAX) == 5

    def test_shared_program_reuses_decode_cache(self, params):
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(3))
        asm.hlt()
        program = asm.assemble()
        cpu_a = make_cpu(params)
        cpu_b = make_cpu(params)
        cpu_a.load_program(program)
        cpu_b.load_program(program)
        base = program.base
        assert cpu_a._decoded[base] is cpu_b._decoded[base]
        assert cpu_a.run(base).reason == "hlt"
        assert cpu_b.run(base).reason == "hlt"
        assert cpu_a.regs.read(Reg.RAX) == 3
        assert cpu_b.regs.read(Reg.RAX) == 3


# ----------------------------------------------------------------------
# the one code map, held to a plain model
# ----------------------------------------------------------------------
CODE_BASE = 0x1000


@st.composite
def load_unload_runs(draw):
    """2-4 programs of 1-4 ``mov rax, tag`` at overlapping bases (each
    tag names its program and slot), and a sequence of loads (True)
    and unloads (False).  Short and long immediates give the programs
    different layouts, so their instructions coincide at some
    addresses and interleave at others."""
    programs = []
    for p in range(draw(st.integers(2, 4))):
        asm = Assembler(base=CODE_BASE + draw(st.integers(0, 24)))
        for i in range(draw(st.integers(1, 4))):
            tag = 1 + 8 * p + i
            asm.mov(Reg.RAX, Imm(tag if draw(st.booleans()) else tag << 20))
        programs.append(asm.assemble())
    steps = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, len(programs) - 1)),
        min_size=1, max_size=12))
    return programs, steps


@given(case=load_unload_runs())
@settings(max_examples=60, deadline=None)
def test_code_map_matches_model(case):
    programs, steps = case
    cpu = Cpu(MachineParams())
    model = {}                      # addr -> the Instruction mapped there
    predecoded = 0
    end = max(program.base + program.size for program in programs)
    for load, p in steps:
        program = programs[p]
        if load:
            cpu.load_program(program)
            predecoded += len(program)
            for ins in program.instructions:
                model[ins.addr] = ins
        else:
            cpu.unload_program(program)
            for ins in program.instructions:
                if model.get(ins.addr) is ins:
                    del model[ins.addr]

        assert cpu._decoded.keys() == model.keys()
        assert all(cpu._decoded[addr].ins is ins
                   for addr, ins in model.items())
        assert cpu.decode_stats() == DecodeCacheStats(
            component="decode", predecoded=predecoded,
            cached_ops=len(model))
        for addr in range(CODE_BASE - 1, end + 1):
            cpu.regs.write(Reg.RAX, 0)
            result = cpu.run(addr, max_instructions=1)
            ins = model.get(addr)
            if ins is None:
                assert (result.reason, result.rip) == ("no_instruction",
                                                       addr)
            else:
                assert (result.reason, result.rip) == (
                    "instruction_limit", addr + ins.length)
                assert cpu.regs.read(Reg.RAX) == ins.operands[1].value


def _mispredicting_program():
    """A counted loop: the backward branch mispredicts at loop exit."""
    asm = Assembler()
    asm.mov(Reg.RAX, Imm(0))
    asm.mov(Reg.RCX, Imm(0))
    asm.label("loop")
    asm.add(Reg.RAX, Reg.RCX)
    asm.inc(Reg.RCX)
    asm.cmp(Reg.RCX, Imm(50))
    asm.jne("loop")
    asm.hlt()
    return asm.assemble()


class TestJournaledSpeculation:
    def test_state_identity_survives_speculation(self, params):
        cpu = make_cpu(params)
        program = _mispredicting_program()
        cpu.load_program(program)
        regs_id = id(cpu.regs)
        gpr_id = id(cpu.regs.regs)
        hfi_id = id(cpu.hfi)
        hfi_regs_id = id(cpu.hfi.regs)
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.stats.speculative_instructions > 0
        assert cpu.regs.read(Reg.RAX) == sum(range(50))
        assert id(cpu.regs) == regs_id
        assert id(cpu.regs.regs) == gpr_id
        assert id(cpu.hfi) == hfi_id
        assert id(cpu.hfi.regs) == hfi_regs_id

    def test_journal_stats_track_windows(self, params):
        cpu = make_cpu(params)
        program = _mispredicting_program()
        cpu.load_program(program)
        cpu.run(program.base)
        stats = cpu._journal.stats()
        assert stats.windows >= 1
        assert stats.rollbacks == stats.windows

    def test_no_deepcopy_during_speculation(self, params):
        cpu = make_cpu(params)
        program = _mispredicting_program()
        cpu.load_program(program)
        real_deepcopy = copy.deepcopy
        with unittest.mock.patch("copy.deepcopy",
                                 side_effect=real_deepcopy) as spy:
            result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.stats.speculative_instructions > 0
        assert spy.call_count == 0

    def test_hfi_snapshot_restore_keeps_identity(self, params):
        cpu = make_cpu(params)
        bank = cpu.hfi.snapshot()
        regs_id = id(cpu.hfi.regs)
        cpu.hfi.regs.cause_msr = cpu.hfi.regs.cause_msr  # touch, no-op
        cpu.hfi.restore(bank)
        assert id(cpu.hfi.regs) == regs_id


class TestTelemetrySurface:
    def test_decode_and_journal_components_registered(self, params):
        tel = Telemetry()
        mem = AddressSpace(params)
        cpu = Cpu(params, memory=mem, telemetry=tel)
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(9))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        cpu.run(program.base)
        snap = tel.snapshot()
        assert {"decode", "journal"} <= set(snap["components"])
        decode = snap["components"]["decode"]
        assert decode["predecoded"] == len(program.instructions)
        assert decode["cached_ops"] == len(program.instructions)
        journal = snap["components"]["journal"]
        assert journal["windows"] == journal["rollbacks"]


class TestBackendApi:
    """The verify differential's cells, built directly."""

    def test_staged_engine_is_the_cpu(self, params):
        for name in ("staged/inorder", "staged/ooo"):
            cpu = CELLS[name](params)
            assert type(cpu) is Cpu
            assert cpu.timing_model == name.split("/")[1]

    def test_reference_engine_is_the_oracle(self, params):
        assert type(CELLS["reference/inorder"](params)) is ReferenceCpu

    def test_every_engine_conforms(self, params):
        """Each cell takes an address space and exposes the state and
        the program lifecycle the differential uses."""
        space = AddressSpace(params)
        for make in CELLS.values():
            cpu = make(params, memory=space)
            assert cpu.mem is space
            for name in ("regs", "hfi", "stats", "load_program", "run"):
                assert hasattr(cpu, name), name
