"""Timing-backend layer: protocol conformance and the OoO scoreboard.

Pins down the pluggable timing contract introduced with the
:class:`~repro.cpu.timing.TimingBackend` protocol:

* every named model constructs through :func:`create_timing` and
  conforms to the protocol; unknown names are rejected everywhere a
  timing name is accepted;
* timing models never change architecture — registers, memory, fault
  behavior, and serialization counters are bit-identical across
  models; only ``cycles`` moves;
* the out-of-order backend exploits ILP (independent ALU chains
  finish faster than in-order; dependent chains do not), hides the
  hmov bounds check under the access latency (§4.2), pays for pipeline
  drains (§3.4), and keeps its register, ROB, IQ and LSQ bookkeeping
  exact under the structural audit, which flags each planted fault.
"""

import pytest

from repro.cpu import Cpu
from repro.cpu.ooo import OutOfOrderTiming
from repro.cpu.timing import (
    TIMING_MODELS,
    InOrderTiming,
    TimingBackend,
    create_timing,
    default_timing,
    set_default_timing,
)
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace, Prot
from repro.params import MachineParams
from repro.verify.fuzz_isa import CELLS, run_differential

HEAP = 0x10_0000


@pytest.fixture
def params():
    return MachineParams()


def make_cpu(timing="inorder", params=None):
    params = params or MachineParams()
    mem = AddressSpace(params)
    cpu = Cpu(params, memory=mem, timing=timing)
    mem.mmap(1 << 16, Prot.rw(), addr=HEAP)
    stack = mem.mmap(1 << 16, Prot.rw(), addr=0x7F_0000)
    cpu.regs.write(Reg.RSP, stack + (1 << 16) - 64)
    return cpu


def run_asm(cpu, asm):
    program = asm.assemble()
    cpu.load_program(program)
    result = cpu.run(program.base, max_instructions=1_000_000)
    assert result.reason == "hlt", result.reason
    return result


def _parallel_alu(n=64):
    """Four independent accumulator chains: ILP a wide machine can eat."""
    asm = Assembler()
    for reg in (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX):
        asm.mov(reg, Imm(1))
    asm.mov(Reg.R8, Imm(n))
    asm.label("loop")
    asm.add(Reg.RAX, Imm(3))
    asm.add(Reg.RBX, Imm(5))
    asm.add(Reg.RCX, Imm(7))
    asm.add(Reg.RDX, Imm(11))
    asm.dec(Reg.R8)
    asm.jne("loop")
    asm.hlt()
    return asm


def _dependent_chain(n=64):
    """One serial dependence chain per iteration: no ILP to mine.  The
    loop shape matches :func:`_parallel_alu` (same body size, warm
    I-cache) so the only difference the timing models see is the
    dependence structure."""
    asm = Assembler()
    asm.mov(Reg.RAX, Imm(1))
    asm.mov(Reg.R8, Imm(n))
    asm.label("loop")
    asm.add(Reg.RAX, Reg.RAX)
    asm.and_(Reg.RAX, Imm(0xFFFF))
    asm.add(Reg.RAX, Reg.RAX)
    asm.and_(Reg.RAX, Imm(0xFFFF))
    asm.dec(Reg.R8)
    asm.jne("loop")
    asm.hlt()
    return asm


def _arch_digest(cpu):
    f = cpu.regs.flags
    return {
        "regs": dict(cpu.regs.regs),
        "flags": (f.zf, f.sf, f.cf, f.of),
        "rip": cpu.regs.rip,
        "instructions": cpu.stats.instructions,
        "loads": cpu.stats.loads,
        "stores": cpu.stats.stores,
        "serializations": cpu.stats.serializations,
    }


class TestTimingApi:
    def test_every_model_conforms(self):
        for name in TIMING_MODELS:
            cpu = make_cpu(timing=name)
            assert isinstance(cpu.timing, TimingBackend)
            assert cpu.timing.name == name
            assert cpu.timing_model == name

    def test_unknown_names_rejected(self, params):
        with pytest.raises(ValueError):
            make_cpu(timing="cycle-accurate")
        with pytest.raises(ValueError):
            create_timing("speculative", Cpu(params))
        with pytest.raises(ValueError):
            set_default_timing("fast")

    def test_inorder_commits_inline_ooo_does_not(self):
        assert InOrderTiming.inline_commit is True
        assert OutOfOrderTiming.inline_commit is False

    def test_default_timing_scopes_construction(self):
        with default_timing("ooo"):
            inner = Cpu()
            assert inner.timing_model == "ooo"
        assert Cpu().timing_model == "inorder"

    def test_matrix_skips_reference_timing_cross(self):
        """The staged engine runs under every timing model; the oracle
        has none, so it is one cell."""
        assert list(CELLS) == ["staged/inorder", "staged/ooo",
                               "reference/inorder"]

    def test_phys_regs_floor_enforced(self, params):
        tight = params.with_overrides(ooo_phys_regs=17)
        with pytest.raises(ValueError):
            Cpu(tight, timing="ooo")

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["ooo_width", "ooo_rob_depth",
                                       "ooo_iq_depth", "ooo_lsq_depth"])
    def test_machine_shape_floor_enforced(self, params, field, value):
        """A shape below 1 is rejected, not simulated as width/depth 1
        under a label that says otherwise."""
        with pytest.raises(ValueError, match=field):
            Cpu(params.with_overrides(**{field: value}), timing="ooo")


class TestArchitecturalParity:
    def test_identical_state_only_cycles_differ(self):
        digests, cycles = {}, {}
        for timing in TIMING_MODELS:
            cpu = make_cpu(timing=timing)
            asm = _parallel_alu()
            asm_mem = asm  # one program: ALU loop then memory traffic
            run_asm(cpu, asm_mem)
            digests[timing] = _arch_digest(cpu)
            cycles[timing] = cpu.stats.cycles
        assert digests["inorder"] == digests["ooo"]
        assert cycles["ooo"] < cycles["inorder"]

    def test_fuzz_matrix_engine_x_timing(self):
        for seed in (11, 42, 1337):
            outcome = run_differential(seed)
            assert outcome.divergences == [], (seed, outcome.divergences)
            assert outcome.violations == [], (seed, outcome.violations)

    def test_precise_exceptions(self, params):
        """A faulting access retires with the same architectural state
        under both models: the OoO window drains before delivery."""
        digests = {}
        for timing in TIMING_MODELS:
            cpu = make_cpu(timing=timing, params=params)
            asm = Assembler()
            asm.mov(Reg.RAX, Imm(7))
            asm.add(Reg.RAX, Imm(1))
            asm.mov(Reg.RBX, Mem(base=Reg.RCX, disp=0x66_0000))
            asm.hlt()
            program = asm.assemble()
            cpu.load_program(program)
            result = cpu.run(program.base, max_instructions=1000)
            assert result.reason == "fault"
            digests[timing] = _arch_digest(cpu)
            if timing == "ooo":
                assert cpu.timing.window_occupancy == 0
                assert cpu.timing.audit() == []
        assert digests["inorder"] == digests["ooo"]


class TestOooMicroarchitecture:
    def test_parallel_chains_beat_inorder(self):
        inorder = make_cpu("inorder")
        ooo = make_cpu("ooo")
        run_asm(inorder, _parallel_alu())
        run_asm(ooo, _parallel_alu())
        assert ooo.stats.cycles < inorder.stats.cycles

    def test_dependent_chain_defeats_the_wide_machine(self):
        """Serial dependences bound the OoO speedup: the dependent
        chain's advantage comes only from fetch overlap, far below the
        machine width."""
        results = {}
        for builder in (_parallel_alu, _dependent_chain):
            inorder = make_cpu("inorder")
            ooo = make_cpu("ooo")
            run_asm(inorder, builder())
            run_asm(ooo, builder())
            results[builder.__name__] = (inorder.stats.cycles
                                         / ooo.stats.cycles)
        assert results["_parallel_alu"] > results["_dependent_chain"]

    def test_width_one_is_slowest(self, params):
        cycles = {}
        for width in (1, 4):
            cpu = make_cpu("ooo",
                           params=params.with_overrides(ooo_width=width))
            run_asm(cpu, _parallel_alu())
            cycles[width] = cpu.stats.cycles
        assert cycles[4] < cycles[1]

    def test_hmov_check_hides_under_access_latency(self, params):
        """§4.2: a 3-cycle bounds check is free under OoO (it runs in
        parallel with the dTLB/L1D path) but serial under in-order."""
        def transition_cycles(timing, extra):
            from repro.core import ImplicitCodeRegion
            from repro.core.regions import ExplicitDataRegion

            cpu = make_cpu(
                timing, params=params.with_overrides(
                    hmov_extra_cycles=extra))
            asm = Assembler()
            asm.mov(Reg.RCX, Imm(64))
            asm.mov(Reg.R8, Imm(100))
            asm.label("loop")
            asm.hmov(0, Reg.RDX, Mem(index=Reg.RCX, scale=1, disp=0))
            asm.hmov(0, Mem(index=Reg.RCX, scale=1, disp=8), Reg.RDX)
            asm.dec(Reg.R8)
            asm.jne("loop")
            asm.hlt()
            program = asm.assemble()
            cpu.load_program(program)
            cpu.hfi.regs.code[0] = ImplicitCodeRegion.covering(
                program.base & ~0xFFFF, 1 << 16)
            cpu.hfi.regs.explicit[0] = ExplicitDataRegion(
                HEAP, 1 << 16, permission_read=True,
                permission_write=True)
            cpu.hfi.regs.enabled = True
            result = cpu.run(program.base, max_instructions=10_000)
            assert result.reason == "hlt", result.reason
            return cpu.stats.cycles

        assert transition_cycles("ooo", 3) == transition_cycles("ooo", 0)
        assert (transition_cycles("inorder", 3)
                > transition_cycles("inorder", 0))

    def test_serialization_drains_window(self):
        """cpuid in a loop forces the front end to wait for retirement;
        the serialization count stays architectural (identical across
        models) while OoO pays drain cycles."""
        counts = {}
        for timing in TIMING_MODELS:
            cpu = make_cpu(timing)
            asm = Assembler()
            asm.mov(Reg.R8, Imm(10))
            asm.label("loop")
            asm.add(Reg.RAX, Imm(1))
            asm.cpuid()
            asm.dec(Reg.R8)
            asm.jne("loop")
            asm.hlt()
            run_asm(cpu, asm)
            counts[timing] = cpu.stats.serializations
            if timing == "ooo":
                assert cpu.timing.ooo_stats().drains >= 10
        assert counts["inorder"] == counts["ooo"] == 10

    def test_drain_pending_empties_window_and_audit_clean(self):
        cpu = make_cpu("ooo")
        run_asm(cpu, _parallel_alu())
        assert cpu.timing.audit() == []
        before = cpu.timing.ooo_stats().drains
        cpu.timing.drain_pending()
        assert cpu.timing.window_occupancy == 0
        assert cpu.timing.ooo_stats().drains == before + 1
        assert cpu.timing.audit() == []

    def test_audit_flags_a_leaked_register(self):
        cpu = make_cpu("ooo")
        run_asm(cpu, _parallel_alu())
        cpu.timing._free -= 1
        assert any("leak" in p for p in cpu.timing.audit())

    def test_audit_flags_a_negative_free_count(self):
        """Every register accounted for, but more held than exist."""
        cpu = make_cpu("ooo")
        run_asm(cpu, _parallel_alu())
        timing = cpu.timing
        timing.drain_pending()
        timing._rob.append((0, timing._free + 1))
        timing._free = -1
        assert timing.audit() == ["free register count is -1"]

    @pytest.mark.parametrize("queue, entry", [("_rob", (0, 0)),
                                              ("_iq", 0), ("_lsq", 0)])
    def test_audit_flags_an_overfull_queue(self, params, queue, entry):
        cpu = make_cpu("ooo", params=params.with_overrides(
            ooo_rob_depth=4, ooo_iq_depth=4, ooo_lsq_depth=4))
        run_asm(cpu, _parallel_alu())
        getattr(cpu.timing, queue).extend([entry] * 5)
        assert any("depth 4" in p for p in cpu.timing.audit())

    def test_audit_flags_an_op_left_in_flight(self):
        cpu = make_cpu("ooo")
        run_asm(cpu, _parallel_alu())
        cpu.timing.issue(next(iter(cpu._decoded.values())), 1)
        assert any("in flight" in p for p in cpu.timing.audit())
        cpu.timing.drain_pending()
        assert cpu.timing.audit() == []

    def test_tiny_rob_stalls_are_attributed(self, params):
        cpu = make_cpu("ooo", params=params.with_overrides(
            ooo_rob_depth=4, ooo_width=4))
        run_asm(cpu, _parallel_alu())
        stats = cpu.timing.ooo_stats()
        assert stats.peak_inflight <= 4
        assert stats.rob_stalls > 0

    def test_ooo_stats_registered_in_telemetry(self):
        from repro.telemetry import Telemetry

        cpu = make_cpu("ooo")
        cpu.attach_telemetry(Telemetry())
        run_asm(cpu, _parallel_alu())
        snapshot = cpu.telemetry.snapshot()
        assert "ooo" in snapshot["components"]
        ooo = snapshot["components"]["ooo"]
        assert ooo["retired"] == cpu.stats.instructions

    def test_mispredict_redirects_fetch(self):
        cpu = make_cpu("ooo")
        asm = Assembler()
        asm.mov(Reg.R8, Imm(50))
        asm.mov(Reg.RAX, Imm(0))
        asm.label("loop")
        asm.add(Reg.RAX, Imm(1))
        asm.dec(Reg.R8)
        asm.jne("loop")
        asm.hlt()
        run_asm(cpu, asm)
        stats = cpu.timing.ooo_stats()
        assert stats.redirects == cpu.stats.mispredicts
        assert stats.redirects > 0
