"""Unit tests for descriptor encoding and :class:`SandboxDescriptor`:
its layout in memory, its install on :class:`HfiState`, and the
agreement between that install and the code it emits."""

import pytest

from repro.attacks.harness import CODE_BASE, DESC_BASE
from repro.attacks.spectre_btb import SpectreBtbAttack
from repro.attacks.spectre_pht import SpectrePhtAttack
from repro.core import (
    NUM_REGIONS,
    ExplicitDataRegion,
    FaultCause,
    HfiFault,
    HfiState,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    SandboxDescriptor,
    SandboxFlags,
)
from repro.core.encoding import (
    REGION_DESCRIPTOR_BYTES,
    SANDBOX_DESCRIPTOR_BYTES,
    decode_region,
    decode_sandbox,
    descriptor_cycles,
    encode_region,
    encode_sandbox,
)
from repro.cpu import Cpu
from repro.isa import Assembler
from repro.os import AddressSpace, Prot
from repro.params import MachineParams
from repro.runtime import SandboxManager, TransitionModel
from repro.wasm import HfiStrategy, NativeHfiStrategy, WasmRuntime
from repro.wasm.ir import Const, Function, Module, StoreGlobal
from repro.workloads.golden import transition_descriptor


class TestRegionEncoding:
    CASES = [
        ImplicitCodeRegion(0x40_0000, 0xFFFF, permission_exec=True),
        ImplicitCodeRegion(0x0, 0x0, permission_exec=False),
        ImplicitDataRegion(0x10_0000, 0xFFF, permission_read=True,
                           permission_write=False),
        ImplicitDataRegion(0x0, (1 << 32) - 1, permission_read=True,
                           permission_write=True),
        ExplicitDataRegion(0x7FFF_0000, 1 << 16, permission_read=True,
                           permission_write=True, is_large_region=True),
        ExplicitDataRegion(0x1234, 999, permission_read=False,
                           permission_write=True, is_large_region=False),
    ]

    @pytest.mark.parametrize("region", CASES, ids=lambda r: repr(r)[:40])
    def test_roundtrip(self, region):
        data = encode_region(region)
        assert len(data) == REGION_DESCRIPTOR_BYTES
        assert decode_region(data) == region

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            decode_region(b"\x03" + b"\x00" * 23)

    def test_not_a_region(self):
        with pytest.raises(TypeError):
            encode_region("nope")


class TestSandboxEncoding:
    @pytest.mark.parametrize("flags", [
        SandboxFlags(),
        SandboxFlags(is_hybrid=True),
        SandboxFlags(is_serialized=True),
        SandboxFlags(switch_on_exit=True),
        SandboxFlags(is_hybrid=True, is_serialized=True,
                     switch_on_exit=True),
    ])
    def test_roundtrip(self, flags):
        data = encode_sandbox(flags, exit_handler=0xCAFE_BABE)
        assert len(data) == SANDBOX_DESCRIPTOR_BYTES
        got_flags, handler = decode_sandbox(data)
        assert got_flags == flags
        assert handler == 0xCAFE_BABE


class TestHfiFacade:
    """The device interface a runtime drives: a
    :class:`SandboxDescriptor` installed on an :class:`HfiState`."""

    def _descriptor(self, hybrid=False):
        regions = [
            (0, ImplicitCodeRegion.covering(0x40_0000, 1 << 16)),
            (2, ImplicitDataRegion.covering(0x10_0000, 1 << 16,
                                            read=True, write=True)),
            (6, ExplicitDataRegion(0x10_0000, 1 << 16,
                                   permission_read=True,
                                   permission_write=True)),
        ]
        if hybrid:
            return SandboxDescriptor.hybrid(regions)
        return SandboxDescriptor.native(0x7000, regions)

    def _installed(self, hybrid=False):
        state = HfiState(MachineParams())
        self._descriptor(hybrid).install(state)
        return state

    def test_enter_charges_cycles(self):
        """install() charges what the transition model prices."""
        params = MachineParams()
        state = HfiState(params)
        cost = self._descriptor().install(state)
        assert cost == TransitionModel(params).hfi_enter_cost(
            serialized=True, regions_installed=3)
        assert state.enabled

    def test_exit_and_reenter(self):
        state = self._installed()
        outcome = state.exit()
        assert outcome.redirect_to == 0x7000
        assert not state.enabled
        state.reenter()
        assert state.enabled

    def test_native_descriptor_defaults_serialized(self):
        desc = self._descriptor()
        assert desc.flags.is_serialized
        assert not desc.flags.is_hybrid

    def test_hybrid_descriptor(self):
        desc = self._descriptor(hybrid=True)
        assert desc.flags.is_hybrid
        assert not desc.flags.is_serialized

    def test_syscall_in_native_interposed(self):
        state = self._installed()
        outcome = state.syscall_attempt(nr=2)
        assert outcome is not None
        assert outcome.redirect_to == 0x7000
        assert state.cause_msr is FaultCause.SYSCALL

    def test_syscall_in_hybrid_passes(self):
        state = self._installed(hybrid=True)
        assert state.syscall_attempt(nr=2) is None

    def test_resize_region(self):
        state = HfiState(MachineParams())
        for number, region in self._descriptor().regions:
            state.set_region(number, region)
        region, _ = state.get_region(6)
        state.set_region(6, region.resize(4 << 16))
        assert state.get_region(6)[0].bound == 4 << 16

    def test_region_update_locked_in_native(self):
        state = self._installed()
        with pytest.raises(HfiFault):
            state.set_region(2, None)

    def test_clear_all(self):
        state = HfiState(MachineParams())
        for number, region in self._descriptor().regions:
            state.set_region(number, region)
        state.clear_all_regions()
        assert state.regs.get(0) is None
        assert state.regs.get(6) is None

    def test_cycle_ledger_monotonic(self):
        """The runtime's ledger, the manager's total, grows with every
        step of a sandbox's life."""
        manager = SandboxManager(MachineParams())
        checkpoints = [manager.total_cycles]
        handle = manager.create_sandbox(heap_bytes=1 << 16, hybrid=True)
        checkpoints.append(manager.total_cycles)
        manager.invoke(handle, service_cycles=0)
        checkpoints.append(manager.total_cycles)
        manager.grow_heap(handle, 2 << 16)
        checkpoints.append(manager.total_cycles)
        manager.destroy_sandbox(handle)
        checkpoints.append(manager.total_cycles)
        assert checkpoints == sorted(set(checkpoints))


# ----------------------------------------------------------------------
# the simulated and the analytic install agree
# ----------------------------------------------------------------------
def _wasm_layout(extra_memories=()):
    runtime = WasmRuntime()
    module = Module("one-store", [Function("main", [
        Const("x", 7), StoreGlobal("result", "x")])],
        globals=["result"], memory_pages=2,
        extra_memories=list(extra_memories))
    return runtime.instantiate(module, HfiStrategy()).layout


def _hfi_case(extra_memories):
    layout = _wasm_layout(extra_memories)
    return (HfiStrategy().descriptor(layout), layout.descriptor_base,
            layout.code_base)


def _native_hfi_case():
    layout = _wasm_layout()
    return (NativeHfiStrategy().descriptor(layout),
            layout.descriptor_base, layout.code_base)


def _spectre_case(attack_cls):
    attack = attack_cls(protect_with_hfi=True)
    return attack.descriptor(), DESC_BASE, CODE_BASE


def _golden_case(serialized):
    return transition_descriptor(serialized), 0x20_0000, 0x40_0000


#: (descriptor, staging base, code address inside its code region).
CASES = {
    "hfi": lambda: _hfi_case(()),
    "hfi-multi-memory": lambda: _hfi_case((2, 2)),
    "native-hfi": _native_hfi_case,
    "spectre-pht": lambda: _spectre_case(SpectrePhtAttack),
    "spectre-btb": lambda: _spectre_case(SpectreBtbAttack),
    "golden-loop": lambda: _golden_case(True),
    "golden-loop-unserialized": lambda: _golden_case(False),
}


def _bank(state):
    regs = state.regs
    return ([regs.get(number) for number in range(NUM_REGIONS)],
            regs.flags, regs.exit_handler, regs.enabled)


def _execute(descriptor, base, code, params, *, leave=False, runs=1):
    """Stage ``descriptor`` at ``base`` in a fresh address space and
    run its emitted install and enter (then ``hfi_exit`` if ``leave``)
    from ``code``.  Returns the space, the core and the cycles of the
    last run."""
    space = AddressSpace(params)
    space.mmap(2 * params.page_bytes, Prot.rw(),
               addr=base - base % params.page_bytes)
    descriptor.stage(space, base)
    asm = Assembler(base=code)
    descriptor.emit_install(asm, base)
    descriptor.emit_enter(asm, base)
    if leave:
        asm.hfi_exit()
    asm.hlt()
    program = asm.assemble()
    cpu = Cpu(params, memory=space, timing="inorder")
    cpu.load_program(program)
    for _ in range(runs):
        before = cpu.stats.cycles
        result = cpu.run(program.base)
        assert result.reason == "hlt", (result.reason, result.fault)
    return space, cpu, cpu.stats.cycles - before, program


class TestInstallAgreement:
    """Every simulated sandbox is staged and entered through
    :class:`SandboxDescriptor`; its analytic :meth:`install` must leave
    the HFI bank the executed code leaves."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_executed_install_matches_analytic(self, case):
        descriptor, base, code = CASES[case]()
        params = MachineParams()
        _, cpu, _, _ = _execute(descriptor, base, code, params)
        state = HfiState(params)
        descriptor.install(state)
        assert _bank(cpu.hfi) == _bank(state)
        assert state.enabled

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_staged_bytes_decode_back(self, case):
        descriptor, base, code = CASES[case]()
        space, _, _, _ = _execute(descriptor, base, code, MachineParams())
        for slot, (_, region) in enumerate(descriptor.regions):
            raw = space.read_bytes(base + slot * REGION_DESCRIPTOR_BYTES,
                                   REGION_DESCRIPTOR_BYTES)
            assert decode_region(raw) == region
        raw = space.read_bytes(descriptor.sandbox_address(base),
                               SANDBOX_DESCRIPTOR_BYTES)
        assert decode_sandbox(raw) == (descriptor.flags,
                                       descriptor.exit_handler)

    def test_extra_memories_follow_the_heap(self):
        """Multi-memory modules put the extra explicit regions in the
        slots after the heap's, the sandbox descriptor after them, and
        all of it below the instance's memory table."""
        layout = _wasm_layout((2, 2))
        descriptor = HfiStrategy().descriptor(layout)
        assert [n for n, _ in descriptor.regions] == [0, 2, 6, 7, 8]
        assert [r.base_address for _, r in descriptor.regions[2:]] == [
            layout.heap_base] + [b for b, _ in layout.extra_memories]
        end = (descriptor.sandbox_address(layout.descriptor_base)
               + SANDBOX_DESCRIPTOR_BYTES)
        assert end <= layout.memory_table_base

    @pytest.mark.parametrize("serialized", [True, False],
                             ids=["serialized", "unserialized"])
    def test_executed_price_is_install_plus_known_gap(self, serialized):
        """A warm install, enter and exit on the simulator costs what
        install() and the exit charge, plus the 16-byte sandbox
        descriptor load ``hfi_enter`` performs and one base cycle per
        instruction (181 against 161 cycles serialized, 101 against 81
        not, for 3 regions and 10 instructions).  Pricing transitions
        from executed code (ROADMAP item 10) closes this gap."""
        regions = [
            (0, ImplicitCodeRegion.covering(0x40_0000, 1 << 16)),
            (2, ImplicitDataRegion.covering(0x10_0000, 1 << 16)),
            (6, ExplicitDataRegion(0x10_0000, 1 << 16,
                                   permission_read=True,
                                   permission_write=True)),
        ]
        descriptor = (SandboxDescriptor.native(0, regions)
                      if serialized else SandboxDescriptor.hybrid(regions))
        params = MachineParams()
        _, _, executed, program = _execute(
            descriptor, 0x20_0000, 0x40_0000, params, leave=True, runs=2)
        state = HfiState(params)
        analytic = descriptor.install(state) + state.exit().cycles
        assert executed == (analytic
                            + descriptor_cycles(params,
                                                SANDBOX_DESCRIPTOR_BYTES)
                            + params.base_cycles
                            * len(program.instructions))
        assert (executed, analytic) == ((181, 161) if serialized
                                        else (101, 81))
