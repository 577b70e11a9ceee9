"""WasmRuntime lifecycle: teardown releases a sandbox's host state, and
lifecycle calls on a dead or memory-only sandbox are well defined.

* teardown unloads the sandbox's code from the runtime's core and drops
  the instance, so a long-lived runtime keeps host memory for its live
  sandboxes only (§6.3's many short-lived sandboxes per process);
* every lifecycle call on a torn-down sandbox raises before it touches
  the address space, and a batch may not name a sandbox twice;
* ``memory_grow`` on a memory-only sandbox charges the growth without
  a layout to update.
"""

import gc
import weakref

import pytest

from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Reg
from repro.params import MachineParams
from repro.wasm import WasmRuntime, make_strategy
from repro.wasm.fuzz import ProgramGenerator
from repro.wasm.strategies import WASM_PAGE


def module(seed):
    return ProgramGenerator(seed, max_depth=2).module(name=f"fuzz{seed}")


def result_global(runtime, instance):
    globals_ = instance.module.globals
    return runtime.space.read(instance.layout.globals_base
                              + 8 * globals_.index("result"))


def address_state(runtime, instance):
    """What a lifecycle call may change: the VMAs, the present pages
    and the instance's own size and charges."""
    space = runtime.space
    return (space.vmas(), space.present_pages, instance.heap_bytes,
            instance.lifecycle_cycles)


class TestTeardownReleases:
    def test_torn_down_program_is_freed_without_the_collector(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(module(1), make_strategy("hfi"))
        assert runtime.run(instance).reason == "hlt"
        program = instance.compiled.program
        refs = [weakref.ref(program), weakref.ref(program.instructions[0])]
        del program
        enabled = gc.isenabled()
        gc.disable()
        try:
            runtime.teardown(instance)
            del instance
            # refcounting alone frees the code: nothing the runtime
            # keeps refers to it, and it holds no reference cycle
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_churn_leaves_nothing_behind(self):
        runtime = WasmRuntime()
        strategies = ("hfi", "guard-pages", "bounds-check")
        for start in range(0, 12, 3):
            batch = []
            for seed in range(start, start + 3):
                instance = runtime.instantiate(
                    module(seed), make_strategy(strategies[seed % 3]))
                assert runtime.run(instance).reason == "hlt"
                runtime.memory_grow(instance, 2)
                batch.append(instance)
            if start % 2:
                runtime.teardown_batch(batch)
            else:
                for instance in batch:
                    runtime.teardown(instance)
        assert runtime.instances == []
        stats = runtime.cpu.decode_stats()
        assert stats.cached_ops == 0
        assert stats.invalidations == 0
        assert stats.predecoded > 0

    def test_survivor_runs_as_if_nothing_was_torn_down(self):
        def instantiate_pair():
            runtime = WasmRuntime()
            return runtime, [runtime.instantiate(module(seed),
                                                 make_strategy("hfi"))
                             for seed in (3, 4)]

        pruned, (victim, survivor) = instantiate_pair()
        kept, (twin_victim, twin_survivor) = instantiate_pair()
        assert pruned.run(victim).reason == kept.run(twin_victim).reason
        pruned.teardown(victim)
        assert pruned.instances == [survivor]
        assert len(kept.instances) == 2

        result = pruned.run(survivor)
        twin = kept.run(twin_survivor)
        assert result.reason == twin.reason == "hlt"
        assert (result_global(pruned, survivor)
                == result_global(kept, twin_survivor))
        assert result.stats == twin.stats

    def test_unload_leaves_patched_code_alone(self):
        params = MachineParams()
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.mov(Reg.RBX, Imm(2))
        asm.hlt()
        program = asm.assemble()
        patch = Assembler()
        patch.mov(Reg.RBX, Imm(7))
        replacement = patch.assemble().instructions[0]
        patched_addr = program.instructions[1].addr

        cpu = Cpu(params)
        cpu.load_program(program)
        cpu._code[patched_addr] = replacement
        assert cpu._code.invalidations == 1
        cpu.unload_program(program)

        assert dict(cpu._code) == {patched_addr: replacement}
        stats = cpu.decode_stats()
        assert stats.invalidations == 1   # unloading is not a code write
        assert stats.cached_ops == 0
        assert cpu.run(patched_addr).reason == "no_instruction"
        assert cpu.regs.read(Reg.RBX) == 7
        assert cpu.decode_stats().cached_ops == 1


class TestDeadSandbox:
    @pytest.fixture
    def torn_down(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(module(5),
                                       make_strategy("guard-pages"))
        runtime.run(instance)
        runtime.teardown(instance)
        return runtime, instance

    @pytest.mark.parametrize("call", [
        lambda runtime, it: runtime.teardown(it),
        lambda runtime, it: runtime.teardown_batch([it]),
        lambda runtime, it: runtime.memory_grow(it, 1),
        lambda runtime, it: runtime.run(it),
    ], ids=["teardown", "teardown_batch", "memory_grow", "run"])
    def test_lifecycle_call_raises_untouched(self, torn_down, call):
        runtime, instance = torn_down
        before = address_state(runtime, instance)
        with pytest.raises(RuntimeError, match="instance was torn down"):
            call(runtime, instance)
        assert address_state(runtime, instance) == before

    def test_batch_naming_an_instance_twice_is_rejected(self):
        runtime = WasmRuntime()
        strategy = make_strategy("hfi")
        first, second = (runtime.reserve_instance(strategy, WASM_PAGE,
                                                  touch_pages=2)
                         for _ in range(2))
        before = address_state(runtime, first)
        with pytest.raises(ValueError, match="twice"):
            runtime.teardown_batch([first, second, first])
        assert address_state(runtime, first) == before
        assert first.alive and second.alive
        assert len(runtime.instances) == 2


class TestMemoryOnlyGrow:
    @pytest.mark.parametrize("strategy", ["hfi", "guard-pages"])
    def test_grow_charges_without_a_layout(self, strategy):
        params = MachineParams()

        def reserve():
            runtime = WasmRuntime(params)
            return runtime, runtime.reserve_instance(
                make_strategy(strategy), WASM_PAGE)

        runtime, instance = reserve()
        reference, twin = reserve()
        grow = twin.strategy.grow_cost(reference.space, twin.heap_base,
                                       WASM_PAGE, 2 * WASM_PAGE, params)

        cost = runtime.memory_grow(instance, 1)
        assert cost == params.memory_grow_bookkeeping_cycles + grow
        assert instance.heap_bytes == 2 * WASM_PAGE
        assert instance.lifecycle_cycles == cost
        assert instance.layout is None
