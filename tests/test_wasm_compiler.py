"""Integration tests: wir modules compiled under every isolation
strategy must compute the same answers, and each strategy must enforce
(or fail to enforce) out-of-bounds accesses exactly as the paper
describes in §2 and §3."""

import pytest

from repro.core import FaultCause
from repro.isa import Reg
from repro.wasm import (
    TRAP_MAGIC,
    BoundsCheckStrategy,
    Compiler,
    GuardPagesStrategy,
    HfiEmulationStrategy,
    HfiStrategy,
    MaskingStrategy,
    NativeHfiStrategy,
    NativeUnsafeStrategy,
    SwivelStrategy,
    WasmRuntime,
)
from repro.wasm.ir import (
    BinOp,
    BinaryOp,
    Call,
    Cmp,
    Const,
    Function,
    HostCall,
    If,
    Load,
    LoadGlobal,
    Loop,
    Module,
    Move,
    Store,
    StoreGlobal,
    ValidationError,
    validate,
)

ALL_STRATEGIES = [
    NativeUnsafeStrategy, GuardPagesStrategy, BoundsCheckStrategy,
    MaskingStrategy, HfiStrategy, HfiEmulationStrategy, SwivelStrategy,
    NativeHfiStrategy,
]


def checksum_module(n=40):
    """Writes i*3 at mem[i*8], reads back, sums into global 'result'."""
    body = [
        Const("i", 0),
        Const("acc", 0),
        Loop(n, [
            BinOp(BinaryOp.SHL, "addr", "i", 3),
            BinOp(BinaryOp.MUL, "val", "i", 3),
            Store("addr", "val"),
            Load("back", "addr"),
            BinOp(BinaryOp.ADD, "acc", "acc", "back"),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        StoreGlobal("result", "acc"),
        HostCall(host_cycles=4),
        LoadGlobal("out", "result"),
        BinOp(BinaryOp.ADD, "out", "out", 1),
        StoreGlobal("result", "out"),
    ]
    return Module(name="checksum", functions=[Function("main", body)],
                  globals=["result"], memory_pages=8)


def oob_module(offset):
    """Stores then loads at a fixed out-of-range address."""
    body = [
        Const("addr", offset),
        Const("v", 7),
        Store("addr", "v"),
        Load("r", "addr"),
        StoreGlobal("result", "r"),
    ]
    return Module(name="oob", functions=[Function("main", body)],
                  globals=["result"], memory_pages=8)


def read_global(runtime, instance, index=0):
    return runtime.space.read(instance.layout.globals_base + index * 8)


def expected_checksum(n=40):
    return sum(i * 3 for i in range(n)) + 1


class TestStrategyEquivalence:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES,
                             ids=lambda s: s.name)
    def test_same_answer_under_every_strategy(self, strategy_cls):
        runtime = WasmRuntime()
        instance = runtime.instantiate(checksum_module(), strategy_cls())
        result = runtime.run(instance)
        assert result.reason == "hlt", result
        assert read_global(runtime, instance) == expected_checksum()

    def test_hfi_disabled_after_run(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(checksum_module(), HfiStrategy())
        runtime.run(instance)
        assert not runtime.cpu.hfi.enabled  # exited cleanly


class TestOutOfBoundsBehaviour:
    HEAP = 8 * 65536

    def test_guard_pages_trap_via_mmu(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(oob_module(self.HEAP + 4096),
                                       GuardPagesStrategy())
        result = runtime.run(instance)
        assert result.reason == "fault"
        assert result.fault.kind == "page"

    def test_bounds_check_reaches_trap_code(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(oob_module(self.HEAP + 4096),
                                       BoundsCheckStrategy())
        result = runtime.run(instance)
        assert result.reason == "hlt"
        assert runtime.cpu.regs.read(Reg.RAX) == TRAP_MAGIC

    def test_hfi_traps_precisely(self):
        runtime = WasmRuntime()
        instance = runtime.instantiate(oob_module(self.HEAP + 4096),
                                       HfiStrategy())
        result = runtime.run(instance)
        assert result.reason == "fault"
        assert result.fault.kind == "hfi"
        assert result.fault.hfi_cause is FaultCause.HMOV_OUT_OF_BOUNDS

    def test_masking_corrupts_instead_of_trapping(self):
        """§2: masking converts OOB accesses into wraparound corruption."""
        runtime = WasmRuntime()
        instance = runtime.instantiate(oob_module(self.HEAP + 64),
                                       MaskingStrategy())
        result = runtime.run(instance)
        assert result.reason == "hlt"              # no trap!
        # the store wrapped to offset 64 inside the heap
        assert runtime.space.read(instance.heap_base + 64) == 7

    def test_native_unsafe_reaches_host_memory(self):
        """Without isolation an OOB access that lands on mapped host
        memory silently succeeds — the vulnerability all of this
        exists to prevent."""
        runtime = WasmRuntime()
        instance = runtime.instantiate(oob_module(self.HEAP + 4096),
                                       NativeUnsafeStrategy())
        target = instance.heap_base + self.HEAP + 4096
        vma = runtime.space.find_vma(target)
        assert vma is not None and vma.name.endswith("support"), \
            "test layout assumption: support area directly follows heap"
        result = runtime.run(instance)
        assert result.reason == "hlt"
        assert read_global(runtime, instance) == 7
        # the stray write corrupted the host's support area
        assert runtime.space.read(target) == 7


class TestCompilerMechanics:
    def test_spilling_kicks_in_with_many_locals(self):
        ops = [Const(f"v{i}", i) for i in range(16)]
        acc = [BinOp(BinaryOp.ADD, "v0", "v0", f"v{i}") for i in range(1, 16)]
        module = Module("spilly",
                        [Function("main", ops + acc
                                  + [StoreGlobal("result", "v0")])],
                        globals=["result"])
        runtime = WasmRuntime()
        instance = runtime.instantiate(module, NativeUnsafeStrategy())
        assert instance.compiled.spilled_locals > 0
        runtime.run(instance)
        assert read_global(runtime, instance) == sum(range(16))

    def test_reserving_registers_increases_spills(self):
        """The §6.1 register-pressure experiment's mechanism, swept past
        the pool size: reserving more registers never spills less, and
        reserving the whole pool or more spills every local."""
        ops = [Const(f"v{i}", i) for i in range(10)]
        module = Module("p", [Function("main", ops)], globals=[])
        runtime = WasmRuntime()
        pool = len(Compiler(NativeUnsafeStrategy())._pool())
        spills = [runtime.instantiate(module, NativeUnsafeStrategy(),
                                      reserve_extra_regs=k)
                  .compiled.spilled_locals for k in range(pool + 3)]
        assert spills == sorted(spills)
        assert spills[0] < spills[pool] == spills[-1] == len(ops)

    def test_negative_reservation_rejected(self):
        with pytest.raises(ValueError):
            Compiler(NativeUnsafeStrategy(), reserve_extra_regs=-1)

    def test_function_calls(self):
        callee = Function("callee", [
            LoadGlobal("x", "result"),
            BinOp(BinaryOp.ADD, "x", "x", 5),
            StoreGlobal("result", "x"),
        ])
        main = Function("main", [
            Const("z", 1),
            StoreGlobal("result", "z"),
            Call("callee"),
            Call("callee"),
        ])
        module = Module("calls", [main, callee], globals=["result"])
        runtime = WasmRuntime()
        instance = runtime.instantiate(module, GuardPagesStrategy())
        result = runtime.run(instance)
        assert result.reason == "hlt"
        assert read_global(runtime, instance) == 11

    def test_if_else(self):
        module = Module("cond", [Function("main", [
            Const("a", 10),
            If("a", Cmp.GT, 5,
               [Const("r", 1)],
               [Const("r", 2)]),
            StoreGlobal("result", "r"),
            If("a", Cmp.LT, 5,
               [StoreGlobal("result", "a")],
               []),
        ])], globals=["result"])
        runtime = WasmRuntime()
        instance = runtime.instantiate(module, NativeUnsafeStrategy())
        runtime.run(instance)
        assert read_global(runtime, instance) == 1

    def test_nested_loops(self):
        module = Module("nest", [Function("main", [
            Const("acc", 0),
            Loop(5, [
                Loop(7, [
                    BinOp(BinaryOp.ADD, "acc", "acc", 1),
                ]),
            ]),
            StoreGlobal("result", "acc"),
        ])], globals=["result"])
        runtime = WasmRuntime()
        instance = runtime.instantiate(module, HfiStrategy())
        runtime.run(instance)
        assert read_global(runtime, instance) == 35

    def test_zero_trip_loop(self):
        module = Module("zt", [Function("main", [
            Const("acc", 99),
            Loop(0, [Const("acc", 0)]),
            StoreGlobal("result", "acc"),
        ])], globals=["result"])
        runtime = WasmRuntime()
        instance = runtime.instantiate(module, NativeUnsafeStrategy())
        runtime.run(instance)
        assert read_global(runtime, instance) == 99

    def test_binary_size_orders(self):
        """Swivel bloats binaries; HFI's hmov is longer than mov but adds
        no extra instructions (Table 1 bin-size column, §6.1 gobmk)."""
        module = checksum_module()
        runtime = WasmRuntime()
        plain = runtime.instantiate(module, GuardPagesStrategy())
        swivel = runtime.instantiate(module, SwivelStrategy())
        bounds = runtime.instantiate(module, BoundsCheckStrategy())
        assert swivel.compiled.binary_size > plain.compiled.binary_size
        assert bounds.compiled.binary_size > plain.compiled.binary_size


class TestValidation:
    def test_undefined_local_rejected(self):
        module = Module("bad", [Function("main", [
            Move("x", "never_defined"),
        ])])
        with pytest.raises(ValidationError):
            validate(module)

    def test_undefined_global_rejected(self):
        module = Module("bad", [Function("main", [
            StoreGlobal("nope", 1),
        ])])
        with pytest.raises(ValidationError):
            validate(module)

    def test_undefined_function_rejected(self):
        module = Module("bad", [Function("main", [Call("ghost")])])
        with pytest.raises(ValidationError):
            validate(module)

    def test_local_defined_only_in_loop_body_rejected(self):
        """A loop body may run zero times, so a local only it defines
        is undefined after the loop: on such a module the reference
        interpreter raises KeyError while compiled code reads a stale
        register."""
        module = Module("bad", [Function("main", [
            Const("n", 0),
            Loop("n", [Const("x", 5)]),
            StoreGlobal("result", "x"),
        ])], globals=["result"])
        with pytest.raises(ValidationError):
            validate(module)

    def test_local_defined_in_positive_constant_loop_accepted(self):
        module = Module("ok", [Function("main", [
            Loop(3, [Const("x", 5)]),
            StoreGlobal("result", "x"),
        ])], globals=["result"])
        validate(module)
