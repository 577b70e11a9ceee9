"""§6.1 heap growth — mprotect vs HFI region update.

Paper: growing a Wasm heap from one page to 4 GiB in 64 KiB increments
takes 10.92 s through Wasmtime's mprotect path and 370 ms with HFI's
hfi_set_region — a ~30x difference.
"""

from repro.analysis import emit, format_table
from repro.params import MachineParams
from repro.wasm import GuardPagesStrategy, HfiStrategy, WASM_PAGE, WasmRuntime

TARGET_BYTES = 4 << 30
STEPS = TARGET_BYTES // WASM_PAGE  # 65,536 pages


def grow_with(strategy_cls, params):
    runtime = WasmRuntime(params)
    instance = runtime.reserve_instance(strategy_cls(), WASM_PAGE)
    return sum(runtime.memory_grow(instance, 1) for _ in range(STEPS - 1))


def test_sec61_heap_growth():
    params = MachineParams()

    def run():
        mprotect_cycles = grow_with(GuardPagesStrategy, params)
        hfi_cycles = grow_with(HfiStrategy, params)
        return mprotect_cycles, hfi_cycles

    mprotect_cycles, hfi_cycles = run()
    ratio = mprotect_cycles / hfi_cycles
    table = format_table(
        ["mechanism", "total cycles", "modelled seconds"],
        [("mprotect (guard pages)", mprotect_cycles,
          f"{params.cycles_to_seconds(mprotect_cycles):.3f}"),
         ("hfi_set_region", hfi_cycles,
          f"{params.cycles_to_seconds(hfi_cycles):.3f}")],
        title=("§6.1 heap growth, 1 page -> 4 GiB in 64 KiB steps "
               "(paper: 10.92 s vs 370 ms, ~30x)"))
    table += f"\nspeedup: {ratio:.1f}x"
    emit("sec61_heap_growth", table)

    assert 15 <= ratio <= 60, ratio   # the paper's ~30x, loosely banded