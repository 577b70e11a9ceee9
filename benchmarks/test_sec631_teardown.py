"""§6.3.1 — cost of sandbox teardown in a FaaS runtime.

Paper: over 2000 sandboxes running a trivial workload,
* stock Wasmtime (one madvise per sandbox): 25.7 us/sandbox,
* HFI-Wasmtime (batched madvise, guard pages elided): 23.1 us (-10.1%),
* non-HFI batched madvise (guard pages still in the span): 31.1 us.

Batching only wins when HFI has eliminated the guard regions between
adjacent heaps; otherwise the batched call pays for sweeping terabytes
of reserved guard address space.
"""

from repro.analysis import emit, format_table
from repro.params import MachineParams
from repro.wasm import GuardPagesStrategy, HfiStrategy, WasmRuntime

N_SANDBOXES = 2000
HEAP_BYTES = 4 << 20       # 4 MiB heaps
TOUCHED_PAGES = 16         # the trivial workload dirties a few pages


def build(strategy_factory, params):
    runtime = WasmRuntime(params)
    instances = [
        runtime.reserve_instance(strategy_factory(), HEAP_BYTES,
                                 touch_pages=TOUCHED_PAGES)
        for _ in range(N_SANDBOXES)
    ]
    return runtime, instances


def run(params):
    # (1) stock: one madvise per sandbox (no guard pages needed for
    # the per-instance path to be correct; use HFI-style exact heaps)
    runtime, instances = build(HfiStrategy, params)
    stock = sum(runtime.teardown(i) for i in instances)

    # (2) HFI: batched madvise across adjacent guard-free heaps
    runtime, instances = build(HfiStrategy, params)
    hfi_batched = runtime.teardown_batch(instances)

    # (3) non-HFI: batched madvise with 4 GiB guards inside the span
    runtime, instances = build(GuardPagesStrategy, params)
    non_hfi_batched = runtime.teardown_batch(instances)
    return stock, hfi_batched, non_hfi_batched


def test_sec631_teardown():
    params = MachineParams()
    stock, hfi_batched, non_hfi = run(params)
    per = lambda total: params.cycles_to_us(total / N_SANDBOXES)
    rows = [
        ("stock (madvise per sandbox)", f"{per(stock):.2f}", "100.0%"),
        ("HFI batched (guards elided)", f"{per(hfi_batched):.2f}",
         f"{100 * hfi_batched / stock:.1f}%"),
        ("non-HFI batched (guards swept)", f"{per(non_hfi):.2f}",
         f"{100 * non_hfi / stock:.1f}%"),
    ]
    table = format_table(
        ["teardown policy", "us/sandbox (modelled)", "vs stock"],
        rows,
        title=("§6.3.1 teardown of 2000 sandboxes "
               "(paper: 25.7 us stock, 23.1 us HFI batched [-10.1%], "
               "31.1 us non-HFI batched)"))
    emit("sec631_teardown", table)

    # Shape: HFI batching wins; batching *without* guard elision loses.
    assert hfi_batched < stock < non_hfi
    improvement = 100 * (1 - hfi_batched / stock)
    regression = 100 * (non_hfi / stock - 1)
    assert 4.0 <= improvement <= 25.0, improvement   # paper: 10.1%
    assert 8.0 <= regression <= 60.0, regression     # paper: ~21%