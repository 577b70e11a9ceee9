"""§6.1 register pressure — the cost of reserving 1 or 2 registers.

Paper: on Wasmtime's Spidermonkey benchmark, reserving one register
costs 2.25% and two registers 2.40% — an approximation of the benefit
HFI gets by not pinning the heap base and bound in GPRs.

We compile a Spidermonkey stand-in — a basket of branchy, table-driven
kernels with varying register pressure — with 0, 1, and 2 artificially
reserved registers and measure the average slowdown.  (Spilling is a
step function per kernel: kernels whose locals still fit show 0%, the
register-hungry ones pay double digits; the *average* lands near the
paper's small single-digit figure.)
"""

from conftest import run_module

from repro.analysis import emit, format_table
from repro.wasm import NativeUnsafeStrategy
from repro.workloads.sightglass import base64, minicsv, ratelimit, switch


def run():
    rows = []
    slowdowns = {}
    for name, builder in (("switch", switch), ("base64", base64),
                          ("minicsv", minicsv), ("ratelimit", ratelimit)):
        module = builder(3)
        baseline, v0, _, _ = run_module(module, NativeUnsafeStrategy())
        cells = [name, baseline]
        for reserve in (1, 2):
            cycles, v, _, _ = run_module(module, NativeUnsafeStrategy(),
                                         reserve_extra_regs=reserve)
            assert v == v0
            slow = 100.0 * (cycles / baseline - 1.0)
            slowdowns.setdefault(reserve, []).append(slow)
            cells.append(f"+{slow:.2f}%")
        rows.append(tuple(cells))
    return rows, slowdowns


def test_sec61_register_pressure():
    rows, slowdowns = run()
    avg1 = sum(slowdowns[1]) / len(slowdowns[1])
    avg2 = sum(slowdowns[2]) / len(slowdowns[2])
    table = format_table(
        ["workload", "baseline cycles", "reserve 1 reg", "reserve 2 regs"],
        rows,
        title=("§6.1 register pressure (paper: 1 reg -> +2.25%, "
               "2 regs -> +2.40%)"))
    table += f"\naverage: 1 reg +{avg1:.2f}%, 2 regs +{avg2:.2f}%"
    emit("sec61_register_pressure", table)

    # Shape: reserving registers costs a little, monotonically.
    assert 0.0 <= avg1 <= 12.0, avg1
    assert avg1 <= avg2 <= 15.0, (avg1, avg2)