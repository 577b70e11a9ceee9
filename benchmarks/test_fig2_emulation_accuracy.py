"""Fig. 2 — accuracy of emulated HFI vs simulated HFI on Sightglass.

Paper: running software-emulated HFI (cpuid + absolute-base mov)
side-by-side with true HFI in gem5, per-benchmark emulation cycle
counts fall between 98% and 108% of simulation, geomean difference
1.62%.  We run both codegens on the cycle simulator and report the
same ratio per benchmark.
"""

from conftest import run_module

from repro.analysis import emit, format_table, geomean
from repro.wasm import HfiEmulationStrategy, HfiStrategy
from repro.workloads import SIGHTGLASS_BENCHMARKS

SCALE = 3  # amortize entry cost as the paper's longer runs do

PAPER_BAND = (0.98, 1.08)
BAND = (0.95, 1.12)  # accept a slightly wider band than the paper's


def run_suite():
    rows = []
    ratios = []
    for name, builder in SIGHTGLASS_BENCHMARKS.items():
        module = builder(SCALE)
        hfi_cycles, hfi_val, _, _ = run_module(module, HfiStrategy())
        emu_cycles, emu_val, _, _ = run_module(module,
                                               HfiEmulationStrategy())
        assert hfi_val == emu_val, f"{name}: results diverge"
        ratio = emu_cycles / hfi_cycles
        ratios.append(ratio)
        rows.append((name, hfi_cycles, emu_cycles, f"{100 * ratio:.1f}%"))
    return rows, ratios


def test_fig2_emulation_accuracy():
    rows, ratios = run_suite()
    gm_diff = abs(geomean(ratios) - 1.0) * 100
    table = format_table(
        ["benchmark", "HFI cycles", "emulated cycles", "emu/HFI"],
        rows,
        title=("Fig. 2: emulated vs simulated HFI runtime "
               f"(paper band {PAPER_BAND[0]:.0%}-{PAPER_BAND[1]:.0%}, "
               "geomean diff 1.62%)"))
    table += f"\ngeomean difference: {gm_diff:.2f}%"
    emit("fig2_emulation_accuracy", table)

    for (name, *_), ratio in zip(rows, ratios):
        assert BAND[0] <= ratio <= BAND[1], (
            f"{name}: emulation ratio {ratio:.3f} outside band {BAND}")
    assert gm_diff < 6.0
