"""Shared fixtures and helpers for the benchmark harness.

Every module in this directory regenerates one of the paper's tables
or figures.  Benchmarks execute *simulated* experiments; their
scientific outputs — paper-style rows/series — are printed and
persisted under ``benchmarks/results/``.  Host speed is measured by
the repo benchmark (``bench/``), not here.
"""

import pytest

from repro.params import MachineParams
from repro.wasm import WasmRuntime


@pytest.fixture(scope="session")
def params():
    return MachineParams()


def run_module(module, strategy, reserve_extra_regs=0,
               max_instructions=30_000_000):
    """Instantiate + run a wir module; returns (cycles, result-global,
    binary size, RunResult)."""
    runtime = WasmRuntime()
    instance = runtime.instantiate(module, strategy,
                                   reserve_extra_regs=reserve_extra_regs)
    result = runtime.run(instance, max_instructions)
    assert result.reason == "hlt", (
        f"{module.name} under {strategy.name}: {result.reason} "
        f"{result.fault}")
    value = runtime.space.read(instance.layout.globals_base)
    return result.stats.cycles, value, instance.compiled.binary_size, result
