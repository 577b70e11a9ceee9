"""Golden workloads: deterministic runs whose cycle counts are locked.

The cycle-level simulator's value rests on *reproducible* timing: a
refactor of the interpreter must not move a single cycle, or every
figure the repo reproduces silently drifts.  This module defines a
fixed set of representative workloads — a Sightglass subset, a SPEC
mix, an NGINX-shaped sandbox-transition loop, and a Spectre-PHT attack
run — and reduces each to a flat dict of counters
(:class:`~repro.cpu.machine.CpuStats` plus workload-specific results).

``scripts/gen_golden_cycles.py`` freezes these into
``tests/golden_cycles.json``; ``tests/test_golden_cycles.py`` replays
them and requires bit-equality.  Regenerate the fixture *only* for a
change that is supposed to alter timing, and say so in the commit.
Each workload builds its own program and machine, so any subset, in
any order, reproduces the same counters.
"""

from __future__ import annotations

import contextlib

from typing import Callable, Dict, List, Optional, Tuple

from ..core import (ExplicitDataRegion, ImplicitCodeRegion,
                    ImplicitDataRegion, SandboxDescriptor)
from ..cpu.machine import Cpu, CpuStats
from ..cpu.timing import default_timing
from ..isa import Assembler, Imm, Mem, Reg
from ..os.address_space import AddressSpace, Prot
from ..params import MachineParams

Metrics = Dict[str, object]


def _stats_dict(stats: CpuStats) -> Metrics:
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "branches": stats.branches,
        "mispredicts": stats.mispredicts,
        "speculative_instructions": stats.speculative_instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "syscalls": stats.syscalls,
        "interposed_syscalls": stats.interposed_syscalls,
        "hfi_faults": stats.hfi_faults,
        "page_faults": stats.page_faults,
        "serializations": stats.serializations,
    }


# ----------------------------------------------------------------------
# Wasm workloads (Sightglass subset + SPEC mix)
# ----------------------------------------------------------------------
def _run_wasm(module_builder, strategy_factory) -> Metrics:
    from ..wasm import WasmRuntime

    runtime = WasmRuntime()
    module = module_builder(1)
    instance = runtime.instantiate(module, strategy_factory())
    result = runtime.run(instance)
    metrics = _stats_dict(runtime.cpu.stats)
    metrics["reason"] = result.reason
    metrics["result_global"] = runtime.space.read(
        instance.layout.globals_base)
    return metrics


def _wasm_case(suite: str, name: str, strategy: str) -> Callable[[], Metrics]:
    def build() -> Metrics:
        from ..wasm import (
            BoundsCheckStrategy,
            GuardPagesStrategy,
            HfiEmulationStrategy,
            HfiStrategy,
        )

        strategies = {
            "guard-pages": GuardPagesStrategy,
            "bounds-check": BoundsCheckStrategy,
            "hfi": HfiStrategy,
            "hfi-emulation": HfiEmulationStrategy,
        }
        if suite == "sightglass":
            from .sightglass import SIGHTGLASS_BENCHMARKS as registry
        else:
            from .spec import SPEC_BENCHMARKS as registry
        return _run_wasm(registry[name], strategies[strategy])

    return build


# ----------------------------------------------------------------------
# NGINX-shaped transition loop (cycle-level enter/exit per "request")
# ----------------------------------------------------------------------
#: Where :func:`transition_loop` maps its heap and its stack.
_LOOP_HEAP = 0x10_0000
_LOOP_STACK = 0x7F_0000


def transition_descriptor(serialized: bool = True) -> SandboxDescriptor:
    """The native sandbox :func:`transition_loop` enters: implicit
    regions over its code, heap and stack, and an explicit region over
    the heap for its ``hmov`` traffic."""
    return SandboxDescriptor.native(0, [
        (0, ImplicitCodeRegion.covering(0x40_0000, 1 << 16)),
        (2, ImplicitDataRegion(_LOOP_HEAP, 0xFFFF, True, True)),
        (3, ImplicitDataRegion(_LOOP_STACK, 0xFFFF, True, True)),
        (6, ExplicitDataRegion(_LOOP_HEAP, 1 << 16,
                               permission_read=True,
                               permission_write=True)),
    ], serialized=serialized)


def transition_loop(iterations: int = 200,
                    serialized: bool = True) -> Metrics:
    """A trusted runtime entering/leaving a sandbox per iteration — the
    per-request shape of the §6.4.2 NGINX experiment, but run on the
    cycle simulator so transition costs (descriptor loads,
    serialization drains, hmov checks) are locked end to end.
    ``serialized`` marks enter/exit as serialized in the descriptor.
    The regions are installed once; each iteration re-enters with
    the staged sandbox descriptor."""
    params = MachineParams()
    mem = AddressSpace(params)
    cpu = Cpu(params, memory=mem)
    heap = mem.mmap(1 << 20, Prot.rw(), addr=_LOOP_HEAP)
    stack = mem.mmap(1 << 16, Prot.rw(), addr=_LOOP_STACK)
    cpu.regs.write(Reg.RSP, stack + (1 << 16) - 64)
    desc = mem.mmap(4096, Prot.rw(), addr=0x20_0000)
    descriptor = transition_descriptor(serialized)
    descriptor.stage(mem, desc)

    asm = Assembler()
    descriptor.emit_install(asm, desc)
    asm.mov(Reg.R8, Imm(iterations))
    asm.mov(Reg.RDI, Imm(descriptor.sandbox_address(desc)))
    asm.label("request")
    asm.hfi_enter(Reg.RDI)
    # "crypto" work inside the sandbox: loads, stores, hmov traffic
    asm.mov(Reg.RBX, Imm(heap))
    asm.mov(Reg.RAX, Mem(base=Reg.RBX, disp=16))
    asm.add(Reg.RAX, Imm(0x1234))
    asm.mov(Mem(base=Reg.RBX, disp=16), Reg.RAX)
    asm.mov(Reg.RCX, Imm(64))
    asm.hmov(0, Reg.RDX, Mem(index=Reg.RCX, scale=1, disp=0))
    asm.hmov(0, Mem(index=Reg.RCX, scale=1, disp=8), Reg.RDX)
    asm.hfi_exit()
    asm.dec(Reg.R8)
    asm.jne("request")
    asm.hlt()
    program = asm.assemble()
    cpu.load_program(program)
    result = cpu.run(program.base, max_instructions=1_000_000)
    metrics = _stats_dict(cpu.stats)
    metrics["reason"] = result.reason
    metrics["hfi_enters"] = cpu.hfi.enters
    metrics["hfi_exits"] = cpu.hfi.exits
    return metrics


# ----------------------------------------------------------------------
# NGINX analytic model (locks the transition-cost arithmetic)
# ----------------------------------------------------------------------
def _nginx_request_grid() -> Metrics:
    from .nginx import NginxModel

    model = NginxModel()
    metrics: Metrics = {}
    for scheme in ("unprotected", "hfi", "mpk"):
        for size in (0, 16 << 10, 128 << 10):
            metrics[f"{scheme}_{size}"] = model.request_cycles(size, scheme)
    return metrics


# ----------------------------------------------------------------------
# Spectre-PHT attack runs
# ----------------------------------------------------------------------
def _spectre_pht(protect_with_hfi: bool) -> Metrics:
    from ..attacks.spectre_pht import SpectrePhtAttack

    attack = SpectrePhtAttack(protect_with_hfi=protect_with_hfi)
    outcome = attack.attack(secret_value=ord("I"))
    metrics = _stats_dict(attack.cpu.stats)
    metrics["leaked_value"] = outcome.leaked_value
    metrics["threshold"] = outcome.threshold
    metrics["hit_count"] = len(outcome.hits)
    return metrics


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
GOLDEN_WORKLOADS: Dict[str, Callable[[], Metrics]] = {
    # Sightglass subset: ALU-bound, memory-bound, branchy, crypto
    "sightglass_fib2_guard-pages": _wasm_case("sightglass", "fib2",
                                              "guard-pages"),
    "sightglass_fib2_hfi": _wasm_case("sightglass", "fib2", "hfi"),
    "sightglass_memmove_guard-pages": _wasm_case("sightglass", "memmove",
                                                 "guard-pages"),
    "sightglass_memmove_hfi": _wasm_case("sightglass", "memmove", "hfi"),
    "sightglass_switch_hfi": _wasm_case("sightglass", "switch", "hfi"),
    "sightglass_keccak_hfi": _wasm_case("sightglass", "keccak", "hfi"),
    "sightglass_keccak_hfi-emulation": _wasm_case("sightglass", "keccak",
                                                  "hfi-emulation"),
    # SPEC mix: interpreter dispatch, pointer chasing, big code footprint
    "spec_perlbench_hfi": _wasm_case("spec", "400.perlbench", "hfi"),
    "spec_mcf_guard-pages": _wasm_case("spec", "429.mcf", "guard-pages"),
    "spec_mcf_hfi": _wasm_case("spec", "429.mcf", "hfi"),
    "spec_gobmk_hfi": _wasm_case("spec", "445.gobmk", "hfi"),
    # transitions + analytic NGINX grid
    "nginx_transition_loop": transition_loop,
    "nginx_request_grid": _nginx_request_grid,
    # Spectre-PHT: the channel open, then closed by HFI
    "spectre_pht_unprotected": lambda: _spectre_pht(False),
    "spectre_pht_hfi": lambda: _spectre_pht(True),
}


def run_all(timing: Optional[str] = None) -> Dict[str, Metrics]:
    """Evaluate every golden workload.

    ``timing`` scopes the process-wide default timing backend for the
    duration of the run, so every CPU constructed inside the workloads
    (wasm runtimes, attack harnesses, transition loops) uses it.  Each
    timing model has its own fixture file."""
    with (default_timing(timing) if timing is not None
          else contextlib.nullcontext()):
        return {name: build() for name, build in GOLDEN_WORKLOADS.items()}
