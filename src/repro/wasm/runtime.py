"""The Wasm runtime: instance lifecycle over one shared address space.

Mirrors the Wasmtime/Lucet structure the paper modifies (§5.1):

* ``instantiate`` reserves linear memory per the isolation strategy
  (8 GiB guard scheme vs exact-size HFI), compiles the module, stages
  HFI descriptors, and copies the data segment in.
* ``memory_grow`` is the §6.1 experiment's hot path: mprotect for
  guard pages, a single region-register update for HFI.
* ``teardown`` / ``teardown_batch`` reproduce §6.3.1: per-instance
  madvise vs one batched madvise, with or without guard pages in the
  discarded span.

All instances share one address space — the single-process,
many-sandboxes deployment model FaaS platforms want (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cpu.machine import Cpu, RunResult
from ..os.address_space import AddressSpace, Prot
from ..os.kernel import Kernel
from ..params import DEFAULT_PARAMS, MachineParams
from .compiler import CompiledModule, Compiler
from .ir import Module
from .strategies import (
    WASM_PAGE,
    IsolationStrategy,
    SandboxLayout,
)

_STACK_BYTES = 1 << 16
_SPILL_BYTES = 1 << 14
_GLOBAL_BYTES = 1 << 13
_DESC_BYTES = 1 << 12
_SUPPORT_BYTES = _STACK_BYTES + _SPILL_BYTES + _GLOBAL_BYTES + _DESC_BYTES
_DEFAULT_CODE_BUDGET = 1 << 21   # 2 MiB per instance


@dataclass
class WasmInstance:
    """One live sandbox: compiled code + linear memory + support area.

    ``module``/``compiled``/``layout`` are None for *memory-only*
    instances created by :meth:`WasmRuntime.reserve_instance`, which
    the lifecycle experiments (§6.3) use to scale to thousands of
    sandboxes without compiling code for each."""

    strategy: IsolationStrategy
    heap_base: int
    heap_bytes: int
    module: Optional[Module] = None
    compiled: Optional[CompiledModule] = None
    layout: Optional[SandboxLayout] = None
    creation_cycles: int = 0
    lifecycle_cycles: int = 0
    alive: bool = True

    @property
    def memory_pages(self) -> int:
        return self.heap_bytes // WASM_PAGE


class WasmRuntime:
    """Manages instances in a single process / address space."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 space: Optional[AddressSpace] = None,
                 kernel: Optional[Kernel] = None,
                 code_budget: int = _DEFAULT_CODE_BUDGET,
                 timing: Optional[str] = None):
        self.params = params
        self.space = space if space is not None else AddressSpace(params)
        self.kernel = kernel
        self.code_budget = code_budget
        # ``timing=None`` defers to the process-wide default, so the
        # CLI ``--timing`` flag (threaded through ``default_timing``)
        # reaches runtimes constructed deep inside workloads.
        self.cpu = Cpu(params, memory=self.space, timing=timing)
        self.instances: List[WasmInstance] = []

    # ------------------------------------------------------------------
    def _aligned_mmap(self, size: int, prot: Prot, name: str) -> int:
        """Reserve ``size`` bytes aligned to the next power of two, so
        prefix-matched implicit regions can cover the area exactly."""
        align = 1 << max(12, (size - 1).bit_length())
        base = self.space.mmap(size + align, Prot.NONE, name=name)
        aligned = (base + align - 1) & ~(align - 1)
        if prot != Prot.NONE:
            self.space.mprotect(aligned, size, prot)
        return aligned

    def instantiate(self, module: Module, strategy: IsolationStrategy,
                    reserve_extra_regs: int = 0) -> WasmInstance:
        """Create a sandbox for ``module`` under ``strategy``."""
        heap_bytes = module.memory_bytes
        heap_base, create_cost = strategy.reserve_memory(
            self.space, heap_bytes, name=f"{module.name}-heap")
        create_cost += 2 * self.params.syscall_cycles  # mmap + mprotect

        # extra linear memories (multi-memory proposal)
        extra_memories = []
        for i, pages in enumerate(module.extra_memories):
            mem_base, mem_cost = strategy.reserve_memory(
                self.space, pages * WASM_PAGE,
                name=f"{module.name}-memory{i + 1}")
            create_cost += mem_cost + 2 * self.params.syscall_cycles
            extra_memories.append((mem_base, pages * WASM_PAGE))

        support = self._aligned_mmap(_SUPPORT_BYTES, Prot.rw(),
                                     name=f"{module.name}-support")
        code_base = self._aligned_mmap(self.code_budget, Prot.rx(),
                                       name=f"{module.name}-code")
        descriptor_base = (support + _STACK_BYTES + _SPILL_BYTES
                           + _GLOBAL_BYTES)
        layout = SandboxLayout(
            code_base=code_base,
            code_bytes=self.code_budget,
            heap_base=heap_base,
            heap_bytes=heap_bytes,
            support_base=support,
            support_bytes=_SUPPORT_BYTES,
            stack_top=support + _STACK_BYTES - 64,
            spill_base=support + _STACK_BYTES,
            globals_base=support + _STACK_BYTES + _SPILL_BYTES,
            descriptor_base=descriptor_base,
            extra_memories=extra_memories,
            memory_table_base=descriptor_base + 512,
        )
        # instance-struct memory table: (base, bound, mask) per extra
        # memory — what non-HFI codegen consults on every access
        for i, (mem_base, mem_bytes) in enumerate(extra_memories):
            slot = layout.memory_table_base + i * 24
            self.space.write(slot, mem_base, 8, check=False)
            self.space.write(slot + 8, mem_bytes, 8, check=False)
            self.space.write(slot + 16, mem_bytes - 1, 8, check=False)
        compiler = Compiler(strategy, self.params,
                            reserve_extra_regs=reserve_extra_regs)
        compiled = compiler.compile(module, layout)
        self.cpu.load_program(compiled.program)
        strategy.prepare(self.space, layout, self.params)
        if module.data:
            self.space.write_bytes(heap_base, module.data, check=False)
        instance = WasmInstance(module=module, compiled=compiled,
                                strategy=strategy, heap_base=heap_base,
                                heap_bytes=heap_bytes, layout=layout,
                                creation_cycles=create_cost)
        self.instances.append(instance)
        return instance

    # ------------------------------------------------------------------
    def reserve_instance(self, strategy: IsolationStrategy,
                         heap_bytes: int,
                         touch_pages: int = 0) -> WasmInstance:
        """A memory-only instance: reserve linear memory (per strategy)
        and optionally dirty ``touch_pages`` pages, as a short-lived
        FaaS invocation would.  Used by the §6.3 lifecycle experiments
        where per-instance compilation is irrelevant."""
        heap_base, cost = strategy.reserve_memory(self.space, heap_bytes)
        cost += 2 * self.params.syscall_cycles
        page = self.params.page_bytes
        for i in range(touch_pages):
            self.space.write(heap_base + i * page, i + 1, 8, check=False)
        instance = WasmInstance(strategy=strategy, heap_base=heap_base,
                                heap_bytes=heap_bytes,
                                creation_cycles=cost)
        self.instances.append(instance)
        return instance

    # ------------------------------------------------------------------
    def run(self, instance: WasmInstance,
            max_instructions: int = 20_000_000) -> RunResult:
        """Invoke the instance's entry function on the runtime's CPU."""
        if not instance.alive:
            raise RuntimeError("instance was torn down")
        return self.cpu.run(instance.compiled.entry, max_instructions)

    # ------------------------------------------------------------------
    def memory_grow(self, instance: WasmInstance, pages: int) -> int:
        """Grow linear memory by ``pages`` Wasm pages; returns cycles.

        Includes the runtime's own bookkeeping plus the strategy's
        mechanism (mprotect vs hfi_set_region) — the §6.1 comparison.
        """
        old = instance.heap_bytes
        new = old + pages * WASM_PAGE
        cost = self.params.memory_grow_bookkeeping_cycles
        cost += instance.strategy.grow_cost(self.space, instance.heap_base,
                                            old, new, self.params)
        instance.heap_bytes = new
        instance.layout.heap_bytes = new
        instance.strategy.prepare(self.space, instance.layout, self.params)
        instance.lifecycle_cycles += cost
        return cost

    # ------------------------------------------------------------------
    def teardown(self, instance: WasmInstance) -> int:
        """Discard one instance's memory (stock Wasmtime path)."""
        cost = instance.strategy.teardown_cost(
            self.space, instance.heap_base, instance.heap_bytes,
            self.params)
        instance.alive = False
        instance.lifecycle_cycles += cost
        return cost

    def teardown_batch(self, instances: List[WasmInstance]) -> int:
        """One madvise spanning every instance's memory (§5.1's
        HFI-enabled optimization).  When the strategy reserves guard
        regions the span necessarily includes them, which is what makes
        batching a loss without HFI (§6.3.1)."""
        if not instances:
            return 0
        begin = min(i.heap_base for i in instances)
        end = max(i.heap_base + i.heap_bytes + i.strategy.guard_bytes
                  for i in instances)
        cost = (self.params.syscall_cycles
                + self.space.madvise_dontneed(begin, end - begin))
        for instance in instances:
            instance.alive = False
        return cost
