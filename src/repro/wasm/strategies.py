"""Isolation strategies — the pluggable enforcement backends.

Each strategy answers the three questions a Wasm toolchain must answer
(paper §2, §5.1):

1. **Codegen**: what instructions guard each linear-memory access?
2. **Transitions**: what happens on sandbox entry/exit and host calls?
3. **Lifecycle**: how is memory reserved, grown, and torn down?

Implemented strategies:

========================  =====================================================
``GuardPagesStrategy``    stock Wasm: 8 GiB reservation, accesses fold the
                          heap base register, growth via mprotect
``BoundsCheckStrategy``   cmp+branch before every access (the 2x-slowdown
                          technique of Wahbe et al.)
``MaskingStrategy``       classic SFI address masking (no precise traps)
``HfiStrategy``           hybrid HFI sandbox: hmov through an explicit
                          region, growth via hfi_set_region, no guards
``HfiEmulationStrategy``  the paper's §5.2 software emulation: absolute-
                          base mov + cpuid-serialized transitions
``SwivelStrategy``        guard pages + Swivel-SFI-style linear-block
                          hardening (the Spectre baseline of Table 1)
``NativeUnsafeStrategy``  no isolation (Lucet-unsafe baseline)
``NativeHfiStrategy``     HFI *native* sandbox: zero instrumentation,
                          implicit regions + serialized transitions
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.encoding import (
    REGION_DESCRIPTOR_BYTES,
    SandboxDescriptor,
    descriptor_cycles,
    encode_region,
)
from ..core.regions import (
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
)
from ..isa import Assembler, Imm, Mem, Reg
from ..os.address_space import AddressSpace, Prot
from ..params import MachineParams

#: Wasm page size (64 KiB) — heap growth granularity (§3 compatibility).
WASM_PAGE = 65536

#: The guard-page scheme's reservation: 4 GiB space + 4 GiB guard (§2).
GUARD_SCHEME_SPACE = 4 << 30
GUARD_SCHEME_GUARD = 4 << 30


@dataclass
class SandboxLayout:
    """Where a compiled instance's pieces live in the address space."""

    code_base: int
    code_bytes: int
    heap_base: int
    heap_bytes: int
    support_base: int      # stack + spill slots + globals
    support_bytes: int
    stack_top: int
    globals_base: int
    spill_base: int
    descriptor_base: int   # HFI descriptors staged here
    #: Extra linear memories (multi-memory proposal): (base, bytes).
    extra_memories: List[Tuple[int, int]] = None
    #: Instance-struct table of (base, bound) words for extra memories,
    #: consulted by non-HFI codegen on every extra-memory access.
    memory_table_base: int = 0

    def __post_init__(self):
        if self.extra_memories is None:
            self.extra_memories = []


class CompatibilityError(Exception):
    """The isolation scheme cannot support the requested memory shape
    (e.g. Memory64 heaps under the guard-page scheme, §2)."""


@dataclass
class CodegenContext:
    """Everything emit hooks may rely on."""

    layout: SandboxLayout
    trap_label: str
    #: Address scratch register available to strategies.
    scratch: Reg = Reg.R10


class IsolationStrategy:
    """Base behaviour: heap-base folding, no checks (native, unsafe).

    wir ``Load``/``Store`` addresses are *linear-memory offsets*, so
    every strategy must translate them to virtual addresses.  All
    register-based strategies (including the native baselines) fold a
    pinned heap-base register, exactly like Wasm compilers do; only the
    HFI strategies are base-register-free, which is the source of the
    register-pressure benefit §6.1 measures.
    """

    name = "native-unsafe"
    #: Registers the strategy pins (unavailable to the allocator).
    reserved_regs: Tuple[Reg, ...] = (Reg.R14,)
    #: Reserve a guard region after the heap (the mmap footprint).
    guard_bytes: int = 0
    #: Whether memory growth requires an mprotect syscall.
    grows_with_mprotect: bool = False
    #: Spectre-safe? (For reporting; Table 1 compares these.)
    spectre_safe: bool = False

    HEAP_REG = Reg.R14

    # --- codegen -------------------------------------------------------
    def emit_load(self, asm: Assembler, ctx: CodegenContext, dst: Reg,
                  addr: Reg, offset: int, size: int,
                  memory: int = 0) -> None:
        if memory:
            base = self._extra_memory_base(asm, ctx, memory)
            asm.mov(dst, Mem(base=base, index=addr, scale=1,
                             disp=offset, size=size))
            return
        asm.mov(dst, Mem(base=self.HEAP_REG, index=addr, scale=1,
                         disp=offset, size=size))

    def emit_store(self, asm: Assembler, ctx: CodegenContext, addr: Reg,
                   offset: int, src: Reg, size: int,
                   memory: int = 0) -> None:
        if memory:
            base = self._extra_memory_base(asm, ctx, memory)
            asm.mov(Mem(base=base, index=addr, scale=1,
                        disp=offset, size=size), src)
            return
        asm.mov(Mem(base=self.HEAP_REG, index=addr, scale=1,
                    disp=offset, size=size), src)

    def _extra_memory_base(self, asm: Assembler, ctx: CodegenContext,
                           memory: int) -> Reg:
        """Only one base register is pinned, so extra linear memories
        (multi-memory proposal) cost a base load from the instance
        struct on *every* access — the overhead HFI avoids by giving
        each memory its own explicit region (§2, §3.3.1)."""
        asm.mov(ctx.scratch,
                Mem(disp=ctx.layout.memory_table_base
                    + (memory - 1) * 24))
        return ctx.scratch

    def harden_branch(self, asm: Assembler, ctx: CodegenContext) -> None:
        """Called at every conditional-branch join point (Swivel hook)."""

    # --- transitions ----------------------------------------------------
    def emit_entry(self, asm: Assembler, ctx: CodegenContext) -> None:
        """Host-side code that establishes the sandbox before the body."""
        asm.mov(self.HEAP_REG, Imm(ctx.layout.heap_base))

    def emit_exit(self, asm: Assembler, ctx: CodegenContext) -> None:
        """Leave the sandbox at the end of the invocation."""

    def emit_host_transition(self, asm: Assembler, ctx: CodegenContext,
                             host_cycles: int) -> None:
        """A HostCall: leave, run host work, come back."""
        self.emit_exit(asm, ctx)
        for _ in range(max(1, host_cycles)):
            asm.nop()
        self.emit_entry(asm, ctx)

    # --- lifecycle -------------------------------------------------------
    def reserve_memory(self, space: AddressSpace, heap_bytes: int,
                       name: str = "wasm-heap") -> Tuple[int, int]:
        """Reserve the linear memory; returns (heap_base, kernel cycles).

        The default reserves exactly the heap plus ``guard_bytes`` and
        makes the heap accessible.  The base is aligned to the smallest
        power of two covering the heap so implicit prefix regions can
        describe it exactly.
        """
        align = 1 << max(16, (heap_bytes - 1).bit_length())
        total = align + self.guard_bytes
        base = space.mmap(total, Prot.NONE, name=name)
        aligned = (base + align - 1) & ~(align - 1)
        if aligned + heap_bytes > base + total:
            # re-reserve with headroom for alignment
            space.munmap(base, total)
            base = space.mmap(total + align, Prot.NONE, name=name)
            aligned = (base + align - 1) & ~(align - 1)
        cost = space.mprotect(aligned, heap_bytes, Prot.rw())
        return aligned, cost

    def grow_cost(self, space: AddressSpace, heap_base: int,
                  old_bytes: int, new_bytes: int,
                  params: MachineParams) -> int:
        """Cycle cost of growing the accessible heap."""
        if self.grows_with_mprotect:
            return (params.syscall_cycles
                    + space.mprotect(heap_base + old_bytes,
                                     new_bytes - old_bytes, Prot.rw()))
        # software bound update: one store
        return params.base_cycles + params.l1d_hit_cycles

    def teardown_cost(self, space: AddressSpace, heap_base: int,
                      heap_bytes: int, params: MachineParams) -> int:
        """Discard instance memory (madvise MADV_DONTNEED, §5.1)."""
        return (params.syscall_cycles
                + space.madvise_dontneed(heap_base,
                                         heap_bytes + self.guard_bytes))

    # --- memory image ----------------------------------------------------
    def prepare(self, space: AddressSpace, layout: SandboxLayout,
                params: MachineParams) -> None:
        """Stage any descriptors/state the entry sequence expects."""


class NativeUnsafeStrategy(IsolationStrategy):
    """No isolation at all — the Lucet (unsafe) row of Table 1."""

    name = "native-unsafe"


class GuardPagesStrategy(IsolationStrategy):
    """Stock Wasm isolation: implicit MMU bounds via an 8 GiB guard
    reservation; accesses are ``mov dst, [heap_base_reg + addr32]``.
    """

    name = "guard-pages"
    guard_bytes = GUARD_SCHEME_GUARD
    grows_with_mprotect = True

    def reserve_memory(self, space, heap_bytes, name="wasm-heap"):
        # The full 8 GiB scheme: 4 GiB addressable + 4 GiB guard,
        # regardless of how little the instance actually uses (§2).
        if heap_bytes > GUARD_SCHEME_SPACE:
            raise CompatibilityError(
                "the guard-page scheme only supports 32-bit (4 GiB) "
                "address spaces; Memory64 heaps need old-school SFI "
                "checks or HFI's large explicit regions (§2)")
        base = space.mmap(GUARD_SCHEME_SPACE + GUARD_SCHEME_GUARD,
                          Prot.NONE, name=name)
        cost = space.mprotect(base, heap_bytes, Prot.rw())
        return base, cost


class BoundsCheckStrategy(IsolationStrategy):
    """Explicit cmp+branch bounds checks before every access (§2)."""

    name = "bounds-check"
    reserved_regs = (Reg.R14, Reg.R13)         # heap base + heap bound
    spectre_safe = False

    BOUND_REG = Reg.R13

    def emit_load(self, asm, ctx, dst, addr, offset, size, memory=0):
        if memory:
            base = self._check_extra(asm, ctx, addr, offset, size, memory)
            asm.mov(dst, Mem(base=base, index=addr, scale=1,
                             disp=offset, size=size))
            return
        self._check(asm, ctx, addr, offset, size)
        asm.mov(dst, Mem(base=self.HEAP_REG, index=addr, scale=1,
                         disp=offset, size=size))

    def emit_store(self, asm, ctx, addr, offset, src, size, memory=0):
        if memory:
            base = self._check_extra(asm, ctx, addr, offset, size, memory)
            asm.mov(Mem(base=base, index=addr, scale=1,
                        disp=offset, size=size), src)
            return
        self._check(asm, ctx, addr, offset, size)
        asm.mov(Mem(base=self.HEAP_REG, index=addr, scale=1,
                    disp=offset, size=size), src)

    def _check(self, asm, ctx, addr, offset, size):
        # lea scratch, [addr + offset + size]; cmp scratch, bound; ja trap
        asm.lea(ctx.scratch, Mem(base=addr, disp=offset + size))
        asm.cmp(ctx.scratch, self.BOUND_REG)
        asm.ja(ctx.trap_label)

    def _check_extra(self, asm, ctx, addr, offset, size, memory):
        # only one bound register exists: extra memories check against
        # the instance struct (two memory operands per access)
        slot = ctx.layout.memory_table_base + (memory - 1) * 24
        asm.lea(ctx.scratch, Mem(base=addr, disp=offset + size))
        asm.cmp(ctx.scratch, Mem(disp=slot + 8))
        asm.ja(ctx.trap_label)
        asm.mov(ctx.scratch, Mem(disp=slot))
        return ctx.scratch

    def emit_entry(self, asm, ctx):
        super().emit_entry(asm, ctx)
        asm.mov(self.BOUND_REG, Imm(ctx.layout.heap_bytes))


class MaskingStrategy(IsolationStrategy):
    """Classic SFI masking (Wahbe et al.): force addresses in-range.

    Out-of-bounds accesses become wraparound corruption instead of
    traps — the precise-trap incompatibility the paper notes (§2).
    The heap must be power-of-two sized.
    """

    name = "masking"
    reserved_regs = (Reg.R14, Reg.R13)         # heap base + mask
    MASK_REG = Reg.R13

    def emit_load(self, asm, ctx, dst, addr, offset, size, memory=0):
        if memory:
            self._mask_extra(asm, ctx, addr, memory)
            asm.mov(dst, Mem(base=ctx.scratch, disp=offset, size=size))
            return
        asm.mov(ctx.scratch, addr)
        asm.and_(ctx.scratch, self.MASK_REG)
        asm.mov(dst, Mem(base=self.HEAP_REG, index=ctx.scratch, scale=1,
                         disp=offset, size=size))

    def emit_store(self, asm, ctx, addr, offset, src, size, memory=0):
        if memory:
            self._mask_extra(asm, ctx, addr, memory)
            asm.mov(Mem(base=ctx.scratch, disp=offset, size=size), src)
            return
        asm.mov(ctx.scratch, addr)
        asm.and_(ctx.scratch, self.MASK_REG)
        asm.mov(Mem(base=self.HEAP_REG, index=ctx.scratch, scale=1,
                    disp=offset, size=size), src)

    def _mask_extra(self, asm, ctx, addr, memory):
        # scratch = (addr & table.mask) + table.base
        slot = ctx.layout.memory_table_base + (memory - 1) * 24
        asm.mov(ctx.scratch, addr)
        asm.and_(ctx.scratch, Mem(disp=slot + 16))  # the mask word
        asm.add(ctx.scratch, Mem(disp=slot))

    def reserve_memory(self, space, heap_bytes, name="wasm-heap"):
        if heap_bytes & (heap_bytes - 1):
            raise CompatibilityError(
                "address masking requires power-of-two memories "
                f"(got {heap_bytes:#x}) — a non-pow2 mask would let "
                "addresses escape the region")
        return super().reserve_memory(space, heap_bytes, name)

    def emit_entry(self, asm, ctx):
        super().emit_entry(asm, ctx)
        asm.mov(self.MASK_REG, Imm(ctx.layout.heap_bytes - 1))


class HfiStrategy(IsolationStrategy):
    """Hybrid HFI sandbox for Wasm (§5.1's Wasm2c integration).

    The heap is an explicit large region accessed by ``hmov0``; the
    support area (stack, spills, globals) and code are covered by
    implicit regions; growth is a single ``hfi_set_region``; no guard
    pages, no pinned registers.
    """

    name = "hfi"
    reserved_regs = ()
    spectre_safe = True
    HEAP_REGION = 0         # hmov region index (explicit region slot 6)

    def __init__(self, serialized_transitions: bool = True):
        self.serialized_transitions = serialized_transitions

    def emit_load(self, asm, ctx, dst, addr, offset, size, memory=0):
        if memory >= 4:
            raise CompatibilityError(
                "HFI offers four explicit regions; runtimes multiplex "
                "beyond that (§3.3.1) — not modelled")
        asm.hmov(memory, dst,
                 Mem(index=addr, scale=1, disp=offset, size=size))

    def emit_store(self, asm, ctx, addr, offset, src, size, memory=0):
        if memory >= 4:
            raise CompatibilityError(
                "HFI offers four explicit regions; runtimes multiplex "
                "beyond that (§3.3.1) — not modelled")
        asm.hmov(memory,
                 Mem(index=addr, scale=1, disp=offset, size=size), src)

    def descriptor(self, layout: SandboxLayout) -> SandboxDescriptor:
        """Code region 0, the support area's implicit region 2, then
        one large explicit region per linear memory from region 6 (the
        heap first, so ``hmovN`` reaches memory N)."""
        memories = [(layout.heap_base, layout.heap_bytes)]
        memories += layout.extra_memories
        regions = [
            (0, ImplicitCodeRegion.covering(layout.code_base,
                                            layout.code_bytes)),
            (2, ImplicitDataRegion.covering(layout.support_base,
                                            layout.support_bytes)),
        ]
        regions += [(6 + i, ExplicitDataRegion(base, size,
                                               permission_read=True,
                                               permission_write=True))
                    for i, (base, size) in enumerate(memories)]
        return SandboxDescriptor.hybrid(
            regions, serialized=self.serialized_transitions)

    def emit_entry(self, asm, ctx):
        base = ctx.layout.descriptor_base
        descriptor = self.descriptor(ctx.layout)
        descriptor.emit_install(asm, base)
        descriptor.emit_enter(asm, base)

    def emit_exit(self, asm, ctx):
        asm.hfi_exit()

    def emit_host_transition(self, asm, ctx, host_cycles):
        asm.hfi_exit()
        for _ in range(max(1, host_cycles)):
            asm.nop()
        asm.hfi_reenter()

    def prepare(self, space, layout, params):
        self.descriptor(layout).stage(space, layout.descriptor_base)

    def grow_cost(self, space, heap_base, old_bytes, new_bytes, params):
        # store the resized region descriptor, then hfi_set_region
        # loads it (§6.1: "just a register update", ~30x faster than
        # the mprotect path)
        move = descriptor_cycles(params, REGION_DESCRIPTOR_BYTES)
        return 2 * move + params.hfi_set_region_cycles


class HfiEmulationStrategy(IsolationStrategy):
    """The paper's compiler-based emulation of HFI (§5.2 appendix A.2).

    * ``hmov`` becomes a normal mov with the heap base folded into the
      displacement (no register consumed — capturing the register-
      pressure benefit).
    * ``hfi_enter``/``hfi_exit`` become ``cpuid`` (a serializing
      instruction) plus the metadata moves a real enter performs.
    """

    name = "hfi-emulation"
    reserved_regs = ()
    spectre_safe = True

    def _base_for(self, ctx, memory):
        if memory == 0:
            return ctx.layout.heap_base
        return ctx.layout.extra_memories[memory - 1][0]

    def emit_load(self, asm, ctx, dst, addr, offset, size, memory=0):
        asm.mov(dst, Mem(index=addr, scale=1,
                         disp=self._base_for(ctx, memory) + offset,
                         size=size))

    def emit_store(self, asm, ctx, addr, offset, src, size, memory=0):
        asm.mov(Mem(index=addr, scale=1,
                    disp=self._base_for(ctx, memory) + offset,
                    size=size), src)

    def emit_entry(self, asm, ctx):
        # emulate hfi_set_region: move region metadata from memory into
        # general-purpose registers (appendix A.2)
        base = ctx.layout.descriptor_base
        for slot in range(3):
            asm.mov(Reg.R10, Mem(disp=base + slot * 24))
            asm.mov(Reg.R10, Mem(disp=base + slot * 24 + 8))
            asm.mov(Reg.R10, Mem(disp=base + slot * 24 + 16))
        asm.cpuid()      # serialize like hfi_enter

    def emit_exit(self, asm, ctx):
        asm.cpuid()      # serialize like hfi_exit

    def prepare(self, space, layout, params):
        # stage plausible descriptor bytes for the emulated metadata moves
        heap = ExplicitDataRegion(layout.heap_base, layout.heap_bytes,
                                  permission_read=True,
                                  permission_write=True)
        for slot in range(3):
            space.write_bytes(layout.descriptor_base + slot * 24,
                              encode_region(heap), check=False)

    grow_cost = HfiStrategy.grow_cost


class SwivelStrategy(GuardPagesStrategy):
    """Guard pages + Swivel-SFI-style Spectre hardening (Table 1).

    Swivel compiles Wasm into *linear blocks* with register interlocks
    so mispredicted paths cannot form disclosure gadgets.  We model the
    per-block cost as two ALU interlock instructions at every
    conditional-branch join point and a fence at transitions — which
    also reproduces Swivel's binary bloat.
    """

    name = "swivel"
    spectre_safe = True

    def harden_branch(self, asm, ctx):
        # register interlock: mask the heap pointer through a predicate
        asm.and_(self.HEAP_REG, self.HEAP_REG)
        asm.or_(self.HEAP_REG, Imm(0))

    def emit_entry(self, asm, ctx):
        super().emit_entry(asm, ctx)
        asm.lfence()

    def emit_exit(self, asm, ctx):
        asm.lfence()


class NativeHfiStrategy(IsolationStrategy):
    """HFI *native* sandbox (§6.4): unmodified code, implicit regions.

    No instrumentation at all — region checks ride the data path in
    parallel with the dtb — so the only costs are the serialized
    transitions and the metadata moves (Fig. 5).
    """

    name = "native-hfi"
    spectre_safe = True

    #: Caller-saved registers a springboard clears so the sandbox never
    #: observes host values (§3.3.1's springboards/trampolines).
    SPRINGBOARD_CLEARS = (Reg.RAX, Reg.RCX, Reg.RDX, Reg.RSI,
                          Reg.R8, Reg.R9, Reg.R10, Reg.R11)

    def __init__(self, serialized_transitions: bool = True,
                 springboard: bool = False):
        self.serialized_transitions = serialized_transitions
        #: Emit real register-clearing springboard code at entry.
        self.springboard = springboard

    def descriptor(self, layout: SandboxLayout) -> SandboxDescriptor:
        """Code region 0 and implicit data regions 2 (heap) and 3
        (support area); no exit handler."""
        return SandboxDescriptor.native(0, [
            (0, ImplicitCodeRegion.covering(layout.code_base,
                                            layout.code_bytes)),
            (2, ImplicitDataRegion.covering(layout.heap_base,
                                            layout.heap_bytes)),
            (3, ImplicitDataRegion.covering(layout.support_base,
                                            layout.support_bytes)),
        ], serialized=self.serialized_transitions)

    def emit_entry(self, asm, ctx):
        super().emit_entry(asm, ctx)
        if self.springboard:
            for reg in self.SPRINGBOARD_CLEARS:
                asm.xor(reg, reg)
        base = ctx.layout.descriptor_base
        descriptor = self.descriptor(ctx.layout)
        descriptor.emit_install(asm, base)
        descriptor.emit_enter(asm, base)

    def emit_exit(self, asm, ctx):
        asm.hfi_exit()

    def emit_host_transition(self, asm, ctx, host_cycles):
        asm.hfi_exit()
        for _ in range(max(1, host_cycles)):
            asm.nop()
        asm.hfi_reenter()

    def prepare(self, space, layout, params):
        self.descriptor(layout).stage(space, layout.descriptor_base)


#: Registry for CLI/bench parameterization.
STRATEGIES = {
    "native-unsafe": NativeUnsafeStrategy,
    "guard-pages": GuardPagesStrategy,
    "bounds-check": BoundsCheckStrategy,
    "masking": MaskingStrategy,
    "hfi": HfiStrategy,
    "hfi-emulation": HfiEmulationStrategy,
    "swivel": SwivelStrategy,
    "native-hfi": NativeHfiStrategy,
}


def make_strategy(name: str, **kwargs) -> IsolationStrategy:
    """Instantiate a strategy by registry name."""
    try:
        return STRATEGIES[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; "
                         f"known: {sorted(STRATEGIES)}") from None
