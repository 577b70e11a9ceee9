"""Seeded ISA-level differential fuzzing of the staged engine.

``build_case(seed)`` generates a well-formed program over the full
opcode table — ALU traffic, loads/stores of every operand size,
balanced push/pop, forward branches, bounded loops, direct and
indirect calls, HFI sandbox episodes (region installs, ``hfi_enter``
in every flag combination, in- and out-of-bounds ``hmov``,
``hfi_exit``/``hfi_reenter``), a hybrid sandbox in the exit handler
that rewrites its code regions and then runs or jumps past the new
bound, ``xsave``/``xrstor`` pairs, syscalls, and deliberately-faulting
accesses.  Every sandbox exit and native-sandbox syscall lands in the
exit handler, which then resumes the body just past the episode that
exited; every fault stop restarts at the fault handler, which resumes
the same way.  Each prologue runs a fixed two-iteration loop and a
``cpuid``, so every program mispredicts a branch and serializes.

``run_differential(seed)`` executes the same program on each of the
:data:`CELLS` — the staged :class:`~repro.cpu.machine.Cpu` under the
``inorder`` and ``ooo`` timing models, and the naive
:class:`~repro.verify.reference.ReferenceCpu` — starting from
bit-identical address spaces, and asserts equality against the first
cell: every stop's reason, ``rip`` and fault record, the committed
instruction and fault counts, and the full architectural end state
(every GPR, the flags, ``rip``, the HFI bank — regions, sandbox flags,
cause MSR, lifecycle counters — and all non-zero memory).  The staged
cells also carry the CPU invariant checks: each runs with a
:class:`~repro.verify.invariants.SpeculationIdentityProbe` armed and
must open a wrong-path window, the ``ooo`` cell's scoreboard must
drain and audit clean before and after a final drain, and the two
must agree on ``stats.serializations``.

``rdtsc`` is the one architectural instruction never generated: it
reads the cycle counter, which the reference engine does not model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Tuple

from ..core.encoding import encode_region, encode_sandbox
from ..core.regions import (
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
)
from ..core.registers import SandboxFlags
from ..cpu.machine import Cpu
from ..isa.assembler import Assembler
from ..isa.instruction import Program
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import Reg
from ..os.address_space import AddressSpace, Prot
from ..params import MachineParams
from .invariants import SpeculationIdentityProbe
from .reference import ReferenceCpu

# ----------------------------------------------------------------------
# fixed memory layout shared by every generated case
# ----------------------------------------------------------------------
CODE_BASE = 0x0040_0000
CODE_BYTES = 1 << 16
DATA_BASE = 0x0010_0000
DATA_BYTES = 1 << 16
STACK_BASE = 0x002F_0000
STACK_BYTES = 1 << 16
HEAP_BASE = 0x0080_0000
HEAP_BYTES = 1 << 16
SMALL_BOUND = 0x8000

RSP_INIT = STACK_BASE + STACK_BYTES - 0x1000

#: Random loads/stores stay inside [DATA_BASE+0x100, DATA_BASE+0xE000);
#: descriptors and the xsave area live above that so stray stores
#: cannot corrupt them.
SCRATCH_LO, SCRATCH_HI = 0x100, 0xDFF0
XSAVE_OFF = 0xE800
GET_REGION_OFF = 0xE900

DESC_CODE = DATA_BASE + 0xF000
DESC_DATA = DATA_BASE + 0xF020
DESC_STACK = DATA_BASE + 0xF040
DESC_HEAP_LARGE = DATA_BASE + 0xF060
DESC_HEAP_SMALL = DATA_BASE + 0xF080
SANDBOX_DESCS = [DATA_BASE + 0xF100 + 0x10 * i for i in range(4)]
#: The code-region episode's region descriptor and, 24 bytes above it,
#: its jump target (both written once the program is laid out), then
#: its sandbox: hybrid, with no exit handler.
CODE_EPISODE_DESC = DATA_BASE + 0xF200
CODE_EPISODE_SANDBOX = CODE_EPISODE_DESC + 32
#: Where the exit and fault handlers find their resume address: each
#: ``hfi_enter`` and ``hfi_reenter`` first stores the address just past
#: its episode, and each top-level fault or division the address just
#: past itself.
RESUME_SLOT = DATA_BASE + 0xF300
SANDBOX_FLAG_VARIANTS = [
    SandboxFlags(),                                      # native
    SandboxFlags(is_hybrid=True),
    SandboxFlags(is_serialized=True),
    SandboxFlags(switch_on_exit=True),
]

SCRATCH = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI,
           Reg.R8, Reg.R9, Reg.R10, Reg.R11]
SIZES = [1, 2, 4, 8]
IMM_POOL = [0, 1, 2, 7, 0xFF, 0x1234, 1 << 31, (1 << 63) - 1,
            1 << 63, (1 << 64) - 1]
JCC = ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae"]


@dataclass
class FuzzCase:
    """One generated program plus the memory image it runs against."""

    seed: int
    program: Program
    entry: int
    #: Where the differential restarts a run after a fault stop.
    fault_handler: int
    mappings: List[Tuple[int, int, Prot, str]]
    preload: List[Tuple[int, bytes]]
    max_instructions: int = 200_000


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        #: The code-region episode draws from its own stream, so having
        #: one or not leaves the rest of the program unchanged.
        self.code_rng = random.Random(f"code-region-{seed}")
        self.asm = Assembler(base=CODE_BASE)
        self.depth = 0            # tracked push/pop balance
        self.had_episode = False  # an hfi_exit has banked a reenter state
        self._label = 0
        self._fns = ["fn0", "fn1"]
        #: (variant, label names, execute) of the code-region episode.
        self._code_episode: Optional[Tuple[str, Dict[str, str], bool]] = None

    def fresh_label(self, tag: str) -> str:
        self._label += 1
        return f"{tag}_{self._label}"

    def reg(self) -> Reg:
        return self.rng.choice(SCRATCH)

    def imm(self) -> Imm:
        rng = self.rng
        if rng.random() < 0.6:
            return Imm(rng.choice(IMM_POOL))
        return Imm(rng.randrange(0, 1 << 64))

    # ------------------------------------------------------------------
    # simple steps (safe anywhere, including inside loops and sandboxes)
    # ------------------------------------------------------------------
    def step_simple(self) -> None:
        a, rng = self.asm, self.rng
        kind = rng.choices(
            ["alu_rr", "alu_ri", "shift", "unary", "mov_imm", "mov_rr",
             "load", "store", "load_indexed", "lea", "serialize"],
            weights=[3, 3, 1, 1, 2, 1, 2, 2, 1, 1, 1])[0]
        if kind == "alu_rr":
            op = rng.choice([a.add, a.sub, a.and_, a.or_, a.xor, a.imul])
            op(self.reg(), self.reg())
        elif kind == "alu_ri":
            op = rng.choice([a.add, a.sub, a.and_, a.or_, a.xor, a.imul,
                             a.cmp, a.test])
            op(self.reg(), self.imm())
        elif kind == "shift":
            op = rng.choice([a.shl, a.shr, a.sar])
            op(self.reg(), Imm(rng.randrange(0, 70)))
        elif kind == "unary":
            rng.choice([a.not_, a.neg, a.inc, a.dec])(self.reg())
        elif kind == "mov_imm":
            a.mov(self.reg(), self.imm())
        elif kind == "mov_rr":
            a.mov(self.reg(), self.reg())
        elif kind == "load":
            size = rng.choice(SIZES)
            a.mov(self.reg(), Mem(base=Reg.RBP, size=size,
                                  disp=rng.randrange(SCRATCH_LO,
                                                     SCRATCH_HI)))
        elif kind == "store":
            size = rng.choice(SIZES)
            src = self.reg() if rng.random() < 0.7 else self.imm()
            a.mov(Mem(base=Reg.RBP, size=size,
                      disp=rng.randrange(SCRATCH_LO, SCRATCH_HI)), src)
        elif kind == "load_indexed":
            idx = self.reg()
            a.and_(idx, Imm(0x1FF0))     # keep RBP+idx+disp inside DATA
            a.mov(self.reg(), Mem(base=Reg.RBP, index=idx, scale=1,
                                  disp=0x2000, size=8))
        elif kind == "lea":
            a.lea(self.reg(), Mem(base=Reg.RBP, index=self.reg(),
                                  scale=rng.choice([1, 2, 4, 8]),
                                  disp=rng.randrange(0, 1 << 32)))
        else:
            rng.choice([a.cpuid, a.lfence, a.nop])()

    # ------------------------------------------------------------------
    # structured steps
    # ------------------------------------------------------------------
    def step_stack(self) -> None:
        a, rng = self.asm, self.rng
        if self.depth > 0 and rng.random() < 0.5:
            a.pop(self.reg())
            self.depth -= 1
        else:
            a.push(self.reg() if rng.random() < 0.7 else self.imm())
            self.depth += 1

    def step_skip_block(self) -> None:
        a, rng = self.asm, self.rng
        if rng.random() < 0.7:
            a.cmp(self.reg(), self.imm() if rng.random() < 0.5
                  else self.reg())
        else:
            a.test(self.reg(), self.reg())
        label = self.fresh_label("skip")
        getattr(a, rng.choice(JCC))(label)
        for _ in range(rng.randint(1, 3)):
            self.step_simple()
        a.label(label)

    def step_loop(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.R13, Imm(rng.randint(2, 6)))
        top = self.fresh_label("loop")
        a.label(top)
        for _ in range(rng.randint(1, 2)):
            self.step_simple()
        a.dec(Reg.R13)
        a.jne(top)

    def step_call(self) -> None:
        a, rng = self.asm, self.rng
        fn = rng.choice(self._fns)
        if rng.random() < 0.3:
            a.mov(Reg.R14, LabelRef(fn))
            a.call(Reg.R14)
        else:
            a.call(fn)

    def step_indirect_jmp(self) -> None:
        a = self.asm
        label = self.fresh_label("ijmp")
        a.mov(Reg.R14, LabelRef(label))
        a.jmp(Reg.R14)
        a.label(label)

    def step_xsave_pair(self) -> None:
        a, rng = self.asm, self.rng
        area = Mem(base=Reg.RBP, disp=XSAVE_OFF)
        a.xsave(area)
        for _ in range(rng.randint(1, 3)):
            self.step_simple()
        a.xrstor(area)

    def step_syscall(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.RAX, Imm(rng.randrange(0, 300)))
        (a.int80 if rng.random() < 0.3 else a.syscall)()

    def step_pkru(self) -> None:
        a, rng = self.asm, self.rng
        rng.choice([a.wrpkru, a.rdpkru])()

    def step_region_query(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.RDI, Imm(DATA_BASE + GET_REGION_OFF))
        a.hfi_get_region(rng.randrange(0, 10), Reg.RDI)

    def step_region_clear(self) -> None:
        a, rng = self.asm, self.rng
        if rng.random() < 0.3:
            a.hfi_clear_all_regions()
        else:
            a.hfi_clear_region(rng.randrange(0, 10))

    def step_div(self) -> None:
        a, rng = self.asm, self.rng
        resume = self.store_resume()
        a.mov(Reg.RCX, self.imm() if rng.random() < 0.5
              else Imm(rng.randrange(1, 1 << 32)))
        # RCX may still be zero (the imm pool contains 0): a genuine
        # division fault is a legal outcome both engines must agree on.
        rng.choice([a.idiv, a.imod])(self.reg(), Reg.RCX)
        a.label(resume)

    def step_clflush(self) -> None:
        a, rng = self.asm, self.rng
        a.clflush(Mem(base=Reg.RBP,
                      disp=rng.randrange(SCRATCH_LO, SCRATCH_HI)))

    # ------------------------------------------------------------------
    # hmov traffic (sandbox only)
    # ------------------------------------------------------------------
    def step_hmov(self) -> None:
        a, rng = self.asm, self.rng
        size = rng.choice(SIZES)
        slot = 0 if rng.random() < 0.7 else 1   # large heap / small RO
        limit = HEAP_BYTES if slot == 0 else SMALL_BOUND
        idx_val = rng.randrange(0, limit - 0x40)
        disp = rng.randrange(0, 0x38)
        a.mov(Reg.R12, Imm(idx_val))
        mem = Mem(index=Reg.R12, scale=1, disp=disp, size=size)
        if slot == 1 or rng.random() < 0.5:     # slot 1 is read-only
            a.hmov(slot, self.reg(), mem)
        else:
            src = self.reg() if rng.random() < 0.7 else self.imm()
            a.hmov(slot, mem, src)

    # ------------------------------------------------------------------
    # deliberate faults — each stops the run, which the differential
    # restarts at the fault handler; every cell must agree on the cause,
    # address, and final state.  A sandboxed fault resumes past its
    # episode, a top-level one just past itself.
    # ------------------------------------------------------------------
    def step_fault(self, sandboxed: bool) -> None:
        a, rng = self.asm, self.rng
        if sandboxed:
            kind = rng.choice(["implicit_oob", "hmov_oob", "hmov_clear",
                               "hmov_readonly_store", "region_locked",
                               "xrstor_in_sandbox"])
            if kind == "implicit_oob":
                a.mov(self.reg(), Mem(disp=HEAP_BASE, size=8))
            elif kind == "hmov_oob":
                a.mov(Reg.R12, Imm(HEAP_BYTES + rng.randrange(0, 1 << 20)))
                a.hmov(0, self.reg(), Mem(index=Reg.R12, size=8))
            elif kind == "hmov_clear":
                a.mov(Reg.R12, Imm(0))
                a.hmov(2, self.reg(), Mem(index=Reg.R12, size=8))
            elif kind == "hmov_readonly_store":
                a.mov(Reg.R12, Imm(rng.randrange(0, SMALL_BOUND - 8)))
                a.hmov(1, Mem(index=Reg.R12, size=8), self.reg())
            elif kind == "region_locked":
                a.mov(Reg.RDI, Imm(DESC_HEAP_LARGE))
                a.hfi_set_region(6, Reg.RDI)
            else:
                a.xrstor(Mem(base=Reg.RBP, disp=XSAVE_OFF))
        else:
            resume = self.store_resume()
            kind = rng.choice(["unmapped", "div0", "xrstor_bad",
                               "hmov_disabled"])
            if kind == "unmapped":
                a.mov(self.reg(), Mem(disp=0x5000_0000, size=8))
            elif kind == "div0":
                a.mov(Reg.RCX, Imm(0))
                a.idiv(self.reg(), Reg.RCX)
            elif kind == "xrstor_bad":
                a.xrstor(Mem(base=Reg.RBP, disp=XSAVE_OFF - 0x10))
            else:
                a.mov(Reg.R12, Imm(0))
                a.hmov(0, self.reg(), Mem(index=Reg.R12, size=8))
            a.label(resume)

    # ------------------------------------------------------------------
    # HFI sandbox episode
    # ------------------------------------------------------------------
    def store_resume(self) -> str:
        """Store a fresh label's address in :data:`RESUME_SLOT`; the
        caller places the label after the episode's ``hfi_exit``."""
        a = self.asm
        resume = self.fresh_label("resume")
        a.mov(Reg.R14, LabelRef(resume))
        a.mov(Mem(disp=RESUME_SLOT, size=8), Reg.R14)
        return resume

    def sandbox_episode(self) -> None:
        a, rng = self.asm, self.rng
        for number, desc in ((0, DESC_CODE), (2, DESC_DATA),
                             (3, DESC_STACK), (6, DESC_HEAP_LARGE)):
            a.mov(Reg.RDI, Imm(desc))
            a.hfi_set_region(number, Reg.RDI)
        if rng.random() < 0.8:
            a.mov(Reg.RDI, Imm(DESC_HEAP_SMALL))
            a.hfi_set_region(7, Reg.RDI)
        a.mov(Reg.RDI, Imm(rng.choice(SANDBOX_DESCS)))
        resume = self.store_resume()
        a.hfi_enter(Reg.RDI)
        for _ in range(rng.randint(2, 8)):
            self.sandboxed_step()
        a.hfi_exit()
        a.label(resume)
        self.had_episode = True
        if rng.random() < 0.25:
            resume = self.store_resume()
            a.hfi_reenter()
            for _ in range(rng.randint(1, 2)):
                self.sandboxed_step()
            a.hfi_exit()
            a.label(resume)

    def code_region_episode(self) -> None:
        """A hybrid sandbox rewrites its code regions (in the exit
        handler, before it resumes the body; its own sandbox has no
        exit handler).

        Region 0 first covers all the code.  The sandbox then narrows
        it and runs off its end (``run_past``), narrows it and jumps
        just past it (``jump_past``), or fills slot 1 with all the code
        and slot 0 with a one-byte region nested in it, with or without
        execute permission (``nested``).  The descriptor depends on the
        layout, so :meth:`code_episode_preload` writes it after
        assembly.
        """
        main, self.rng = self.rng, self.code_rng
        a, rng = self.asm, self.rng
        variant = rng.choice(["run_past", "jump_past", "nested", "nested"])
        for number, region_desc in ((0, DESC_CODE), (2, DESC_DATA),
                                    (3, DESC_STACK)):
            a.mov(Reg.RDI, Imm(region_desc))
            a.hfi_set_region(number, Reg.RDI)
        if variant == "nested":
            a.mov(Reg.RDI, Imm(DESC_CODE))
            a.hfi_set_region(1, Reg.RDI)
        else:
            a.hfi_clear_region(1)
        a.mov(Reg.RDI, Imm(CODE_EPISODE_SANDBOX))
        a.hfi_enter(Reg.RDI)
        for _ in range(rng.randint(1, 3)):
            self.step_simple()
        a.mov(Reg.RDI, Imm(CODE_EPISODE_DESC))
        a.hfi_set_region(0, Reg.RDI)
        labels = {name: self.fresh_label(f"code_{name}")
                  for name in ("start", "hole", "last", "after")}
        steps = rng.randint(2, 8)
        hole = rng.randrange(steps)
        a.label(labels["start"])
        for step in range(steps):
            if step == hole:
                a.label(labels["hole"])
            if step == steps - 1:
                a.label(labels["last"])
            self.step_simple()
        if variant == "jump_past":
            a.mov(Reg.R14, Mem(disp=CODE_EPISODE_DESC + 24, size=8))
            a.jmp(Reg.R14)
        a.label(labels["after"])
        a.hfi_exit()
        self._code_episode = (variant, labels, rng.random() < 0.5)
        self.rng = main

    def sandboxed_step(self) -> None:
        rng = self.rng
        kind = rng.choices(
            ["simple", "hmov", "stack", "skip", "call", "syscall",
             "fault"],
            weights=[5, 3, 2, 2, 1, 0.4, 0.25])[0]
        if kind == "simple":
            self.step_simple()
        elif kind == "hmov":
            self.step_hmov()
        elif kind == "stack":
            self.step_stack()
        elif kind == "skip":
            self.step_skip_block()
        elif kind == "call":
            self.step_call()
        elif kind == "syscall":
            self.step_syscall()
        else:
            self.step_fault(sandboxed=True)

    def toplevel_step(self) -> None:
        rng = self.rng
        kind = rng.choices(
            ["simple", "stack", "skip", "loop", "call", "ijmp",
             "episode", "xsave", "syscall", "pkru", "query", "clear",
             "div", "clflush", "reenter", "fault"],
            weights=[6, 2, 2, 1.5, 1.5, 0.7, 2.5, 0.7, 0.7, 0.5, 0.7,
                     0.4, 1, 0.4, 0.4, 0.3])[0]
        if kind == "simple":
            self.step_simple()
        elif kind == "stack":
            self.step_stack()
        elif kind == "skip":
            self.step_skip_block()
        elif kind == "loop":
            self.step_loop()
        elif kind == "call":
            self.step_call()
        elif kind == "ijmp":
            self.step_indirect_jmp()
        elif kind == "episode":
            self.sandbox_episode()
        elif kind == "xsave":
            self.step_xsave_pair()
        elif kind == "syscall":
            self.step_syscall()
        elif kind == "pkru":
            self.step_pkru()
        elif kind == "query":
            self.step_region_query()
        elif kind == "clear":
            self.step_region_clear()
        elif kind == "div":
            self.step_div()
        elif kind == "clflush":
            self.step_clflush()
        elif kind == "reenter":
            if self.had_episode:
                resume = self.store_resume()
                self.asm.hfi_reenter()
                self.step_simple()
                self.asm.hfi_exit()
                self.asm.label(resume)
            else:
                self.step_simple()
        else:
            self.step_fault(sandboxed=False)

    def code_episode_preload(self, program: Program
                             ) -> List[Tuple[int, bytes]]:
        """The code-region episode's descriptor and jump target."""
        if self._code_episode is None:
            return []
        variant, labels, execute = self._code_episode
        at = {name: program.labels[label] for name, label in labels.items()}
        start, target = at["start"], 0
        if variant == "nested":
            region = ImplicitCodeRegion(at["hole"], 0,
                                        permission_exec=execute)
        elif variant == "run_past":
            # the largest aligned block holding ``start`` that ends at
            # or before the last step: straight-line code runs off it
            mask = 0
            while (start | (2 * mask + 1)) + 1 <= at["last"]:
                mask = 2 * mask + 1
            region = ImplicitCodeRegion(start & ~mask, mask)
        else:
            region = ImplicitCodeRegion.covering(start, at["after"] - start)
            target = region.base_prefix + region.size
        return [(CODE_EPISODE_DESC, encode_region(region)),
                (CODE_EPISODE_DESC + 24, target.to_bytes(8, "little")),
                (CODE_EPISODE_SANDBOX,
                 encode_sandbox(SandboxFlags(is_hybrid=True), 0))]

    # ------------------------------------------------------------------
    def build(self, seed: int) -> FuzzCase:
        a, rng = self.asm, self.rng
        # prologue: stack, data base pointer, random register state
        a.mov(Reg.RSP, Imm(RSP_INIT))
        a.mov(Reg.RBP, Imm(DATA_BASE))
        for reg in SCRATCH:
            a.mov(reg, Imm(rng.randrange(0, 1 << 64)))
        # a fixed two-iteration loop mispredicts a branch, so each staged
        # cell opens a wrong-path window, and cpuid drains the ooo window
        a.mov(Reg.R13, Imm(2))
        a.label("prologue_loop")
        a.dec(Reg.R13)
        a.jne("prologue_loop")
        a.cpuid()
        for _ in range(rng.randint(10, 40)):
            self.toplevel_step()
        a.hlt()
        # subroutines: pure register arithmetic, single ret
        for fn in self._fns:
            a.label(fn)
            for _ in range(rng.randint(2, 4)):
                op = rng.choice([a.add, a.sub, a.xor, a.imul])
                op(rng.choice(SCRATCH), rng.choice(SCRATCH))
            a.ret()
        # exit handler: every sandbox exit lands here, then resumes
        a.label("handler")
        a.nop()
        if self.code_rng.random() < 0.5:
            self.code_region_episode()
        a.mov(Reg.R14, Mem(disp=RESUME_SLOT, size=8))
        a.jmp(Reg.R14)
        # fault handler: the differential restarts each run here after
        # a fault stop, and it resumes the same way
        a.label("fault_handler")
        a.mov(Reg.R14, Mem(disp=RESUME_SLOT, size=8))
        a.jmp(Reg.R14)

        program = a.assemble()
        handler = program.labels["handler"]
        preload: List[Tuple[int, bytes]] = [
            (DESC_CODE, encode_region(
                ImplicitCodeRegion.covering(CODE_BASE, CODE_BYTES))),
            (DESC_DATA, encode_region(
                ImplicitDataRegion.covering(DATA_BASE, DATA_BYTES))),
            (DESC_STACK, encode_region(
                ImplicitDataRegion.covering(STACK_BASE, STACK_BYTES))),
            (DESC_HEAP_LARGE, encode_region(ExplicitDataRegion(
                HEAP_BASE, HEAP_BYTES, permission_read=True,
                permission_write=True, is_large_region=True))),
            (DESC_HEAP_SMALL, encode_region(ExplicitDataRegion(
                HEAP_BASE, SMALL_BOUND, permission_read=True,
                permission_write=False, is_large_region=False))),
        ]
        for addr, flags in zip(SANDBOX_DESCS, SANDBOX_FLAG_VARIANTS):
            preload.append((addr, encode_sandbox(flags, handler)))
        preload.append((DATA_BASE + SCRATCH_LO,
                        rng.randbytes(0x300) if hasattr(rng, "randbytes")
                        else bytes(rng.randrange(256) for _ in range(0x300))))
        preload.append((HEAP_BASE,
                        bytes(rng.randrange(256) for _ in range(0x200))))
        preload.extend(self.code_episode_preload(program))
        mappings = [
            (CODE_BASE, CODE_BYTES, Prot.READ | Prot.EXEC, "code"),
            (DATA_BASE, DATA_BYTES, Prot.READ | Prot.WRITE, "data"),
            (STACK_BASE, STACK_BYTES, Prot.READ | Prot.WRITE, "stack"),
            (HEAP_BASE, HEAP_BYTES, Prot.READ | Prot.WRITE, "heap"),
        ]
        return FuzzCase(seed=seed, program=program, entry=CODE_BASE,
                        fault_handler=program.labels["fault_handler"],
                        mappings=mappings, preload=preload)


def build_case(seed: int) -> FuzzCase:
    """Deterministically generate the fuzz program for ``seed``."""
    return _Generator(seed).build(seed)


# ----------------------------------------------------------------------
# differential execution
# ----------------------------------------------------------------------
#: The differential's cells, each built directly: the staged engine
#: under both timing models, then the reference oracle, which has no
#: timing model and so runs once.  Every cell is compared against the
#: first.
CELLS: Dict[str, Callable[..., object]] = {
    "staged/inorder": partial(Cpu, timing="inorder"),
    "staged/ooo": partial(Cpu, timing="ooo"),
    "reference/inorder": ReferenceCpu,
}


def _fresh_cell(make: Callable[..., object], case: FuzzCase,
                params: MachineParams):
    """A cell's core over the case's address space, program loaded."""
    space = AddressSpace(params)
    for base, length, prot, name in case.mappings:
        space.mmap(length, prot, addr=base, name=name)
    for addr, data in case.preload:
        space.write_bytes(addr, data, check=False)
    cpu = make(params, memory=space)
    cpu.load_program(case.program)
    return cpu


def _guarded_run(cpu, entry: int, max_instructions: int) -> Dict[str, object]:
    """One run from ``entry``: its stop, or the exception it raised."""
    try:
        result = cpu.run(entry, max_instructions=max_instructions)
    except Exception as exc:  # engines must agree even on escapes
        return {"exception": f"{type(exc).__name__}: {exc}"}
    fault = result.fault
    return {
        "reason": result.reason,
        "rip": result.rip,
        "fault": (None if fault is None else
                  (fault.kind, fault.hfi_cause, fault.addr, fault.detail)),
    }


def _run_case(cpu, case: FuzzCase) -> List[Dict[str, object]]:
    """Every stop of the case: each fault stop restarts the run at the
    fault handler, until a halt, an exception or the instruction
    budget."""
    stops = [_guarded_run(cpu, case.entry, case.max_instructions)]
    while (stops[-1].get("reason") == "fault"
           and cpu.stats.instructions < case.max_instructions):
        stops.append(_guarded_run(
            cpu, case.fault_handler,
            case.max_instructions - cpu.stats.instructions))
    return stops


def _hfi_digest(hfi) -> Dict[str, object]:
    regs = hfi.regs
    return {
        "enabled": regs.enabled,
        "flags": regs.flags,
        "exit_handler": regs.exit_handler,
        "cause_msr": regs.cause_msr,
        "code": tuple(regs.code),
        "data": tuple(regs.data),
        "explicit": tuple(regs.explicit),
        "enters": hfi.enters,
        "exits": hfi.exits,
        "region_installs": hfi.region_installs,
        "serializations": hfi.serializations,
    }


def architectural_digest(cpu) -> Dict[str, object]:
    """Full architectural end state of any cell, comparison-ready.

    All-zero memory pages are dropped: the engines may lazily
    materialize different page sets, but the bytes must agree.
    """
    flags = cpu.regs.flags
    stats = cpu.stats
    return {
        "regs": {reg.name: cpu.regs.regs[reg] for reg in Reg},
        "flags": (flags.zf, flags.sf, flags.cf, flags.of),
        "rip": cpu.regs.rip,
        "counts": {"instructions": stats.instructions,
                   "hfi_faults": stats.hfi_faults,
                   "page_faults": stats.page_faults},
        "hfi": _hfi_digest(cpu.hfi),
        "memory": {page: bytes(buf)
                   for page, buf in cpu.mem._pages.items() if any(buf)},
    }


@dataclass
class DifferentialOutcome:
    """One seed across every cell: the first cell's last stop, its
    committed instructions and fault stops, the disagreements with it,
    and the staged cells' invariant checks."""

    seed: int
    reason: str = ""
    instructions: int = 0
    fault_stops: int = 0
    divergences: List[str] = field(default_factory=list)
    invariant_checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations


def _diff_stops(base: List[Dict], other: List[Dict], base_name: str,
                other_name: str, out: List[str]) -> None:
    for index, (mine, theirs) in enumerate(
            zip_longest(base, other, fillvalue={})):
        for key in sorted(set(mine) | set(theirs)):
            if mine.get(key) != theirs.get(key):
                out.append(f"stop {index} {key}: "
                           f"{base_name}={mine.get(key)!r} "
                           f"{other_name}={theirs.get(key)!r}")


def _diff_digests(base: Dict, other: Dict, base_name: str,
                  other_name: str, out: List[str]) -> None:
    for name, value in base["regs"].items():
        theirs = other["regs"][name]
        if value != theirs:
            out.append(f"reg {name}: {base_name}={value:#x} "
                       f"{other_name}={theirs:#x}")
    if base["flags"] != other["flags"]:
        out.append(f"flags: {base_name}={base['flags']} "
                   f"{other_name}={other['flags']}")
    if base["rip"] != other["rip"]:
        out.append(f"rip: {base_name}={base['rip']:#x} "
                   f"{other_name}={other['rip']:#x}")
    for section in ("counts", "hfi"):
        for key, value in base[section].items():
            theirs = other[section][key]
            if value != theirs:
                out.append(f"{section}.{key}: {base_name}={value!r} "
                           f"{other_name}={theirs!r}")
    pages = set(base["memory"]) | set(other["memory"])
    for page in sorted(pages):
        mine = base["memory"].get(page)
        theirs = other["memory"].get(page)
        if mine != theirs:
            out.append(
                f"memory page {page:#x} differs "
                f"({base_name}={'present' if mine else 'absent'}, "
                f"{other_name}={'present' if theirs else 'absent'})")


def _check_staged(name: str, cpu: Cpu, probe: SpeculationIdentityProbe,
                  outcome: DifferentialOutcome) -> None:
    """A staged cell's invariants: a wrong-path window opened and every
    squash kept the state's identity; under ``ooo`` the window drained,
    the scoreboard audits clean, and a final drain empties the window
    and leaves it auditing clean."""
    problems = list(probe.violation_log)
    if not probe.checks:
        problems.append("no wrong-path window opened")
    checks = probe.checks + 1
    if cpu.timing_model == "ooo":
        timing = cpu.timing
        problems += [f"audit: {p}" for p in timing.audit()]
        if not timing.ooo_stats().drains:
            problems.append("the window never drained")
        timing.drain_pending()
        if timing.window_occupancy:
            problems.append(f"{timing.window_occupancy} ROB entries "
                            "left after a drain")
        problems += [f"audit after the drain: {p}" for p in timing.audit()]
        checks += 4
    outcome.invariant_checks += checks
    outcome.violations += [f"{name}: {p}" for p in problems]


def run_differential(seed: int, params: Optional[MachineParams] = None
                     ) -> DifferentialOutcome:
    """Run one seed on every cell; report disagreements with the first
    cell, and the staged cells' invariant checks.

    Timing models must not change architecture: cycle counts may (and
    do) differ across cells, but every stop, the registers, flags, rip,
    memory, the HFI bank, and the instruction and fault counts must be
    bit-identical.
    """
    params = params if params is not None else MachineParams()
    case = build_case(seed)
    outcome = DifferentialOutcome(seed=seed)
    serializations: Dict[str, int] = {}
    base_name = base_stops = base_digest = None
    for name, make in CELLS.items():
        cpu = _fresh_cell(make, case, params)
        probe = None
        if isinstance(cpu, Cpu):
            probe = SpeculationIdentityProbe(raise_on_violation=False)
            cpu.install_invariant_probe(probe)
        stops = _run_case(cpu, case)
        digest = (None if "exception" in stops[-1]
                  else architectural_digest(cpu))
        if base_name is None:
            base_name, base_stops, base_digest = name, stops, digest
            outcome.reason = str(stops[-1].get("reason", "exception"))
            outcome.instructions = cpu.stats.instructions
            outcome.fault_stops = sum(stop.get("reason") == "fault"
                                      for stop in stops)
        else:
            _diff_stops(base_stops, stops, base_name, name,
                        outcome.divergences)
            if base_digest is not None and digest is not None:
                _diff_digests(base_digest, digest, base_name, name,
                              outcome.divergences)
        if probe is not None:
            _check_staged(name, cpu, probe, outcome)
            serializations[name] = cpu.stats.serializations
    outcome.invariant_checks += 1
    if len(set(serializations.values())) > 1:
        outcome.violations.append("serializations disagree: " + ", ".join(
            f"{name}={count}" for name, count in serializations.items()))
    return outcome


def run_seeds(seeds, params: Optional[MachineParams] = None
              ) -> List[DifferentialOutcome]:
    """Differentially execute every seed; returns one outcome per seed."""
    return [run_differential(seed, params=params) for seed in seeds]
