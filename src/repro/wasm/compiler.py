"""The wir -> ISA compiler with pluggable isolation (the Wasm2c analogue).

Lowering model:

* Locals are register-allocated first-come-first-served from the pool
  the isolation strategy leaves available; the rest live in static
  spill slots in the instance's support area.  Strategies that pin
  registers (guard pages: heap base; bounds checks: base + bound)
  shrink the pool — the register-pressure effect §6.1 measures.
* Every linear-memory access is delegated to the strategy, which is
  where guard-page folding, cmp+branch checks, masking, ``hmov``, or
  nothing (native) get emitted.
* Sandbox entry/exit and host-call transitions are also strategy-owned.

The compiler is deliberately simple (no recursion support: spill slots
are static) but deterministic, so cycle comparisons across strategies
are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..isa import Assembler, Imm, Mem, Opcode, Program, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from . import ir
from .strategies import CodegenContext, IsolationStrategy, SandboxLayout

#: Magic value left in RAX by the trap handler (bounds-check failures).
TRAP_MAGIC = 0xDEAD_0BAD

#: Scratch registers owned by the compiler (never allocated to locals).
_SCRATCH_A = Reg.RAX   # primary value scratch / op results
_SCRATCH_B = Reg.RDX   # secondary operand scratch
_SCRATCH_ADDR = Reg.R11  # address materialization
_SCRATCH_STRAT = Reg.R10  # handed to strategies (masking, bounds lea)
_DESCRIPTOR_PTR = Reg.RDI  # used by HFI entry sequences

_POOL_ORDER = [Reg.RBX, Reg.RCX, Reg.RSI, Reg.RBP, Reg.R8, Reg.R9,
               Reg.R12, Reg.R13, Reg.R14, Reg.R15]


class CompileError(Exception):
    """The module can't be lowered (e.g. unsupported op)."""


@dataclass
class CompiledModule:
    """Output of :meth:`Compiler.compile`."""

    module: ir.Module
    program: Program
    entry: int                    # address the host jumps to
    layout: SandboxLayout
    strategy: IsolationStrategy
    spilled_locals: int = 0
    register_locals: int = 0

    @property
    def binary_size(self) -> int:
        """Encoded byte size — Table 1's 'Bin size' column."""
        return self.program.size

    def disassemble(self, **kwargs) -> str:
        """A labelled listing of the emitted code (hmov marked ``*``)."""
        from ..isa.disasm import disassemble
        return disassemble(self.program, **kwargs)


@dataclass
class _FuncState:
    regs: Dict[str, Reg] = field(default_factory=dict)
    spills: Dict[str, int] = field(default_factory=dict)   # var -> addr


class Compiler:
    """Compiles a :class:`~repro.wasm.ir.Module` for one layout."""

    def __init__(self, strategy: IsolationStrategy,
                 params: MachineParams = DEFAULT_PARAMS,
                 reserve_extra_regs: int = 0):
        if reserve_extra_regs < 0:
            raise ValueError(f"reserve_extra_regs must be >= 0, "
                             f"got {reserve_extra_regs}")
        self.strategy = strategy
        self.params = params
        #: Artificially shrink the pool (the §6.1 register-pressure
        #: experiment reserves 1 then 2 extra registers).
        self.reserve_extra_regs = reserve_extra_regs

    # ------------------------------------------------------------------
    def compile(self, module: ir.Module,
                layout: SandboxLayout) -> CompiledModule:
        ir.validate(module)
        self._in_use = set()
        asm = Assembler(base=layout.code_base)
        ctx = CodegenContext(layout=layout, trap_label="__trap",
                             scratch=_SCRATCH_STRAT)
        self._label_counter = 0
        self._spill_cursor = layout.spill_base
        self._globals = {name: layout.globals_base + i * 8
                         for i, name in enumerate(module.globals)}
        spilled = registered = 0

        # host-side entry: establish stack, enter sandbox, call main
        asm.label("__entry")
        asm.mov(Reg.RSP, Imm(layout.stack_top))
        self.strategy.emit_entry(asm, ctx)
        main = module.functions[0].name
        asm.call(f"__fn_{main}")
        self.strategy.emit_exit(asm, ctx)
        asm.hlt()
        asm.label(ctx.trap_label)
        asm.mov(_SCRATCH_A, Imm(TRAP_MAGIC))
        asm.hlt()

        for fn in module.functions:
            state = self._allocate(fn)
            spilled += len(state.spills)
            registered += len(state.regs)
            asm.label(f"__fn_{fn.name}")
            # callee-saved convention: a function preserves every pool
            # register it uses, so calls can't clobber caller state
            used = sorted({r for r in state.regs.values()},
                          key=lambda r: r.value)
            for reg in used:
                asm.push(reg)
            self._epilogue_label = f"__fnend_{fn.name}"
            self._lower_block(asm, ctx, state, fn.body)
            asm.label(self._epilogue_label)
            for reg in reversed(used):
                asm.pop(reg)
            asm.ret()

        program = asm.assemble()
        entry = program.labels["__entry"]
        compiled = CompiledModule(module=module, program=program,
                                  entry=entry, layout=layout,
                                  strategy=self.strategy,
                                  spilled_locals=spilled,
                                  register_locals=registered)
        if program.size > layout.code_bytes:
            raise CompileError(
                f"code size {program.size} exceeds layout budget "
                f"{layout.code_bytes}")
        return compiled

    # ------------------------------------------------------------------
    # register allocation
    # ------------------------------------------------------------------
    def _pool(self) -> List[Reg]:
        pool = [r for r in _POOL_ORDER
                if r not in self.strategy.reserved_regs]
        # reserving the whole pool or more leaves it empty: every
        # local spills
        return pool[:max(0, len(pool) - self.reserve_extra_regs)]

    def _allocate(self, fn: ir.Function) -> _FuncState:
        names = ir.collect_locals(fn.body)
        names += [f"$loop{i}" for i in range(self._count_loops(fn.body))]
        state = _FuncState()
        pool = self._pool()
        for i, name in enumerate(names):
            if i < len(pool):
                state.regs[name] = pool[i]
            else:
                state.spills[name] = self._spill_cursor
                self._spill_cursor += 8
        return state

    def _count_loops(self, ops) -> int:
        count = 0
        for op in ops:
            if isinstance(op, ir.Loop):
                count += 1 + self._count_loops(op.body)
            elif isinstance(op, ir.If):
                count += self._count_loops(op.then_body)
                count += self._count_loops(op.else_body)
        return count

    # ------------------------------------------------------------------
    # value plumbing
    # ------------------------------------------------------------------
    def _operand(self, asm: Assembler, state: _FuncState,
                 value: ir.Value, scratch: Reg) -> Union[Reg, Imm]:
        """Return a Reg or Imm usable as an instruction source."""
        if isinstance(value, int):
            return Imm(value)
        reg = state.regs.get(value)
        if reg is not None:
            return reg
        asm.mov(scratch, Mem(disp=state.spills[value]))
        return scratch

    def _into_reg(self, asm: Assembler, state: _FuncState,
                  value: ir.Value, scratch: Reg) -> Reg:
        """Materialize a value into a register (scratch if needed)."""
        operand = self._operand(asm, state, value, scratch)
        if isinstance(operand, Imm):
            asm.mov(scratch, operand)
            return scratch
        return operand

    def _write_local(self, asm: Assembler, state: _FuncState,
                     name: str, src: Reg) -> None:
        reg = state.regs.get(name)
        if reg is not None:
            if reg is not src:
                asm.mov(reg, src)
        else:
            asm.mov(Mem(disp=state.spills[name]), src)

    def _local_reg(self, state: _FuncState, name: str) -> Optional[Reg]:
        return state.regs.get(name)

    def _fresh(self, prefix: str) -> str:
        self._label_counter += 1
        return f"__{prefix}{self._label_counter}"

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    _BINOP = {
        ir.BinaryOp.ADD: Opcode.ADD,
        ir.BinaryOp.SUB: Opcode.SUB,
        ir.BinaryOp.MUL: Opcode.IMUL,
        ir.BinaryOp.DIV: Opcode.IDIV,
        ir.BinaryOp.MOD: Opcode.IMOD,
        ir.BinaryOp.AND: Opcode.AND,
        ir.BinaryOp.OR: Opcode.OR,
        ir.BinaryOp.XOR: Opcode.XOR,
        ir.BinaryOp.SHL: Opcode.SHL,
        ir.BinaryOp.SHR: Opcode.SHR,
    }

    #: Inverted conditions: jump to else when the test fails.
    _INV_JUMP = {
        ir.Cmp.EQ: "jne", ir.Cmp.NE: "je",
        ir.Cmp.LT: "jge", ir.Cmp.LE: "jg",
        ir.Cmp.GT: "jle", ir.Cmp.GE: "jl",
        ir.Cmp.LTU: "jae", ir.Cmp.GEU: "jb",
    }

    def _lower_block(self, asm, ctx, state, ops) -> None:
        for op in ops:
            self._lower_op(asm, ctx, state, op)

    def _lower_op(self, asm, ctx, state, op) -> None:
        if isinstance(op, ir.Const):
            dst = self._local_reg(state, op.dst)
            if dst is not None:
                asm.mov(dst, Imm(op.value))
            else:
                asm.mov(_SCRATCH_A, Imm(op.value))
                self._write_local(asm, state, op.dst, _SCRATCH_A)
            return
        if isinstance(op, ir.Move):
            src = self._operand(asm, state, op.src, _SCRATCH_A)
            if isinstance(src, Imm):
                asm.mov(_SCRATCH_A, src)
                src = _SCRATCH_A
            self._write_local(asm, state, op.dst, src)
            return
        if isinstance(op, ir.BinOp):
            self._lower_binop(asm, state, op)
            return
        if isinstance(op, ir.Load):
            addr = self._into_reg(asm, state, op.addr, _SCRATCH_ADDR)
            dst = self._local_reg(state, op.dst)
            target = dst if dst is not None else _SCRATCH_A
            self.strategy.emit_load(asm, ctx, target, addr,
                                    op.offset, op.size, memory=op.memory)
            if dst is None:
                self._write_local(asm, state, op.dst, _SCRATCH_A)
            return
        if isinstance(op, ir.Store):
            src = self._into_reg(asm, state, op.src, _SCRATCH_A)
            addr = self._into_reg(asm, state, op.addr, _SCRATCH_ADDR)
            self.strategy.emit_store(asm, ctx, addr, op.offset, src,
                                     op.size, memory=op.memory)
            return
        if isinstance(op, ir.LoadGlobal):
            dst = self._local_reg(state, op.dst)
            target = dst if dst is not None else _SCRATCH_A
            asm.mov(target, Mem(disp=self._globals[op.name]))
            if dst is None:
                self._write_local(asm, state, op.dst, _SCRATCH_A)
            return
        if isinstance(op, ir.StoreGlobal):
            src = self._into_reg(asm, state, op.src, _SCRATCH_A)
            asm.mov(Mem(disp=self._globals[op.name]), src)
            return
        if isinstance(op, ir.Loop):
            self._lower_loop(asm, ctx, state, op)
            return
        if isinstance(op, ir.If):
            self._lower_if(asm, ctx, state, op)
            return
        if isinstance(op, ir.Call):
            asm.call(f"__fn_{op.func}")
            return
        if isinstance(op, ir.HostCall):
            self.strategy.emit_host_transition(asm, ctx, op.host_cycles)
            return
        if isinstance(op, ir.Return):
            asm.jmp(self._epilogue_label)  # run callee-saved restores
            return
        raise CompileError(f"cannot lower {op!r}")

    def _lower_binop(self, asm, state, op: ir.BinOp) -> None:
        opcode = self._BINOP[op.op]
        dst = self._local_reg(state, op.dst)
        b_operand = self._operand(asm, state, op.b, _SCRATCH_B)
        if dst is not None:
            if op.a == op.dst:
                # accumulator form: op dst, b  (single instruction)
                asm.emit(opcode, dst, b_operand)
                return
            if b_operand is dst:
                # b lives in dst's register; stash it first
                asm.mov(_SCRATCH_B, b_operand)
                b_operand = _SCRATCH_B
            a_operand = self._operand(asm, state, op.a, _SCRATCH_A)
            asm.mov(dst, a_operand)
            asm.emit(opcode, dst, b_operand)
            return
        a_operand = self._operand(asm, state, op.a, _SCRATCH_A)
        if not (isinstance(a_operand, Reg) and a_operand is _SCRATCH_A):
            asm.mov(_SCRATCH_A, a_operand)
        asm.emit(opcode, _SCRATCH_A, b_operand)
        self._write_local(asm, state, op.dst, _SCRATCH_A)

    def _lower_loop(self, asm, ctx, state, op: ir.Loop) -> None:
        ctr = self._loop_counter_name(state)
        top = self._fresh("loop")
        end = self._fresh("endloop")
        count = self._into_reg(asm, state, op.count, _SCRATCH_A)
        self._write_local(asm, state, ctr, count)
        ctr_operand = self._operand(asm, state, ctr, _SCRATCH_B)
        asm.cmp(ctr_operand, Imm(0))
        asm.je(end)
        asm.label(top)
        # Swivel-style hardening applies to every linear block, which
        # includes each loop-body block (its top is a branch target).
        self.strategy.harden_branch(asm, ctx)
        self._lower_block(asm, ctx, state, op.body)
        reg = self._local_reg(state, ctr)
        if reg is not None:
            asm.dec(reg)
        else:
            slot = state.spills[ctr]
            asm.mov(_SCRATCH_B, Mem(disp=slot))
            asm.dec(_SCRATCH_B)
            asm.mov(Mem(disp=slot), _SCRATCH_B)
        asm.jne(top)
        asm.label(end)
        self.strategy.harden_branch(asm, ctx)
        self._release_loop_counter(state, ctr)

    def _loop_counter_name(self, state) -> str:
        """Claim the next unused synthetic loop-counter local."""
        for i in range(len(state.regs) + len(state.spills)):
            name = f"$loop{i}"
            if (name in state.regs or name in state.spills) \
                    and name not in self._in_use:
                self._in_use.add(name)
                return name
        raise CompileError("loop counter allocation failed")

    def _release_loop_counter(self, state, name: str) -> None:
        self._in_use.discard(name)

    def _lower_if(self, asm, ctx, state, op: ir.If) -> None:
        else_label = self._fresh("else")
        end_label = self._fresh("endif")
        a = self._into_reg(asm, state, op.a, _SCRATCH_A)
        b = self._operand(asm, state, op.b, _SCRATCH_B)
        asm.cmp(a, b)
        getattr(asm, self._INV_JUMP[op.cmp])(else_label)
        self._lower_block(asm, ctx, state, op.then_body)
        if op.else_body:
            asm.jmp(end_label)
            asm.label(else_label)
            self._lower_block(asm, ctx, state, op.else_body)
            asm.label(end_label)
        else:
            asm.label(else_label)
        self.strategy.harden_branch(asm, ctx)
