"""Predecode: lower ``isa.Instruction`` into ready-to-run DecodedOps.

The staged engine replaces the old ~230-line ``if/elif`` dispatch chain
with a one-time lowering pass.  Each instruction is decoded exactly
once into a :class:`DecodedOp` whose ``run`` attribute is a closure
built by the per-opcode entry in :data:`DECODERS`:

* operand *shape* decisions (reg vs imm vs mem, direct vs indirect
  branch, hmov load vs store form) are resolved at decode time into
  pre-bound accessor closures, so the hot loop never touches
  ``isinstance`` again;
* static facts (fall-through ``next_rip``, branch targets, immediate
  values, effective-address formulas, region numbers) are captured in
  the closure environment;
* dynamic state (registers, HFI bank, params, speculation flag) is
  read from the ``cpu`` argument at run time, so one DecodedOp is
  valid for any core and any :class:`~repro.params.MachineParams`.

Decoded ops are cached per ``Program`` only (``decode_program``), so
reloading or sharing a program costs nothing, and an instruction holds
no reference back to its op: a program nothing else refers to is freed
without waiting for the cycle collector.  The CPU's ``_code`` map is a
:class:`CodeMap` that invalidates the decoded entry on any write,
keeping tests that patch instructions (and self-modifying setups)
coherent.

The exec modules (``exec_alu``, ``exec_mem``, ``exec_control``,
``exec_system``, ``exec_hfi``) register their builders here via the
:func:`decoder` decorator; importing them populates the table.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.checks import implicit_data_check
from ..isa.instruction import Instruction, Program
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, Mem
from ..isa.registers import MASK64, Reg


class _StopSpeculation(Exception):
    """Internal: the wrong path hit a squash point."""


#: opcode -> builder(ins, addr, next_rip) -> run(cpu) closure.
DECODERS: Dict[Opcode, Callable] = {}


def decoder(*opcodes: Opcode):
    """Register a decode builder for one or more opcodes."""
    def register(build):
        for opcode in opcodes:
            if opcode in DECODERS:
                raise ValueError(f"duplicate decoder for {opcode}")
            DECODERS[opcode] = build
        return build
    return register


class DecodedOp:
    """One predecoded instruction: a bound handler plus metadata.

    ``deps`` is the out-of-order timing model's dependence summary: a
    (reads, writes) pair of tuples of scoreboard key indices (the 16
    GPRs, then FLAGS).  It is filled on the op's first retirement
    under that model, so it lives and dies with the op.
    """

    __slots__ = ("run", "ins", "addr", "next_rip", "deps")

    def __init__(self, run: Callable, ins: Instruction, addr: int,
                 next_rip: int):
        self.run = run
        self.ins = ins
        self.addr = addr
        self.next_rip = next_rip
        self.deps = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DecodedOp {self.ins!r} @ {self.addr:#x}>"


# ----------------------------------------------------------------------
# operand accessor builders
# ----------------------------------------------------------------------
def make_ea(mem: Mem) -> Callable:
    """Effective-address closure specialised on the operand's shape."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if base is not None and index is not None:
        def ea_of(cpu):
            regs = cpu.regs.regs
            return (disp + regs[base] + regs[index] * scale) & MASK64
    elif base is not None:
        def ea_of(cpu):
            return (disp + cpu.regs.regs[base]) & MASK64
    elif index is not None:
        def ea_of(cpu):
            return (disp + cpu.regs.regs[index] * scale) & MASK64
    else:
        const = disp & MASK64

        def ea_of(cpu):
            return const
    return ea_of


def make_reader(op) -> Callable:
    """Closure returning the operand's value.

    Unknown operand kinds defer the ``TypeError`` to *execution* time,
    matching the old interpreter (a malformed instruction that is never
    reached must not break program loading).
    """
    if isinstance(op, Reg):
        def read(cpu, _r=op):
            return cpu.regs.regs[_r]
    elif isinstance(op, Imm):
        const = op.value & MASK64

        def read(cpu):
            return const
    elif isinstance(op, Mem):
        ea_of = make_ea(op)
        size = op.size

        def read(cpu):
            ea = ea_of(cpu)
            hfi_regs = cpu.hfi.regs
            if hfi_regs.enabled:
                implicit_data_check(hfi_regs.data, ea, size, False)
            return cpu._load_ea(ea, size)
    else:
        def read(cpu, _op=op):
            raise TypeError(f"unreadable operand {_op!r}")
    return read


def make_writer(op) -> Callable:
    """Closure storing a value to the operand.

    Register writers write straight through on either path: the
    speculation journal snapshots the whole GPR file when a window
    opens and restores it at squash.
    """
    if isinstance(op, Reg):
        def write(cpu, value, _r=op):
            cpu.regs.regs[_r] = value & MASK64
    elif isinstance(op, Mem):
        ea_of = make_ea(op)
        size = op.size

        def write(cpu, value):
            ea = ea_of(cpu)
            hfi_regs = cpu.hfi.regs
            if hfi_regs.enabled:
                implicit_data_check(hfi_regs.data, ea, size, True)
            cpu._store_ea(ea, size, value)
    else:
        def write(cpu, value, _op=op):
            raise TypeError(f"unwritable operand {_op!r}")
    return write


def make_hmov_reader(mem: Mem, region: int) -> Callable:
    """hmov load: the address resolves through an explicit region."""
    index, scale, disp, size = mem.index, mem.scale, mem.disp, mem.size

    def read(cpu):
        regs = cpu.regs.regs
        index_val = regs[index] if index is not None else 0
        ea = cpu.hfi.hmov_address(region, index_val, scale, disp, size,
                                  is_write=False)
        return cpu._load_ea(ea, size)
    return read


def make_hmov_writer(mem: Mem, region: int) -> Callable:
    """hmov store through an explicit region."""
    index, scale, disp, size = mem.index, mem.scale, mem.disp, mem.size

    def write(cpu, value):
        regs = cpu.regs.regs
        index_val = regs[index] if index is not None else 0
        ea = cpu.hfi.hmov_address(region, index_val, scale, disp, size,
                                  is_write=True)
        cpu._store_ea(ea, size, value)
    return write


#: The stack slot operand shared by push/pop/call/ret (old code built a
#: fresh ``Mem(base=RSP)`` per execution; the operand is static).
STACK_SLOT = Mem(base=Reg.RSP, size=8)
STACK_READ = make_reader(STACK_SLOT)
STACK_WRITE = make_writer(STACK_SLOT)


# ----------------------------------------------------------------------
# decode entry points
# ----------------------------------------------------------------------
def _unimplemented(opcode: Opcode, next_rip: int) -> Callable:
    def run(cpu):
        cpu.regs.rip = next_rip
        raise NotImplementedError(f"opcode {opcode} not implemented")
    return run


def decode_one(ins: Instruction, addr: int) -> DecodedOp:
    """Lower one instruction mapped at ``addr``.

    ``next_rip`` uses the *mapping* address, not ``ins.addr`` — tests
    map instructions at addresses the assembler never laid out.
    """
    next_rip = addr + ins.length
    build = DECODERS.get(ins.opcode)
    if build is None:
        run = _unimplemented(ins.opcode, next_rip)
    else:
        run = build(ins, addr, next_rip)
    return DecodedOp(run, ins, addr, next_rip)


def decode_program(program: Program) -> Dict[int, DecodedOp]:
    """Decode a whole program once; cached on the Program object."""
    cache = getattr(program, "_decode_cache", None)
    if cache is None:
        cache = {ins.addr: decode_one(ins, ins.addr)
                 for ins in program.instructions}
        program._decode_cache = cache
    return cache


class CodeMap(dict):
    """``addr -> Instruction`` map kept coherent with the decode cache.

    Any write or delete drops the corresponding :class:`DecodedOp` so
    the next fetch at that address re-decodes (lazily) — code patched
    via ``cpu._code[addr] = ins`` behaves exactly as before the staged
    engine.  ``Cpu.load_program`` and ``unload_program`` bypass these
    per-address hooks and keep the map, the decoded ops and
    ``invalidations`` coherent in bulk.
    """

    __slots__ = ("decoded", "invalidations")

    def __init__(self, decoded: Dict[int, DecodedOp]):
        super().__init__()
        self.decoded = decoded
        self.invalidations = 0

    def _invalidate(self, addr) -> None:
        if self.decoded.pop(addr, None) is not None:
            self.invalidations += 1

    def __setitem__(self, addr, ins) -> None:
        self._invalidate(addr)
        dict.__setitem__(self, addr, ins)

    def __delitem__(self, addr) -> None:
        dict.__delitem__(self, addr)
        self._invalidate(addr)

    def pop(self, addr, *default):
        self._invalidate(addr)
        return dict.pop(self, addr, *default)

    def clear(self) -> None:
        dict.clear(self)
        self.decoded.clear()

    def update(self, other=(), **kwargs) -> None:
        for addr, ins in dict(other, **kwargs).items():
            self[addr] = ins
