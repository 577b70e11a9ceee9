"""wir — a Wasm-like structured IR.

This is the reproduction's stand-in for WebAssembly modules: functions
over 64-bit locals and module globals, with loads/stores into a linear
*sandbox memory* addressed by 32-bit offsets, structured control flow,
and explicit host-call transition points.  The compiler lowers it to
the simulator ISA under a pluggable isolation strategy — exactly the
decision surface Wasm2c/Wasmtime/Lucet expose in the paper.

Key Wasm-inherited properties the IR preserves:

* Linear-memory addresses are 32-bit values plus a 32-bit constant
  offset, so ``addr + offset`` maxes out at ``2^33 - 2`` — the fact the
  guard-page scheme relies on (§2).
* Code cannot express raw pointers into host memory: every memory op
  goes through the isolation strategy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

Value = Union[str, int]  # a local variable name or an integer literal


class BinaryOp(enum.Enum):
    # identity hashing, as ``Reg`` and ``Opcode`` have: the compiler
    # maps every lowered op through a dict keyed by these enums
    __hash__ = object.__hash__

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"


class Cmp(enum.Enum):
    __hash__ = object.__hash__

    EQ = "eq"
    NE = "ne"
    LT = "lt"    # signed
    LE = "le"
    GT = "gt"
    GE = "ge"
    LTU = "ltu"  # unsigned
    GEU = "geu"


@dataclass
class Const:
    """``dst = value``"""
    dst: str
    value: int


@dataclass
class Move:
    """``dst = src``"""
    dst: str
    src: Value


@dataclass
class BinOp:
    """``dst = a <op> b``"""
    op: BinaryOp
    dst: str
    a: Value
    b: Value


@dataclass
class Load:
    """``dst = memories[memory][addr + offset]`` — a linear-memory load.

    ``addr`` is a 32-bit dynamic value (64-bit under Memory64);
    ``offset`` a constant.  ``memory`` selects a linear memory: 0 is
    the default; 1+ are the Wasm multi-memory proposal's extra
    memories (paper §2's footprint discussion).
    """
    dst: str
    addr: Value
    offset: int = 0
    size: int = 8
    memory: int = 0


@dataclass
class Store:
    """``memories[memory][addr + offset] = src``"""
    addr: Value
    src: Value
    offset: int = 0
    size: int = 8
    memory: int = 0


@dataclass
class LoadGlobal:
    """``dst = globals[name]``"""
    dst: str
    name: str


@dataclass
class StoreGlobal:
    """``globals[name] = src``"""
    name: str
    src: Value


@dataclass
class Loop:
    """Run ``body`` exactly ``count`` times (count may be a local)."""
    count: Value
    body: List["Op"]


@dataclass
class If:
    """``if a <cmp> b: then_body else: else_body``"""
    a: Value
    cmp: Cmp
    b: Value
    then_body: List["Op"]
    else_body: List["Op"] = field(default_factory=list)


@dataclass
class Call:
    """Call another function in the same module (no arguments; data is
    exchanged through globals or linear memory, as Wasm2c-style
    lowering would do for the workloads we model)."""
    func: str


@dataclass
class HostCall:
    """A transition out of the sandbox and back — the springboard /
    trampoline point where isolation strategies pay their context
    switch cost (§3.3.1).  ``host_cycles`` models the host-side work."""
    host_cycles: int = 20


@dataclass
class Return:
    pass


Op = Union[Const, Move, BinOp, Load, Store, LoadGlobal, StoreGlobal,
           Loop, If, Call, HostCall, Return]


@dataclass
class Function:
    name: str
    body: List[Op]


@dataclass
class Module:
    """A wir module: functions + globals + linear-memory requirements."""

    name: str
    functions: List[Function]
    globals: List[str] = field(default_factory=list)
    #: Initial linear memory, in 64 KiB Wasm pages.  May exceed the
    #: 32-bit space under the Memory64 proposal (HFI large regions
    #: support it; the guard-page scheme cannot, §2).
    memory_pages: int = 16
    #: Initial bytes written at offset 0 of linear memory.
    data: bytes = b""
    #: Extra linear memories (multi-memory proposal), pages each.
    extra_memories: List[int] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in module {self.name!r}")

    @property
    def memory_bytes(self) -> int:
        return self.memory_pages * 65536


class ValidationError(Exception):
    """The module references undefined locals/globals/functions."""


def validate(module: Module) -> None:
    """Reject modules with undefined names, bad memory indices, or
    negative loop counts."""
    func_names = {fn.name for fn in module.functions}
    globals_set = set(module.globals)
    n_memories = 1 + len(module.extra_memories)

    def visit(ops: Sequence[Op], defined: set) -> None:
        for op in ops:
            for value in _uses(op):
                if isinstance(value, str) and value not in defined:
                    raise ValidationError(
                        f"use of undefined local {value!r}")
            if isinstance(op, (Load, Store)):
                if not 0 <= op.memory < n_memories:
                    raise ValidationError(
                        f"memory index {op.memory} out of range "
                        f"(module has {n_memories})")
            if isinstance(op, (Const, Move, BinOp, Load, LoadGlobal)):
                defined.add(op.dst)
            if isinstance(op, (LoadGlobal, StoreGlobal)):
                if op.name not in globals_set:
                    raise ValidationError(f"undefined global {op.name!r}")
            if isinstance(op, Call) and op.func not in func_names:
                raise ValidationError(f"undefined function {op.func!r}")
            if isinstance(op, Loop):
                if isinstance(op.count, int) and op.count < 0:
                    raise ValidationError("negative loop count")
                # the body may run zero times: its names are defined
                # afterwards only when a positive constant count runs it
                if isinstance(op.count, int) and op.count > 0:
                    visit(op.body, defined)
                else:
                    visit(op.body, set(defined))
            if isinstance(op, If):
                then_defined = set(defined)
                else_defined = set(defined)
                visit(op.then_body, then_defined)
                visit(op.else_body, else_defined)
                # names defined on *both* paths are defined afterwards
                defined |= then_defined & else_defined

    for fn in module.functions:
        visit(fn.body, set())


def _uses(op: Op) -> Tuple[Value, ...]:
    if isinstance(op, Move):
        return (op.src,)
    if isinstance(op, BinOp):
        return (op.a, op.b)
    if isinstance(op, Load):
        return (op.addr,)
    if isinstance(op, Store):
        return (op.addr, op.src)
    if isinstance(op, StoreGlobal):
        return (op.src,)
    if isinstance(op, Loop):
        return (op.count,)
    if isinstance(op, If):
        return (op.a, op.b)
    return ()


def collect_locals(ops: Sequence[Op], acc: Optional[List[str]] = None,
                   seen: Optional[set] = None) -> List[str]:
    """All local names in definition order (for register allocation)."""
    if acc is None:
        acc, seen = [], set()
    for op in ops:
        names = []
        if isinstance(op, (Const, Move, BinOp, Load, LoadGlobal)):
            names.append(op.dst)
        for value in _uses(op):
            if isinstance(value, str):
                names.append(value)
        for name in names:
            if name not in seen:
                seen.add(name)
                acc.append(name)
        if isinstance(op, Loop):
            collect_locals(op.body, acc, seen)
        elif isinstance(op, If):
            collect_locals(op.then_body, acc, seen)
            collect_locals(op.else_body, acc, seen)
    return acc
