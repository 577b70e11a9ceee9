"""Exec unit: ALU semantics (arithmetic, logic, shifts, compares).

Each builder runs once at decode time, resolving operand shapes into
accessor closures; the returned ``run(cpu)`` closure is the hot-loop
handler.  Flag updates happen *before* the destination write, exactly
as in the old interpreter — a faulting memory destination must leave
flags already mutated.

The dominant shapes — register destination with a register or
immediate source — get fully inlined handlers: no accessor closures,
no flag-helper calls, journaled register write spelled out.  The
overflow flags there use the classic bit identities (brute-force
verified equivalent to the reference helpers over the 64-bit wrap):

* add:  OF ⟺ ``~(a ^ b) & (a ^ result)`` has the sign bit set
* sub:  OF ⟺  ``(a ^ b) & (a ^ result)`` has the sign bit set

Memory operands (and malformed instructions, whose ``TypeError`` must
fire at execution time, not load time) use the generic closure path.
"""

from __future__ import annotations

from ..isa.opcodes import Opcode
from ..isa.operands import Imm
from ..isa.registers import MASK64, Reg, to_signed
from ..os.address_space import AccessKind, PageFault
from .decode import decoder, make_reader, make_writer

_SIGN = 1 << 63
_TWO64 = 1 << 64


# ----------------------------------------------------------------------
# flag helpers (operate on a Flags object, no cpu needed) — reference
# semantics; the fast paths below inline these.
# ----------------------------------------------------------------------
def set_logic_flags(flags, result: int) -> None:
    flags.zf = result == 0
    flags.sf = bool(result >> 63)
    flags.cf = False
    flags.of = False


def set_add_flags(flags, a: int, b: int, result_wide: int) -> None:
    result = result_wide & MASK64
    flags.zf = result == 0
    flags.sf = bool(result >> 63)
    flags.cf = result_wide > MASK64
    flags.of = (to_signed(a) + to_signed(b)) != to_signed(result)


def set_sub_flags(flags, a: int, b: int) -> None:
    result = (a - b) & MASK64
    flags.zf = result == 0
    flags.sf = bool(result >> 63)
    flags.cf = a < b
    flags.of = (to_signed(a) - to_signed(b)) != to_signed(result)


def _reg_shapes(ins):
    """(dst, src, imm_value) when the fast path applies, else None.

    ``imm_value`` is the masked immediate for Imm sources, or None for
    a register source.
    """
    dst, src = ins.operands[0], ins.operands[1]
    if type(dst) is not Reg:
        return None
    if type(src) is Reg:
        return dst, src, None
    if type(src) is Imm:
        return dst, src, src.value & MASK64
    return None


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
@decoder(Opcode.ADD)
def _add(ins, addr, next_rip):
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        if const is None:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                b = regs[src]
                wide = a + b
                result = wide & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = wide > MASK64
                f.of = bool(~(a ^ b) & (a ^ result) & _SIGN)
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        else:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                wide = a + const
                result = wide & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = wide > MASK64
                f.of = bool(~(a ^ const) & (a ^ result) & _SIGN)
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        return run

    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_dst(cpu)
        b = read_src(cpu)
        wide = a + b
        set_add_flags(cpu.regs.flags, a, b, wide)
        write_dst(cpu, wide & MASK64)
    return run


@decoder(Opcode.SUB)
def _sub(ins, addr, next_rip):
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        if const is None:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                b = regs[src]
                result = (a - b) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = a < b
                f.of = bool((a ^ b) & (a ^ result) & _SIGN)
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        else:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                result = (a - const) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = a < const
                f.of = bool((a ^ const) & (a ^ result) & _SIGN)
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        return run

    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_dst(cpu)
        b = read_src(cpu)
        set_sub_flags(cpu.regs.flags, a, b)
        write_dst(cpu, (a - b) & MASK64)
    return run


@decoder(Opcode.AND, Opcode.OR, Opcode.XOR)
def _bitop(ins, addr, next_rip):
    opcode = ins.opcode
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        # One inlined variant per (operator, source kind) pair.
        if opcode is Opcode.AND:
            if const is None:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] & regs[src]
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
            else:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] & const
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
        elif opcode is Opcode.OR:
            if const is None:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] | regs[src]
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
            else:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] | const
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
        else:
            if const is None:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] ^ regs[src]
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
            else:
                def run(cpu):
                    rf = cpu.regs
                    rf.rip = next_rip
                    regs = rf.regs
                    result = regs[dst] ^ const
                    f = rf.flags
                    f.zf = result == 0
                    f.sf = bool(result >> 63)
                    f.cf = False
                    f.of = False
                    if cpu._speculative:
                        cpu._journal.entries.append((dst, regs[dst]))
                    regs[dst] = result
        return run

    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])
    if opcode is Opcode.AND:
        def combine(a, b):
            return a & b
    elif opcode is Opcode.OR:
        def combine(a, b):
            return a | b
    else:
        def combine(a, b):
            return a ^ b

    def run(cpu):
        cpu.regs.rip = next_rip
        result = combine(read_dst(cpu), read_src(cpu))
        set_logic_flags(cpu.regs.flags, result)
        write_dst(cpu, result)
    return run


@decoder(Opcode.NOT)
def _not(ins, addr, next_rip):
    dst = ins.operands[0]
    if type(dst) is Reg:
        def run(cpu):
            rf = cpu.regs
            rf.rip = next_rip
            regs = rf.regs
            old = regs[dst]
            if cpu._speculative:
                cpu._journal.entries.append((dst, old))
            regs[dst] = ~old & MASK64     # no flag update (x86)
        return run

    read_dst = make_reader(dst)
    write_dst = make_writer(dst)

    def run(cpu):
        cpu.regs.rip = next_rip
        write_dst(cpu, ~read_dst(cpu) & MASK64)   # no flag update (x86)
    return run


@decoder(Opcode.NEG)
def _neg(ins, addr, next_rip):
    dst = ins.operands[0]
    if type(dst) is Reg:
        def run(cpu):
            rf = cpu.regs
            rf.rip = next_rip
            regs = rf.regs
            old = regs[dst]
            value = (-old) & MASK64
            f = rf.flags
            f.zf = value == 0
            f.sf = bool(value >> 63)
            f.cf = value != 0
            f.of = False
            if cpu._speculative:
                cpu._journal.entries.append((dst, old))
            regs[dst] = value
        return run

    read_dst = make_reader(dst)
    write_dst = make_writer(dst)

    def run(cpu):
        cpu.regs.rip = next_rip
        value = (-read_dst(cpu)) & MASK64
        flags = cpu.regs.flags
        set_logic_flags(flags, value)
        flags.cf = value != 0
        write_dst(cpu, value)
    return run


@decoder(Opcode.SHL, Opcode.SHR, Opcode.SAR)
def _shift(ins, addr, next_rip):
    opcode = ins.opcode
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        count_const = None if const is None else const & 63
        if opcode is Opcode.SHL:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                count = (count_const if count_const is not None
                         else regs[src] & 63)
                result = (a << count) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = False
                f.of = False
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        elif opcode is Opcode.SHR:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                count = (count_const if count_const is not None
                         else regs[src] & 63)
                result = a >> count
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = False
                f.of = False
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        else:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                count = (count_const if count_const is not None
                         else regs[src] & 63)
                sa = a - _TWO64 if a & _SIGN else a
                result = (sa >> count) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = False
                f.of = False
                if cpu._speculative:
                    cpu._journal.entries.append((dst, a))
                regs[dst] = result
        return run

    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])
    if opcode is Opcode.SHL:
        def compute(a, count):
            return (a << count) & MASK64
    elif opcode is Opcode.SHR:
        def compute(a, count):
            return a >> count
    else:
        def compute(a, count):
            return (to_signed(a) >> count) & MASK64

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_dst(cpu)
        count = read_src(cpu) & 63
        result = compute(a, count)
        set_logic_flags(cpu.regs.flags, result)
        write_dst(cpu, result)
    return run


@decoder(Opcode.IMUL)
def _imul(ins, addr, next_rip):
    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        result = (to_signed(read_dst(cpu))
                  * to_signed(read_src(cpu))) & MASK64
        set_logic_flags(cpu.regs.flags, result)
        write_dst(cpu, result)
        cpu.timing.charge(cpu.params.mul_cycles - 1)
    return run


@decoder(Opcode.IDIV, Opcode.IMOD)
def _divide(ins, addr, next_rip):
    want_quotient = ins.opcode is Opcode.IDIV
    read_dst = make_reader(ins.operands[0])
    read_src = make_reader(ins.operands[1])
    write_dst = make_writer(ins.operands[0])

    def run(cpu):
        cpu.regs.rip = next_rip
        a = to_signed(read_dst(cpu))
        b = to_signed(read_src(cpu))
        if b == 0:
            raise PageFault(addr, AccessKind.EXEC, "division by zero")
        quotient = int(a / b)          # truncate toward zero (x86)
        remainder = a - quotient * b
        result = (quotient if want_quotient else remainder) & MASK64
        set_logic_flags(cpu.regs.flags, result)
        write_dst(cpu, result)
        cpu.timing.charge(cpu.params.div_cycles - 1)
    return run


# ----------------------------------------------------------------------
# compares and unary increments
# ----------------------------------------------------------------------
@decoder(Opcode.CMP)
def _cmp(ins, addr, next_rip):
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        if const is None:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                a = regs[dst]
                b = regs[src]
                result = (a - b) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = a < b
                f.of = bool((a ^ b) & (a ^ result) & _SIGN)
        else:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                a = rf.regs[dst]
                result = (a - const) & MASK64
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = a < const
                f.of = bool((a ^ const) & (a ^ result) & _SIGN)
        return run

    read_a = make_reader(ins.operands[0])
    read_b = make_reader(ins.operands[1])

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_a(cpu)
        b = read_b(cpu)
        set_sub_flags(cpu.regs.flags, a, b)
    return run


@decoder(Opcode.TEST)
def _test(ins, addr, next_rip):
    shape = _reg_shapes(ins)
    if shape is not None:
        dst, src, const = shape
        if const is None:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                regs = rf.regs
                result = regs[dst] & regs[src]
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = False
                f.of = False
        else:
            def run(cpu):
                rf = cpu.regs
                rf.rip = next_rip
                result = rf.regs[dst] & const
                f = rf.flags
                f.zf = result == 0
                f.sf = bool(result >> 63)
                f.cf = False
                f.of = False
        return run

    read_a = make_reader(ins.operands[0])
    read_b = make_reader(ins.operands[1])

    def run(cpu):
        cpu.regs.rip = next_rip
        set_logic_flags(cpu.regs.flags, read_a(cpu) & read_b(cpu))
    return run


@decoder(Opcode.INC)
def _inc(ins, addr, next_rip):
    dst = ins.operands[0]
    if type(dst) is Reg:
        def run(cpu):
            rf = cpu.regs
            rf.rip = next_rip
            regs = rf.regs
            a = regs[dst]
            wide = a + 1
            result = wide & MASK64
            f = rf.flags
            f.zf = result == 0
            f.sf = bool(result >> 63)
            f.cf = wide > MASK64
            f.of = bool(~(a ^ 1) & (a ^ result) & _SIGN)
            if cpu._speculative:
                cpu._journal.entries.append((dst, a))
            regs[dst] = result
        return run

    read_dst = make_reader(dst)
    write_dst = make_writer(dst)

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_dst(cpu)
        set_add_flags(cpu.regs.flags, a, 1, a + 1)
        write_dst(cpu, (a + 1) & MASK64)
    return run


@decoder(Opcode.DEC)
def _dec(ins, addr, next_rip):
    dst = ins.operands[0]
    if type(dst) is Reg:
        def run(cpu):
            rf = cpu.regs
            rf.rip = next_rip
            regs = rf.regs
            a = regs[dst]
            result = (a - 1) & MASK64
            f = rf.flags
            f.zf = result == 0
            f.sf = bool(result >> 63)
            f.cf = a < 1
            f.of = bool((a ^ 1) & (a ^ result) & _SIGN)
            if cpu._speculative:
                cpu._journal.entries.append((dst, a))
            regs[dst] = result
        return run

    read_dst = make_reader(dst)
    write_dst = make_writer(dst)

    def run(cpu):
        cpu.regs.rip = next_rip
        a = read_dst(cpu)
        set_sub_flags(cpu.regs.flags, a, 1)
        write_dst(cpu, (a - 1) & MASK64)
    return run
