"""The hot-path check memos are exact.

Three per-instruction checks remember what they last found:

* the CPU's fetch loops keep the range on which the HFI code-region
  check last passed (:func:`~repro.core.checks.code_pass_range`) until
  a pc leaves it or a region register is written;
* ``AddressSpace.load``/``store`` find a page's VMA in a page memo that
  every change to the VMA list clears;
* ``PatternHistoryTable.resolve`` predicts and trains in one call.

These tests hold each to the plain check it stands in for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checks import code_pass_range, implicit_code_check
from repro.core.encoding import encode_region, encode_sandbox
from repro.core.faults import FaultCause, HfiFault
from repro.core.regions import NUM_CODE_REGIONS, ImplicitCodeRegion
from repro.core.registers import SandboxFlags
from repro.cpu import Cpu
from repro.cpu.predictors import PatternHistoryTable
from repro.cpu.trace import Tracer
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace, Prot
from repro.os.address_space import PAGE, AccessKind, PageFault
from repro.params import MachineParams
from repro.verify.reference import ReferenceCpu


# ----------------------------------------------------------------------
# fetch: the code-region pass range
# ----------------------------------------------------------------------
def _region(base, k, execute):
    return ImplicitCodeRegion(base & ~((1 << k) - 1), (1 << k) - 1, execute)


maybe_region = st.one_of(
    st.none(),
    st.builds(_region, base=st.integers(0, 1 << 14), k=st.integers(0, 12),
              execute=st.booleans()))


@st.composite
def code_slots(draw):
    """Slot lists with empty slots, non-exec regions and, often, a
    region in an earlier slot nested inside a later one."""
    slots = [draw(maybe_region) for _ in range(NUM_CODE_REGIONS)]
    outer = slots[-1]
    if outer is not None and draw(st.booleans()):
        k = draw(st.integers(0, outer.lsb_mask.bit_length()))
        offset = draw(st.integers(0, outer.lsb_mask)) & ~((1 << k) - 1)
        slots[0] = ImplicitCodeRegion(outer.base_prefix + offset,
                                      (1 << k) - 1, draw(st.booleans()))
    return slots


def _outcome(check, slots, addr):
    try:
        return check(slots, addr)
    except HfiFault as fault:
        return ("fault", fault.cause, fault.addr, fault.detail)


@given(slots=code_slots(), addr=st.integers(0, 1 << 15),
       probes=st.lists(st.integers(0, 1 << 40), max_size=8))
@settings(max_examples=400, deadline=None)
def test_pass_range_agrees_with_the_code_check(slots, addr, probes):
    expected = _outcome(implicit_code_check, slots, addr)
    got = _outcome(code_pass_range, slots, addr)
    if expected is not None:                   # the check faults here
        assert got == expected
        return
    lo, hi = got
    assert lo <= addr < hi
    if hi - lo <= 1 << 12:
        inside = range(lo, hi)
    else:
        inside = [lo, hi - 1] + [lo + p % (hi - lo) for p in probes]
    for inner in inside:
        assert _outcome(implicit_code_check, slots, inner) is None
    # Just outside, the memo no longer applies: the full check runs,
    # and the range it hands back must again agree with the check.
    for outer in (lo - 1, hi):
        if outer < 0:
            continue
        plain = _outcome(implicit_code_check, slots, outer)
        memo = _outcome(code_pass_range, slots, outer)
        if plain is None:
            assert memo[0] <= outer < memo[1]
        else:
            assert memo == plain


def test_pass_range_is_the_first_match_unless_an_earlier_slot_nests():
    outer = ImplicitCodeRegion(0x4000, 0xFFF)
    assert code_pass_range([None, outer], 0x4800) == (0x4000, 0x5000)
    hole = ImplicitCodeRegion(0x4100, 0xFF, permission_exec=False)
    assert code_pass_range([hole, outer], 0x4800) == (0x4800, 0x4801)
    with pytest.raises(HfiFault) as info:
        code_pass_range([hole, outer], 0x4180)
    assert info.value.detail == "no execute permission"


# ----------------------------------------------------------------------
# fetch, on the CPU: region writes and speculation windows
# ----------------------------------------------------------------------
CODE = 0x40_0000
DESC = 0x0E_0000
START, SPEC, SANDBOX = DESC, DESC + 24, DESC + 48
#: Region 0 narrowed to [CODE, BOUND): the programs below cross it.
BOUND = CODE + 0x100
WIDE = ImplicitCodeRegion.covering(CODE, 1 << 16)
NARROW = ImplicitCodeRegion.covering(CODE, BOUND - CODE)
NOPS = 0x180


def _backend(engine, timing=None):
    space = AddressSpace(MachineParams())
    space.mmap(PAGE, Prot.rw(), addr=DESC)
    space.write_bytes(SANDBOX, encode_sandbox(SandboxFlags(is_hybrid=True)))
    cpu = (ReferenceCpu(memory=space) if engine == "reference"
           else Cpu(timing=timing, memory=space))
    return cpu, space


def _nops_past_bound(asm):
    for _ in range(NOPS):
        asm.nop()


def _first_fetch_past_bound(program):
    return min(ins.addr for ins in program.instructions
               if ins.addr >= BOUND)


def _narrowing_program():
    """A hybrid sandbox loops under the wide region, narrows region 0,
    and runs on past the new bound."""
    asm = Assembler(base=CODE)
    asm.mov(Reg.RDI, Imm(START))
    asm.hfi_set_region(0, Reg.RDI)
    asm.mov(Reg.RDI, Imm(SANDBOX))
    asm.hfi_enter(Reg.RDI)
    asm.mov(Reg.RCX, Imm(8))
    asm.label("loop")
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.mov(Reg.RDI, Imm(SPEC))
    asm.hfi_set_region(0, Reg.RDI)
    _nops_past_bound(asm)
    asm.hlt()
    return asm.assemble()


@pytest.mark.parametrize("engine,timing", [("staged", "inorder"),
                                           ("staged", "ooo"),
                                           ("reference", None)])
def test_narrowed_code_region_faults_at_first_fetch_past_bound(engine,
                                                               timing):
    cpu, space = _backend(engine, timing)
    space.write_bytes(START, encode_region(WIDE))
    space.write_bytes(SPEC, encode_region(NARROW))
    program = _narrowing_program()
    assert program.labels["loop"] < BOUND
    cpu.load_program(program)
    result = cpu.run(program.base)
    assert result.reason == "fault"
    assert result.fault.hfi_cause == FaultCause.CODE_OUT_OF_BOUNDS
    assert result.fault.addr == _first_fetch_past_bound(program)
    # everything below the bound ran: prologue, 8 loop trips, narrowing
    below = sum(1 for ins in program.instructions if ins.addr < BOUND)
    assert cpu.stats.instructions == below + 2 * 7


def _reenter_program():
    """Exit a sandbox whose region 0 is narrow, loop in a new sandbox
    under the wide region, then ``hfi_reenter`` the narrow bank (a
    region change with no ``hfi_set_region``) and run past its bound."""
    asm = Assembler(base=CODE)
    for desc in (SPEC, START):
        asm.mov(Reg.RDI, Imm(desc))
        asm.hfi_set_region(0, Reg.RDI)
        asm.mov(Reg.RDI, Imm(SANDBOX))
        asm.hfi_enter(Reg.RDI)
        if desc == SPEC:
            asm.hfi_exit()
    asm.mov(Reg.RCX, Imm(8))
    asm.label("loop")
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.hfi_reenter()
    _nops_past_bound(asm)
    asm.hlt()
    return asm.assemble()


@pytest.mark.parametrize("engine,timing", [("staged", "inorder"),
                                           ("staged", "ooo"),
                                           ("reference", None)])
def test_reentered_narrow_bank_faults_at_first_fetch_past_bound(engine,
                                                                timing):
    cpu, space = _backend(engine, timing)
    space.write_bytes(START, encode_region(WIDE))
    space.write_bytes(SPEC, encode_region(NARROW))
    program = _reenter_program()
    cpu.load_program(program)
    result = cpu.run(program.base)
    assert result.reason == "fault"
    assert result.fault.hfi_cause == FaultCause.CODE_OUT_OF_BOUNDS
    assert result.fault.addr == _first_fetch_past_bound(program)


def _gadget_program(target):
    """``jne target`` on RAX inside a hybrid sandbox, then nops past the
    bound.  ``gadget`` installs region 0 from SPEC and jumps to ``far``
    (past the bound), which exits the sandbox and halts."""
    asm = Assembler(base=CODE)
    asm.label("gadget")
    asm.mov(Reg.RDI, Imm(SPEC))
    asm.hfi_set_region(0, Reg.RDI)
    asm.jmp("far")
    asm.label("entry")
    asm.mov(Reg.RDI, Imm(START))
    asm.hfi_set_region(0, Reg.RDI)
    asm.mov(Reg.RDI, Imm(SANDBOX))
    asm.hfi_enter(Reg.RDI)
    asm.cmp(Reg.RAX, Imm(0))
    asm.jne(target)
    _nops_past_bound(asm)
    asm.label("far")
    asm.nop()
    asm.hfi_exit()
    asm.hlt()
    program = asm.assemble()
    assert program.labels["far"] >= BOUND
    return program


def _train_then_mispredict(cpu, space, program, start, spec):
    """Train ``jne`` taken (RAX=1) with both descriptors wide enough to
    reach ``far``, then run it not-taken under ``start``/``spec``."""
    cpu.load_program(program)
    entry = program.labels["entry"]
    for _ in range(2):
        cpu.regs.write(Reg.RAX, 1)
        assert cpu.run(entry).reason == "hlt"
    space.write_bytes(START, encode_region(start))
    space.write_bytes(SPEC, encode_region(spec))
    cpu.tracer = Tracer()
    windows = cpu._journal.windows
    cpu.regs.write(Reg.RAX, 0)
    result = cpu.run(entry)
    assert cpu._journal.windows == windows + 1       # it mispredicted
    return result, [e.addr for e in cpu.tracer.entries if e.speculative]


@pytest.mark.parametrize("timing", ["inorder", "ooo"])
def test_mispredict_into_excluded_range_runs_nothing_there(timing):
    cpu, space = _backend("staged", timing)
    space.write_bytes(START, encode_region(WIDE))
    space.write_bytes(SPEC, encode_region(WIDE))
    program = _gadget_program("far")
    result, wrong_path = _train_then_mispredict(cpu, space, program,
                                                NARROW, WIDE)
    assert wrong_path == []
    assert result.reason == "fault"
    assert result.fault.addr == _first_fetch_past_bound(program)


@pytest.mark.parametrize("timing", ["inorder", "ooo"])
def test_region_widened_on_wrong_path_dies_with_its_window(timing):
    cpu, space = _backend("staged", timing)
    space.write_bytes(START, encode_region(NARROW))
    space.write_bytes(SPEC, encode_region(WIDE))
    program = _gadget_program("gadget")
    result, wrong_path = _train_then_mispredict(cpu, space, program,
                                                NARROW, WIDE)
    # the wrong path widened region 0 and ran past the narrow bound ...
    assert program.labels["far"] in wrong_path
    # ... and after the squash the committed path faults at that bound
    assert cpu.hfi.regs.code[0] == NARROW
    assert result.reason == "fault"
    assert result.fault.hfi_cause == FaultCause.CODE_OUT_OF_BOUNDS
    assert result.fault.addr == _first_fetch_past_bound(program)


# ----------------------------------------------------------------------
# data: the page memo behind AddressSpace.load / store
# ----------------------------------------------------------------------
BASE = 0x1_0000_0000


def _plain(space, addr, size, kind, pkru):
    """check_access, then the key test on each touched VMA, spelled out
    with no memo (what ``load``/``store`` must do)."""
    try:
        space.check_access(addr, size, kind)
        denied = 0b01 if kind is AccessKind.READ else 0b11
        for byte in (addr, addr + size - 1):
            vma = space.find_vma(byte)
            if vma.pkey and (pkru >> (2 * vma.pkey)) & denied:
                return ("fault", max(addr, vma.start),
                        f"pkey {vma.pkey} denied")
    except PageFault as fault:
        return ("fault", fault.addr, fault.reason)
    return None


def _memo(call):
    try:
        return call()
    except PageFault as fault:
        return ("fault", fault.addr, fault.reason)


def _touched_space():
    space = AddressSpace(MachineParams())
    space.mmap(4 * PAGE, Prot.rw(), addr=BASE)
    space.store(BASE + 8, 8, 0x1234)
    assert space.load(BASE + 8, 8) == 0x1234
    return space


@pytest.mark.parametrize("change", ["mprotect", "munmap", "set_pkey"])
@pytest.mark.parametrize("kind", ["load", "store"])
def test_touched_page_is_rechecked_after_a_vma_change(change, kind):
    space = _touched_space()
    pkru = 0
    if change == "mprotect":
        space.mprotect(BASE, PAGE, Prot.NONE)
        reason = "protection"
    elif change == "munmap":
        space.munmap(BASE, PAGE)
        reason = "unmapped"
    else:
        space.set_pkey(BASE, PAGE, 3)
        pkru = 0b01 << (2 * 3)                 # access-disable key 3
        reason = "pkey 3 denied"
    with pytest.raises(PageFault) as info:
        if kind == "load":
            space.load(BASE + 8, 8, pkru)
        else:
            space.store(BASE + 8, 8, 0x5678, pkru)
    assert reason in info.value.reason
    assert info.value.addr == BASE + 8


def test_cpu_load_faults_after_mprotect_of_a_touched_page():
    space = _touched_space()
    cpu = Cpu(MachineParams(), memory=space)
    asm = Assembler(base=CODE)
    asm.mov(Reg.RAX, Mem(disp=BASE + 8))
    asm.hlt()
    program = asm.assemble()
    cpu.load_program(program)
    assert cpu.run(program.base).reason == "hlt"
    assert cpu.regs.regs[Reg.RAX] == 0x1234
    space.mprotect(BASE, PAGE, Prot.NONE)
    result = cpu.run(program.base)
    assert result.reason == "fault" and result.fault.kind == "page"
    assert result.fault.addr == BASE + 8


vm_op = st.one_of(
    st.tuples(st.just("mmap"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("mprotect"), st.integers(0, 7), st.integers(1, 3),
              st.sampled_from([Prot.NONE, Prot.READ, Prot.rw()])),
    st.tuples(st.just("munmap"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("set_pkey"), st.integers(0, 7), st.integers(1, 3),
              st.integers(0, 3)),
    st.tuples(st.just("access"), st.integers(0, 8 * PAGE - 1),
              st.sampled_from([1, 2, 4, 8]), st.booleans(),
              st.integers(0, 0xFF)),
)


@given(ops=st.lists(vm_op, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_page_memo_tracks_random_vma_changes(ops):
    """A random mmap/mprotect/munmap/set_pkey/access sequence: every
    ``load``/``store`` agrees with the plain check, and every value
    with a plain read."""
    space = AddressSpace(MachineParams())
    space.mmap(8 * PAGE, Prot.rw(), addr=BASE)
    probes = [BASE + off for off in (0, 8, PAGE - 4, PAGE, 3 * PAGE - 2,
                                     5 * PAGE + 16, 8 * PAGE - 8)]
    for op in ops:
        name = op[0]
        try:
            if name == "mmap":
                space.mmap(op[2] * PAGE, Prot.rw(), addr=BASE + op[1] * PAGE)
            elif name == "mprotect":
                space.mprotect(BASE + op[1] * PAGE, op[2] * PAGE, op[3])
            elif name == "munmap":
                space.munmap(BASE + op[1] * PAGE, op[2] * PAGE)
            elif name == "set_pkey":
                space.set_pkey(BASE + op[1] * PAGE, op[2] * PAGE, op[3])
        except (PageFault, ValueError):
            pass
        if name == "access":
            probes.append(BASE + op[1])
            _, _, size, write, pkru_bits = op
            addr = BASE + op[1]
            pkru = pkru_bits << 2                 # key 0 stays open
            kind = AccessKind.WRITE if write else AccessKind.READ
            expected = _plain(space, addr, size, kind, pkru)
            if write:
                got = _memo(lambda: space.store(addr, size, pkru_bits, pkru))
            else:
                got = _memo(lambda: space.load(addr, size, pkru))
                if expected is None:
                    assert got == space.read(addr, size, check=False)
                    continue
            assert got == expected
            if write and expected is None:
                assert space.read(addr, size, check=False) == pkru_bits
        for probe in probes:
            for kind in (AccessKind.READ, AccessKind.WRITE):
                expected = _plain(space, probe, 8, kind, 0)
                if kind is AccessKind.READ:
                    got = _memo(lambda: space.load(probe, 8))
                    if expected is None:
                        assert got == space.read(probe, 8, check=False)
                        continue
                    assert got == expected
                else:
                    value = space.read(probe, 8, check=False)
                    got = _memo(lambda: space.store(probe, 8, value))
                    assert got == expected


# ----------------------------------------------------------------------
# branches: PatternHistoryTable.resolve
# ----------------------------------------------------------------------
@given(stream=st.lists(st.tuples(st.integers(0, 1 << 12), st.booleans()),
                       max_size=300))
@settings(max_examples=200, deadline=None)
def test_resolve_equals_predict_then_update(stream):
    one, two = PatternHistoryTable(size=16), PatternHistoryTable(size=16)
    for pc, taken in stream:
        predicted = two.predict(pc)
        two.update(pc, taken)
        assert one.resolve(pc, taken) == predicted
        assert one._counters == two._counters
    assert one.stats() == two.stats()
