"""The counting OoO scoreboard against the rename-map one it replaced.

``cpu/ooo.py`` keeps one ready time per architectural key, a count of
free physical registers and slot rings for the front end and
retirement.  The scoreboard below keeps what that one was rebuilt
from, verbatim: a rename map onto a physical register file with a
per-register ready list and a free list, and heaps for every slot
set.  Register identities never change a cycle, so the two must agree
on every cycle and every counter.

The figure tests and golden fixtures pin only the default machine and
the OoO sweep's widths and ROB depths, and no pinned workload fills
the 48-entry LSQ.  So the differential below runs the ISA fuzzer's
programs (faults, syscalls, ``xsave``, hmov, mispredicts) on shapes
that stall each structure in turn, and checks that each shape
exercises the structure it is meant to.

``cpu/ooo.py`` also queues retired instructions and walks them in
runs, so its clock is exact only once it settles; the reference walks
each instruction as it retires.  The fuzz programs never read the
clock mid-run, so a second differential runs programs that do:
``rdtsc`` on the commit path and on mispredicted wrong paths,
telemetry stamps at sandbox transitions, an interposed syscall and a
fault, and charge hooks called with no instruction in flight.
"""

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core import ImplicitCodeRegion, ImplicitDataRegion, SandboxFlags
from repro.core.encoding import encode_region, encode_sandbox
from repro.cpu import Cpu
from repro.cpu.timing import InOrderTiming
from repro.cpu.trace import Tracer
from repro.isa import Assembler, Imm
from repro.isa.opcodes import CONDITIONAL_JUMPS, HMOV_REGION, Opcode
from repro.isa.operands import Mem
from repro.isa.registers import Reg
from repro.os import AddressSpace, Prot
from repro.params import MachineParams
from repro.telemetry import Telemetry
from repro.telemetry.stats import OooStats
from repro.verify.fuzz_isa import CELLS, _fresh_cell, _guarded_run, build_case

# ----------------------------------------------------------------------
# the reference: the rename-map scoreboard, kept as it was
# ----------------------------------------------------------------------

#: FLAGS as a renameable pseudo-register: ALU producers write it,
#: conditional branches read it — the dependence that serializes a
#: compare/branch pair even out of order.
_FLAGS = "flags"

_ARCH_KEYS: Tuple = tuple(Reg) + (_FLAGS,)

_ALU_RW = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.IMUL, Opcode.IDIV, Opcode.IMOD, Opcode.SHL, Opcode.SHR,
    Opcode.SAR,
})
_UNARY_FLAGS = frozenset({Opcode.NEG, Opcode.INC, Opcode.DEC})
_MOVS = frozenset({Opcode.MOV}) | frozenset(HMOV_REGION)


def _op_regs(op) -> Tuple[Reg, ...]:
    """Registers an operand reads (value or address components)."""
    if type(op) is Reg:
        return (op,)
    if isinstance(op, Mem):
        regs = []
        if op.base is not None:
            regs.append(op.base)
        if op.index is not None:
            regs.append(op.index)
        return tuple(regs)
    return ()


def _derive_deps(ins) -> Tuple[Tuple, Tuple]:
    """(reads, writes) rename keys for one instruction.

    This is a *timing* dataflow summary, deliberately conservative:
    unknown opcodes read their register operands and write nothing,
    which can only shorten dependence chains, never corrupt state —
    the functional layer owns semantics.
    """
    opc = ins.opcode
    ops = ins.operands
    reads: List = []
    writes: List = []
    if opc in _ALU_RW:
        reads += _op_regs(ops[0]) + _op_regs(ops[1])
        if type(ops[0]) is Reg:
            writes.append(ops[0])
        writes.append(_FLAGS)
    elif opc in (Opcode.CMP, Opcode.TEST):
        reads += _op_regs(ops[0]) + _op_regs(ops[1])
        writes.append(_FLAGS)
    elif opc in _UNARY_FLAGS:
        reads += _op_regs(ops[0])
        if type(ops[0]) is Reg:
            writes.append(ops[0])
        writes.append(_FLAGS)
    elif opc is Opcode.NOT:
        reads += _op_regs(ops[0])
        if type(ops[0]) is Reg:
            writes.append(ops[0])
    elif opc in _MOVS:
        reads += _op_regs(ops[1])
        if type(ops[0]) is Reg:
            writes.append(ops[0])
        else:
            reads += _op_regs(ops[0])
    elif opc is Opcode.LEA:
        reads += _op_regs(ops[1])
        if type(ops[0]) is Reg:
            writes.append(ops[0])
    elif opc is Opcode.PUSH:
        reads += _op_regs(ops[0])
        reads.append(Reg.RSP)
        writes.append(Reg.RSP)
    elif opc is Opcode.POP:
        reads.append(Reg.RSP)
        writes.append(Reg.RSP)
        if type(ops[0]) is Reg:
            writes.append(ops[0])
        else:
            reads += _op_regs(ops[0])
    elif opc in CONDITIONAL_JUMPS:
        reads.append(_FLAGS)
    elif opc is Opcode.CALL:
        if ops:
            reads += _op_regs(ops[0])
        reads.append(Reg.RSP)
        writes.append(Reg.RSP)
    elif opc is Opcode.RET:
        reads.append(Reg.RSP)
        writes.append(Reg.RSP)
    elif opc in (Opcode.SYSCALL, Opcode.INT80):
        reads += [Reg.RAX, Reg.RDI, Reg.RSI, Reg.RDX]
        writes.append(Reg.RAX)
    elif opc is Opcode.RDTSC:
        writes += [Reg.RAX, Reg.RDX]
    elif opc is Opcode.RDPKRU:
        writes.append(Reg.RAX)
    elif opc is Opcode.WRPKRU:
        reads.append(Reg.RAX)
    else:
        # JMP (possibly indirect), CLFLUSH, fences, HFI ops, NOP, HLT:
        # read whatever registers appear in the operands.
        for op in ops:
            reads += _op_regs(op)
    return tuple(dict.fromkeys(reads)), tuple(dict.fromkeys(writes))


class ReferenceOooTiming(InOrderTiming):
    """Out-of-order scoreboard conforming to :class:`TimingBackend`.

    Subclasses :class:`InOrderTiming` for the shared cpu/stats/cache
    bindings and the ``_side_effects`` memory fast path; every charge
    hook is overridden to accumulate into the in-flight instruction
    instead of the global clock.
    """

    name = "ooo"
    inline_commit = False

    __slots__ = (
        "_width", "_rob_depth", "_iq_depth", "_lsq_depth", "_n_phys",
        "_rename", "_ready", "_free", "_rob", "_iq", "_lsq",
        "_ports_front", "_ports_issue", "_ports_retire",
        "_fetch_ready", "_last_retire", "_clock",
        "_cur", "_fetch_cost", "_extra", "_mem_lat", "_mem_ops",
        "_check_lat", "_serialize_cost", "_redirect",
        "_retired", "_drains", "_redirects", "_rob_stalls",
        "_prf_stalls", "_iq_stalls", "_lsq_stalls", "_peak_inflight",
        "_checks_overlapped", "_checks_exposed", "_order_violations",
    )

    def __init__(self, cpu) -> None:
        super().__init__(cpu)
        p = cpu.params
        self._width = max(1, p.ooo_width)
        self._rob_depth = max(1, p.ooo_rob_depth)
        self._iq_depth = max(1, p.ooo_iq_depth)
        self._lsq_depth = max(1, p.ooo_lsq_depth)
        n_arch = len(_ARCH_KEYS)
        # Worst case one dispatch needs two fresh physical registers
        # (rdtsc writes RAX+RDX) while the ROB holds prior mappings;
        # require headroom for a full issue group beyond the committed
        # map so allocation can never deadlock.
        floor = n_arch + 2 * self._width
        if p.ooo_phys_regs < floor:
            raise ValueError(
                f"ooo_phys_regs={p.ooo_phys_regs} too small: need at "
                f"least {floor} ({n_arch} architectural + 2x width)")
        self._n_phys = p.ooo_phys_regs
        self._rename: Dict = {}
        self._ready = [0] * self._n_phys
        for idx, key in enumerate(_ARCH_KEYS):
            self._rename[key] = idx
        self._free = list(range(n_arch, self._n_phys))
        #: (retire_time, freed_physical_registers) in program order.
        self._rob: deque = deque()
        self._iq: List[int] = []      # heap of pending issue times
        self._lsq: List[int] = []     # heap of mem completion times
        start = cpu.stats.cycles
        self._ports_front = [start] * self._width
        self._ports_issue = [start] * self._width
        self._ports_retire = [start] * self._width
        self._fetch_ready = start
        self._last_retire = start
        self._clock = start
        self._cur = None
        self._fetch_cost = 0
        self._extra = 0
        self._mem_lat = 0
        self._mem_ops = 0
        self._check_lat = 0
        self._serialize_cost = -1
        self._redirect = False
        self._retired = 0
        self._drains = 0
        self._redirects = 0
        self._rob_stalls = 0
        self._prf_stalls = 0
        self._iq_stalls = 0
        self._lsq_stalls = 0
        self._peak_inflight = 0
        self._checks_overlapped = 0
        self._checks_exposed = 0
        self._order_violations = 0

    # ------------------------------------------------------------------
    # issue/retire protocol (driven by the commit loop)
    # ------------------------------------------------------------------

    def issue(self, dop, fetch_cycles: int) -> None:
        """Open the timing record for the next committed instruction."""
        if self._cur is not None:
            # The previous instruction escaped the commit loop without
            # a retire call (an engine escape path); close its record
            # so the window accounting stays exact.
            self._finalize()
        stats = self.stats
        cycles = stats.cycles
        if cycles != self._clock:
            # Time was charged directly between instructions (fault
            # delivery, kernel costs): the window observed it drained.
            if cycles > self._last_retire:
                self._last_retire = cycles
            if cycles > self._fetch_ready:
                self._fetch_ready = cycles
            self._clock = cycles
        self._cur = dop
        self._fetch_cost = fetch_cycles
        self._extra = 0
        self._mem_lat = 0
        self._mem_ops = 0
        self._check_lat = 0
        self._serialize_cost = -1
        self._redirect = False

    def retire(self, dop) -> None:
        self._finalize()

    def _finalize(self) -> None:
        """Walk the in-flight instruction through the pipeline stages
        and advance the retirement watermark."""
        dop = self._cur
        if dop is None:
            return
        self._cur = None
        stats = self.stats
        params = self.params
        deps = dop.deps
        if deps is None:
            deps = dop.deps = _derive_deps(dop.ins)
        reads, writes = deps

        # ---- front end: fetch slot, then decode/rename ----
        front = self._ports_front
        f = front[0]
        if f < self._fetch_ready:
            f = self._fetch_ready
        heapreplace(front, f + 1)
        dispatch = f + self._fetch_cost + 1

        # ---- window allocation: ROB entry + physical registers ----
        rob = self._rob
        free = self._free
        while rob and rob[0][0] <= dispatch:
            free.extend(rob.popleft()[1])
        need = len(writes)
        while rob and (len(rob) >= self._rob_depth or len(free) < need):
            rob_full = len(rob) >= self._rob_depth
            t, freed = rob.popleft()
            free.extend(freed)
            if t > dispatch:
                dispatch = t
                if rob_full:
                    self._rob_stalls += 1
                else:
                    self._prf_stalls += 1

        # ---- issue-queue occupancy between dispatch and issue ----
        iq = self._iq
        while iq and iq[0] <= dispatch:
            heappop(iq)
        if len(iq) >= self._iq_depth:
            t = heappop(iq)
            if t > dispatch:
                dispatch = t
                self._iq_stalls += 1

        # ---- serialization waits for the whole window to retire ----
        if self._serialize_cost >= 0 and dispatch < self._last_retire:
            dispatch = self._last_retire

        # ---- operand-readiness wakeup ----
        ready = dispatch
        rename = self._rename
        phys_ready = self._ready
        for key in reads:
            t = phys_ready[rename[key]]
            if t > ready:
                ready = t

        # ---- issue port (width per cycle) ----
        ports = self._ports_issue
        t_issue = ports[0]
        if t_issue < ready:
            t_issue = ready
        heapreplace(ports, t_issue + 1)
        heappush(iq, t_issue)

        # ---- execute; memory goes through the LSQ ----
        lat = params.base_cycles + self._extra
        if self._mem_ops:
            lsq = self._lsq
            while lsq and lsq[0] <= t_issue:
                heappop(lsq)
            if len(lsq) >= self._lsq_depth:
                t = heappop(lsq)
                if t > t_issue:
                    t_issue = t
                    self._lsq_stalls += 1
            # §4.2: the hmov bounds check runs in parallel with the
            # access's own dTLB lookup — the path length is the max of
            # the two, not the sum.
            check = self._check_lat
            if check:
                if check <= self._mem_lat:
                    self._checks_overlapped += 1
                else:
                    self._checks_exposed += 1
            lat += self._mem_lat if self._mem_lat >= check else check
        elif self._check_lat:
            lat += self._check_lat
            self._checks_exposed += 1
        complete = t_issue + (lat if lat > 0 else 1)
        if self._mem_ops:
            heappush(self._lsq, complete)
        if self._serialize_cost >= 0:
            complete += self._serialize_cost

        # ---- in-order retirement (precise exceptions) ----
        ports = self._ports_retire
        t_ret = complete
        if t_ret < self._last_retire:
            t_ret = self._last_retire
        if t_ret < ports[0]:
            t_ret = ports[0]
        if t_ret < stats.cycles:
            # Direct external charges during execution (wrong-path
            # rdtsc, kernel costs) floor the watermark.
            t_ret = stats.cycles
        heapreplace(ports, t_ret + 1)
        if t_ret < self._last_retire:
            self._order_violations += 1  # audited; structurally unreachable
        self._last_retire = t_ret

        # ---- rename table update; old mappings freed at retire ----
        if writes:
            freed = []
            for key in writes:
                freed.append(rename[key])
                new = free.pop()
                rename[key] = new
                phys_ready[new] = complete
            rob.append((t_ret, tuple(freed)))
        else:
            rob.append((t_ret, ()))
        if len(rob) > self._peak_inflight:
            self._peak_inflight = len(rob)

        # ---- front-end consequences ----
        if self._redirect:
            t = complete + params.branch_mispredict_penalty
            if t > self._fetch_ready:
                self._fetch_ready = t
        if self._serialize_cost >= 0:
            # A serializer also empties the window *behind* it: fetch
            # restarts only after it retires.
            if t_ret > self._fetch_ready:
                self._fetch_ready = t_ret
            self._drains += 1
        self._retired += 1
        stats.cycles = t_ret
        self._clock = t_ret

    def drain_pending(self) -> None:
        """Empty the window: finalize the in-flight instruction, retire
        everything in the ROB, restart fetch after the drain.  Called
        on precise exceptions and halts."""
        if self._cur is not None:
            self._finalize()
        rob = self._rob
        free = self._free
        while rob:
            free.extend(rob.popleft()[1])
        stats = self.stats
        if self._last_retire < stats.cycles:
            self._last_retire = stats.cycles
        elif stats.cycles < self._last_retire:
            stats.cycles = self._last_retire
        if self._fetch_ready < self._last_retire:
            self._fetch_ready = self._last_retire
        self._clock = stats.cycles
        self._drains += 1

    # ------------------------------------------------------------------
    # charge hooks (called by the exec units mid-instruction)
    # ------------------------------------------------------------------

    def charge(self, cycles: int) -> None:
        if self.cpu._speculative:
            return
        if self._cur is not None:
            self._extra += cycles
        else:
            self.stats.cycles += cycles

    def charge_always(self, cycles: int) -> None:
        if self._cur is not None and not self.cpu._speculative:
            self._extra += cycles
        else:
            # Wrong-path (or out-of-band) costs land on the clock
            # directly; the retire floor keeps the watermark monotone.
            self.stats.cycles += cycles

    def mem_access(self, ea: int) -> None:
        cost = self._side_effects(ea)   # fills always: the Spectre channel
        if self.cpu._speculative:
            return
        if self._cur is not None:
            self._mem_lat += cost
            self._mem_ops += 1
        else:
            self.stats.cycles += cost

    def hmov_check(self, extra: int) -> None:
        if self.cpu._speculative:
            return
        check = self.params.ooo_hmov_check_cycles
        if extra > check:
            check = extra
        if self._cur is not None:
            if check > self._check_lat:
                self._check_lat = check
        else:
            self.stats.cycles += extra

    def mispredict(self) -> None:
        if self._cur is not None:
            self._redirect = True
            self._redirects += 1
        else:
            self.stats.cycles += self.params.branch_mispredict_penalty

    def serialize_drain(self, cost: Optional[int] = None,
                        count: bool = True) -> None:
        cost = (cost if cost is not None
                else self.params.serialize_drain_cycles)
        if self._cur is not None:
            if self._serialize_cost < 0:
                self._serialize_cost = cost
            else:
                self._serialize_cost += cost
        else:
            self.stats.cycles += cost
        if count:
            self.stats.serializations += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def audit(self) -> List[str]:
        """Structural invariants; any entry is a bug in the scoreboard.

        Checked by the verify gate's OoO probe: the rename map never
        aliases, every physical register is accounted exactly once
        (rename map + free list + ROB-held), retirement is monotone
        (in order), and nothing is left in flight outside the commit
        loop.
        """
        problems = []
        live = set(self._rename.values())
        if len(live) != len(self._rename):
            problems.append("rename map aliases a physical register")
        held = [p for _, freed in self._rob for p in freed]
        accounted = len(live) + len(self._free) + len(held)
        if accounted != self._n_phys:
            problems.append(
                f"physical register leak: {accounted} accounted "
                f"of {self._n_phys}")
        if len(live | set(self._free) | set(held)) != self._n_phys:
            problems.append("physical register double-booked")
        if self._order_violations:
            problems.append(
                f"{self._order_violations} out-of-order retirements")
        if self._cur is not None:
            problems.append("instruction in flight outside the commit loop")
        return problems

    @property
    def window_occupancy(self) -> int:
        """ROB entries not yet reclaimed (in flight or awaiting free)."""
        return len(self._rob)

    def ooo_stats(self) -> OooStats:
        return OooStats(
            component="ooo",
            retired=self._retired,
            drains=self._drains,
            redirects=self._redirects,
            rob_stalls=self._rob_stalls,
            prf_stalls=self._prf_stalls,
            iq_stalls=self._iq_stalls,
            lsq_stalls=self._lsq_stalls,
            peak_inflight=self._peak_inflight,
            checks_overlapped=self._checks_overlapped,
            checks_exposed=self._checks_exposed,
        )


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------

SEEDS = range(40)

_N_ARCH = len(_ARCH_KEYS)

#: name -> (overrides, the stall counters the shape must make non-zero)
SHAPES = {
    "default": ({}, ()),
    "width-1": ({"ooo_width": 1}, ("iq_stalls",)),
    "width-2": ({"ooo_width": 2}, ("iq_stalls",)),
    "width-8": ({"ooo_width": 8}, ()),
    "rob-4": ({"ooo_rob_depth": 4}, ("rob_stalls",)),
    "iq-2": ({"ooo_iq_depth": 2}, ("iq_stalls",)),
    "lsq-1": ({"ooo_lsq_depth": 1}, ("lsq_stalls",)),
    "prf-floor": ({"ooo_phys_regs": _N_ARCH + 2 * 4}, ("prf_stalls",)),
    "all-tight": ({"ooo_width": 2, "ooo_rob_depth": 4, "ooo_iq_depth": 2,
                   "ooo_lsq_depth": 1, "ooo_phys_regs": _N_ARCH + 2 * 2},
                  ("rob_stalls", "prf_stalls", "iq_stalls", "lsq_stalls")),
}


def _run(seed, params, reference):
    """One fuzz case on a fresh OoO core; the case is built per call
    because each scoreboard fills ``DecodedOp.deps`` in its own format
    and a program's decoded ops are shared by every core it loads on."""
    case = build_case(seed)
    cpu = _fresh_cell(CELLS["staged/ooo"], case, params)
    if reference:
        cpu.timing = ReferenceOooTiming(cpu)
    outcome = _guarded_run(cpu, case.entry, case.max_instructions)
    timing = cpu.timing
    return {
        "outcome": outcome,
        "cycles": cpu.stats.cycles,
        "instructions": cpu.stats.instructions,
        "ooo_stats": timing.ooo_stats(),
        "window_occupancy": timing.window_occupancy,
        "audit": timing.audit(),
    }


@pytest.mark.parametrize("shape", SHAPES)
def test_counting_scoreboard_matches_rename_map(shape):
    overrides, exercised = SHAPES[shape]
    params = MachineParams().with_overrides(**overrides)
    stalls = dict.fromkeys(exercised, 0)
    for seed in SEEDS:
        mine = _run(seed, params, reference=False)
        want = _run(seed, params, reference=True)
        assert mine == want, (shape, seed)
        assert mine["audit"] == [], (shape, seed)
        for name in stalls:
            stalls[name] += getattr(mine["ooo_stats"], name)
    assert all(stalls.values()), (shape, stalls)


def test_programs_cover_the_slow_paths():
    """The fuzz programs reach every charge hook the scoreboard sees."""
    params = MachineParams()
    totals = {"drains": 0, "redirects": 0, "checks_overlapped": 0,
              "checks_exposed": 0}
    reasons = set()
    for seed in SEEDS:
        run = _run(seed, params, reference=False)
        reasons.add(run["outcome"].get("reason"))
        for name in totals:
            totals[name] += getattr(run["ooo_stats"], name)
    assert all(totals.values()), totals
    assert {"hlt", "fault"} <= reasons, reasons


# ----------------------------------------------------------------------
# the clock reads
# ----------------------------------------------------------------------

_CODE = 0x40_0000
_HANDLER = 0x41_0000
_DESC = 0x20_0000
_HEAP = 0x10_0000
_HEAP_BYTES = 1 << 16
_XS = _HEAP + 0x1000          # the victim's x per round
_STAMPS = _HEAP + 0x2000      # committed in-bounds timestamps
_ROUNDS = 30

#: The shapes the clock programs run on: the default machine, and one
#: that stalls every structure.
CLOCK_SHAPES = ("default", "all-tight")


def _machine(shape, reference, telemetry=None):
    """A fresh OoO core over a heap and a descriptor page."""
    params = MachineParams().with_overrides(**SHAPES[shape][0])
    space = AddressSpace(params)
    space.mmap(_HEAP_BYTES, Prot.rw(), addr=_HEAP)
    space.mmap(4096, Prot.rw(), addr=_DESC)
    cpu = Cpu(params, memory=space, telemetry=telemetry, timing="ooo")
    if reference:
        cpu.timing = ReferenceOooTiming(cpu)
    cpu.tracer = Tracer(record_entries=False)
    return cpu


def _work(asm, k):
    """Loads, a store and dependent ALU ops: records for the queue."""
    asm.mov(Reg.RBX, Imm(_HEAP))
    asm.mov(Reg.RAX, Mem(base=Reg.RBX, disp=8 * (k % 16)))
    asm.add(Reg.RAX, Imm(k + 1))
    asm.mov(Mem(base=Reg.RBX, disp=8 * ((k + 5) % 16)), Reg.RAX)
    asm.imul(Reg.RAX, Reg.RAX)
    asm.xor(Reg.RSI, Reg.RAX)


def _end_state(cpu, result):
    timing = cpu.timing
    return {
        "reason": result.reason,
        "regs": dict(cpu.regs.regs),
        "heap": cpu.mem.read_bytes(_HEAP, _HEAP_BYTES, check=False),
        "cycles": cpu.stats.cycles,
        "instructions": cpu.stats.instructions,
        "ooo_stats": timing.ooo_stats(),
        "window_occupancy": timing.window_occupancy,
        "audit": timing.audit(),
        "spans": cpu.telemetry.spans.as_dicts(),
    }


def _run_rdtsc_victim(shape, reference):
    """The PHT victim in a loop, reading the clock every round.

    ``x`` is in bounds except every fifth round, so the bounds check
    trains one way and then mispredicts: the in-bounds ``rdtsc`` runs
    on the wrong path of an out-of-bounds round.  Every round also
    reads the clock on the commit path into a running sum.
    """
    cpu = _machine(shape, reference)
    for i in range(_ROUNDS):
        cpu.mem.write(_XS + 8 * i, 1000 if i % 5 == 4 else i % 16, 8)
    asm = Assembler(base=_CODE)
    asm.mov(Reg.RCX, Imm(0))
    asm.mov(Reg.RDI, Imm(0))
    asm.label("round")
    _work(asm, 3)
    asm.mov(Reg.RDX, Mem(index=Reg.RCX, scale=8, disp=_XS))
    asm.cmp(Reg.RDX, Imm(16))
    asm.jae("skip")                              # the bounds check
    asm.rdtsc()
    asm.mov(Mem(index=Reg.RCX, scale=8, disp=_STAMPS), Reg.RAX)
    asm.label("skip")
    _work(asm, 7)
    asm.rdtsc()
    asm.add(Reg.RDI, Reg.RAX)
    asm.inc(Reg.RCX)
    asm.cmp(Reg.RCX, Imm(_ROUNDS))
    asm.jne("round")
    asm.hlt()
    cpu.load_program(asm.assemble())
    return cpu, _end_state(cpu, cpu.run(_CODE))


@pytest.mark.parametrize("shape", CLOCK_SHAPES)
def test_rdtsc_reads_the_retired_clock(shape):
    cpu, mine = _run_rdtsc_victim(shape, reference=False)
    _, want = _run_rdtsc_victim(shape, reference=True)
    assert mine == want
    assert mine["reason"] == "hlt" and mine["audit"] == []
    # The program reads the clock on both paths.
    assert cpu.tracer.mix[Opcode.RDTSC] > _ROUNDS
    assert cpu.tracer.spec_mix[Opcode.RDTSC] > 0


def _run_transitions(shape, reference):
    """Sandbox transitions, an interposed syscall and a fault, each
    stamped on a live telemetry sink after a few queued records."""
    telemetry = Telemetry()
    cpu = _machine(shape, reference, telemetry)
    mem = cpu.mem
    mem.write_bytes(_DESC, encode_region(
        ImplicitCodeRegion.covering(_CODE, 1 << 17)))
    mem.write_bytes(_DESC + 24, encode_region(
        ImplicitDataRegion(_HEAP, _HEAP_BYTES - 1, True, True)))
    mem.write_bytes(_DESC + 72, encode_sandbox(
        SandboxFlags(is_hybrid=False, is_serialized=True), exit_handler=0))
    mem.write_bytes(_DESC + 96, encode_sandbox(
        SandboxFlags(is_hybrid=False, is_serialized=False),
        exit_handler=_HANDLER))
    asm = Assembler(base=_CODE)
    asm.mov(Reg.RDI, Imm(_DESC))
    asm.hfi_set_region(0, Reg.RDI)
    _work(asm, 0)
    asm.mov(Reg.RDI, Imm(_DESC + 24))
    asm.hfi_set_region(2, Reg.RDI)
    _work(asm, 1)
    asm.mov(Reg.RDI, Imm(_DESC + 72))
    asm.hfi_enter(Reg.RDI)                       # serialized
    _work(asm, 2)
    asm.hfi_exit()
    _work(asm, 3)
    asm.hfi_reenter()
    _work(asm, 4)
    asm.hfi_exit()
    _work(asm, 5)
    asm.mov(Reg.RDI, Imm(_DESC + 96))
    asm.hfi_enter(Reg.RDI)                       # unserialized
    _work(asm, 6)
    asm.mov(Reg.RAX, Imm(39))
    asm.syscall()                                # to the exit handler
    asm.hlt()
    handler = Assembler(base=_HANDLER)
    _work(handler, 7)
    handler.mov(Reg.RDI, Imm(_DESC + 72))
    handler.hfi_enter(Reg.RDI)
    _work(handler, 8)
    handler.mov(Reg.RBX, Imm(_DESC))             # outside the data region
    handler.mov(Reg.RAX, Mem(base=Reg.RBX))
    handler.hlt()
    cpu.load_program(asm.assemble())
    cpu.load_program(handler.assemble())
    return _end_state(cpu, cpu.run(_CODE))


@pytest.mark.parametrize("shape", CLOCK_SHAPES)
def test_telemetry_stamps_read_the_retired_clock(shape):
    mine = _run_transitions(shape, reference=False)
    want = _run_transitions(shape, reference=True)
    assert mine == want
    assert mine["reason"] == "fault" and mine["audit"] == []
    stamped = [(span["name"], span["attrs"].get("reason"))
               for span in mine["spans"]]
    assert stamped == [
        ("cpu.run", "fault"),
        ("hfi.set_region", None), ("hfi.set_region", None),
        ("hfi.sandbox", "exit"), ("hfi.sandbox", "exit"),
        ("hfi.sandbox", "syscall"), ("syscall.interposed", None),
        ("hfi.sandbox", "fault"), ("hfi.fault", None),
    ]


#: Charge hooks called with no instruction in flight: each lands on
#: the clock directly.
_DIRECT_CHARGES = (
    lambda timing: timing.charge(7),
    lambda timing: timing.charge_always(3),
    lambda timing: timing.mem_access(_HEAP + 0x3000),
    lambda timing: timing.hmov_check(2),
    lambda timing: timing.mispredict(),
    lambda timing: timing.serialize_drain(5),
)


def _drive_with_direct_charges(shape, reference):
    """Commit straight-line code through the timing protocol by hand,
    calling a charge hook between commits every third instruction."""
    cpu = _machine(shape, reference)
    asm = Assembler(base=_CODE)
    for k in range(8 * len(_DIRECT_CHARGES)):
        _work(asm, k)
    program = asm.assemble()
    cpu.load_program(program)
    timing = cpu.timing
    clocks = []
    cpu.regs.rip = _CODE
    for i in range(len(program)):
        pc = cpu.regs.rip
        dop = cpu._decoded[pc]
        timing.issue(dop, timing.fetch(pc))
        dop.run(cpu)
        timing.retire(dop)
        if i % 3 == 2:
            _DIRECT_CHARGES[i // 3 % len(_DIRECT_CHARGES)](timing)
            timing.settle()
            clocks.append(cpu.stats.cycles)
    timing.drain_pending()
    return clocks, cpu.stats.cycles, timing.ooo_stats(), timing.audit()


@pytest.mark.parametrize("shape", CLOCK_SHAPES)
def test_direct_charges_land_on_the_retired_clock(shape):
    mine = _drive_with_direct_charges(shape, reference=False)
    assert mine == _drive_with_direct_charges(shape, reference=True)
    assert mine[3] == []
