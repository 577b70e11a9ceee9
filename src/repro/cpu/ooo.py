"""Scoreboarded out-of-order timing backend (``timing="ooo"``).

The paper's microarchitectural claims — the hmov bounds check issuing
in parallel with the dTLB lookup (§4.2), entry/exit serialization
draining the pipeline (§3.4, Figs. 6/7) — are statements about an
out-of-order core.  This module models one as a *trace-driven
scoreboard*: the functional commit stream is exactly the in-order one
(architectural state stays bit-identical across timing models, which
the verify matrix sweeps), while per-instruction timestamps flow
through a MIPS-R10000-style window.  The scoreboard keeps only what
that window's timing reads; which physical register holds a value
never changes a cycle, so no register identity is kept:

* **operand readiness** — one ready time per architectural key (the 16
  GPRs plus a FLAGS pseudo-register): the completion time of the key's
  last writer.  Renaming removes every false dependence, so a read
  waits only for that writer (wakeup).
* **physical register file** — a count of free registers.  A
  dispatching writer takes one per key it writes; its ROB entry returns
  as many (the previous mappings) when it retires, which is what makes
  exceptions precise.  A dispatch that finds too few free waits for
  the oldest entries to retire.
* **issue queue** — bounded occupancy between dispatch and issue, with
  ``ooo_width`` issue ports (one instruction per port per cycle).
* **reorder buffer** — a bounded window of ``(retire_time,
  registers_freed)`` entries that retire strictly in order.
* **load/store queue** — bounded in-flight memory operations layered
  over the existing TLB and cache models (whose *side effects* are
  identical to the in-order backend; only latency placement differs).
* **front end and retirement** — ``ooo_width`` slots per cycle each.
  Fetch-ready time and the retirement watermark never decrease, so
  neither do these slot times: each slot set is a ring whose oldest
  entry is its earliest free slot.  The issue ports stay a heap,
  because operand readiness can move an issue time backwards.

Because the scoreboard consumes the committed stream, wrong-path work
is never dispatched into the window; speculation cost appears as the
front-end redirect penalty on a resolved mispredict, matching the
in-order model's accounting discipline (squashed work is free, the
flush is not).

``stats.cycles`` is the retirement watermark.  ``retire`` only queues
a record of the committed instruction; :meth:`OutOfOrderTiming.settle`
walks the queued records through the stages in one loop and leaves the
clock at the last one's retire timestamp.  Whoever reads or writes the
clock while records may be queued settles first (the rule is in
:mod:`.timing`), so every consumer (``rdtsc``, telemetry spans, run
results) sees the clock a walk per instruction would give — the clock
is simply computed by a different pipeline.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import List, Optional, Tuple

from ..isa.opcodes import CONDITIONAL_JUMPS, HMOV_REGION, Opcode
from ..isa.operands import Mem
from ..isa.registers import Reg
from ..telemetry.stats import OooStats
from .timing import InOrderTiming

#: FLAGS as a renameable pseudo-register: ALU producers write it,
#: conditional branches read it — the dependence that serializes a
#: compare/branch pair even out of order.
_FLAGS = "flags"

#: Scoreboard index of each architectural key.
_KEY_INDEX = {key: i for i, key in enumerate(tuple(Reg) + (_FLAGS,))}

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


def _derive_deps(ins) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(reads, writes) scoreboard key indices for one instruction.

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
    return (tuple(dict.fromkeys(_KEY_INDEX[key] for key in reads)),
            tuple(dict.fromkeys(_KEY_INDEX[key] for key in writes)))


#: Records one :meth:`OutOfOrderTiming.settle` walks at most: the
#: pending list settles once it holds this many, so its memory stays
#: flat however long a run commits without reading the clock.
_BATCH = 256


class OutOfOrderTiming(InOrderTiming):
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
        "_key_ready", "_free", "_rob", "_iq", "_lsq",
        "_fetch_slots", "_retire_slots", "_slot", "_ports_issue",
        "_fetch_ready", "_last_retire", "_plain_lat", "_pending",
        "_cur", "_fetch_cost", "_slow", "_extra", "_mem_lat", "_mem_ops",
        "_check_lat", "_serialize_cost", "_redirect",
        "_retired", "_drains", "_redirects", "_rob_stalls",
        "_prf_stalls", "_iq_stalls", "_lsq_stalls", "_peak_inflight",
        "_checks_overlapped", "_checks_exposed",
    )

    def __init__(self, cpu) -> None:
        super().__init__(cpu)
        p = cpu.params
        for field in ("ooo_width", "ooo_rob_depth", "ooo_iq_depth",
                      "ooo_lsq_depth"):
            value = getattr(p, field)
            if value < 1:
                raise ValueError(f"{field}={value} must be at least 1")
        self._width = p.ooo_width
        self._rob_depth = p.ooo_rob_depth
        self._iq_depth = p.ooo_iq_depth
        self._lsq_depth = p.ooo_lsq_depth
        n_arch = len(_KEY_INDEX)
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
        #: Completion time of each key's last writer.
        self._key_ready = [0] * n_arch
        #: Physical registers neither mapped to a key nor held by the ROB.
        self._free = self._n_phys - n_arch
        #: (retire_time, registers_freed) in program order.
        self._rob: deque = deque()
        self._iq: List[int] = []      # heap of pending issue times
        self._lsq: List[int] = []     # heap of mem completion times
        start = cpu.stats.cycles
        # Slot rings: ``_slot`` indexes the oldest (earliest) entry of
        # both, and advances once per instruction.
        self._fetch_slots = [start] * self._width
        self._retire_slots = [start] * self._width
        self._slot = 0
        self._ports_issue = [start] * self._width
        self._fetch_ready = start
        self._last_retire = start
        #: Execute latency of an instruction that picked up no charge.
        self._plain_lat = p.base_cycles if p.base_cycles > 0 else 1
        #: Retired instructions not yet walked through the stages, as
        #: ``(dop, fetch_cost, slow)`` records; ``slow`` holds the
        #: charge accumulators, or None if no charge hook fired.
        self._pending: List[tuple] = []
        self._cur = None
        self._fetch_cost = 0
        # The charge hooks set ``_slow`` and fill the accumulators
        # below; ``retire`` records and resets them only when set.
        self._slow = False
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

    # ------------------------------------------------------------------
    # issue/retire protocol (driven by the commit loop)
    # ------------------------------------------------------------------

    def issue(self, dop, fetch_cycles: int) -> None:
        """Open the timing record for the next committed instruction."""
        if self._cur is not None:
            # The previous instruction escaped the commit loop without
            # a retire call (an engine escape path); close its record
            # so the window accounting stays exact.
            self.retire()
        if not self._pending:
            # Time charged directly between instructions (fault
            # delivery, kernel costs) settled the records before it,
            # so only a settled clock can be ahead of the watermark:
            # the window observed it drained.
            cycles = self.stats.cycles
            if cycles > self._last_retire:
                self._last_retire = cycles
                if cycles > self._fetch_ready:
                    self._fetch_ready = cycles
        self._cur = dop
        self._fetch_cost = fetch_cycles

    def retire(self, dop=None) -> None:
        """Close the in-flight instruction's record and queue it for
        :meth:`settle`.

        The commit loop calls this once per committed instruction;
        :meth:`issue` and :meth:`drain_pending` call it for one that
        escaped the loop.  The record opened by :meth:`issue` is the
        instruction retired, so ``dop`` is not consulted.
        """
        dop = self._cur
        if dop is None:
            return
        self._cur = None
        pending = self._pending
        if self._slow:
            pending.append((dop, self._fetch_cost,
                            (self._extra, self._mem_lat, self._mem_ops,
                             self._check_lat, self._serialize_cost,
                             self._redirect)))
            self._slow = self._redirect = False
            self._extra = self._mem_lat = self._mem_ops = 0
            self._check_lat = 0
            self._serialize_cost = -1
        else:
            pending.append((dop, self._fetch_cost, None))
        if len(pending) >= _BATCH:
            self.settle()

    def settle(self) -> None:
        """Walk every pending record through the pipeline stages, in
        commit order, and advance the retirement watermark.

        The scoreboard's state stays in locals for the whole run of
        records and is written back once; the clock ends at the last
        record's retire timestamp, exactly where a walk per
        instruction would have left it.
        """
        pending = self._pending
        if not pending:
            return
        params = self.params
        base_cycles = params.base_cycles
        penalty = params.branch_mispredict_penalty
        width = self._width
        rob_depth = self._rob_depth
        iq_depth = self._iq_depth
        lsq_depth = self._lsq_depth
        plain_lat = self._plain_lat
        key_ready = self._key_ready
        rob = self._rob
        rob_pop = rob.popleft
        rob_push = rob.append
        inflight = len(rob)
        iq = self._iq
        lsq = self._lsq
        ports = self._ports_issue
        fetch_slots = self._fetch_slots
        retire_slots = self._retire_slots
        slot = self._slot
        free = self._free
        fetch_ready = self._fetch_ready
        last_retire = self._last_retire
        peak = self._peak_inflight
        rob_stalls = prf_stalls = iq_stalls = lsq_stalls = 0
        drains = overlapped = exposed = 0
        # Time charged straight to the clock while the first record's
        # instruction executed (a wrong-path rdtsc) floors its
        # retirement: any such charge settles first, so no later
        # record saw one, and each retires past the first anyway.
        floor = self.stats.cycles
        for dop, fetch_cost, slow in pending:
            deps = dop.deps
            if deps is None:
                deps = dop.deps = _derive_deps(dop.ins)
            reads, writes = deps

            # ---- front end: fetch slot, then decode/rename ----
            f = fetch_slots[slot]
            if f < fetch_ready:
                f = fetch_ready
            fetch_slots[slot] = f + 1
            dispatch = f + fetch_cost + 1

            # ---- window allocation: ROB entry + physical registers ----
            while inflight and rob[0][0] <= dispatch:
                free += rob_pop()[1]
                inflight -= 1
            need = len(writes)
            while inflight and (inflight >= rob_depth or free < need):
                rob_full = inflight >= rob_depth
                t, freed = rob_pop()
                inflight -= 1
                free += freed
                if t > dispatch:
                    dispatch = t
                    if rob_full:
                        rob_stalls += 1
                    else:
                        prf_stalls += 1

            # ---- issue-queue occupancy between dispatch and issue ----
            while iq and iq[0] <= dispatch:
                heappop(iq)
            if len(iq) >= iq_depth:
                t = heappop(iq)
                if t > dispatch:
                    dispatch = t
                    iq_stalls += 1

            if slow is not None:
                extra, mem_lat, mem_ops, check, serialize, redirect = slow
                # ---- serialization waits for the whole window ----
                if serialize >= 0 and dispatch < last_retire:
                    dispatch = last_retire

            # ---- operand-readiness wakeup ----
            ready = dispatch
            for key in reads:
                t = key_ready[key]
                if t > ready:
                    ready = t

            # ---- issue port (width per cycle) ----
            t_issue = ports[0]
            if t_issue < ready:
                t_issue = ready
            heapreplace(ports, t_issue + 1)
            heappush(iq, t_issue)

            # ---- execute; memory goes through the LSQ ----
            if slow is None:
                complete = t_issue + plain_lat
            else:
                lat = base_cycles + extra
                if mem_ops:
                    while lsq and lsq[0] <= t_issue:
                        heappop(lsq)
                    if len(lsq) >= lsq_depth:
                        t = heappop(lsq)
                        if t > t_issue:
                            t_issue = t
                            lsq_stalls += 1
                    # §4.2: the hmov bounds check runs in parallel with
                    # the access's own dTLB lookup — the path length is
                    # the max of the two, not the sum.
                    if check:
                        if check <= mem_lat:
                            overlapped += 1
                        else:
                            exposed += 1
                    lat += mem_lat if mem_lat >= check else check
                elif check:
                    lat += check
                    exposed += 1
                complete = t_issue + (lat if lat > 0 else 1)
                if mem_ops:
                    heappush(lsq, complete)
                if serialize >= 0:
                    complete += serialize

            # ---- in-order retirement (precise exceptions) ----
            t_ret = complete
            if t_ret < last_retire:
                t_ret = last_retire
            t = retire_slots[slot]
            if t_ret < t:
                t_ret = t
            if t_ret < floor:
                t_ret = floor
            retire_slots[slot] = t_ret + 1
            slot += 1
            if slot == width:
                slot = 0
            last_retire = t_ret

            # ---- writers take registers; the ROB returns them ----
            rob_push((t_ret, need))
            inflight += 1
            if need:
                free -= need
                for key in writes:
                    key_ready[key] = complete
            if inflight > peak:
                peak = inflight

            # ---- front-end consequences ----
            if slow is not None:
                if redirect:
                    t = complete + penalty
                    if t > fetch_ready:
                        fetch_ready = t
                if serialize >= 0:
                    # A serializer also empties the window *behind* it:
                    # fetch restarts only after it retires.
                    if t_ret > fetch_ready:
                        fetch_ready = t_ret
                    drains += 1

        self._retired += len(pending)
        pending.clear()
        self._slot = slot
        self._free = free
        self._fetch_ready = fetch_ready
        self._last_retire = last_retire
        self._peak_inflight = peak
        self._rob_stalls += rob_stalls
        self._prf_stalls += prf_stalls
        self._iq_stalls += iq_stalls
        self._lsq_stalls += lsq_stalls
        self._drains += drains
        self._checks_overlapped += overlapped
        self._checks_exposed += exposed
        self.stats.cycles = last_retire

    def drain_pending(self) -> None:
        """Empty the window: finalize the in-flight instruction, retire
        everything in the ROB, restart fetch after the drain.  Called
        on precise exceptions and halts."""
        if self._cur is not None:
            self.retire()
        self.settle()
        rob = self._rob
        self._free += sum(freed for _, freed in rob)
        rob.clear()
        # Retirement sets the clock to the watermark and every other
        # charge only raises the clock, so the watermark catches up
        # with the clock, never the other way round.
        cycles = self.stats.cycles
        if self._last_retire < cycles:
            self._last_retire = cycles
        if self._fetch_ready < self._last_retire:
            self._fetch_ready = self._last_retire
        self._drains += 1

    # ------------------------------------------------------------------
    # charge hooks (called by the exec units mid-instruction)
    # ------------------------------------------------------------------
    # A hook with no committed instruction to charge writes the clock
    # directly, so it settles the pending records first.

    def charge(self, cycles: int) -> None:
        if self.cpu._speculative:
            return
        if self._cur is not None:
            self._extra += cycles
            self._slow = True
        else:
            self.settle()
            self.stats.cycles += cycles

    def charge_always(self, cycles: int) -> None:
        if self._cur is not None and not self.cpu._speculative:
            self._extra += cycles
            self._slow = True
        else:
            # Wrong-path (or out-of-band) costs land on the clock
            # directly; the retire floor keeps the watermark monotone.
            self.settle()
            self.stats.cycles += cycles

    def mem_access(self, ea: int) -> None:
        cost = self._side_effects(ea)   # fills always: the Spectre channel
        if self.cpu._speculative:
            return
        if self._cur is not None:
            self._mem_lat += cost
            self._mem_ops += 1
            self._slow = True
        else:
            self.settle()
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
            self._slow = True
        else:
            self.settle()
            self.stats.cycles += extra

    def mispredict(self) -> None:
        if self._cur is not None:
            self._redirect = True
            self._redirects += 1
            self._slow = True
        else:
            self.settle()
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
            self._slow = True
        else:
            self.settle()
            self.stats.cycles += cost
        if count:
            self.stats.serializations += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def audit(self) -> List[str]:
        """Structural invariants; any entry is a bug in the scoreboard.

        Checked by the verify gate's OoO probe: every physical register
        is accounted for (one per architectural key, the free count and
        the ROB-held registers add up to ``ooo_phys_regs``), the free
        count is not negative, the ROB, IQ and LSQ hold no more than
        their depths, and nothing is left in flight outside the commit
        loop.
        """
        self.settle()
        problems = []
        held = sum(freed for _, freed in self._rob)
        accounted = len(self._key_ready) + self._free + held
        if accounted != self._n_phys:
            problems.append(
                f"physical register leak: {accounted} accounted "
                f"of {self._n_phys}")
        if self._free < 0:
            problems.append(f"free register count is {self._free}")
        for label, queue, depth in (("ROB", self._rob, self._rob_depth),
                                    ("IQ", self._iq, self._iq_depth),
                                    ("LSQ", self._lsq, self._lsq_depth)):
            if len(queue) > depth:
                problems.append(
                    f"{label} holds {len(queue)} entries, depth {depth}")
        if self._cur is not None:
            problems.append("instruction in flight outside the commit loop")
        return problems

    @property
    def window_occupancy(self) -> int:
        """ROB entries not yet reclaimed (in flight or awaiting free)."""
        self.settle()
        return len(self._rob)

    def ooo_stats(self) -> OooStats:
        self.settle()
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
