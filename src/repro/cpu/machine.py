"""The cycle-level CPU simulator — this reproduction's gem5 analogue.

One in-order commit stream with a bounded wrong-path speculation window
(paper Table 2's ROB becomes :attr:`MachineParams.speculation_window`).
The model keeps exactly the properties the paper's evaluation rests on:

* **Timing**: per-instruction base cost plus cache/TLB latencies,
  branch-misprediction penalties, pipeline-drain costs for serializing
  instructions (``cpuid``, serialized ``hfi_enter``/``hfi_exit``), and
  syscall ring-transition costs.
* **Speculation**: on a mispredicted branch (PHT), indirect jump (BTB),
  or return (RSB), the *wrong* path executes for up to the speculation
  window with register writes and stores sandboxed in shadow state —
  but cache fills persist, which is the Spectre channel.
* **HFI hooks**: when HFI mode is on, every fetch is prefix-checked
  before decode (each fetch loop keeps the range the check last passed
  on, until a region register is written), every load/store is
  checked before any cache or TLB update (speculative or not),
  ``hmov`` resolves through explicit regions, and syscalls in native
  sandboxes become jumps to the exit handler (§4).

Since the staged-engine refactor this module holds only the pipeline
*skeleton*: the commit loop, the speculation window, fault delivery,
and the data-memory path.  Instruction semantics live in the exec
units (:mod:`.exec_alu`, :mod:`.exec_mem`, :mod:`.exec_control`,
:mod:`.exec_system`, :mod:`.exec_hfi`), reached through predecoded
handlers (:mod:`.decode`); cycle charging flows through the timing
seam (:mod:`.timing`); and wrong-path squash restores a register
snapshot and drops page shadows (:mod:`.journal`) rather than
deep-copying the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.checks import code_pass_range
from ..core.faults import FaultCause, HfiFault
from ..core.regions import RegionError
from ..core.state import HfiState
from ..isa.instruction import Program
from ..isa.registers import MASK64, Reg, RegisterFile
from ..os.address_space import AccessKind, AddressSpace, PageFault
from ..os.kernel import Kernel
from ..os.process import Process
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import ComponentStats, DecodeCacheStats
from .cache import CacheHierarchy
from .decode import DecodedOp, _StopSpeculation, decode_program
from .journal import SpeculationJournal
from .predictors import BranchTargetBuffer, PatternHistoryTable, ReturnStackBuffer
from . import timing as timing_seam
from .timing import create_timing, _validate_timing
from .tlb import Tlb

_WRITE = AccessKind.WRITE

# Importing the exec units populates the decode.DECODERS table.
from . import exec_alu     # noqa: F401  (registers ALU handlers)
from . import exec_control  # noqa: F401  (registers branch handlers)
from . import exec_hfi     # noqa: F401  (registers HFI handlers)
from . import exec_mem     # noqa: F401  (registers data-movement handlers)
from . import exec_system  # noqa: F401  (registers system handlers)


@dataclass
class CpuStats(ComponentStats):
    """Counters accumulated over a run."""

    component: str = "cpu"
    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    mispredicts: int = 0
    speculative_instructions: int = 0
    loads: int = 0
    stores: int = 0
    syscalls: int = 0
    interposed_syscalls: int = 0
    hfi_faults: int = 0
    page_faults: int = 0
    serializations: int = 0


@dataclass
class FaultInfo:
    """What went wrong when a run stops with reason='fault'."""

    kind: str                    # "hfi" or "page"
    addr: int = 0
    hfi_cause: FaultCause = FaultCause.NONE
    detail: str = ""


@dataclass
class RunResult:
    reason: str                  # "hlt" | "fault" | "instruction_limit" |
                                 # "no_instruction"
    stats: CpuStats
    fault: Optional[FaultInfo] = None
    rip: int = 0

    @property
    def cycles(self) -> int:
        return self.stats.cycles


#: The one execution engine (the name benchmark envelopes report).
DEFAULT_ENGINE = "staged"


class Cpu:
    """A single simulated core."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 memory: Optional[AddressSpace] = None,
                 process: Optional[Process] = None,
                 kernel: Optional[Kernel] = None,
                 telemetry: Optional[Telemetry] = None,
                 timing: Optional[str] = None):
        self.timing_model = _validate_timing(
            timing if timing is not None else timing_seam.DEFAULT_TIMING)
        self.params = params
        if process is not None:
            self.mem = process.address_space
        else:
            self.mem = memory if memory is not None else AddressSpace(params)
        self.process = process
        self.kernel = kernel
        self.regs = RegisterFile()
        self.hfi = HfiState(params)
        if process is not None:
            process.hfi_state = self.hfi
        self.caches = CacheHierarchy(params)
        self.tlb = Tlb(params)
        self.pht = PatternHistoryTable()
        self.btb = BranchTargetBuffer()
        self.rsb = ReturnStackBuffer()
        self.stats = CpuStats()
        #: The core's code: the decoded ops of the loaded programs,
        #: keyed by address.  Only load/unload_program write it.
        self._decoded: Dict[int, DecodedOp] = {}
        self._predecoded = 0
        #: The timing seam — all cycle charging by the exec layer.
        self.timing = create_timing(self.timing_model, self)
        #: Wrong-path state: register snapshot, page shadows, HFI bank.
        self._journal = SpeculationJournal()
        #: The journal's page shadows; non-empty only inside a window.
        self._shadows = self._journal.shadows
        self._speculative = False
        self._xsave_areas: Dict[int, Tuple[RegisterFile, object, int]] = {}
        self._halted = False
        self._fault: Optional[FaultInfo] = None
        #: If set, committed faults redirect here instead of halting
        #: (models a runtime whose SIGSEGV handler resumes execution).
        self.fault_resume_address: Optional[int] = None
        #: Optional committed/speculative instruction tracer.
        self.tracer = None
        #: Telemetry sink (defaults to the shared no-op null sink).
        self.telemetry = coalesce(None)
        self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Point this core at a sink and register its component stats.

        Telemetry only *reads* simulator state — cycle accounting is
        identical whether the sink is real or the default null sink.
        """
        self.telemetry = coalesce(telemetry)
        if self.telemetry.enabled:
            for name, fn in (("cpu", lambda: replace(self.stats)),
                             ("hfi", self.hfi.stats),
                             ("l1d", self.caches.l1d.stats),
                             ("l1i", self.caches.l1i.stats),
                             ("l2", self.caches.l2.stats),
                             ("dtlb", self.tlb.stats),
                             ("pht", self.pht.stats),
                             ("btb", self.btb.stats),
                             ("rsb", self.rsb.stats),
                             ("decode", self.decode_stats),
                             ("journal", self._journal.stats)):
                self.telemetry.register_component(name, fn)
            if self.timing_model == "ooo":
                self.telemetry.register_component("ooo",
                                                  self.timing.ooo_stats)

    def install_invariant_probe(self, probe) -> None:
        """Arm a sanitizer probe on the speculation journal.

        The probe (see :mod:`repro.verify.invariants`) is notified at
        window open and after squash so it can assert that rollback
        preserves object identity of ``cpu.regs``/``cpu.hfi``/
        ``process.hfi_state``.  Pass ``None`` to disarm.
        """
        self._journal.probe = probe

    def decode_stats(self) -> DecodeCacheStats:
        """Predecode-cache counters (``repro.telemetry`` surface)."""
        return DecodeCacheStats(component="decode",
                                predecoded=self._predecoded,
                                cached_ops=len(self._decoded))

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_program(self, program: Program) -> None:
        """Map a program's decoded ops at their laid-out addresses.

        The program is predecoded once (cached on the Program object),
        so repeated loads — and multiple cores sharing a program —
        reuse the same DecodedOps.  The latest load at an address wins;
        :meth:`unload_program` undoes a load.
        """
        decoded = decode_program(program)
        self._decoded.update(decoded)
        self._predecoded += len(decoded)

    def unload_program(self, program: Program) -> None:
        """Unmap a program mapped by :meth:`load_program` (its inverse).

        An address is dropped only while it still maps the program's
        own op, so code loaded over the program stays.
        """
        code = self._decoded
        for addr, dop in decode_program(program).items():
            if code.get(addr) is dop:
                del code[addr]

    # ------------------------------------------------------------------
    # top-level run loop
    # ------------------------------------------------------------------
    def run(self, entry: int, max_instructions: int = 5_000_000) -> RunResult:
        telemetry = self.telemetry
        telemetry.begin_span("cpu.run", self.stats.cycles, entry=entry)
        result = None
        try:
            result = self._run(entry, max_instructions)
        finally:
            # The clock is exact once the timing backend settles; the
            # span closes even when an exception escapes the loop, so
            # the next run's span does not nest under it.
            self.timing.settle()
            telemetry.end_span(
                self.stats.cycles, name="cpu.run",
                reason=result.reason if result is not None else "exception",
                instructions=self.stats.instructions)
        return result

    def _run(self, entry: int, max_instructions: int) -> RunResult:
        self.regs.rip = entry
        self._halted = False
        self._fault = None
        executed = 0
        # Hot-loop bindings: none of these objects are ever rebound on
        # a live core (regs/hfi identity is stable since the journal
        # replaced snapshot-swap speculation).
        regs = self.regs
        stats = self.stats
        decoded = self._decoded
        timing = self.timing
        fetch = timing.fetch
        #: Inline timing backends (in-order) let this loop add
        #: fetch+base cost directly; scoreboarded backends take every
        #: committed instruction through issue/retire instead.
        inline = timing.inline_commit
        hfi_regs = self.hfi.regs
        tracer = self.tracer
        base_cycles = self.params.base_cycles
        # A fetch from the L1I's latest line only counts its hit (the
        # line is already most recently used); any other line takes the
        # full access through ``fetch``.
        l1i = self.caches.l1i
        l1i_line = l1i.line_bytes
        l1i_hit_cycles = self.params.l1i_hit_cycles
        # The code-region check's pass range: a pc inside it passes
        # without the check until a region register is written.
        code_lo = code_hi = code_writes = 0
        while executed < max_instructions:
            if self._halted:
                return RunResult("hlt", stats, rip=regs.rip)
            if self._fault is not None:
                fault, self._fault = self._fault, None
                if self.fault_resume_address is not None:
                    regs.rip = self.fault_resume_address
                    continue
                return RunResult("fault", stats, fault=fault, rip=regs.rip)
            pc = regs.rip
            # HFI code-region check happens at decode, before execution
            # and before any micro-op enters the pipeline (§4.1).
            # (``hfi_regs.code`` is re-read per check: enter/restore
            # rebind the list.)
            if hfi_regs.enabled and not (
                    code_lo <= pc < code_hi
                    and hfi_regs.region_writes == code_writes):
                try:
                    code_lo, code_hi = code_pass_range(hfi_regs.code, pc)
                except HfiFault as fault:
                    self._raise_fault(fault)
                    executed += 1
                    continue
                code_writes = hfi_regs.region_writes
            if pc // l1i_line == l1i._last:
                l1i._hits += 1
                fetch_cycles = l1i_hit_cycles
            else:
                fetch_cycles = fetch(pc)
            dop = decoded.get(pc)
            if dop is None:
                if not inline:
                    timing.drain_pending()
                stats.cycles += fetch_cycles
                return RunResult("no_instruction", stats, rip=pc)
            stats.instructions += 1
            if inline:
                stats.cycles += fetch_cycles + base_cycles
            else:
                timing.issue(dop, fetch_cycles)
            if tracer is not None:
                tracer.record(pc, dop.ins, hfi_regs.enabled)
            try:
                dop.run(self)
            except HfiFault as fault:
                self._raise_fault(fault)
            except PageFault as fault:
                self._raise_page_fault(fault)
            except RegionError as err:
                self._raise_fault(HfiFault(FaultCause.HARDWARE_TRAP,
                                           detail=str(err)))
            else:
                if not inline:
                    timing.retire(dop)
            executed += 1
        # The budget ran out with the last instruction's outcome still
        # pending — resolve it instead of silently dropping it (a halt
        # is a halt, and a fault must not vanish into a limit result).
        if self._halted:
            return RunResult("hlt", stats, rip=regs.rip)
        if self._fault is not None:
            fault, self._fault = self._fault, None
            if self.fault_resume_address is not None:
                regs.rip = self.fault_resume_address
                return RunResult("instruction_limit", stats, rip=regs.rip)
            return RunResult("fault", stats, fault=fault, rip=regs.rip)
        return RunResult("instruction_limit", stats, rip=regs.rip)

    # ------------------------------------------------------------------
    # fault delivery
    # ------------------------------------------------------------------
    def _raise_fault(self, fault: HfiFault) -> None:
        """An HFI violation at commit: disable sandbox, set MSR, SIGSEGV."""
        # Precise exception: the faulting instruction and everything
        # younger is flushed, the window drains before delivery.
        self.timing.drain_pending()
        self.stats.hfi_faults += 1
        if self.hfi.enabled:
            outcome = self.hfi.fault(fault.cause, fault.addr)
            self.stats.cycles += outcome.cycles
        else:
            self.hfi.regs.cause_msr = fault.cause
        if self.telemetry.enabled:
            self.telemetry.event("hfi.fault", self.stats.cycles,
                                 cause=fault.cause.name, addr=fault.addr)
            self.telemetry.end_span(self.stats.cycles, name="hfi.sandbox",
                                    reason="fault")
        self._deliver_segv(fault.addr, int(fault.cause), str(fault))
        self._fault = FaultInfo("hfi", fault.addr, fault.cause, fault.detail)

    def _raise_page_fault(self, fault: PageFault) -> None:
        self.timing.drain_pending()
        self.stats.page_faults += 1
        if self.hfi.enabled:
            outcome = self.hfi.fault(FaultCause.HARDWARE_TRAP, fault.addr)
            self.stats.cycles += outcome.cycles
            if self.telemetry.enabled:
                self.telemetry.end_span(self.stats.cycles,
                                        name="hfi.sandbox", reason="fault")
        self._deliver_segv(fault.addr, 0, str(fault))
        self._fault = FaultInfo("page", fault.addr, FaultCause.NONE,
                                fault.reason)

    def _deliver_segv(self, addr: int, hfi_cause: int, detail: str) -> None:
        if self.kernel is not None and self.process is not None:
            self.stats.cycles += self.kernel.deliver_segv(
                self.process, addr, hfi_cause, detail)

    # ------------------------------------------------------------------
    # speculation
    # ------------------------------------------------------------------
    def _speculate(self, wrong_path: int) -> None:
        """Run the mispredicted path in shadow state, then squash.

        Register writes and stores are discarded (the journal restores
        its register snapshot and drops its page shadows); cache and
        TLB fills are not — faithfully creating (and letting HFI close)
        the Spectre channel.  Fetch is the commit loop's front end.
        """
        journal = self._journal
        journal.open(self)
        self._speculative = True
        regs = self.regs
        stats = self.stats
        decoded = self._decoded
        fetch = self.timing.fetch
        hfi_regs = self.hfi.regs
        tracer = self.tracer
        l1i = self.caches.l1i
        l1i_line = l1i.line_bytes
        code_lo = code_hi = code_writes = 0    # the window's pass range
        regs.rip = wrong_path
        try:
            for _ in range(self.params.speculation_window):
                pc = regs.rip
                if hfi_regs.enabled and not (
                        code_lo <= pc < code_hi
                        and hfi_regs.region_writes == code_writes):
                    try:
                        code_lo, code_hi = code_pass_range(hfi_regs.code,
                                                           pc)
                    except HfiFault:
                        # decode turns the micro-ops into a faulting
                        # NOP; nothing out-of-bounds executes (§4.1).
                        break
                    code_writes = hfi_regs.region_writes
                if pc // l1i_line == l1i._last:
                    l1i._hits += 1
                else:
                    fetch(pc)
                dop = decoded.get(pc)
                if dop is None:
                    break
                stats.speculative_instructions += 1
                if tracer is not None:
                    tracer.record(pc, dop.ins, hfi_regs.enabled,
                                  speculative=True)
                try:
                    dop.run(self)
                except (HfiFault, PageFault, RegionError):
                    break  # squashed fault: no architectural effect
        except _StopSpeculation:
            pass
        finally:
            self._speculative = False
            journal.rollback(self)

    # ------------------------------------------------------------------
    # memory path
    # ------------------------------------------------------------------
    def _load_ea(self, ea: int, size: int) -> int:
        """Data load at a resolved (and HFI-checked) address.

        The address space checks protection and (with a process
        attached, under its PKRU) MPK keys, and reads, in one call; a
        faulting load touches no cache or TLB.
        """
        process = self.process
        value = self.mem.load(ea, size,
                              process.pkru if process is not None else 0)
        self.timing.mem_access(ea)
        self.stats.loads += 1
        if self._shadows:                   # a wrong path has stored
            return self._journal.load(self.mem, ea, size)
        return value

    def _store_ea(self, ea: int, size: int, value: int) -> None:
        """Data store at a resolved (and HFI-checked) address; a
        wrong-path store goes to the journal's page shadows."""
        process = self.process
        pkru = process.pkru if process is not None else 0
        if self._speculative:
            self.mem.check(ea, size, _WRITE, pkru)
            self._journal.store(self.mem, ea, size, value)
        else:
            self.mem.store(ea, size, value, pkru)
        self.timing.mem_access(ea)
        self.stats.stores += 1

    def _wreg(self, reg: Reg, value: int) -> None:
        """GPR write for the exec layer's fixed-register effects (the
        window's register snapshot undoes it on a wrong path)."""
        self.regs.regs[reg] = value & MASK64
