"""A deliberately naive reference interpreter — the architectural oracle.

This is the straight-line executor the staged engine is differentially
tested against: no predecode, no caches, no TLB, no predictors, no
speculation window, no timing model.  Every instruction is dispatched
through one ``if``/``elif`` chain over the opcode, and every memory
access goes straight to the :class:`~repro.os.address_space.AddressSpace`.

What it *shares* with the staged engine is the golden semantic core —
:class:`~repro.core.state.HfiState`, the checks in
:mod:`repro.core.checks`, the descriptor encodings, and the address
space — because those are the architectural specification both engines
must implement.  What it deliberately does **not** share is anything
from :mod:`repro.cpu.decode` or the exec units: the reference spells
out each instruction's semantics independently, so an inlining or
closure-capture bug in the staged fast paths shows up as a divergence
instead of being faithfully reproduced on both sides.

It is the last of the differential's three cells
(:data:`repro.verify.fuzz_isa.CELLS`), built directly like the two
staged ones; having no timing model, it runs once rather than under
each.

Known, documented non-determinism: ``rdtsc`` reads the cycle counter,
which the reference does not model (its counter stays 0).  The ISA
fuzzer never emits ``rdtsc`` for exactly this reason.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.checks import implicit_code_check
from ..core.encoding import (
    REGION_DESCRIPTOR_BYTES,
    SANDBOX_DESCRIPTOR_BYTES,
    decode_region,
    decode_sandbox,
    encode_region,
)
from ..core.faults import FaultCause, HfiFault
from ..core.regions import RegionError
from ..core.state import HfiState
from ..cpu.machine import CpuStats, FaultInfo, RunResult
from ..isa.instruction import Instruction, Program
from ..isa.opcodes import HMOV_REGION, Opcode
from ..isa.operands import Imm, Mem
from ..isa.registers import MASK64, Reg, RegisterFile, to_signed
from ..os.address_space import AccessKind, AddressSpace, PageFault
from ..params import DEFAULT_PARAMS, MachineParams

#: Condition predicates, restated independently of the exec units so a
#: transcription error in either table is caught by the fuzzer.
_CONDITIONS = {
    Opcode.JE: lambda f: f.zf,
    Opcode.JNE: lambda f: not f.zf,
    Opcode.JL: lambda f: f.sf != f.of,
    Opcode.JGE: lambda f: f.sf == f.of,
    Opcode.JLE: lambda f: f.zf or f.sf != f.of,
    Opcode.JG: lambda f: not f.zf and f.sf == f.of,
    Opcode.JB: lambda f: f.cf,
    Opcode.JAE: lambda f: not f.cf,
    Opcode.JBE: lambda f: f.cf or f.zf,
    Opcode.JA: lambda f: not f.cf and not f.zf,
}


class ReferenceCpu:
    """Straight-line architectural interpreter of ``isa`` programs.

    The verify differential's oracle cell.  Its public surface mirrors
    the subset of :class:`repro.cpu.Cpu` that the differential harness
    needs: ``load_program``, ``run``, ``regs``, ``hfi``, ``mem``,
    ``stats``, ``fault_resume_address``.  It takes no timing model and
    no telemetry sink: it has no clock or microarchitecture to observe,
    and keeping it bare is what makes it a trustworthy oracle.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 memory: Optional[AddressSpace] = None,
                 process=None, kernel=None):
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
        self.stats = CpuStats()
        self._code: Dict[int, Instruction] = {}
        self._xsave_areas: Dict[int, Tuple[RegisterFile, object, int]] = {}
        self._halted = False
        self._fault: Optional[FaultInfo] = None
        self.fault_resume_address: Optional[int] = None

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_program(self, program: Program) -> None:
        for ins in program.instructions:
            self._code[ins.addr] = ins

    # ------------------------------------------------------------------
    # run loop — mirrors Cpu._run's control-flow skeleton exactly
    # (pending-fault resolution, fetch-time code check, budget edge),
    # with all timing and microarchitecture removed.
    # ------------------------------------------------------------------
    def run(self, entry: int, max_instructions: int = 5_000_000) -> RunResult:
        regs = self.regs
        stats = self.stats
        regs.rip = entry
        self._halted = False
        self._fault = None
        executed = 0
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
            if self.hfi.regs.enabled:
                try:
                    implicit_code_check(self.hfi.regs.code, pc)
                except HfiFault as fault:
                    self._raise_fault(fault)
                    executed += 1
                    continue
            ins = self._code.get(pc)
            if ins is None:
                return RunResult("no_instruction", stats, rip=pc)
            stats.instructions += 1
            try:
                self._execute(ins, pc, pc + ins.length)
            except HfiFault as fault:
                self._raise_fault(fault)
            except PageFault as fault:
                self._raise_page_fault(fault)
            except RegionError as err:
                self._raise_fault(HfiFault(FaultCause.HARDWARE_TRAP,
                                           detail=str(err)))
            executed += 1
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
    # fault delivery (mirrors Cpu._raise_fault / _raise_page_fault)
    # ------------------------------------------------------------------
    def _raise_fault(self, fault: HfiFault) -> None:
        self.stats.hfi_faults += 1
        if self.hfi.enabled:
            self.hfi.fault(fault.cause, fault.addr)
        else:
            self.hfi.regs.cause_msr = fault.cause
        self._deliver_segv(fault.addr, int(fault.cause), str(fault))
        self._fault = FaultInfo("hfi", fault.addr, fault.cause, fault.detail)

    def _raise_page_fault(self, fault: PageFault) -> None:
        self.stats.page_faults += 1
        if self.hfi.enabled:
            self.hfi.fault(FaultCause.HARDWARE_TRAP, fault.addr)
        self._deliver_segv(fault.addr, 0, str(fault))
        self._fault = FaultInfo("page", fault.addr, FaultCause.NONE,
                                fault.reason)

    def _deliver_segv(self, addr: int, hfi_cause: int, detail: str) -> None:
        if self.kernel is not None and self.process is not None:
            self.kernel.deliver_segv(self.process, addr, hfi_cause, detail)

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------
    def _ea(self, mem: Mem) -> int:
        ea = mem.disp
        if mem.base is not None:
            ea += self.regs.regs[mem.base]
        if mem.index is not None:
            ea += self.regs.regs[mem.index] * mem.scale
        return ea & MASK64

    def _check_pkeys(self, ea: int, size: int, kind: AccessKind,
                     denied: int) -> None:
        """MPK: the key of every VMA the access touches (its first and
        last byte's), tested against the process PKRU."""
        process = self.process
        if process is None or not process.pkru:
            return
        for byte in (ea, ea + size - 1):
            vma = self.mem.find_vma(byte)
            if vma.pkey and (process.pkru >> (2 * vma.pkey)) & denied:
                raise PageFault(max(ea, vma.start), kind,
                                f"pkey {vma.pkey} denied")

    def _load_ea(self, ea: int, size: int) -> int:
        self.mem.check_access(ea, size, AccessKind.READ)
        self._check_pkeys(ea, size, AccessKind.READ, 0b01)
        self.stats.loads += 1
        return self.mem.read(ea, size, check=False)

    def _store_ea(self, ea: int, size: int, value: int) -> None:
        self.mem.check_access(ea, size, AccessKind.WRITE)
        self._check_pkeys(ea, size, AccessKind.WRITE, 0b11)
        self.stats.stores += 1
        self.mem.write(ea, value, size, check=False)

    def _read(self, op) -> int:
        if isinstance(op, Reg):
            return self.regs.regs[op]
        if isinstance(op, Imm):
            return op.value & MASK64
        if isinstance(op, Mem):
            ea = self._ea(op)
            self.hfi.check_data_access(ea, op.size, is_write=False)
            return self._load_ea(ea, op.size)
        raise TypeError(f"unreadable operand {op!r}")

    def _write(self, op, value: int) -> None:
        if isinstance(op, Reg):
            self.regs.regs[op] = value & MASK64
        elif isinstance(op, Mem):
            ea = self._ea(op)
            self.hfi.check_data_access(ea, op.size, is_write=True)
            self._store_ea(ea, op.size, value)
        else:
            raise TypeError(f"unwritable operand {op!r}")

    def _stack_read(self) -> int:
        ea = self.regs.regs[Reg.RSP]
        self.hfi.check_data_access(ea, 8, is_write=False)
        return self._load_ea(ea, 8)

    def _stack_write(self, value: int) -> None:
        ea = self.regs.regs[Reg.RSP]
        self.hfi.check_data_access(ea, 8, is_write=True)
        self._store_ea(ea, 8, value)

    # ------------------------------------------------------------------
    # flag helpers (x86 semantics, restated)
    # ------------------------------------------------------------------
    def _logic_flags(self, result: int) -> None:
        f = self.regs.flags
        f.zf = result == 0
        f.sf = bool(result >> 63)
        f.cf = False
        f.of = False

    def _add_flags(self, a: int, b: int, wide: int) -> None:
        result = wide & MASK64
        f = self.regs.flags
        f.zf = result == 0
        f.sf = bool(result >> 63)
        f.cf = wide > MASK64
        f.of = (to_signed(a) + to_signed(b)) != to_signed(result)

    def _sub_flags(self, a: int, b: int) -> None:
        result = (a - b) & MASK64
        f = self.regs.flags
        f.zf = result == 0
        f.sf = bool(result >> 63)
        f.cf = a < b
        f.of = (to_signed(a) - to_signed(b)) != to_signed(result)

    # ------------------------------------------------------------------
    # the big naive dispatch
    # ------------------------------------------------------------------
    def _execute(self, ins: Instruction, pc: int, next_rip: int) -> None:
        op = ins.opcode
        ops = ins.operands
        regs = self.regs
        regs.rip = next_rip

        # --- data movement ---
        if op is Opcode.MOV:
            self._write(ops[0], self._read(ops[1]))
        elif op in HMOV_REGION:
            region = HMOV_REGION[op]
            if isinstance(ops[1], Mem):                    # load form
                m = ops[1]
                index_val = (regs.regs[m.index]
                             if m.index is not None else 0)
                ea = self.hfi.hmov_address(region, index_val, m.scale,
                                           m.disp, m.size, is_write=False)
                self._write(ops[0], self._load_ea(ea, m.size))
            elif isinstance(ops[0], Mem):                  # store form
                value = self._read(ops[1])
                m = ops[0]
                index_val = (regs.regs[m.index]
                             if m.index is not None else 0)
                ea = self.hfi.hmov_address(region, index_val, m.scale,
                                           m.disp, m.size, is_write=True)
                self._store_ea(ea, m.size, value)
            else:                                          # reg/imm form
                self._write(ops[0], self._read(ops[1]))
        elif op is Opcode.LEA:
            self._write(ops[0], self._ea(ops[1]))
        elif op is Opcode.PUSH:
            value = self._read(ops[0])
            regs.regs[Reg.RSP] = (regs.regs[Reg.RSP] - 8) & MASK64
            self._stack_write(value)
        elif op is Opcode.POP:
            value = self._stack_read()
            regs.regs[Reg.RSP] = (regs.regs[Reg.RSP] + 8) & MASK64
            self._write(ops[0], value)

        # --- ALU ---
        elif op is Opcode.ADD:
            a, b = self._read(ops[0]), self._read(ops[1])
            wide = a + b
            self._add_flags(a, b, wide)
            self._write(ops[0], wide & MASK64)
        elif op is Opcode.SUB:
            a, b = self._read(ops[0]), self._read(ops[1])
            self._sub_flags(a, b)
            self._write(ops[0], (a - b) & MASK64)
        elif op is Opcode.AND:
            result = self._read(ops[0]) & self._read(ops[1])
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.OR:
            result = self._read(ops[0]) | self._read(ops[1])
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.XOR:
            result = self._read(ops[0]) ^ self._read(ops[1])
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.NOT:
            self._write(ops[0], ~self._read(ops[0]) & MASK64)  # no flags
        elif op is Opcode.NEG:
            value = (-self._read(ops[0])) & MASK64
            self._logic_flags(value)
            self.regs.flags.cf = value != 0
            self._write(ops[0], value)
        elif op is Opcode.SHL:
            a = self._read(ops[0])
            count = self._read(ops[1]) & 63
            result = (a << count) & MASK64
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.SHR:
            a = self._read(ops[0])
            count = self._read(ops[1]) & 63
            result = a >> count
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.SAR:
            a = self._read(ops[0])
            count = self._read(ops[1]) & 63
            result = (to_signed(a) >> count) & MASK64
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.IMUL:
            result = (to_signed(self._read(ops[0]))
                      * to_signed(self._read(ops[1]))) & MASK64
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.IDIV or op is Opcode.IMOD:
            a = to_signed(self._read(ops[0]))
            b = to_signed(self._read(ops[1]))
            if b == 0:
                raise PageFault(pc, AccessKind.EXEC, "division by zero")
            quotient = int(a / b)          # truncate toward zero (x86)
            remainder = a - quotient * b
            result = (quotient if op is Opcode.IDIV else remainder) & MASK64
            self._logic_flags(result)
            self._write(ops[0], result)
        elif op is Opcode.CMP:
            self._sub_flags(self._read(ops[0]), self._read(ops[1]))
        elif op is Opcode.TEST:
            self._logic_flags(self._read(ops[0]) & self._read(ops[1]))
        elif op is Opcode.INC:
            a = self._read(ops[0])
            self._add_flags(a, 1, a + 1)
            self._write(ops[0], (a + 1) & MASK64)
        elif op is Opcode.DEC:
            a = self._read(ops[0])
            self._sub_flags(a, 1)
            self._write(ops[0], (a - 1) & MASK64)

        # --- control flow ---
        elif op in _CONDITIONS:
            self.stats.branches += 1
            taken = _CONDITIONS[op](regs.flags)
            regs.rip = ops[0].value if taken else next_rip
        elif op is Opcode.JMP:
            if isinstance(ops[0], Imm):
                regs.rip = ops[0].value
            else:
                self.stats.branches += 1
                regs.rip = regs.regs[ops[0]]
        elif op is Opcode.CALL:
            regs.regs[Reg.RSP] = (regs.regs[Reg.RSP] - 8) & MASK64
            self._stack_write(next_rip)
            if isinstance(ops[0], Imm):
                regs.rip = ops[0].value
            else:
                self.stats.branches += 1
                regs.rip = regs.regs[ops[0]]
        elif op is Opcode.RET:
            actual = self._stack_read()
            regs.regs[Reg.RSP] = (regs.regs[Reg.RSP] + 8) & MASK64
            self.stats.branches += 1
            regs.rip = actual

        # --- system ---
        elif op is Opcode.SYSCALL or op is Opcode.INT80:
            nr = regs.regs[Reg.RAX]
            outcome = self.hfi.syscall_attempt(
                nr, legacy=op is Opcode.INT80)
            if outcome is not None:
                self.stats.interposed_syscalls += 1
                if outcome.redirect_to is not None:
                    regs.rip = outcome.redirect_to
            else:
                self.stats.syscalls += 1
                if self.kernel is not None and self.process is not None:
                    result = self.kernel.syscall(
                        self.process, nr, regs.regs[Reg.RDI],
                        regs.regs[Reg.RSI], regs.regs[Reg.RDX])
                    regs.regs[Reg.RAX] = result.value & MASK64
        elif op is Opcode.CPUID or op is Opcode.LFENCE or op is Opcode.NOP:
            pass                           # architecturally a no-op here
        elif op is Opcode.CLFLUSH:
            self._ea(ops[0])               # address formed; no caches
        elif op is Opcode.RDTSC:
            # Timing-dependent: the staged engine writes the live cycle
            # counter.  The reference has no clock (counter stays 0);
            # the ISA fuzzer excludes rdtsc from generated programs.
            regs.regs[Reg.RAX] = self.stats.cycles & MASK64
            regs.regs[Reg.RDX] = 0
        elif op is Opcode.HLT:
            self._halted = True
        elif op is Opcode.XSAVE:
            ea = self._ea(ops[0])
            pkru = self.process.pkru if self.process is not None else 0
            self._xsave_areas[ea] = (self.regs.copy(), self.hfi.snapshot(),
                                     pkru)
        elif op is Opcode.XRSTOR:
            ea = self._ea(ops[0])
            area = self._xsave_areas.get(ea)
            if area is None:
                raise PageFault(ea, AccessKind.READ, "xrstor from bad area")
            saved_regs, hfi_bank, pkru = area
            self.hfi.restore(hfi_bank)     # traps in a native sandbox
            self.regs.load_from(saved_regs)
            if self.process is not None:
                self.process.pkru = pkru
        elif op is Opcode.WRPKRU:
            if self.process is not None:
                self.process.pkru = regs.regs[Reg.RAX] & 0xFFFF_FFFF
        elif op is Opcode.RDPKRU:
            regs.regs[Reg.RAX] = (self.process.pkru
                                  if self.process is not None else 0)

        # --- HFI extension ---
        elif op is Opcode.HFI_ENTER:
            ptr = regs.regs[ops[0]]
            flags, handler = decode_sandbox(self.mem.read_bytes(
                ptr, SANDBOX_DESCRIPTOR_BYTES, check=False))
            self.hfi.enter(flags, handler)
            self.stats.serializations += 1 if flags.is_serialized else 0
        elif op is Opcode.HFI_EXIT:
            outcome = self.hfi.exit()
            if outcome.redirect_to is not None:
                regs.rip = outcome.redirect_to
        elif op is Opcode.HFI_REENTER:
            self.hfi.reenter()
        elif op is Opcode.HFI_SET_REGION:
            ptr = regs.regs[ops[1]]
            region = decode_region(self.mem.read_bytes(
                ptr, REGION_DESCRIPTOR_BYTES, check=False))
            self.hfi.set_region(ops[0].value, region)
        elif op is Opcode.HFI_GET_REGION:
            region, _cost = self.hfi.get_region(ops[0].value)
            ptr = regs.regs[ops[1]]
            if region is not None:
                self.mem.write_bytes(ptr, encode_region(region),
                                     check=False)
        elif op is Opcode.HFI_CLEAR_REGION:
            self.hfi.clear_region(ops[0].value)
        elif op is Opcode.HFI_CLEAR_ALL_REGIONS:
            self.hfi.clear_all_regions()
        else:
            raise NotImplementedError(f"opcode {op} not implemented")
