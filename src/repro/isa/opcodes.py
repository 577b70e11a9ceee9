"""Opcode definitions for the reduced x86-64-like ISA with HFI extensions.

The opcode set is the minimum needed to express the paper's workloads
and instrumentation: plain data movement, ALU arithmetic, control flow
(direct, conditional, and indirect), system interaction (``syscall``,
``cpuid``, fences, cache flushes, ``rdtsc``), Intel MPK's ``wrpkru``,
and the eight HFI instructions plus the four ``hmov`` variants
(paper Fig. 6 and §4).
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    # Members are singletons, so identity hashing is correct — and it
    # replaces Enum's Python-level ``hash(self._name_)`` with a C slot.
    # Every emitted instruction looks its opcode up in the length table
    # and the decoder table, so instantiation pays that hash per op.
    __hash__ = object.__hash__

    # --- data movement ---
    MOV = "mov"            # reg<-reg / reg<-imm / load / store
    LEA = "lea"
    PUSH = "push"
    POP = "pop"
    HMOV0 = "hmov0"        # explicit-region relative mov (region 0)
    HMOV1 = "hmov1"
    HMOV2 = "hmov2"
    HMOV3 = "hmov3"

    # --- ALU ---
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    NEG = "neg"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    IMUL = "imul"
    IDIV = "idiv"          # dst = dst / src (truncated signed division)
    IMOD = "imod"          # dst = dst % src (remainder helper)
    CMP = "cmp"
    TEST = "test"
    INC = "inc"
    DEC = "dec"

    # --- control flow ---
    JMP = "jmp"            # direct or indirect (register) jump
    JE = "je"
    JNE = "jne"
    JL = "jl"
    JLE = "jle"
    JG = "jg"
    JGE = "jge"
    JB = "jb"              # unsigned <
    JBE = "jbe"
    JA = "ja"              # unsigned >
    JAE = "jae"
    CALL = "call"
    RET = "ret"

    # --- system ---
    SYSCALL = "syscall"
    INT80 = "int80"        # legacy syscall entry; HFI interposes on it too
    CPUID = "cpuid"        # serializing (used by HFI software emulation)
    LFENCE = "lfence"
    CLFLUSH = "clflush"
    RDTSC = "rdtsc"
    NOP = "nop"
    HLT = "hlt"
    XSAVE = "xsave"
    XRSTOR = "xrstor"
    WRPKRU = "wrpkru"      # MPK domain switch
    RDPKRU = "rdpkru"

    # --- HFI extension (paper appendix A.1) ---
    HFI_ENTER = "hfi_enter"
    HFI_EXIT = "hfi_exit"
    HFI_REENTER = "hfi_reenter"
    HFI_SET_REGION = "hfi_set_region"
    HFI_GET_REGION = "hfi_get_region"
    HFI_CLEAR_REGION = "hfi_clear_region"
    HFI_CLEAR_ALL_REGIONS = "hfi_clear_all_regions"


#: hmov opcode -> explicit region index it addresses.
HMOV_REGION = {
    Opcode.HMOV0: 0,
    Opcode.HMOV1: 1,
    Opcode.HMOV2: 2,
    Opcode.HMOV3: 3,
}

#: Conditional jump opcodes (consult flags + branch predictor).
CONDITIONAL_JUMPS = frozenset({
    Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG,
    Opcode.JGE, Opcode.JB, Opcode.JBE, Opcode.JA, Opcode.JAE,
})

#: All control-flow opcodes.
CONTROL_FLOW = CONDITIONAL_JUMPS | {Opcode.JMP, Opcode.CALL, Opcode.RET}

#: Instructions that fully serialize the pipeline.
SERIALIZING = frozenset({Opcode.CPUID, Opcode.LFENCE})

#: System-call entry opcodes HFI interposes on (§4.4: all variations).
SYSCALL_OPS = frozenset({Opcode.SYSCALL, Opcode.INT80})

#: HFI region-management opcodes.
HFI_REGION_OPS = frozenset({
    Opcode.HFI_SET_REGION, Opcode.HFI_GET_REGION,
    Opcode.HFI_CLEAR_REGION, Opcode.HFI_CLEAR_ALL_REGIONS,
})

#: All HFI-extension opcodes.
HFI_OPS = HFI_REGION_OPS | {
    Opcode.HFI_ENTER, Opcode.HFI_EXIT, Opcode.HFI_REENTER,
}
