"""Unit tests for the ISA layer: assembler, layout, encodings."""

import pytest

from repro.isa import (
    CONDITIONAL_JUMPS,
    HMOV_REGION,
    Assembler,
    AssemblerError,
    Imm,
    LabelRef,
    Mem,
    Opcode,
    Reg,
    encoded_length,
)


def reference_encoded_length(opcode, operands):
    """The length model as an if-chain over opcodes, the form it had
    before ``encoded_length`` became table-driven: the oracle that
    holds every length bit-identical."""
    def mem_len(mem):
        length = 1
        if mem.index is not None or mem.base is None:
            length += 1
        if mem.base is None:
            length += 4
        elif mem.disp != 0:
            length += 1 if -128 <= mem.disp <= 127 else 4
        return length

    if opcode is Opcode.NOP:
        return 1
    if opcode is Opcode.RET:
        return 1
    if opcode in (Opcode.PUSH, Opcode.POP):
        return 2
    if opcode in (Opcode.SYSCALL, Opcode.CPUID, Opcode.RDTSC,
                  Opcode.INT80, Opcode.HLT):
        return 2
    if opcode in (Opcode.LFENCE, Opcode.CLFLUSH, Opcode.WRPKRU,
                  Opcode.RDPKRU, Opcode.XSAVE, Opcode.XRSTOR):
        return 3
    if opcode in CONDITIONAL_JUMPS:
        return 6
    if opcode in (Opcode.JMP, Opcode.CALL):
        target = operands[0] if operands else None
        return 3 if isinstance(target, Reg) else 5
    if opcode in (Opcode.HFI_ENTER, Opcode.HFI_EXIT, Opcode.HFI_REENTER,
                  Opcode.HFI_CLEAR_ALL_REGIONS):
        return 4
    if opcode in (Opcode.HFI_SET_REGION, Opcode.HFI_GET_REGION,
                  Opcode.HFI_CLEAR_REGION):
        length = 4
        for op in operands:
            if isinstance(op, Mem):
                length += mem_len(op)
            elif isinstance(op, Imm):
                length += 1
        return length
    length = 2
    if opcode in HMOV_REGION:
        length += 2
    has_modrm = False
    for op in operands:
        if isinstance(op, Mem):
            length += mem_len(op)
            has_modrm = True
        elif isinstance(op, Reg):
            if not has_modrm:
                length += 1
                has_modrm = True
        elif isinstance(op, Imm):
            if -128 <= op.value <= 127:
                length += 1
            elif -(1 << 31) <= op.value < (1 << 32):
                length += 4
            else:
                length += 8
        elif isinstance(op, LabelRef):
            length += 4
    return length


#: One operand of every shape the length model distinguishes: a
#: register; immediates at each edge of the 1-, 4- and 8-byte widths;
#: memory with and without base and index, at disp 0, 8-bit and
#: 32-bit, plus the absolute form (no base, no index); a label.
SINGLE_OPERANDS = (
    [Reg.RAX, Reg.RSP]
    + [Imm(v) for v in (0, 127, -128, 128, -129, (1 << 32) - 1,
                        -(1 << 31), 1 << 32, -(1 << 31) - 1)]
    + [Mem(base=base, index=index, scale=4, disp=disp)
       for base in (None, Reg.RBX) for index in (None, Reg.RCX)
       for disp in (0, 8, -128, 128, -0x1000)]
    + [LabelRef("target")]
)
OPERAND_SHAPES = ([()] + [(a,) for a in SINGLE_OPERANDS]
                  + [(a, b) for a in SINGLE_OPERANDS
                     for b in SINGLE_OPERANDS])


class TestAssembler:
    def test_layout_assigns_monotonic_addresses(self):
        asm = Assembler(base=0x1000)
        asm.mov(Reg.RAX, Imm(1))
        asm.add(Reg.RAX, Imm(2))
        asm.hlt()
        program = asm.assemble()
        addrs = [ins.addr for ins in program.instructions]
        assert addrs[0] == 0x1000
        assert addrs == sorted(addrs)
        for a, b in zip(program.instructions, program.instructions[1:]):
            assert b.addr == a.addr + a.length

    def test_label_resolution(self):
        asm = Assembler()
        asm.jmp("end")
        asm.mov(Reg.RAX, Imm(1))
        asm.label("end")
        asm.hlt()
        program = asm.assemble()
        target = program.instructions[0].operands[0]
        assert isinstance(target, Imm)
        assert target.value == program.labels["end"]

    def test_undefined_label_raises(self):
        asm = Assembler()
        asm.jmp("nowhere")
        with pytest.raises(AssemblerError):
            asm.assemble()

    @pytest.mark.parametrize("bad", ["junk", 7, None])
    def test_non_operand_raises_naming_the_instruction(self, bad):
        """An operand that is not a Reg, Imm, Mem or LabelRef fails at
        assembly, naming its instruction, not when the instruction
        runs."""
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(1))
        asm.add(Reg.RAX, bad)
        asm.hlt()
        with pytest.raises(AssemblerError, match=r"^add at 0x"):
            asm.assemble()

    def test_operand_after_a_label_is_checked(self):
        asm = Assembler()
        asm.label("top")
        asm.emit(Opcode.CMP, LabelRef("top"), "junk")
        with pytest.raises(AssemblerError, match="'junk'"):
            asm.assemble()

    def test_duplicate_label_raises(self):
        asm = Assembler()
        asm.label("x")
        asm.nop()
        asm.label("x")
        asm.nop()
        with pytest.raises(AssemblerError):
            asm.assemble()

    def test_trailing_label_gets_anchor(self):
        asm = Assembler()
        asm.jmp("end")
        asm.label("end")
        program = asm.assemble()
        assert "end" in program.labels

    def test_program_size_counts_bytes(self):
        asm = Assembler(base=0x100)
        asm.mov(Reg.RAX, Imm(5))
        asm.hlt()
        program = asm.assemble()
        assert program.size == sum(i.length for i in program.instructions)


class TestEncodings:
    def test_hmov_longer_than_mov(self):
        """The 445.gobmk effect depends on hmov's longer encoding (§6.1)."""
        mem = Mem(base=Reg.RBX, index=Reg.RCX, scale=1, disp=8)
        mov_len = encoded_length(Opcode.MOV, (Reg.RAX, mem))
        hmov_len = encoded_length(Opcode.HMOV0, (Reg.RAX, mem))
        assert hmov_len == mov_len + 2

    def test_disp_width_affects_length(self):
        short = encoded_length(
            Opcode.MOV, (Reg.RAX, Mem(base=Reg.RBX, disp=8)))
        long = encoded_length(
            Opcode.MOV, (Reg.RAX, Mem(base=Reg.RBX, disp=0x1000)))
        assert long > short

    def test_imm_width_affects_length(self):
        small = encoded_length(Opcode.MOV, (Reg.RAX, Imm(1)))
        big = encoded_length(Opcode.MOV, (Reg.RAX, Imm(1 << 40)))
        assert big > small

    def test_all_lengths_positive(self):
        for opcode in Opcode:
            assert encoded_length(opcode, ()) >= 1

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda o: o.value)
    def test_lengths_match_reference_model(self, opcode):
        mismatches = [
            (operands, encoded_length(opcode, operands),
             reference_encoded_length(opcode, operands))
            for operands in OPERAND_SHAPES
            if encoded_length(opcode, operands)
            != reference_encoded_length(opcode, operands)]
        assert not mismatches


class TestOperands:
    def test_mem_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Mem(base=Reg.RAX, scale=3)

    def test_mem_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Mem(base=Reg.RAX, size=16)
