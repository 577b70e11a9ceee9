"""Unit tests for the Intel MPK baseline (paper §6.4.2, §7)."""

import pytest

from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Mem, Reg
from repro.mpk import (
    AD,
    USABLE_KEYS,
    MpkDomainManager,
    MpkError,
    MpkSandboxSwitcher,
    pkru_allowing,
    pkru_read_only,
)
from repro.os import AddressSpace, Kernel, Prot
from repro.params import MachineParams
from repro.verify.reference import ReferenceCpu


@pytest.fixture
def params():
    return MachineParams()


class TestKeyAllocation:
    def test_fifteen_usable_keys(self, params):
        manager = MpkDomainManager(AddressSpace(params), params)
        domains = [manager.pkey_alloc(f"d{i}") for i in range(USABLE_KEYS)]
        assert len({d.key for d in domains}) == 15
        with pytest.raises(MpkError):
            manager.pkey_alloc("one-too-many")

    def test_pkey_mprotect_tags_vma(self, params):
        space = AddressSpace(params)
        manager = MpkDomainManager(space, params)
        domain = manager.pkey_alloc("crypto")
        addr = space.mmap(8192, Prot.rw())
        cost = manager.pkey_mprotect(domain, addr, 4096)
        assert cost >= params.syscall_cycles
        assert space.find_vma(addr).pkey == domain.key
        assert space.find_vma(addr + 4096).pkey == 0


class TestPkruComposition:
    def test_allowing_grants_only_listed(self):
        pkru = pkru_allowing({3})
        assert (pkru >> (2 * 3)) & AD == 0
        assert (pkru >> (2 * 5)) & AD == AD
        assert (pkru >> 0) & AD == 0        # key 0 always allowed

    def test_read_only_sets_write_disable(self):
        pkru = pkru_read_only({2}, writable=set())
        assert (pkru >> 4) & 0b11 == 0b10   # WD only
        pkru = pkru_read_only({2}, writable={2})
        assert (pkru >> 4) & 0b11 == 0


class TestEnforcementOnCpu:
    def _machine(self, params):
        kernel = Kernel(params)
        proc = kernel.spawn()
        space = proc.address_space
        space.mmap(1 << 16, Prot.rw(), addr=0x10_0000, name="open")
        space.mmap(1 << 16, Prot.rw(), addr=0x20_0000, name="vault")
        manager = MpkDomainManager(space, params)
        vault = manager.pkey_alloc("vault")
        manager.pkey_mprotect(vault, 0x20_0000, 1 << 16)
        cpu = Cpu(params, process=proc, kernel=kernel)
        return cpu, proc, vault

    def test_access_denied_outside_domain(self, params):
        cpu, proc, vault = self._machine(params)
        proc.pkru = pkru_allowing(set())      # vault key not granted
        asm = Assembler()
        asm.mov(Reg.RBX, Imm(0x20_0000))
        asm.mov(Reg.RAX, Mem(base=Reg.RBX))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        result = cpu.run(program.base)
        assert result.reason == "fault"
        assert "pkey" in result.fault.detail

    def test_access_allowed_inside_domain(self, params):
        cpu, proc, vault = self._machine(params)
        proc.pkru = pkru_allowing({vault.key})
        asm = Assembler()
        asm.mov(Reg.RBX, Imm(0x20_0000))
        asm.mov(Reg.RAX, Mem(base=Reg.RBX))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"

    def test_wrpkru_switches_domain_from_userspace(self, params):
        """The MPK property ERIM exploits: ring-3 domain switching."""
        cpu, proc, vault = self._machine(params)
        proc.pkru = pkru_allowing(set())
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(pkru_allowing({vault.key})))
        asm.wrpkru()
        asm.mov(Reg.RBX, Imm(0x20_0000))
        asm.mov(Reg.RCX, Mem(base=Reg.RBX))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"
        assert cpu.stats.cycles > 0

    def test_untagged_memory_unaffected(self, params):
        cpu, proc, vault = self._machine(params)
        proc.pkru = pkru_allowing(set())
        asm = Assembler()
        asm.mov(Reg.RBX, Imm(0x10_0000))
        asm.mov(Reg.RAX, Mem(base=Reg.RBX))
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"


class TestStraddlingAccess:
    """x86 tests the key of every page an access touches: an 8-byte
    access that starts in an open page and ends in the vault's first
    page is denied, and neither reads nor writes the vault."""

    VAULT = 0x20_0000
    SECRET = 0x5EC2E7

    def _machine(self, params, engine):
        kernel = Kernel(params)
        proc = kernel.spawn()
        space = proc.address_space
        space.mmap(1 << 16, Prot.rw(), addr=self.VAULT - (1 << 16),
                   name="open")
        space.mmap(1 << 16, Prot.rw(), addr=self.VAULT, name="vault")
        manager = MpkDomainManager(space, params)
        vault = manager.pkey_alloc("vault")
        manager.pkey_mprotect(vault, self.VAULT, 1 << 16)
        space.write(self.VAULT, self.SECRET, 8)
        core = ReferenceCpu if engine == "reference" else Cpu
        cpu = core(params, process=proc, kernel=kernel)
        proc.pkru = pkru_allowing(set())      # vault key not granted
        return cpu, space

    def _run(self, cpu, emit):
        asm = Assembler()
        asm.mov(Reg.RBX, Imm(self.VAULT - 4))
        emit(asm)
        asm.hlt()
        program = asm.assemble()
        cpu.load_program(program)
        return cpu.run(program.base)

    @pytest.mark.parametrize("engine", ["staged", "reference"])
    def test_load_into_the_vault_is_denied(self, params, engine):
        cpu, _ = self._machine(params, engine)
        result = self._run(cpu, lambda asm: asm.mov(Reg.RAX,
                                                    Mem(base=Reg.RBX)))
        assert result.reason == "fault"
        assert result.fault.addr == self.VAULT
        assert "pkey" in result.fault.detail
        assert cpu.regs.regs[Reg.RAX] == 0

    @pytest.mark.parametrize("engine", ["staged", "reference"])
    def test_store_into_the_vault_is_denied(self, params, engine):
        cpu, space = self._machine(params, engine)

        def emit(asm):
            asm.mov(Reg.RAX, Imm(0x4141_4141_4141_4141))
            asm.mov(Mem(base=Reg.RBX), Reg.RAX)
        result = self._run(cpu, emit)
        assert result.reason == "fault"
        assert result.fault.addr == self.VAULT
        assert "pkey" in result.fault.detail
        assert space.read(self.VAULT - 4, 8, check=False) == (
            self.SECRET << 32)


class TestSwitcher:
    def test_switch_costs_accrue(self, params):
        kernel = Kernel(params)
        proc = kernel.spawn()
        switcher = MpkSandboxSwitcher(proc, params)
        cost = switcher.enter({3})
        cost += switcher.exit()
        assert cost == 2 * switcher.switch_cost()
        assert switcher.switches == 2

    def test_mpk_switch_cheaper_than_hfi_serialized(self, params):
        """Fig. 5's explanation: HFI transitions also move metadata."""
        from repro.runtime import TransitionModel
        model = TransitionModel(params)
        hfi = (model.hfi_enter_cost(serialized=True)
               + model.hfi_exit_cost(serialized=True))
        kernel = Kernel(params)
        switcher = MpkSandboxSwitcher(kernel.spawn(), params)
        assert 2 * switcher.switch_cost() < hfi