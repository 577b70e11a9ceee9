"""Tests for the repro.verify differential-oracle + invariant subsystem."""

import pytest

from repro.core.faults import FaultCause
from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace
from repro.params import MachineParams
from repro.runtime import InstancePool
from repro.verify import (
    AGREE,
    UNCLASSIFIED,
    VA_WIDTH,
    InvariantViolation,
    PoisonedReadError,
    PoolInvariants,
    ReferenceCpu,
    SpeculationIdentityProbe,
    boundary_sweep,
    check_pool,
    classify,
    run_differential,
    run_seeds,
    run_verify,
    sweep,
)
from repro.verify.fuzz_checks import ExplicitDataRegion
from repro.wasm import HfiStrategy


@pytest.fixture
def params():
    return MachineParams()


# ----------------------------------------------------------------------
# the reference oracle
# ----------------------------------------------------------------------
class TestReferenceOracle:
    def test_reference_runs_a_simple_program(self):
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(40))
        asm.add(Reg.RAX, Imm(2))
        asm.hlt()
        program = asm.assemble()
        cpu = ReferenceCpu()
        cpu.load_program(program)
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert cpu.regs.regs[Reg.RAX] == 42

    def test_fifty_seeds_agree_with_staged_engine(self):
        """50 fuzzed programs, every stop (reason, rip, fault record)
        and full architectural end-state equality (registers, flags,
        rip, memory, HFI bank, instruction and fault counts) across
        the staged cells and the oracle, with clean invariants."""
        outcomes = run_seeds(range(50))
        divergent = [o for o in outcomes if not o.ok]
        assert not divergent, "\n".join(
            f"seed {o.seed}: " + "; ".join((o.divergences
                                            + o.violations)[:4])
            for o in divergent)

    def test_fuzzer_exercises_both_halts_and_faults(self):
        """Runs restart at the fault handler after each fault stop, so
        they end in a halt, and the fault stops on the way are
        compared."""
        outcomes = [run_differential(seed) for seed in range(50)]
        assert "hlt" in {o.reason for o in outcomes}
        assert sum(o.fault_stops for o in outcomes) > 0
        assert any(o.fault_stops > 1 for o in outcomes)

    def test_divergence_reporting_names_the_state(self):
        """A deliberately perturbed staged run must be *reported*, not
        silently absorbed — poke the staged engine post-hoc and check
        the digest comparison sees it."""
        from repro.verify.fuzz_isa import architectural_digest, build_case
        case = build_case(0)
        space = AddressSpace(MachineParams())
        for base, length, prot, name in case.mappings:
            space.mmap(length, prot, addr=base, name=name)
        for addr, data in case.preload:
            space.write_bytes(addr, data, check=False)
        cpu = Cpu(memory=space)
        cpu.load_program(case.program)
        cpu.run(case.entry)
        digest_a = architectural_digest(cpu)
        cpu.regs.regs[Reg.RAX] ^= 1
        digest_b = architectural_digest(cpu)
        assert digest_a["regs"]["RAX"] != digest_b["regs"]["RAX"]


# ----------------------------------------------------------------------
# the comparator fuzzer
# ----------------------------------------------------------------------
class TestComparatorFuzzer:
    def test_zero_unclassified_on_legal_descriptor_space(self):
        """ISSUE gate: every disagreement inside the architecturally
        installable space must be classified (permission only)."""
        result = sweep(trials=10_000, seed=1, legal_va_only=True)
        assert result.counts.get(UNCLASSIFIED, 0) == 0, [
            t.describe() for t in result.unclassified[:5]]
        # legal-VA regions can never hit the va-width design limit
        assert result.counts.get(VA_WIDTH, 0) == 0

    def test_zero_unclassified_beyond_legal_space(self):
        result = sweep(trials=10_000, seed=2)
        assert result.counts.get(UNCLASSIFIED, 0) == 0, [
            t.describe() for t in result.unclassified[:5]]

    def test_boundary_sweep_fully_agrees(self):
        """Directed last-byte edge sweep: with read+write regions there
        is no permission class, so every trial must agree outright."""
        result = boundary_sweep()
        assert result.disagreements == 0
        assert result.counts.get(AGREE) == result.trials

    def test_size_aware_tail_rejected_by_both(self):
        """The fixed comparator bug: an 8-byte access whose first byte
        is in bounds but whose tail dangles past the bound (or wraps
        past 2^64) must be rejected by hardware and golden alike."""
        large = ExplicitDataRegion(0x10_0000, 1 << 16,
                                   permission_read=True,
                                   permission_write=True,
                                   is_large_region=True)
        trial = classify(large, 0, 1, (1 << 16) - 4, 8, False)
        assert trial.classification == AGREE
        assert not trial.hardware_ok
        assert trial.golden_cause is FaultCause.HMOV_OUT_OF_BOUNDS

        top = ExplicitDataRegion((1 << 64) - (1 << 32), 1 << 32,
                                 permission_read=True,
                                 permission_write=True,
                                 is_large_region=False)
        trial = classify(top, 0, 1, (1 << 32) - 4, 8, False)
        assert trial.classification == AGREE
        assert not trial.hardware_ok
        assert trial.golden_cause is FaultCause.HMOV_OVERFLOW


# ----------------------------------------------------------------------
# pool poison-on-discard
# ----------------------------------------------------------------------
class TestPoolPoison:
    def _pool(self, params, slots=4, batch=True):
        space = AddressSpace(params)
        return InstancePool(space, HfiStrategy(), slots=slots,
                            heap_bytes=1 << 16, params=params,
                            batch_teardown=batch)

    def test_poison_flags_planted_stale_read(self, params):
        """ISSUE gate: reading a released slot's heap must raise at
        the exact access."""
        pool = self._pool(params)
        probe = PoolInvariants().install(pool)
        try:
            slot = pool.acquire()
            pool.space.write(slot.heap_base + 8, 0xDEAD, check=False)
            pool.release(slot)
            with pytest.raises(PoisonedReadError):
                pool.space.read(slot.heap_base + 8)   # stale read
            assert probe.poison_hits == 1
        finally:
            probe.uninstall()

    def test_poison_flags_a_cpu_load_of_a_released_slot(self, params):
        """CPU loads take ``AddressSpace.load``, not ``read``: the
        probe must catch them too."""
        pool = self._pool(params)
        probe = PoolInvariants().install(pool)
        try:
            slot = pool.acquire()
            pool.release(slot)
            asm = Assembler()
            asm.mov(Reg.RAX, Mem(disp=slot.heap_base + 8))
            asm.hlt()
            program = asm.assemble()
            cpu = Cpu(params, memory=pool.space)
            cpu.load_program(program)
            with pytest.raises(PoisonedReadError):
                cpu.run(program.base)
            assert probe.poison_hits == 1
        finally:
            probe.uninstall()

    def test_acquire_unpoisons_and_reads_clean(self, params):
        pool = self._pool(params)
        probe = PoolInvariants().install(pool)
        try:
            slot = pool.acquire()
            pool.space.write(slot.heap_base, 0x1234, check=False)
            pool.release(slot)
            pool.flush_discards()
            fresh = pool.acquire()
            assert pool.space.read(fresh.heap_base) == 0
            assert probe.violations == 0
        finally:
            probe.uninstall()

    def test_check_pool_detects_dirty_slot_recycling(self, params):
        """Plant the pre-fix bug shape by hand: a pending-discard slot
        sitting on the free list must be reported."""
        pool = self._pool(params)
        slot = pool.acquire()
        pool.release(slot)                 # batched: pending, off free
        assert check_pool(pool) == []
        pool._free.append(slot.index)      # the old buggy release did this
        problems = check_pool(pool)
        assert any("dirty-slot recycling" in p for p in problems)

    def test_on_acquire_rejects_pending_slot(self, params):
        pool = self._pool(params, slots=1)
        probe = PoolInvariants().install(pool)
        try:
            slot = pool.acquire()
            pool.release(slot)
            pool._free.append(slot.index)  # plant the old bug
            with pytest.raises(InvariantViolation):
                pool.acquire()
        finally:
            probe.uninstall()

    def test_uninstall_restores_read_paths(self, params):
        pool = self._pool(params)
        space = pool.space
        orig_read = space.read
        probe = PoolInvariants().install(pool)
        assert "read" in vars(space)
        probe.uninstall()
        assert "read" not in vars(space)
        assert space.read == orig_read
        assert pool.invariants is None


# ----------------------------------------------------------------------
# speculation identity probe
# ----------------------------------------------------------------------
class TestSpeculationIdentityProbe:
    def _mispredicting_cpu(self):
        asm = Assembler()
        asm.mov(Reg.RCX, Imm(32))
        asm.label("top")
        asm.add(Reg.RAX, Imm(1))
        asm.dec(Reg.RCX)
        asm.jne("top")
        asm.hlt()
        program = asm.assemble()
        cpu = Cpu()
        cpu.load_program(program)
        return cpu, program

    def test_identity_preserved_across_squash(self):
        cpu, program = self._mispredicting_cpu()
        probe = SpeculationIdentityProbe()
        cpu.install_invariant_probe(probe)
        result = cpu.run(program.base)
        assert result.reason == "hlt"
        assert probe.checks > 0        # a mispredicting loop must squash
        assert probe.violations == 0

    def test_probe_detects_rebinding(self):
        cpu, _ = self._mispredicting_cpu()
        probe = SpeculationIdentityProbe()
        probe.on_open(cpu)
        cpu.regs = cpu.regs.copy()     # the historical deepcopy-swap bug
        with pytest.raises(InvariantViolation):
            probe.on_rollback(cpu)
        assert probe.violations == 1


# ----------------------------------------------------------------------
# the bundled gate
# ----------------------------------------------------------------------
class TestRunVerify:
    def test_run_verify_is_clean(self):
        stats, report = run_verify(seeds=range(8),
                                   comparator_trials=2_000)
        assert report["failures"] == []
        assert stats.clean
        assert report["matrix"] == ["staged/inorder", "staged/ooo",
                                    "reference/inorder"]
        assert stats.oracle_runs == 8
        assert report["fault_stops"] > 0
        assert stats.comparator_trials > 2_000   # + boundary sweep
        assert stats.poison_writes > 0
        assert stats.invariant_checks > 0
        # the seeded-determinism smoke ran and found no mismatch
        assert stats.determinism_runs > 0
        assert stats.determinism_mismatches == 0
        assert report["determinism"]["runs"] == stats.determinism_runs
        assert report["determinism"]["mismatches"] == 0
        # PHT, BTB and RSB, HFI off and on, under both timing models
        assert stats.attack_cells == 12
        assert stats.attack_failures == 0
        assert report["attacks"] == {"cells": 12, "failures": 0}

    def test_attack_smoke_fails_when_hfi_never_engages(self, monkeypatch):
        """A harness that never enters the sandbox leaks in every HFI
        cell, and each such cell is a failure."""
        from repro.attacks import SpectreAttack
        from repro.telemetry import VerifyStats
        from repro.verify import _attack_smoke

        monkeypatch.setattr(SpectreAttack, "_enter", lambda self, asm: None)
        stats, failures = VerifyStats(), []
        _attack_smoke(stats, failures)
        assert stats.attack_cells == 12
        assert stats.attack_failures == 6
        assert all("hfi=True" in line for line in failures)
        assert not stats.clean

    @pytest.mark.parametrize("mutant", ["rollback_rebinds_regs",
                                        "drain_leaves_rob",
                                        "serialize_uncounted"])
    def test_differential_catches_cpu_mutant(self, monkeypatch, mutant):
        """Each CPU check on the differential's cells catches a planted
        fault on the first seed: an invariant violation, not a
        divergence, that makes the verdict DIRTY."""
        from repro.cpu.journal import SpeculationJournal
        from repro.cpu.ooo import OutOfOrderTiming

        if mutant == "rollback_rebinds_regs":
            rollback = SpeculationJournal.rollback

            def rebinding(self, cpu):
                cpu.regs.regs = dict(cpu.regs.regs)
                rollback(self, cpu)
            monkeypatch.setattr(SpeculationJournal, "rollback", rebinding)
            expected = "rebound cpu.regs.regs"
        elif mutant == "drain_leaves_rob":
            def leaky(self):
                if self._cur is not None:
                    self.retire()
                self.settle()
                self._drains += 1
            monkeypatch.setattr(OutOfOrderTiming, "drain_pending", leaky)
            expected = "ROB entries left after a drain"
        else:
            serialize = OutOfOrderTiming.serialize_drain
            monkeypatch.setattr(
                OutOfOrderTiming, "serialize_drain",
                lambda self, cost=None, count=True:
                    serialize(self, cost, count=False))
            expected = "serializations disagree"
        stats, report = run_verify(seeds=range(1), comparator_trials=100)
        assert not stats.clean
        assert stats.divergences == 0
        assert stats.invariant_violations > 0
        assert any(line.startswith("seed 0: ") and expected in line
                   for line in report["failures"]), report["failures"]

    def test_verify_stats_clean_property(self):
        from repro.telemetry import VerifyStats
        assert VerifyStats().clean
        assert not VerifyStats(divergences=1).clean
        assert not VerifyStats(unclassified_disagreements=1).clean
        assert not VerifyStats(poison_hits=1).clean
        assert not VerifyStats(invariant_violations=1).clean
        assert not VerifyStats(determinism_mismatches=1).clean
        assert not VerifyStats(attack_failures=1).clean
        assert "clean" in VerifyStats().as_dict()
