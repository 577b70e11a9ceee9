"""Differential-oracle and invariant-checking subsystem.

The correctness tooling behind the staged execution engine and the
recycling runtime:

* :mod:`repro.verify.reference` — a deliberately naive straight-line
  interpreter whose architectural end state is the oracle.
* :mod:`repro.verify.fuzz_isa` — seeded program generation over the
  full opcode table, executed on the staged engine and the reference
  oracle (under every timing model) with full-state equality asserted
  against the first.
* :mod:`repro.verify.fuzz_checks` — randomized sweep of the §4.2
  hardware comparator against the golden hmov semantics, with every
  disagreement classified.
* :mod:`repro.verify.invariants` — sanitizer-style probes (pool
  poison-on-discard, free-list consistency, speculation identity),
  armed only on demand.
* a short :mod:`repro.chaos` soak — seeded fault injection through the
  supervised runtime, gated on zero leaked slots, zero zombie
  sandboxes, and a fully accounted fault ledger.

``run_verify`` bundles all of it into one :class:`VerifyStats`
verdict; the ``repro-hfi verify`` CLI subcommand and the CI ``verify``
job are thin wrappers around it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..params import MachineParams
from ..telemetry.stats import VerifyStats
from .fuzz_checks import (
    AGREE,
    PERMISSION,
    UNCLASSIFIED,
    VA_WIDTH,
    ComparatorSweep,
    ComparatorTrial,
    boundary_sweep,
    classify,
    sweep,
)
from .fuzz_isa import (
    DEFAULT_ENGINES,
    DEFAULT_TIMINGS,
    DifferentialOutcome,
    FuzzCase,
    architectural_digest,
    build_case,
    build_matrix,
    run_differential,
    run_seeds,
)
from .invariants import (
    POISON_BYTE,
    InvariantViolation,
    PoisonedReadError,
    PoolInvariants,
    SpeculationIdentityProbe,
    check_pool,
)
from .reference import ReferenceCpu

__all__ = [
    "ReferenceCpu",
    "FuzzCase", "DifferentialOutcome", "build_case", "run_differential",
    "run_seeds", "architectural_digest", "DEFAULT_ENGINES",
    "DEFAULT_TIMINGS", "build_matrix",
    "ComparatorSweep", "ComparatorTrial", "classify", "sweep",
    "boundary_sweep", "AGREE", "PERMISSION", "VA_WIDTH", "UNCLASSIFIED",
    "PoolInvariants", "SpeculationIdentityProbe", "InvariantViolation",
    "PoisonedReadError", "check_pool", "POISON_BYTE",
    "run_verify", "VerifyStats",
]


def _pool_smoke(stats: VerifyStats, failures: List[str]) -> None:
    """Arm the pool sanitizer over a short batched-recycle workload."""
    from ..runtime import InstancePool
    from ..wasm import HfiStrategy
    from ..os import AddressSpace

    params = MachineParams()
    space = AddressSpace(params)
    pool = InstancePool(space, HfiStrategy(), slots=4,
                        heap_bytes=1 << 16, params=params,
                        batch_teardown=True)
    probe = PoolInvariants(raise_on_violation=False).install(pool)
    unexpected_hits = 0
    try:
        # two full acquire/release/flush generations, with an
        # acquire-after-batched-release in the middle (the fixed bug's
        # trigger shape)
        for _ in range(2):
            held = [pool.acquire() for _ in range(4)]
            for slot in held:
                space.write(slot.heap_base, 0x1234)
                pool.release(slot)
            live = pool.acquire()        # pool drained: must be None
            if live is not None:
                failures.append(
                    "pool handed out a slot while every slot was "
                    "pending discard")
            pool.flush_discards()
            live = pool.acquire()
            if live is None:
                failures.append("pool empty after flush_discards")
            else:
                value = space.read(live.heap_base)   # must be clean
                if value != 0:
                    failures.append(
                        f"freshly acquired slot read {value:#x}, "
                        f"expected zeroed heap")
                pool.release(live)
            pool.flush_discards()
        # Any poison hit during the normal workload is a real bug; the
        # planted stale read below is *expected* to trip the poisoner
        # and is excluded from the gate.
        unexpected_hits = probe.poison_hits
        dead = pool.slots[0]
        try:
            space.read(dead.heap_base)
            failures.append("stale read of a released slot's heap was "
                            "not flagged")
        except PoisonedReadError:
            pass
    except PoisonedReadError as exc:
        unexpected_hits = probe.poison_hits
        failures.append(f"pool invariant: unexpected poison hit: {exc}")
    finally:
        stats.poison_writes += probe.poison_writes
        stats.poison_hits += unexpected_hits
        stats.invariant_checks += probe.checks
        stats.invariant_violations += probe.violations
        for message in probe.violation_log:
            if not message.startswith("read of"):
                failures.append(f"pool invariant: {message}")
        probe.uninstall()


def _chaos_smoke(stats: VerifyStats, failures: List[str],
                 seeds: Iterable[int] = range(4),
                 params: Optional[MachineParams] = None) -> None:
    """Short chaos soak as part of the gate: every seeded run must end
    with zero leaked slots, zero zombie sandboxes, clean pool
    invariants, and every injected fault classified."""
    from ..chaos import run_soak

    report = run_soak(seeds, n_requests=80, fault_rate=0.08,
                      baseline=False, params=params)
    stats.chaos_runs += report.runs
    stats.chaos_faults_injected += report.injected
    stats.chaos_faults_unaccounted += report.unaccounted
    stats.chaos_leaked_slots += report.leaked_slots
    stats.chaos_zombie_sandboxes += report.zombie_sandboxes
    stats.invariant_violations += report.invariant_violations
    stats.invariant_checks += sum(o.invariant_checks
                                  for o in report.outcomes)
    failures.extend(report.failures()[:12])


def _speculation_smoke(stats: VerifyStats, failures: List[str]) -> None:
    """Run a mispredicting loop with the identity probe armed, under
    every timing model."""
    from ..cpu.machine import Cpu
    from ..cpu.timing import TIMING_MODELS
    from ..isa.assembler import Assembler
    from ..isa.operands import Imm
    from ..isa.registers import Reg

    asm = Assembler()
    asm.mov(Reg.RCX, Imm(64))
    asm.mov(Reg.RAX, Imm(0))
    asm.label("top")
    asm.add(Reg.RAX, Imm(3))
    asm.dec(Reg.RCX)
    asm.jne("top")
    asm.hlt()
    program = asm.assemble()

    for timing in TIMING_MODELS:
        cpu = Cpu(timing=timing)
        probe = SpeculationIdentityProbe(raise_on_violation=False)
        cpu.install_invariant_probe(probe)
        cpu.load_program(program)
        result = cpu.run(program.base)
        if result.reason != "hlt" or cpu.regs.regs[Reg.RAX] != 192:
            failures.append(
                f"speculation smoke [{timing}] run misbehaved: "
                f"reason={result.reason} rax={cpu.regs.regs[Reg.RAX]}")
        if probe.checks == 0:
            failures.append(f"speculation probe [{timing}] never fired "
                            "(no rollback observed in a mispredicting "
                            "loop)")
        stats.invariant_checks += probe.checks
        stats.invariant_violations += probe.violations
        failures.extend(f"speculation invariant [{timing}]: {m}"
                        for m in probe.violation_log)


def _ooo_smoke(stats: VerifyStats, failures: List[str]) -> None:
    """The OoO invariant probe: run a mispredicting, serializing loop
    under the scoreboarded backend and audit its structural invariants
    — retirement stays in order, no physical register is leaked or
    double-booked, drains empty the window — plus architectural parity
    (registers, serializations, instruction count) against the
    in-order model on the same program."""
    from ..cpu.machine import Cpu
    from ..isa.assembler import Assembler
    from ..isa.operands import Imm
    from ..isa.registers import Reg

    def build():
        asm = Assembler()
        asm.mov(Reg.RCX, Imm(48))
        asm.mov(Reg.RAX, Imm(0))
        asm.mov(Reg.RBX, Imm(7))
        asm.label("top")
        asm.add(Reg.RAX, Imm(3))
        asm.xor(Reg.RBX, Reg.RAX)
        asm.cpuid()                     # serializer inside the loop body
        asm.dec(Reg.RCX)
        asm.jne("top")
        asm.hlt()
        return asm.assemble()

    results = {}
    for timing in ("inorder", "ooo"):
        program = build()
        cpu = Cpu(timing=timing)
        cpu.load_program(program)
        result = cpu.run(program.base)
        results[timing] = (result, cpu)
        if result.reason != "hlt":
            failures.append(f"ooo smoke [{timing}]: reason="
                            f"{result.reason}, expected hlt")

    (_, inorder_cpu), (_, ooo_cpu) = results["inorder"], results["ooo"]
    checks = [
        ("architectural parity",
         all(inorder_cpu.regs.regs[r] == ooo_cpu.regs.regs[r]
             for r in Reg)),
        ("serializations parity",
         inorder_cpu.stats.serializations == ooo_cpu.stats.serializations),
        ("instruction parity",
         inorder_cpu.stats.instructions == ooo_cpu.stats.instructions),
    ]
    timing = ooo_cpu.timing
    probs = timing.audit()
    checks.append(("scoreboard audit", not probs))
    for message in probs:
        failures.append(f"ooo invariant: {message}")
    drains_before = timing.ooo_stats().drains
    timing.drain_pending()
    snap = timing.ooo_stats()
    checks.append(("drain empties the window",
                   timing.window_occupancy == 0
                   and snap.drains == drains_before + 1))
    checks.append(("post-drain audit", not timing.audit()))
    checks.append(("serializers drained",
                   snap.drains >= 48))          # one per cpuid at least
    stats.invariant_checks += len(checks)
    for label, ok in checks:
        if not ok:
            stats.invariant_violations += 1
            failures.append(f"ooo invariant: {label} failed")


def _determinism_smoke(stats: VerifyStats, failures: List[str],
                       seeds: Iterable[int] = (0, 7),
                       params: Optional[MachineParams] = None) -> None:
    """Seeded-determinism gate: the same seed must reproduce the
    serving simulator bit-for-bit, and changing the seed must never
    change how many requests a run *processes* (the workload is the
    workload; only its fate may differ)."""
    from ..runtime import simulate_serving

    baseline_requests: Optional[int] = None
    for seed in seeds:
        first = simulate_serving("hfi", n_requests=120, seed=seed,
                                 offered_load=1.1, params=params)
        second = simulate_serving("hfi", n_requests=120, seed=seed,
                                  offered_load=1.1, params=params)
        stats.determinism_runs += 2
        if first.digest() != second.digest():
            stats.determinism_mismatches += 1
            failures.append(
                f"serving run not deterministic for seed {seed}")
        if baseline_requests is None:
            baseline_requests = first.requests
        elif first.requests != baseline_requests:
            stats.determinism_mismatches += 1
            failures.append(
                f"seed {seed} changed the request count "
                f"({first.requests} != {baseline_requests})")


def run_verify(seeds: Iterable[int] = range(50),
               comparator_trials: int = 20_000,
               comparator_seed: int = 0,
               params: Optional[MachineParams] = None,
               engines: Tuple[str, ...] = DEFAULT_ENGINES,
               timings: Tuple[str, ...] = DEFAULT_TIMINGS,
               ) -> Tuple[VerifyStats, Dict[str, object]]:
    """Run the whole verify battery; returns (stats, detail report).

    ``engines`` x ``timings`` is the differential-oracle matrix: every
    (engine, timing) cell runs every seed, and full architectural
    state is asserted equal against the first cell — cycle counts may
    differ across timing models, architecture may not.

    ``stats.clean`` is the gate: zero cross-backend divergences, zero
    unclassified comparator disagreements, zero poison hits, zero
    invariant violations.
    """
    stats = VerifyStats(component="verify")
    failures: List[str] = []

    outcomes = run_seeds(seeds, params=params, engines=engines,
                         timings=timings)
    stats.oracle_runs = len(outcomes)
    for outcome in outcomes:
        if not outcome.ok:
            stats.divergences += 1
            for line in outcome.divergences[:8]:
                failures.append(f"seed {outcome.seed}: {line}")

    comparator = sweep(trials=comparator_trials, seed=comparator_seed)
    directed = boundary_sweep()
    stats.comparator_trials = comparator.trials + directed.trials
    stats.comparator_disagreements = (comparator.disagreements
                                      + directed.disagreements)
    stats.unclassified_disagreements = (len(comparator.unclassified)
                                        + len(directed.unclassified))
    for trial in (comparator.unclassified + directed.unclassified)[:8]:
        failures.append(f"comparator: {trial.describe()}")

    _pool_smoke(stats, failures)
    _speculation_smoke(stats, failures)
    _ooo_smoke(stats, failures)
    _chaos_smoke(stats, failures, params=params)
    _determinism_smoke(stats, failures, params=params)

    report = {
        "engines": list(engines),
        "timings": list(timings),
        "matrix": [f"{e}/{t}" for e, t in build_matrix(engines, timings)],
        "oracle_runs": stats.oracle_runs,
        "divergences": stats.divergences,
        "instructions": sum(o.instructions for o in outcomes),
        "comparator": {
            "trials": stats.comparator_trials,
            "classified": dict(comparator.counts),
            "boundary_trials": directed.trials,
            "unclassified": stats.unclassified_disagreements,
        },
        "chaos": {
            "runs": stats.chaos_runs,
            "faults_injected": stats.chaos_faults_injected,
            "faults_unaccounted": stats.chaos_faults_unaccounted,
            "leaked_slots": stats.chaos_leaked_slots,
            "zombie_sandboxes": stats.chaos_zombie_sandboxes,
        },
        "determinism": {
            "runs": stats.determinism_runs,
            "mismatches": stats.determinism_mismatches,
        },
        "poison_writes": stats.poison_writes,
        "poison_hits": stats.poison_hits,
        "invariant_checks": stats.invariant_checks,
        "invariant_violations": stats.invariant_violations,
        "failures": failures,
        "clean": stats.clean,
    }
    return stats, report
