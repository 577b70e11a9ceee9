"""The chaos soak harness and gate.

One *soak* = N seeded serving runs.  Each run draws a seeded open-loop
request stream, plans a fault schedule with
:class:`~repro.chaos.injectors.ChaosInjector`, and serves it through
the serving loop (:class:`~repro.runtime.serving.ServingSimulator`) on
real sandboxes (:class:`~repro.runtime.sandbox.SandboxExecutor`), with
the pool sanitizer armed.  Then it quiesces the runtime and audits the
wreckage:

* **zero leaked pool slots** — every slot is back on the free list;
* **zero zombie sandboxes** — the manager holds no live handles;
* **pool invariants clean** — the
  :class:`~repro.verify.invariants.PoolInvariants` probe saw no
  free-list/quarantine inconsistency and no poisoned read;
* **every injected fault accounted** — each planned injection carries
  exactly one ``retried``/``shed``/``quarantined``/``killed`` stamp.

*Goodput retained* compares base-workload throughput (successful base
requests per simulated second, burst traffic excluded) against the
same seed served with no faults injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..params import MachineParams
from ..runtime.sandbox import SandboxExecutor
from ..runtime.serving import (
    PoissonArrivals,
    ServingConfig,
    ServingSimulator,
    build_requests,
)
from ..runtime.supervisor import Request
from .injectors import ChaosConfig, ChaosInjector

#: One core over an eight-slot pool, admitting as many requests as the
#: pool has slots.
SOAK_CONFIG = ServingConfig(n_cores=1, slots_per_shard=8, max_inflight=8)


@dataclass
class SeedOutcome:
    """Audit of one seeded serving run."""

    seed: int
    fault_rate: float
    requests: int = 0            # base workload only
    synthetic: int = 0           # injected burst traffic
    succeeded: int = 0           # base successes
    failed: int = 0
    shed: int = 0
    injected: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)
    unaccounted: int = 0
    leaked_slots: int = 0
    zombie_sandboxes: int = 0
    invariant_violations: int = 0
    poison_hits: int = 0
    invariant_checks: int = 0
    #: Cycles the core was busy: serving, recovering and recycling.
    total_cycles: int = 0
    #: Base-workload successes per simulated second of ``total_cycles``,
    #: at the run's own clock rate.
    goodput_rps: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (self.unaccounted == 0 and self.leaked_slots == 0
                and self.zombie_sandboxes == 0
                and self.invariant_violations == 0
                and self.poison_hits == 0
                and not self.failures)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed, "fault_rate": self.fault_rate,
            "requests": self.requests, "synthetic": self.synthetic,
            "succeeded": self.succeeded, "failed": self.failed,
            "shed": self.shed, "injected": self.injected,
            "breakdown": dict(self.breakdown),
            "unaccounted": self.unaccounted,
            "leaked_slots": self.leaked_slots,
            "zombie_sandboxes": self.zombie_sandboxes,
            "invariant_violations": self.invariant_violations,
            "poison_hits": self.poison_hits,
            "total_cycles": self.total_cycles,
            "goodput_rps": self.goodput_rps,
            "clean": self.clean,
            "failures": list(self.failures),
        }


def run_seed(seed: int, *, n_requests: int = 200,
             fault_rate: float = 0.05,
             strategy: str = "hfi",
             chaos_config: Optional[ChaosConfig] = None,
             params: Optional[MachineParams] = None) -> SeedOutcome:
    """One seeded chaos run through a fresh runtime."""
    from ..verify.invariants import PoolInvariants, check_pool

    params = params if params is not None else MachineParams()
    outcome = SeedOutcome(seed=seed, fault_rate=fault_rate)
    executor = SandboxExecutor(strategy, params)
    sim = ServingSimulator(executor, SOAK_CONFIG, params)
    pool, = sim.pool.shards
    probe = PoolInvariants(raise_on_violation=False).install(pool)
    chaos_config = (replace(chaos_config, fault_rate=fault_rate)
                    if chaos_config is not None
                    else ChaosConfig(fault_rate=fault_rate))
    injector = ChaosInjector(seed, chaos_config)
    base = build_requests(PoissonArrivals(100_000, seed=seed), n_requests,
                          seed=seed, tenants=6, high_fraction=0.10,
                          low_fraction=0.20)
    injector.plan(n_requests)

    # Weave synthetic burst traffic into the stream at its trigger's
    # arrival instant.
    stream: List[Request] = []
    next_index = n_requests
    for request in base:
        stream.append(request)
        extra = injector.burst_requests(
            request, SOAK_CONFIG.max_inflight, next_index)
        stream.extend(extra)
        next_index += len(extra)

    try:
        metrics = sim.run(stream, injector)
        # quiesce: scrub the quarantine, flush deferred discards and
        # reap every sandbox
        pool.scrub_all()
        pool.flush_discards()
        executor.manager.reap_all()
    finally:
        probe.uninstall()

    results = sim.outcomes
    base_results = [r for r in results if r.request.injection is None]
    outcome.requests = len(base_results)
    outcome.synthetic = len(results) - len(base_results)
    outcome.succeeded = sum(r.status == "ok" for r in base_results)
    outcome.failed = sum(r.status == "failed" for r in results)
    outcome.shed = sum(r.status == "shed" for r in results)
    outcome.injected = injector.injected
    outcome.breakdown = injector.breakdown()
    outcome.unaccounted = len(injector.unaccounted())
    outcome.total_cycles = metrics.busy_cycles
    if outcome.total_cycles:
        outcome.goodput_rps = (
            outcome.succeeded / params.cycles_to_seconds(outcome.total_cycles))
    outcome.leaked_slots = len(pool.slots) - pool.available
    outcome.zombie_sandboxes = executor.manager.live_sandboxes
    outcome.invariant_violations = probe.violations
    outcome.poison_hits = probe.poison_hits
    outcome.invariant_checks = probe.checks
    for injection in injector.unaccounted()[:4]:
        outcome.failures.append(
            f"seed {seed}: injection #{injection.injection_id} "
            f"({injection.kind.value} at request "
            f"{injection.request_index}) never classified")
    for problem in check_pool(pool)[:4]:
        outcome.failures.append(f"seed {seed}: {problem}")
    for message in probe.violation_log[:4]:
        outcome.failures.append(f"seed {seed}: pool invariant: {message}")
    if outcome.leaked_slots:
        outcome.failures.append(
            f"seed {seed}: {outcome.leaked_slots} pool slot(s) leaked")
    if outcome.zombie_sandboxes:
        outcome.failures.append(
            f"seed {seed}: {outcome.zombie_sandboxes} zombie sandbox(es)")
    return outcome


@dataclass
class SoakReport:
    """Aggregate verdict over a seed matrix."""

    fault_rate: float
    outcomes: List[SeedOutcome] = field(default_factory=list)
    baseline_outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def injected(self) -> int:
        return sum(o.injected for o in self.outcomes)

    @property
    def unaccounted(self) -> int:
        return sum(o.unaccounted for o in self.outcomes)

    @property
    def leaked_slots(self) -> int:
        return sum(o.leaked_slots for o in self.outcomes)

    @property
    def zombie_sandboxes(self) -> int:
        return sum(o.zombie_sandboxes for o in self.outcomes)

    @property
    def invariant_violations(self) -> int:
        return sum(o.invariant_violations + o.poison_hits
                   for o in self.outcomes)

    @property
    def clean(self) -> bool:
        return all(o.clean for o in self.outcomes)

    def breakdown(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for o in self.outcomes:
            for key, value in o.breakdown.items():
                out[key] = out.get(key, 0) + value
        return out

    @property
    def goodput_retained(self) -> Optional[float]:
        """Chaos goodput / clean-run goodput (None without a baseline)."""
        if not self.baseline_outcomes:
            return None
        chaos = sum(o.succeeded for o in self.outcomes)
        chaos_cycles = sum(o.total_cycles for o in self.outcomes)
        clean = sum(o.succeeded for o in self.baseline_outcomes)
        clean_cycles = sum(o.total_cycles for o in self.baseline_outcomes)
        if not (chaos_cycles and clean_cycles and clean):
            return None
        return (chaos / chaos_cycles) / (clean / clean_cycles)

    def failures(self) -> List[str]:
        out: List[str] = []
        for o in self.outcomes:
            out.extend(o.failures)
        return out

    def as_dict(self) -> dict:
        return {
            "fault_rate": self.fault_rate,
            "runs": self.runs,
            "injected": self.injected,
            "breakdown": self.breakdown(),
            "unaccounted": self.unaccounted,
            "leaked_slots": self.leaked_slots,
            "zombie_sandboxes": self.zombie_sandboxes,
            "invariant_violations": self.invariant_violations,
            "goodput_retained": self.goodput_retained,
            "clean": self.clean,
            "failures": self.failures(),
            "seeds": [o.as_dict() for o in self.outcomes],
        }


def run_soak(seeds, *, n_requests: int = 200, fault_rate: float = 0.05,
             strategy: str = "hfi",
             chaos_config: Optional[ChaosConfig] = None,
             baseline: bool = True,
             params: Optional[MachineParams] = None) -> SoakReport:
    """Run the soak over ``seeds``; with ``baseline`` also serve each
    seed's identical workload fault-free to compute goodput retained."""
    report = SoakReport(fault_rate=fault_rate)
    for seed in seeds:
        report.outcomes.append(run_seed(
            seed, n_requests=n_requests, fault_rate=fault_rate,
            strategy=strategy, chaos_config=chaos_config, params=params))
        if baseline and fault_rate > 0:
            report.baseline_outcomes.append(run_seed(
                seed, n_requests=n_requests, fault_rate=0.0,
                strategy=strategy, params=params))
    return report
