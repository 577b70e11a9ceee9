"""Seeded-determinism regression gate.

The differential oracle, the golden fixtures, and CI's seed-matrix
jobs all rest on one assumption: a seed fully determines a run.  These
tests pin that down for every stochastic subsystem — the serving
simulator (also in the constant-service shape Table 1 runs it in) and
the multiplexing scheduler — and assert the complementary invariant:
changing the seed reshuffles *outcomes* but never changes how many
requests were offered (the workload shape is a parameter, not a
sample).

The same checks run inside ``repro-hfi verify``
(``repro.verify._determinism_smoke``) so the gate travels with the
battery; this file is the fast, focused version.
"""

import pytest

from repro.chaos import ChaosConfig, ChaosInjector
from repro.params import MachineParams
from repro.runtime import (
    FaultKind,
    MultiplexModel,
    SchemeCosts,
    ServingConfig,
    build_requests,
    simulate_serving,
)
from repro.runtime.serving import PoissonArrivals

SEEDS = (0, 7, 2023)


class TestServingDeterminism:
    def one(self, seed, **kwargs):
        kwargs.setdefault("n_requests", 150)
        kwargs.setdefault("offered_load", 1.1)
        kwargs.setdefault("config", ServingConfig(
            n_cores=2, slots_per_shard=4, max_inflight=8))
        return simulate_serving("hfi", seed=seed, **kwargs)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_bit_identical(self, seed):
        first, second = self.one(seed), self.one(seed)
        assert first.digest() == second.digest()
        assert first == second      # full dataclass, floats included

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_outcome_stream(self, seed):
        """Not just the aggregates: the per-request fates match."""
        from repro.runtime import ServingSimulator
        config = ServingConfig(n_cores=2, slots_per_shard=4,
                               max_inflight=8)
        reqs = build_requests(PoissonArrivals(4000.0, seed=seed), 120,
                              seed=seed)
        runs = []
        for _ in range(2):
            sim = ServingSimulator("hfi", config, MachineParams(),
                                   seed=seed)
            sim.run(list(reqs))
            runs.append([(o.request.index, o.status, o.cycles)
                         for o in sim.outcomes])
        assert runs[0] == runs[1]

    def test_different_seed_never_changes_request_count(self):
        runs = [self.one(seed) for seed in SEEDS]
        assert len({m.requests for m in runs}) == 1
        # ... but the seeds must actually matter somewhere
        assert len({m.digest() for m in runs}) == len(SEEDS)

    def test_mmpp_arrivals_deterministic_too(self):
        a = self.one(3, arrival="mmpp")
        b = self.one(3, arrival="mmpp")
        assert a.digest() == b.digest()


class TestFaasDeterminism:
    """Table 1's node: two cores, one constant service time, no
    per-scheme serving cost."""

    def one(self, seed, injector=None):
        costs = SchemeCosts(name="faas", strategy_name="hfi",
                            transition_cycles=0, dispatch_cycles=0,
                            batch_teardown=True)
        return simulate_serving(costs, n_requests=400, seed=seed,
                                offered_load=0.7,
                                service_cycles=(50_000, 50_001),
                                config=ServingConfig(n_cores=2),
                                injector=injector)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_identical_metrics(self, seed):
        assert self.one(seed) == self.one(seed)

    def test_seed_changes_latency_not_request_count(self):
        runs = []
        for seed in SEEDS:
            injector = ChaosInjector(seed, ChaosConfig(
                fault_rate=0.05, mix={FaultKind.GUEST_FAULT: 1.0}))
            injector.plan(400)
            runs.append(self.one(seed, injector))
        assert len({m.requests for m in runs}) == 1
        assert len({m.mean_latency_cycles for m in runs}) == len(SEEDS)


class TestSchedulerDeterminism:
    def test_schedule_outcome_reproducible(self):
        """MultiplexModel is closed-form: identical inputs must give
        bit-identical ScheduleOutcome (guards against anyone slipping
        unseeded randomness into the scheduler)."""
        outcomes = [MultiplexModel(MachineParams()).single_process(
            n_requests=500, service_cycles=80_000,
            failure_rate=0.1) for _ in range(2)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].failed == 50
