"""Tests for the chaos subsystem: seeded planners and the soak gate."""

import pytest

from repro.chaos import (
    CHAOS_KINDS,
    ChaosConfig,
    ChaosInjector,
    run_soak,
)
from repro.chaos.soak import run_seed
from repro.params import skylake
from repro.runtime import FaultKind, Priority, Request


class TestInjectorDeterminism:
    def test_same_seed_same_plan(self):
        plans = []
        for _ in range(2):
            injector = ChaosInjector(seed=42)
            plans.append([(i.request_index, i.kind)
                          for i in injector.plan(500)])
        assert plans[0] == plans[1]
        assert plans[0]      # 5% of 500: statistically non-empty

    def test_different_seeds_differ(self):
        a = [(i.request_index, i.kind)
             for i in ChaosInjector(seed=1).plan(500)]
        b = [(i.request_index, i.kind)
             for i in ChaosInjector(seed=2).plan(500)]
        assert a != b

    def test_replanning_is_rejected(self):
        injector = ChaosInjector(seed=0)
        injector.plan(10)
        with pytest.raises(RuntimeError):
            injector.plan(10)

    def test_fault_rate_scales_the_plan(self):
        low = ChaosInjector(0, ChaosConfig(fault_rate=0.01)).plan(2000)
        high = ChaosInjector(0, ChaosConfig(fault_rate=0.20)).plan(2000)
        assert len(high) > 5 * len(low)

    def test_zero_rate_injects_nothing(self):
        assert ChaosInjector(0, ChaosConfig(fault_rate=0.0)).plan(500) == []

    def test_mix_respects_zero_weight(self):
        config = ChaosConfig(fault_rate=0.5,
                             mix={FaultKind.GUEST_HANG: 1.0})
        plan = ChaosInjector(3, config).plan(200)
        assert plan and all(i.kind is FaultKind.GUEST_HANG
                            for i in plan)

    def test_catalog_covers_every_fault_kind(self):
        assert set(CHAOS_KINDS) == set(FaultKind)


class TestBurstSynthesis:
    def build(self):
        config = ChaosConfig(fault_rate=1.0,
                             mix={FaultKind.BURST_OVERLOAD: 1.0})
        injector = ChaosInjector(9, config)
        injector.plan(1)
        return injector

    def test_burst_exceeds_the_admission_limit(self):
        injector = self.build()
        trigger = Request(index=0, tenant="t", service_cycles=10_000)
        extra = injector.burst_requests(trigger, admission_limit=16,
                                        next_index=100)
        assert len(extra) == 16 + injector.config.burst_margin
        assert all(r.priority == Priority.LOW for r in extra)
        assert all(r.injection is injector.injection_for(0)
                   for r in extra)
        assert all(r.arrival_cycle == trigger.arrival_cycle
                   for r in extra)
        assert [r.index for r in extra] == list(
            range(100, 100 + len(extra)))

    def test_non_burst_trigger_yields_nothing(self):
        injector = ChaosInjector(
            5, ChaosConfig(fault_rate=1.0,
                           mix={FaultKind.GUEST_FAULT: 1.0}))
        injector.plan(1)
        trigger = Request(index=0, tenant="t", service_cycles=10_000)
        assert injector.burst_requests(trigger, 16, 100) == []


class TestSoakGate:
    def test_seeded_run_is_clean_and_fully_accounted(self):
        outcome = run_seed(3, n_requests=120, fault_rate=0.10)
        assert outcome.clean, outcome.failures
        assert outcome.injected > 0
        assert outcome.unaccounted == 0
        assert outcome.leaked_slots == 0
        assert outcome.zombie_sandboxes == 0
        assert sum(outcome.breakdown.values()) == outcome.injected
        assert set(outcome.breakdown) <= {"retried", "shed",
                                          "quarantined", "killed"}

    def test_soak_run_is_reproducible(self):
        a = run_seed(8, n_requests=80, fault_rate=0.08)
        b = run_seed(8, n_requests=80, fault_rate=0.08)
        assert a.as_dict() == b.as_dict()

    def test_soak_report_aggregates_and_retains_goodput(self):
        report = run_soak(range(3), n_requests=80, fault_rate=0.05)
        assert report.clean
        assert report.runs == 3
        assert report.injected == sum(o.injected
                                      for o in report.outcomes)
        retained = report.goodput_retained
        assert retained is not None
        assert 0.5 < retained <= 1.05
        payload = report.as_dict()
        assert payload["clean"] is True
        assert payload["unaccounted"] == 0
        assert len(payload["seeds"]) == 3

    def test_soak_leaves_the_callers_chaos_config_alone(self):
        config = ChaosConfig(fault_rate=0.5)
        report = run_soak(range(1), n_requests=40, fault_rate=0.05,
                          chaos_config=config, baseline=False)
        assert report.clean
        assert config.fault_rate == 0.5

    def test_guard_pages_strategy_also_survives(self):
        outcome = run_seed(2, n_requests=60, fault_rate=0.10,
                           strategy="guard-pages")
        assert outcome.clean, outcome.failures

    def test_stress_rate_stays_clean(self):
        outcome = run_seed(1, n_requests=100, fault_rate=0.30)
        assert outcome.clean, outcome.failures
        assert outcome.injected > 15

    def test_goodput_is_counted_at_the_runs_clock(self):
        """A 4 GHz run converts its cycles to seconds at 4 GHz, not at
        the default 3.3 GHz."""
        params = skylake()
        outcome = run_seed(3, n_requests=40, fault_rate=0.0,
                           params=params)
        assert outcome.succeeded == 40
        assert outcome.goodput_rps == pytest.approx(
            40 * params.frequency_ghz * 1e9 / outcome.total_cycles)
