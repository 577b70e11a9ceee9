"""Tests for the supervised serving loop (robustness layer).

Covers the recovery state machine — watchdog kills, quarantine,
one recovery then one clean attempt, per-tenant circuit breaking,
admission shedding — plus the sandbox-manager hardening it rides on
(typed ``SandboxError``, ``reap_all``, signal-delivered
``invoke_faulting``).
"""

import pytest

from repro.core import FaultCause
from repro.os.signals import Signal, SignalTable
from repro.params import MachineParams
from repro.runtime import (
    FaultKind,
    Injection,
    InstancePool,
    Priority,
    Request,
    SandboxError,
    SandboxManager,
    Supervisor,
    SupervisorConfig,
)
from repro.runtime.supervisor import (
    TenantBreaker,
    backoff_cycles,
    breaker_admits,
    record_breaker_success,
    watchdog_budget,
)
from repro.verify import check_pool
from repro.wasm import HfiStrategy


@pytest.fixture
def params():
    return MachineParams()


def build(params, slots=4, config=None, seed=0):
    manager = SandboxManager(params)
    pool = InstancePool(manager.space, HfiStrategy(), slots=slots,
                        heap_bytes=1 << 14, params=params,
                        batch_teardown=True)
    return manager, pool, Supervisor(manager, pool, config, seed=seed)


def requests(n, tenant="t0", service=40_000, spacing=10**7,
             priority=Priority.NORMAL):
    """Arrivals spaced far apart: no admission pressure by default."""
    return [Request(index=i, tenant=tenant, service_cycles=service,
                    arrival_cycle=i * spacing, priority=priority)
            for i in range(n)]


class FakeInjector:
    """Minimal chaos planner: one FaultKind per chosen request index."""

    def __init__(self, plan):
        self.plan = {index: Injection(injection_id=k, request_index=index,
                                      kind=kind)
                     for k, (index, kind) in enumerate(sorted(plan.items()))}

    def injection_for(self, index):
        return self.plan.get(index)

    def unaccounted(self):
        return [i for i in self.plan.values() if i.classified is None]


class TestSandboxHardening:
    def test_destroy_unknown_handle_raises_typed_error(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 14)
        manager.destroy_sandbox(handle)
        with pytest.raises(SandboxError):
            manager.destroy_sandbox(handle)

    def test_reap_all_destroys_every_live_sandbox(self, params):
        manager = SandboxManager(params)
        for _ in range(3):
            manager.create_sandbox(heap_bytes=1 << 14)
        assert manager.live_sandboxes == 3
        cost = manager.reap_all()
        assert cost > 0
        assert manager.live_sandboxes == 0
        assert manager.reap_all() == 0      # idempotent on empty

    def test_invoke_faulting_delivers_sigsegv_with_cause(self, params):
        table = SignalTable()
        manager = SandboxManager(params, signals=table)
        handle = manager.create_sandbox(heap_bytes=1 << 14)
        result = manager.invoke_faulting(
            handle, 10_000, FaultCause.DATA_PERMISSION, fault_addr=0x40)
        assert result.reason == "fault"
        assert result.cause is FaultCause.DATA_PERMISSION
        assert len(table.delivered) == 1
        info = table.delivered[0]
        assert info.signal is Signal.SIGSEGV
        assert info.fault_addr == 0x40
        assert FaultCause(info.hfi_cause) is FaultCause.DATA_PERMISSION

    def test_invoke_faulting_unknown_handle_raises(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 14)
        manager.destroy_sandbox(handle)
        with pytest.raises(SandboxError):
            manager.invoke_faulting(handle, 1_000)


class TestCleanServing:
    def test_all_requests_succeed_without_injection(self, params):
        _, pool, sup = build(params)
        outcomes = sup.serve(requests(12))
        assert [o.status for o in outcomes] == ["ok"] * 12
        assert sup.counters.succeeded == 12
        assert sup.counters.shed == 0
        assert check_pool(pool) == []

    def test_shutdown_leaves_no_leaks(self, params):
        manager, pool, sup = build(params)
        sup.serve(requests(8))
        sup.shutdown()
        assert manager.live_sandboxes == 0
        assert pool.available == len(pool.slots)
        assert check_pool(pool) == []

    def test_deterministic_given_seed(self, params):
        results = []
        for _ in range(2):
            _, _, sup = build(params, seed=7)
            injector = FakeInjector({2: FaultKind.GUEST_FAULT,
                                     5: FaultKind.TRANSIENT_KERNEL})
            outs = sup.serve(requests(8), injector)
            results.append([(o.status, o.attempts, o.cycles)
                            for o in outs])
        assert results[0] == results[1]


class TestRecoveryPaths:
    def test_transient_kernel_fault_is_retried_with_backoff(
            self, params):
        _, _, sup = build(params)
        injector = FakeInjector({1: FaultKind.TRANSIENT_KERNEL})
        outcomes = sup.serve(requests(3), injector)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert outcomes[1].attempts == 2
        assert injector.plan[1].classified == "retried"
        assert sup.counters.retried == 1
        assert sup.counters.backoff_cycles > 0

    def test_heap_oom_is_remediated_and_retried(self, params):
        _, pool, sup = build(params)
        injector = FakeInjector({0: FaultKind.HEAP_OOM})
        outcomes = sup.serve(requests(2), injector)
        assert [o.status for o in outcomes] == ["ok"] * 2
        assert injector.plan[0].classified == "retried"

    def test_hang_is_killed_by_the_watchdog(self, params):
        manager, pool, sup = build(params)
        injector = FakeInjector({1: FaultKind.GUEST_HANG})
        outcomes = sup.serve(requests(4), injector)
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert injector.plan[1].classified == "killed"
        assert sup.counters.watchdog_kills == 1
        assert sup.counters.sandboxes_reaped >= 1
        # the killed attempt burned the full watchdog budget
        budget = watchdog_budget(outcomes[1].request.service_cycles)
        assert outcomes[1].cycles > budget
        sup.shutdown()
        assert manager.live_sandboxes == 0
        assert pool.available == len(pool.slots)

    def test_guest_fault_quarantines_and_recovers(self, params):
        manager, pool, sup = build(params)
        injector = FakeInjector({0: FaultKind.GUEST_FAULT})
        outcomes = sup.serve(requests(3), injector)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert injector.plan[0].classified == "quarantined"
        assert sup.counters.quarantined == 1
        assert sup.counters.signals_handled == 1   # SIGSEGV arrived
        assert pool.quarantines >= 1
        sup.shutdown()
        assert pool.available == len(pool.slots)
        assert check_pool(pool) == []

    def test_slot_corruption_is_caught_by_the_canary(self, params):
        _, pool, sup = build(params)
        injector = FakeInjector({2: FaultKind.SLOT_CORRUPTION})
        outcomes = sup.serve(requests(4), injector)
        # the answer stands, but the slot never recycles unscrubbed
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert injector.plan[2].classified == "quarantined"
        assert pool.quarantines == 1
        assert injector.unaccounted() == []

    def test_every_injection_is_classified_exactly_once(self, params):
        _, _, sup = build(params)
        injector = FakeInjector({0: FaultKind.TRANSIENT_KERNEL,
                                 1: FaultKind.GUEST_HANG,
                                 2: FaultKind.GUEST_FAULT,
                                 3: FaultKind.SLOT_CORRUPTION,
                                 4: FaultKind.HEAP_OOM})
        sup.serve(requests(6), injector)
        assert injector.unaccounted() == []
        kinds = {i.kind: i.classified for i in injector.plan.values()}
        assert kinds[FaultKind.TRANSIENT_KERNEL] == "retried"
        assert kinds[FaultKind.HEAP_OOM] == "retried"
        assert kinds[FaultKind.GUEST_HANG] == "killed"
        assert kinds[FaultKind.GUEST_FAULT] == "quarantined"
        assert kinds[FaultKind.SLOT_CORRUPTION] == "quarantined"


class TestCircuitBreaker:
    def test_consecutive_faults_trip_the_tenant_breaker(self, params):
        config = SupervisorConfig(breaker_threshold=3)
        _, _, sup = build(params, config=config)
        # slot corruption does not reset the breaker on success
        injector = FakeInjector({i: FaultKind.SLOT_CORRUPTION
                                 for i in range(3)})
        # tight arrivals: requests 3-4 land inside the cooldown window
        outcomes = sup.serve(requests(5, spacing=1), injector)
        assert sup.counters.breaker_trips == 1
        assert sup.breaker("t0").state == "open"
        # requests after the trip are shed while the circuit cools
        assert [o.status for o in outcomes][3:] == ["shed", "shed"]
        assert [o.detail for o in outcomes][3:] == ["breaker",
                                                    "breaker"]
        assert sup.counters.breaker_shed == 2

    def test_half_open_probe_closes_the_circuit(self, params):
        config = SupervisorConfig(breaker_threshold=2,
                                  breaker_cooldown_cycles=1_000)
        _, _, sup = build(params, config=config)
        injector = FakeInjector({0: FaultKind.SLOT_CORRUPTION,
                                 1: FaultKind.SLOT_CORRUPTION})
        sup.serve(requests(2), injector)
        assert sup.breaker("t0").state == "open"
        # a later clean request (past the cooldown) probes and closes
        late = Request(index=10, tenant="t0", service_cycles=40_000,
                       arrival_cycle=sup.clock + 10_000)
        outcome = sup.serve([late])[0]
        assert outcome.status == "ok"
        assert sup.breaker("t0").state == "closed"

    def test_breakers_are_per_tenant(self, params):
        config = SupervisorConfig(breaker_threshold=2)
        _, _, sup = build(params, config=config)
        bad = [Request(index=i, tenant="bad", service_cycles=40_000,
                       arrival_cycle=i) for i in range(3)]
        injector = FakeInjector({0: FaultKind.SLOT_CORRUPTION,
                                 1: FaultKind.SLOT_CORRUPTION})
        sup.serve(bad, injector)
        assert sup.breaker("bad").state == "open"
        good = Request(index=100, tenant="good", service_cycles=40_000,
                       arrival_cycle=sup.clock)
        assert sup.serve([good])[0].status == "ok"


class TestAdmissionControl:
    def test_overflow_sheds_lowest_priority_newest_first(self, params):
        config = SupervisorConfig(queue_limit=4)
        _, _, sup = build(params, config=config)
        stream = []
        for i in range(8):
            priority = (Priority.HIGH if i in (1, 6)
                        else Priority.LOW if i >= 4 else Priority.NORMAL)
            stream.append(Request(index=i, tenant=f"t{i}",
                                  service_cycles=30_000,
                                  priority=priority, arrival_cycle=0))
        outcomes = sup.serve(stream)
        by_index = {o.request.index: o for o in outcomes}
        shed = {i for i, o in by_index.items() if o.status == "shed"}
        assert len(shed) == 4
        # HIGH priority is never shed
        assert 1 not in shed and 6 not in shed
        # LOW goes before NORMAL, newest first within a priority
        assert {7, 5, 4}.issubset(shed)

    def test_burst_injection_is_accounted_as_shed(self, params):
        config = SupervisorConfig(queue_limit=4)
        _, _, sup = build(params, config=config)
        burst = Injection(injection_id=0, request_index=0,
                          kind=FaultKind.BURST_OVERLOAD)
        stream = requests(1) + [
            Request(index=10 + k, tenant="burst", service_cycles=5_000,
                    priority=Priority.LOW, arrival_cycle=0,
                    injection=burst)
            for k in range(8)]
        sup.serve(stream)
        assert burst.classified == "shed"
        assert sup.counters.shed > 0

    def test_capacity_exhaustion_sheds_instead_of_crashing(self, params):
        # 1-slot pool, and the slot is quarantined by a guest fault —
        # the next request finds no capacity and is shed, not crashed.
        manager, pool, sup = build(params, slots=1)
        injector = FakeInjector({0: FaultKind.GUEST_FAULT})
        outcomes = sup.serve(requests(2), injector)
        assert {o.status for o in outcomes} <= {"ok", "shed"}
        sup.shutdown()
        assert pool.available == 1
        assert manager.live_sandboxes == 0


class TestStats:
    def test_stats_snapshot_matches_counters(self, params):
        _, _, sup = build(params)
        injector = FakeInjector({0: FaultKind.GUEST_HANG})
        sup.serve(requests(4), injector)
        stats = sup.stats()
        assert stats.component == "supervisor"
        assert stats.requests == 4
        assert stats.succeeded == sup.counters.succeeded
        assert stats.watchdog_kills == 1
        assert 0.0 < stats.success_rate <= 1.0
        assert stats.goodput > 0.0


class TestPolicyFunctions:
    """Policy both serving loops share, on paths the loop tests do not
    reach: the watchdog's floor, the backoff's jitter band and the
    breaker's half-open probe."""

    def test_watchdog_budget_has_a_floor(self):
        assert watchdog_budget(1_000) == 50_000
        assert watchdog_budget(100_000) == 400_000

    def test_backoff_jitter_spans_a_quarter_either_side(self):
        assert backoff_cycles(0.0) == 20_000
        assert backoff_cycles(-1.0) == 15_000
        assert backoff_cycles(1.0) == 25_000

    def test_breaker_admits_one_probe_after_cooldown(self):
        breaker = TenantBreaker(consecutive_faults=4, state="open",
                                open_until=100)
        assert not breaker_admits(breaker, 99)
        assert breaker.state == "open"
        assert breaker_admits(breaker, 100)
        assert breaker.state == "half-open"
        record_breaker_success(breaker)
        assert breaker.state == "closed"
        assert breaker.consecutive_faults == 0


class TestSupervisorPolicyInServingLoop:
    """Satellite of the serving simulator: the supervisor's policies —
    shed ordering, the no-shed floor, fault-ledger accounting — must
    hold unchanged when driven by open-loop arrivals through the
    discrete-event loop (``repro.runtime.serving``) instead of the
    batch ``Supervisor.serve`` path.  Both paths share the actual
    policy code (the module-level functions of
    ``repro.runtime.supervisor``), so a divergence here means the event
    loop wired it up wrong.
    """

    def drive(self, stream, injector=None, **config_kwargs):
        from repro.runtime import ServingConfig, ServingSimulator

        config_kwargs.setdefault("n_cores", 1)
        config_kwargs.setdefault("slots_per_shard", 8)
        config_kwargs.setdefault("max_inflight", 4)
        sim = ServingSimulator("hfi", ServingConfig(**config_kwargs),
                               MachineParams())
        metrics = sim.run(sorted(stream,
                                 key=lambda r: (r.arrival_cycle, r.index)),
                          injector=injector)
        return sim, metrics

    def burst_stream(self, n_base=4, burst_size=12):
        """Steady NORMAL traffic with one HIGH, then a LOW burst
        (more than admission can hold) at a single arrival instant —
        the chaos injector's burst-overload shape."""
        burst = Injection(injection_id=0, request_index=100,
                          kind=FaultKind.BURST_OVERLOAD)
        # light steady load: well within one core, so only the surge
        # creates admission pressure
        base = [Request(index=i, tenant=f"t{i}", service_cycles=10_000,
                        priority=Priority.NORMAL,
                        arrival_cycle=1000 + i * 50_000)
                for i in range(n_base)]
        vip = Request(index=50, tenant="vip", service_cycles=10_000,
                      priority=Priority.HIGH, arrival_cycle=5000)
        surge = [Request(index=100 + k, tenant="burst",
                         service_cycles=30_000, priority=Priority.LOW,
                         arrival_cycle=5000, injection=burst)
                 for k in range(burst_size)]
        return base + [vip] + surge, burst

    def test_burst_overload_sheds_and_accounts_ledger(self, params):
        stream, burst = self.burst_stream()
        sim, metrics = self.drive(stream)
        assert metrics.shed > 0
        assert burst.classified == "shed"    # ledger stamped once
        assert metrics.accounted

    def test_burst_sheds_lowest_priority_newest_first(self, params):
        stream, _ = self.burst_stream()
        sim, metrics = self.drive(stream)
        shed = [o.request for o in sim.outcomes if o.status == "shed"]
        assert shed
        # only the LOW surge is shed — never the HIGH, and the steady
        # NORMAL traffic survives burst pressure at these sizes
        assert all(r.priority == Priority.LOW for r in shed)
        # newest-first within the surge: the survivors of the burst
        # are the oldest indices, the shed ones the newest
        shed_burst = sorted(r.index for r in shed if r.index >= 100)
        ok_burst = sorted(o.request.index for o in sim.outcomes
                          if o.status == "ok" and o.request.index >= 100)
        assert ok_burst and shed_burst
        assert max(ok_burst) < min(shed_burst) or \
            set(shed_burst) == set(range(min(shed_burst),
                                         max(shed_burst) + 1))

    def test_high_priority_never_shed_by_burst(self, params):
        stream, _ = self.burst_stream(burst_size=20)
        sim, metrics = self.drive(stream, max_inflight=3)
        fates = {o.request.index: o.status for o in sim.outcomes}
        assert fates[50] == "ok"             # the HIGH rode it out
        assert metrics.shed >= 1

    def test_mixed_faults_through_event_loop_fully_accounted(self, params):
        """Every chaos FaultKind at once through the event loop: the
        ledger partition (retried/shed/quarantined/killed) is exact."""
        stream, burst = self.burst_stream()
        injector = FakeInjector({0: FaultKind.GUEST_FAULT,
                                 1: FaultKind.GUEST_HANG,
                                 2: FaultKind.TRANSIENT_KERNEL,
                                 3: FaultKind.HEAP_OOM})
        sim, metrics = self.drive(stream, injector=injector)
        assert injector.unaccounted() == []
        assert burst.classified == "shed"
        classifications = {i.classified
                           for i in injector.plan.values()}
        classifications.add(burst.classified)
        assert classifications <= {"retried", "shed", "quarantined",
                                   "killed"}
        assert metrics.accounted
        assert metrics.killed == 1 and metrics.retried == 2

    def test_batch_and_event_paths_agree_on_shed_policy(self, params):
        """The same one-instant overflow decided by both paths picks
        the same victims (both rank by shed_rank: the batch path sorts
        with it, the event loop keeps a heap ordered by it)."""
        stream = []
        for i in range(8):
            priority = (Priority.HIGH if i in (1, 6)
                        else Priority.LOW if i >= 4 else Priority.NORMAL)
            stream.append(Request(index=i, tenant=f"t{i}",
                                  service_cycles=30_000,
                                  priority=priority, arrival_cycle=0))
        config = SupervisorConfig(queue_limit=4)
        _, _, sup = build(params, config=config)
        batch_shed = {o.request.index for o in sup.serve(list(stream))
                      if o.status == "shed"}
        sim, _ = self.drive(list(stream), max_inflight=4)
        event_shed = {o.request.index for o in sim.outcomes
                      if o.status == "shed"}
        assert 1 not in event_shed and 6 not in event_shed
        assert event_shed == batch_shed
