"""Tests for the serving loop on real sandboxes (robustness layer).

Drives ``ServingSimulator`` with a ``SandboxExecutor`` through the
recovery policy of ``runtime/supervisor.py`` — watchdog kills,
quarantine, one run after a transient failure, per-tenant circuit
breaking, admission shedding — and checks what only real state shows:
SIGSEGV delivery with its cause, the slot canary, the watchdog budget
burned, and a clean shutdown.  Also covers the sandbox-manager
hardening the executor rides on (typed ``SandboxError``, ``reap_all``,
signal-delivered ``invoke_faulting``), and holds the cost model and
the real executor to the same decisions on one stream.
"""

import pytest

from repro.core import FaultCause
from repro.os.signals import Signal, SignalTable
from repro.params import MachineParams
from repro.runtime import (
    FaultKind,
    Injection,
    Priority,
    Request,
    SandboxError,
    SandboxExecutor,
    SandboxManager,
    ServingConfig,
    ServingSimulator,
)
from repro.runtime.sandbox import FAULT_CAUSES
from repro.runtime.supervisor import (
    BACKOFF_CYCLES,
    TenantBreaker,
    breaker_admits,
    record_breaker_success,
    watchdog_budget,
)
from repro.verify import check_pool


@pytest.fixture
def params():
    return MachineParams()


def build(params, slots=4, **config):
    """A one-core node on real sandboxes, admitting as many requests
    as it has pool slots unless ``config`` says otherwise."""
    config.setdefault("max_inflight", slots)
    executor = SandboxExecutor("hfi", params)
    sim = ServingSimulator(
        executor, ServingConfig(n_cores=1, slots_per_shard=slots, **config),
        params)
    return executor, sim


def serve(sim, stream, injector=None):
    """Run ``stream``; returns the metrics and the outcomes by index."""
    metrics = sim.run(stream, injector)
    return metrics, sorted(sim.outcomes, key=lambda o: o.request.index)


def shutdown(executor, sim):
    """Quiesce as the chaos soak does: scrub, flush, reap."""
    sim.pool.scrub_all()
    sim.pool.flush_all()
    executor.manager.reap_all()


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
        executor, sim = build(params)
        metrics, outcomes = serve(sim, requests(12))
        assert [o.status for o in outcomes] == ["ok"] * 12
        assert metrics.succeeded == 12
        assert metrics.shed == 0
        # one tenant, one sandbox, entered once per request
        assert executor.manager.sandboxes_created == 1
        assert executor.manager.invocations == 12
        assert check_pool(sim.pool.shards[0]) == []

    def test_shutdown_leaves_no_leaks(self, params):
        executor, sim = build(params)
        serve(sim, requests(8))
        shutdown(executor, sim)
        assert executor.manager.live_sandboxes == 0
        assert sim.pool.available == sim.pool.total_slots
        assert check_pool(sim.pool.shards[0]) == []

    def test_deterministic_given_seed(self, params):
        """The executor draws nothing at random, so one stream and one
        fault plan give one run."""
        results = []
        for _ in range(2):
            executor, sim = build(params)
            injector = FakeInjector({2: FaultKind.GUEST_FAULT,
                                     5: FaultKind.TRANSIENT_KERNEL})
            _, outcomes = serve(sim, requests(8), injector)
            results.append(([(o.status, o.attempts, o.cycles)
                             for o in outcomes],
                            executor.manager.total_cycles,
                            [info.hfi_cause for info in executor.faults]))
        assert results[0] == results[1]


class TestRecoveryPaths:
    def test_transient_kernel_fault_is_retried_with_backoff(
            self, params):
        _, sim = build(params)
        injector = FakeInjector({1: FaultKind.TRANSIENT_KERNEL})
        metrics, outcomes = serve(sim, requests(3), injector)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert outcomes[1].attempts == 2
        assert injector.plan[1].classified == "retried"
        assert metrics.retried == 1
        # the failed kernel call and the backoff, then one run
        assert (outcomes[1].cycles - outcomes[0].cycles
                == params.syscall_cycles + BACKOFF_CYCLES)

    def test_heap_oom_is_remediated_and_retried(self, params):
        _, sim = build(params)
        injector = FakeInjector({0: FaultKind.HEAP_OOM})
        _, outcomes = serve(sim, requests(2), injector)
        assert [o.status for o in outcomes] == ["ok"] * 2
        assert injector.plan[0].classified == "retried"

    def test_hang_is_killed_by_the_watchdog(self, params):
        stream = requests(4)
        _, clean = build(params)
        clean_metrics, _ = serve(clean, stream)
        executor, sim = build(params)
        injector = FakeInjector({1: FaultKind.GUEST_HANG})
        metrics, outcomes = serve(sim, stream, injector)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok", "ok"]
        assert outcomes[1].detail == "watchdog"
        assert injector.plan[1].classified == "killed"
        assert metrics.killed == 1
        # the killed guest burned its full watchdog budget
        service = stream[1].service_cycles
        assert (metrics.busy_cycles - clean_metrics.busy_cycles
                >= watchdog_budget(service) - service)
        # its sandbox was reaped; the next request ran on a fresh one
        assert executor.manager.sandboxes_created == 2
        shutdown(executor, sim)
        assert executor.manager.live_sandboxes == 0
        assert sim.pool.available == sim.pool.total_slots

    def test_guest_fault_quarantines_and_recovers(self, params):
        executor, sim = build(params)
        injector = FakeInjector({0: FaultKind.GUEST_FAULT})
        metrics, outcomes = serve(sim, requests(3), injector)
        assert [o.status for o in outcomes] == ["failed", "ok", "ok"]
        assert outcomes[0].detail == "guest-fault"
        assert injector.plan[0].classified == "quarantined"
        assert metrics.quarantined == 1
        # the HFI fault arrived as SIGSEGV, with its cause
        (info,) = executor.faults
        assert info.signal is Signal.SIGSEGV
        assert FaultCause(info.hfi_cause) is FAULT_CAUSES[0]
        assert sim.pool.shards[0].quarantines >= 1
        # the tenant recovered on a fresh sandbox
        assert executor.manager.sandboxes_created == 2
        shutdown(executor, sim)
        assert sim.pool.available == sim.pool.total_slots
        assert check_pool(sim.pool.shards[0]) == []

    def test_slot_corruption_is_caught_by_the_canary(self, params):
        executor, sim = build(params)
        injector = FakeInjector({2: FaultKind.SLOT_CORRUPTION})
        _, outcomes = serve(sim, requests(4), injector)
        # the answer stands, but the slot never recycles unscrubbed
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert injector.plan[2].classified == "quarantined"
        pool = sim.pool.shards[0]
        assert pool.quarantines == 1
        (index,) = pool._quarantined
        assert not executor.intact(sim.space, pool.slots[index])
        assert injector.unaccounted() == []

    def test_every_injection_is_classified_exactly_once(self, params):
        _, sim = build(params)
        injector = FakeInjector({0: FaultKind.TRANSIENT_KERNEL,
                                 1: FaultKind.GUEST_HANG,
                                 2: FaultKind.GUEST_FAULT,
                                 3: FaultKind.SLOT_CORRUPTION,
                                 4: FaultKind.HEAP_OOM})
        serve(sim, requests(6), injector)
        assert injector.unaccounted() == []
        kinds = {i.kind: i.classified for i in injector.plan.values()}
        assert kinds[FaultKind.TRANSIENT_KERNEL] == "retried"
        assert kinds[FaultKind.HEAP_OOM] == "retried"
        assert kinds[FaultKind.GUEST_HANG] == "killed"
        assert kinds[FaultKind.GUEST_FAULT] == "quarantined"
        assert kinds[FaultKind.SLOT_CORRUPTION] == "quarantined"


class TestCircuitBreaker:
    def test_consecutive_faults_trip_the_tenant_breaker(self, params):
        _, sim = build(params, breaker_threshold=3)
        # slot corruption does not reset the breaker on success
        injector = FakeInjector({i: FaultKind.SLOT_CORRUPTION
                                 for i in range(3)})
        # requests 3-4 land inside the cooldown window
        metrics, outcomes = serve(sim, requests(5, spacing=100_000),
                                  injector)
        assert sim.breakers["t0"].trips == 1
        assert sim.breakers["t0"].state == "open"
        # requests after the trip are shed while the circuit cools
        assert [o.status for o in outcomes][3:] == ["shed", "shed"]
        assert [o.detail for o in outcomes][3:] == ["breaker",
                                                    "breaker"]
        assert metrics.breaker_shed == 2

    def test_half_open_probe_closes_the_circuit(self, params):
        _, sim = build(params, breaker_threshold=2,
                       breaker_cooldown_cycles=1_000)
        injector = FakeInjector({0: FaultKind.SLOT_CORRUPTION,
                                 1: FaultKind.SLOT_CORRUPTION})
        # a later clean request (past the cooldown) probes and closes
        late = Request(index=10, tenant="t0", service_cycles=40_000,
                       arrival_cycle=10**8)
        _, outcomes = serve(sim, requests(2) + [late], injector)
        assert sim.breakers["t0"].trips == 1
        assert outcomes[-1].status == "ok"
        assert sim.breakers["t0"].state == "closed"

    def test_breakers_are_per_tenant(self, params):
        _, sim = build(params, breaker_threshold=2)
        bad = requests(3, tenant="bad", spacing=100_000)
        injector = FakeInjector({0: FaultKind.SLOT_CORRUPTION,
                                 1: FaultKind.SLOT_CORRUPTION})
        good = Request(index=100, tenant="good", service_cycles=40_000,
                       arrival_cycle=250_000)
        _, outcomes = serve(sim, bad + [good], injector)
        assert sim.breakers["bad"].state == "open"
        assert outcomes[2].detail == "breaker"
        assert outcomes[-1].status == "ok"


class TestAdmissionControl:
    def test_overflow_sheds_lowest_priority_newest_first(self, params):
        _, sim = build(params, slots=8, max_inflight=4)
        stream = []
        for i in range(8):
            priority = (Priority.HIGH if i in (1, 6)
                        else Priority.LOW if i >= 4 else Priority.NORMAL)
            stream.append(Request(index=i, tenant=f"t{i}",
                                  service_cycles=30_000,
                                  priority=priority, arrival_cycle=0))
        _, outcomes = serve(sim, stream)
        shed = {o.request.index for o in outcomes if o.status == "shed"}
        assert len(shed) == 4
        # HIGH priority is never shed
        assert 1 not in shed and 6 not in shed
        # LOW goes before NORMAL, newest first within a priority
        assert {7, 5, 4}.issubset(shed)

    def test_burst_injection_is_accounted_as_shed(self, params):
        _, sim = build(params)
        burst = Injection(injection_id=0, request_index=0,
                          kind=FaultKind.BURST_OVERLOAD)
        stream = requests(1) + [
            Request(index=10 + k, tenant="burst", service_cycles=5_000,
                    priority=Priority.LOW, arrival_cycle=0,
                    injection=burst)
            for k in range(8)]
        metrics, _ = serve(sim, stream)
        assert burst.classified == "shed"
        assert metrics.shed > 0

    def test_capacity_exhaustion_sheds_instead_of_crashing(self, params):
        # a 1-slot pool: while the faulting guest holds the slot, a
        # second arrival finds no capacity and is shed, not crashed;
        # the scrubbed slot then serves the third
        executor, sim = build(params, slots=1, max_inflight=4)
        injector = FakeInjector({0: FaultKind.GUEST_FAULT})
        stream = [Request(0, "t0", 40_000, Priority.NORMAL, 0),
                  Request(1, "t1", 40_000, Priority.NORMAL, 10),
                  Request(2, "t0", 40_000, Priority.NORMAL, 10**7)]
        _, outcomes = serve(sim, stream, injector)
        assert [o.status for o in outcomes] == ["failed", "shed", "ok"]
        assert outcomes[1].detail == "capacity"
        shutdown(executor, sim)
        assert sim.pool.available == 1
        assert executor.manager.live_sandboxes == 0


class TestStats:
    def test_stats_snapshot_matches_counters(self, params):
        _, sim = build(params)
        injector = FakeInjector({0: FaultKind.GUEST_HANG})
        metrics, _ = serve(sim, requests(4), injector)
        stats = sim.stats()
        assert stats.component == "serving"
        assert stats.requests == 4
        assert stats.succeeded == metrics.succeeded == 3
        assert stats.killed == 1
        assert 0.0 < stats.success_rate <= 1.0
        assert stats.accounted


class TestPolicyFunctions:
    """Policy on paths the loop tests do not reach: the watchdog's
    floor and the breaker's half-open probe."""

    def test_watchdog_budget_has_a_floor(self):
        assert watchdog_budget(1_000) == 50_000
        assert watchdog_budget(100_000) == 400_000

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


class TestExecutorsAgree:
    """The loop decides every fault's consequence; an executor only
    runs the invocation.  So one spaced-out stream and one fault plan
    must give each request the same fate on the cost model and on real
    sandboxes."""

    PLAN = {1: FaultKind.TRANSIENT_KERNEL, 3: FaultKind.GUEST_FAULT,
            4: FaultKind.GUEST_HANG, 6: FaultKind.SLOT_CORRUPTION,
            8: FaultKind.HEAP_OOM, 9: FaultKind.GUEST_FAULT,
            11: FaultKind.GUEST_FAULT, 13: FaultKind.SLOT_CORRUPTION}

    def fates(self, params, executor):
        stream = [Request(index=i, tenant=f"t{i % 3}",
                          service_cycles=20_000 + 7_000 * i,
                          arrival_cycle=i * 10**7)
                  for i in range(16)]
        injector = FakeInjector(self.PLAN)
        sim = ServingSimulator(
            executor, ServingConfig(n_cores=1, slots_per_shard=4,
                                    max_inflight=4), params)
        sim.run(stream, injector)
        stamps = {index: injection.classified
                  for index, injection in injector.plan.items()}
        return {o.request.index: (o.status, o.attempts, o.detail,
                                  stamps.get(o.request.index))
                for o in sim.outcomes}

    def test_same_stream_same_fates(self, params):
        model = self.fates(params, "hfi")
        real = self.fates(params, SandboxExecutor("hfi", params))
        assert model == real
        assert len(model) == 16
        statuses = {status for status, _, _, _ in model.values()}
        assert statuses == {"ok", "failed"}
        assert {stamp for *_, stamp in model.values()} == {
            None, "retried", "quarantined", "killed"}


class TestSupervisorPolicyInServingLoop:
    """The recovery policy under open-loop arrivals on the cost model:
    shed ordering, the no-shed floor and fault-ledger accounting when
    a burst piles up at one instant."""

    def drive(self, stream, injector=None, **config_kwargs):
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
