"""Unit tests for the trusted-runtime layer: transitions, the sandbox
manager, and the FaaS queueing model behind Table 1 (the serving
simulator fed one constant service time, with no per-scheme cost)."""

import dataclasses

import pytest

from repro.chaos import ChaosConfig, ChaosInjector
from repro.core import FaultCause, HfiFault, HfiState
from repro.os import Prot
from repro.params import MachineParams
from repro.runtime import (
    FaultKind,
    PoissonArrivals,
    SandboxManager,
    SchemeCosts,
    ServingConfig,
    TransitionKind,
    TransitionModel,
    build_requests,
    percentile,
    simulate_serving,
)
from repro.runtime.sandbox import SandboxError
from repro.wasm import HfiStrategy


@pytest.fixture
def params():
    return MachineParams()


#: Table 1's serving cost: the measured service cycles already include
#: each scheme's protection.
ZERO_COST = SchemeCosts(name="faas", strategy_name="hfi",
                        transition_cycles=0, dispatch_cycles=0,
                        batch_teardown=True)
#: Table 1's two-core node, with a breaker that never trips, so every
#: injected failure reaches the metrics as a failure, not a shed.
FAAS_NODE = ServingConfig(n_cores=2, breaker_threshold=10**9)


def faas_run(params, service_cycles, n_requests, *, load=0.7, seed=5,
             injector=None):
    """Serve ``n_requests`` of constant ``service_cycles`` at ``load``
    times the node's capacity: an M/D/2 queue."""
    return simulate_serving(
        ZERO_COST, n_requests=n_requests, seed=seed, offered_load=load,
        service_cycles=(service_cycles, service_cycles + 1),
        config=FAAS_NODE, params=params, injector=injector)


def guest_faults(rate, n_requests, seed=5):
    """A chaos plan faulting ``rate`` of the invocations mid-run."""
    injector = ChaosInjector(seed, ChaosConfig(
        fault_rate=rate, mix={FaultKind.GUEST_FAULT: 1.0}))
    injector.plan(n_requests)
    return injector


class TestTransitionModel:
    def test_springboard_dearer_than_zero_cost(self, params):
        model = TransitionModel(params)
        assert (model.software_cost(TransitionKind.SPRINGBOARD)
                > model.software_cost(TransitionKind.ZERO_COST))

    def test_serialization_adds_drain(self, params):
        model = TransitionModel(params)
        fast = model.hfi_enter_cost(serialized=False)
        slow = model.hfi_enter_cost(serialized=True)
        assert slow - fast == params.serialize_drain_cycles

    def test_round_trip_composition(self, params):
        model = TransitionModel(params)
        rt = model.round_trip(TransitionKind.ZERO_COST, serialized=True)
        assert rt == (2 * model.software_cost(TransitionKind.ZERO_COST)
                      + model.hfi_enter_cost(serialized=True)
                      + model.hfi_exit_cost(serialized=True))

    def test_more_regions_cost_more(self, params):
        model = TransitionModel(params)
        assert (model.hfi_enter_cost(serialized=False, regions_installed=6)
                > model.hfi_enter_cost(serialized=False,
                                       regions_installed=2))

    def test_zero_cost_wasm_transition_is_call_like(self, params):
        """The paper's headline: context switches on the order of a
        function call (10s of cycles)."""
        model = TransitionModel(params)
        rt = model.round_trip(TransitionKind.ZERO_COST, serialized=False)
        assert rt < 120


class TestSandboxManager:
    def test_create_and_invoke(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 20)
        result = manager.invoke(handle, service_cycles=10_000)
        assert result.cycles > 10_000
        assert result.reason == "hlt"
        assert result.sandbox_id == handle.sandbox_id
        assert result.cycles == (result.enter_cycles + result.exit_cycles
                                 + result.software_cycles
                                 + result.service_cycles)
        assert handle.invocations == 1
        assert manager.hfi.cause_msr is FaultCause.EXIT_INSTRUCTION

    def test_many_sandboxes_no_limit(self, params):
        manager = SandboxManager(params)
        for _ in range(200):
            manager.create_sandbox(heap_bytes=1 << 16)
        assert manager.live_sandboxes == 200

    def test_grow_heap_is_register_update_cheap(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 20)
        cost = manager.grow_heap(handle, 2 << 20)
        assert cost < 100                      # no syscall anywhere
        # the §6.1 price: descriptor store, its load, hfi_set_region
        assert cost == HfiStrategy().grow_cost(
            manager.space, handle.heap_base, 1 << 20, 2 << 20, params)
        region = dict(handle.descriptor.regions)[6]
        assert region.bound == 2 << 20

    def test_grow_heap_stays_within_its_reservation(self, params):
        """Growth past the heap's reservation would let the explicit
        region, and the teardown's discard, reach the next sandbox's
        heap; it raises instead and changes nothing."""
        manager = SandboxManager(params)
        a = manager.create_sandbox(heap_bytes=1 << 16)
        b = manager.create_sandbox(heap_bytes=1 << 16)
        manager.space.write(b.heap_base, 0x1234)
        total = manager.total_cycles
        with pytest.raises(SandboxError):
            manager.grow_heap(a, 4 << 20)
        assert a.heap_bytes == 1 << 16
        assert dict(a.descriptor.regions)[6].end <= b.heap_base
        assert manager.total_cycles == total
        manager.destroy_sandbox(a)
        assert manager.space.read(b.heap_base) == 0x1234

    @pytest.mark.parametrize("heap_bytes", [16 << 10, 320 << 10])
    def test_heap_region_ends_at_the_heap(self, params, heap_bytes):
        """Region 6 covers the heap and nothing past it, for a heap
        smaller than 64 KiB and one that is not a power of two: it
        must not reach past the reservation onto the sandbox's own
        code, so an hmov one byte past the heap traps."""
        manager = SandboxManager(params)
        manager.space.mmap(4096, Prot.rw())
        handle = manager.create_sandbox(heap_bytes=heap_bytes)
        region = dict(handle.descriptor.regions)[6]
        assert region.end == handle.heap_base + heap_bytes
        assert region.end <= handle.reservation_end <= handle.code_base
        state = HfiState(params)
        handle.descriptor.install(state)
        last = state.hmov_address(0, heap_bytes - 1, 1, 0, 1,
                                  is_write=True)
        assert last == handle.heap_base + heap_bytes - 1
        with pytest.raises(HfiFault) as trap:
            state.hmov_address(0, heap_bytes, 1, 0, 1, is_write=True)
        assert trap.value.cause is FaultCause.HMOV_OUT_OF_BOUNDS

    def test_destroy_returns_memory_cost(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 20)
        manager.space.write(handle.heap_base, 7)
        cost = manager.destroy_sandbox(handle)
        assert cost > params.syscall_cycles
        assert manager.live_sandboxes == 0

    def test_hybrid_sandbox_descriptor(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 20, hybrid=True,
                                        serialized=False)
        assert handle.descriptor.flags.is_hybrid
        assert not handle.descriptor.flags.is_serialized

    def test_serialized_invocation_costs_more(self, params):
        manager = SandboxManager(params)
        fast = manager.create_sandbox(heap_bytes=1 << 16,
                                      serialized=False)
        slow = manager.create_sandbox(heap_bytes=1 << 16,
                                      serialized=True)
        c_fast = manager.invoke(fast, service_cycles=0).cycles
        c_slow = manager.invoke(slow, service_cycles=0).cycles
        assert c_slow >= c_fast + 2 * params.serialize_drain_cycles


class TestFaasQueue:
    def test_latency_at_least_service_time(self, params):
        metrics = faas_run(params, 1_000_000, 500)
        assert metrics.mean_latency_cycles >= 1_000_000
        assert metrics.p99_cycles >= metrics.mean_latency_cycles

    def test_higher_load_longer_tail(self, params):
        light = faas_run(params, 1_000_000, 800, load=0.3)
        heavy = faas_run(params, 1_000_000, 800, load=0.9)
        assert heavy.p99_cycles > light.p99_cycles

    def test_slower_service_inflates_tail_disproportionately(
            self, params):
        """The Table 1 mechanism: at fixed offered load, a service-time
        increase produces a super-linear tail-latency increase."""
        base_cycles = 1_000_000
        base_requests = build_requests(
            PoissonArrivals(base_cycles / (0.7 * FAAS_NODE.n_cores),
                            seed=2023),
            1500, seed=2023, service_cycles=(base_cycles, base_cycles + 1))
        slow_requests = [
            dataclasses.replace(r, service_cycles=int(base_cycles * 1.2))
            for r in base_requests]
        base, slow = (simulate_serving(ZERO_COST, requests=reqs,
                                       config=FAAS_NODE, params=params)
                      for reqs in (base_requests, slow_requests))
        service_increase = 0.2
        tail_increase = slow.p99_cycles / base.p99_cycles - 1
        assert tail_increase > service_increase

    def test_deterministic_with_seed(self, params):
        a = faas_run(params, 500_000, 300)
        b = faas_run(params, 500_000, 300)
        assert a == b

    def test_throughput_bounded_by_capacity(self, params):
        metrics = faas_run(params, 1_000_000, 1000, load=5.0)  # overload
        capacity = 2 / params.cycles_to_seconds(1_000_000)
        assert metrics.throughput_rps <= capacity * 1.01


class TestFaasFailureSurfacing:
    def test_failed_requests_are_reported_distinctly(self, params):
        metrics = faas_run(params, 1_000_000, 1000,
                           injector=guest_faults(0.2, 1000))
        assert 100 < metrics.failed < 300          # ~20% of 1000
        assert metrics.succeeded == 1000 - metrics.failed
        assert metrics.goodput_rps < metrics.throughput_rps

    def test_failures_do_not_count_toward_success_latency(self, params):
        """A failed invocation aborts early (shorter occupancy); if it
        leaked into the percentiles it would *improve* them.  The
        success-latency distribution must not shift down."""
        clean = faas_run(params, 1_000_000, 1000, load=0.5)
        faulty = faas_run(params, 1_000_000, 1000, load=0.5,
                          injector=guest_faults(0.3, 1000))
        # every surviving sample is a full-service completion
        assert faulty.mean_latency_cycles >= 1_000_000
        assert faulty.p99_cycles >= clean.p99_cycles * 0.5
        assert clean.failed == 0 and clean.goodput_rps == pytest.approx(
            clean.throughput_rps)

    def test_zero_failure_rate_is_bit_identical(self, params):
        a = faas_run(params, 500_000, 300)
        b = faas_run(params, 500_000, 300, injector=guest_faults(0.0, 300))
        assert a == b

    def test_all_failures_yield_no_latency_samples(self, params):
        metrics = faas_run(params, 1_000_000, 200,
                           injector=guest_faults(1.0, 200))
        assert metrics.failed == 200
        assert metrics.goodput_rps == 0.0
        assert metrics.mean_latency_cycles == 0.0
        assert metrics.p99_cycles == 0


class TestPercentile:
    def test_simple(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_single(self):
        assert percentile([7.0], 99) == 7.0