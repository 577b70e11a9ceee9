"""The discrete-event serving simulator (repro.runtime.serving).

Covers the pieces separately — arrival processes, the sharded
work-stealing pool, scheme cost derivation — then the assembled event
loop: accounting partitions, supervisor-policy integration (admission
shedding, breakers, watchdog), fault-ledger classification, and the
telemetry snapshot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import MachineParams
from repro.runtime import (
    SERVING_SCHEMES,
    FaultKind,
    Injection,
    MmppArrivals,
    PoissonArrivals,
    Priority,
    Request,
    ServingConfig,
    ServingSimulator,
    ShardedInstancePool,
    TraceArrivals,
    build_requests,
    load_trace,
    save_trace,
    scheme_costs,
    shed_victims,
    simulate_serving,
)
from repro.os import AddressSpace
from repro.telemetry import ServingStats, Telemetry
from repro.wasm import HfiStrategy


@pytest.fixture
def params():
    return MachineParams()


class FakeInjector:
    """Chaos planner stub: one FaultKind per chosen request index."""

    def __init__(self, plan):
        self.plan = {index: Injection(injection_id=k, request_index=index,
                                      kind=kind)
                     for k, (index, kind) in enumerate(sorted(plan.items()))}

    def injection_for(self, index):
        return self.plan.get(index)

    def unaccounted(self):
        return [i for i in self.plan.values() if i.classified is None]


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_is_seed_deterministic(self):
        a = list(PoissonArrivals(1000.0, seed=3).interarrivals(50))
        b = list(PoissonArrivals(1000.0, seed=3).interarrivals(50))
        assert a == b
        assert a != list(PoissonArrivals(1000.0, seed=4).interarrivals(50))

    def test_poisson_mean_tracks_parameter(self):
        gaps = list(PoissonArrivals(5000.0, seed=1).interarrivals(4000))
        mean = sum(gaps) / len(gaps)
        assert 4200 < mean < 5800
        assert all(g >= 1 for g in gaps)

    def test_mmpp_is_burstier_than_poisson(self):
        """Same mean-rate knob: the MMPP's gap variance must exceed
        Poisson's — that's the whole point of the burst state."""
        def cv2(gaps):
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / (mean * mean)

        poisson = list(PoissonArrivals(2000.0, seed=9).interarrivals(5000))
        mmpp = list(MmppArrivals(2000.0, seed=9).interarrivals(5000))
        assert cv2(mmpp) > cv2(poisson)

    def test_trace_replays_and_wraps(self):
        trace = TraceArrivals([5, 10, 15])
        assert list(trace.interarrivals(5)) == [5, 10, 15, 5, 10]

    def test_build_requests_sorted_and_prioritized(self):
        requests = build_requests(PoissonArrivals(1000.0, seed=2), 400,
                                  seed=2)
        assert [r.index for r in requests] == list(range(400))
        arrivals = [r.arrival_cycle for r in requests]
        assert arrivals == sorted(arrivals)
        priorities = {r.priority for r in requests}
        assert priorities == {Priority.LOW, Priority.NORMAL, Priority.HIGH}

    def test_trace_round_trips_through_file(self, tmp_path):
        requests = build_requests(PoissonArrivals(800.0, seed=5), 50,
                                  seed=5)
        path = str(tmp_path / "trace.json")
        save_trace(requests, path)
        replayed = load_trace(path)
        assert replayed == requests

    def test_load_trace_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "requests": []}')
        with pytest.raises(ValueError):
            load_trace(str(path))


# ----------------------------------------------------------------------
# the sharded work-stealing pool
# ----------------------------------------------------------------------
class TestShardedPool:
    def build(self, params, shards=4, slots=4, **kwargs):
        space = AddressSpace(params)
        return ShardedInstancePool(space, HfiStrategy(), shards=shards,
                                   slots_per_shard=slots,
                                   heap_bytes=1 << 14, params=params,
                                   **kwargs)

    def test_local_acquire_prefers_own_shard(self, params):
        pool = self.build(params)
        slot, owner, _ = pool.acquire(2)
        assert slot is not None and owner == 2
        assert pool.local_acquires == 1 and pool.steals == 0

    def test_steals_from_richest_when_local_dry(self, params):
        pool = self.build(params, shards=2, slots=2)
        held = [pool.acquire(0) for _ in range(2)]      # drain shard 0
        assert all(s is not None for s, _, _ in held)
        slot, owner, _ = pool.acquire(0)                # must steal
        assert slot is not None and owner == 1
        assert pool.steals == 1

    def test_exhausted_when_everything_held(self, params):
        pool = self.build(params, shards=2, slots=1)
        assert pool.acquire(0)[0] is not None
        assert pool.acquire(1)[0] is not None
        slot, _, _ = pool.acquire(0)
        assert slot is None
        assert pool.exhausted == 1

    def test_batched_discards_flushed_before_stealing(self, params):
        """A dry shard with pending batched discards recycles its own
        slots rather than stealing — local recycle beats a steal."""
        pool = self.build(params, shards=2, slots=1, batch_teardown=True)
        slot, owner, _ = pool.acquire(0)
        pool.release(slot, owner)       # batched: slot pending discard
        slot2, owner2, _ = pool.acquire(0)
        assert slot2 is not None and owner2 == 0
        assert pool.steals == 0 and pool.dry_flushes >= 1

    def test_release_and_quarantine_route_to_owner_shard(self, params):
        pool = self.build(params, shards=2, slots=2)
        held = [pool.acquire(0) for _ in range(2)]
        stolen, owner, _ = pool.acquire(0)
        assert owner == 1
        pool.quarantine(stolen, owner)
        for slot, own, _ in held:
            pool.release(slot, own)
        assert pool.quarantined == 1
        assert pool.shard_available()[1] == 1   # one lost to quarantine

    def test_scrub_rescues_a_fully_quarantined_pool(self, params):
        pool = self.build(params, shards=2, slots=1)
        for shard in range(2):
            slot, owner, _ = pool.acquire(shard)
            pool.quarantine(slot, owner)
        assert pool.available == 0
        slot, _, _ = pool.acquire(0)
        assert slot is not None
        assert pool.scrub_rescues == 1

    def test_stats_snapshot(self, params):
        pool = self.build(params, shards=2, slots=2)
        pool.acquire(0)
        stats = pool.stats()
        assert isinstance(stats, ServingStats) is False
        assert stats.shards == 2 and stats.slots == 4
        assert stats.local_acquires == 1
        assert 0.0 <= stats.steal_rate <= 1.0

    def test_registers_one_telemetry_component(self, params):
        telemetry = Telemetry()
        self.build(params, telemetry=telemetry)
        names = [name for name, _ in telemetry.components()] \
            if hasattr(telemetry, "components") else None
        snapshot = telemetry.snapshot()
        assert "sharded-pool" in str(snapshot) or names


# ----------------------------------------------------------------------
# scheme costs
# ----------------------------------------------------------------------
class TestSchemeCosts:
    def test_all_serving_schemes_derive(self, params):
        for name in SERVING_SCHEMES:
            costs = scheme_costs(name, params)
            assert costs.transition_cycles > 0
            assert costs.dispatch_cycles > 0

    def test_only_hfi_batches_teardown(self, params):
        assert scheme_costs("hfi", params).batch_teardown
        assert not scheme_costs("guard-pages", params).batch_teardown
        assert not scheme_costs("mpk", params).batch_teardown

    def test_mpk_transition_includes_wrpkru(self, params):
        mpk = scheme_costs("mpk", params)
        guard = scheme_costs("guard-pages", params)
        assert mpk.transition_cycles >= 2 * params.wrpkru_cycles
        assert mpk.transition_cycles > guard.transition_cycles

    def test_unknown_scheme_raises(self, params):
        with pytest.raises(ValueError):
            scheme_costs("enclave", params)


# ----------------------------------------------------------------------
# the event loop
# ----------------------------------------------------------------------
class TestServingLoop:
    def run(self, requests, injector=None, config=None, scheme="hfi",
            params=None, seed=0):
        params = params or MachineParams()
        config = config or ServingConfig(n_cores=2, slots_per_shard=4,
                                         max_inflight=8)
        sim = ServingSimulator(scheme, config, params, seed=seed)
        return sim, sim.run(requests, injector=injector)

    def requests(self, n, gap=50_000, service=30_000,
                 priority=Priority.NORMAL, tenant="t0"):
        return [Request(index=i, tenant=tenant, service_cycles=service,
                        priority=priority, arrival_cycle=(i + 1) * gap)
                for i in range(n)]

    def test_underload_everything_succeeds(self):
        sim, metrics = self.run(self.requests(40))
        assert metrics.succeeded == 40
        assert metrics.shed == metrics.failed == 0
        assert metrics.accounted
        assert len(sim.outcomes) == 40

    def test_latency_includes_queueing(self):
        """Two same-cycle arrivals on one core: the second waits."""
        reqs = [Request(0, "t0", 30_000, Priority.NORMAL, 1000),
                Request(2, "t0", 30_000, Priority.NORMAL, 1000)]
        config = ServingConfig(n_cores=1, slots_per_shard=4,
                               max_inflight=8)
        sim, metrics = self.run(reqs, config=config)
        assert metrics.succeeded == 2
        first, second = sorted(sim.latencies)
        assert second > first + 30_000 * 0.9

    def test_overload_sheds_and_accounts(self):
        config = ServingConfig(n_cores=1, slots_per_shard=2,
                               max_inflight=2)
        sim, metrics = self.run(self.requests(30, gap=100), config=config)
        assert metrics.shed > 0
        assert metrics.accounted
        shed_outcomes = [o for o in sim.outcomes if o.status == "shed"]
        assert len(shed_outcomes) == metrics.shed

    def test_overload_never_sheds_high_priority(self):
        lows = self.requests(20, gap=100, priority=Priority.LOW)
        highs = [Request(index=100 + i, tenant="vip",
                         service_cycles=30_000, priority=Priority.HIGH,
                         arrival_cycle=150 + i * 100) for i in range(10)]
        merged = sorted(lows + highs, key=lambda r: r.arrival_cycle)
        # the pool must be able to absorb every HIGH at once: HIGH is
        # admitted past max_inflight rather than shed, so only slot
        # exhaustion by HIGH traffic itself could ever drop one
        config = ServingConfig(n_cores=1, slots_per_shard=16,
                               max_inflight=2)
        sim, metrics = self.run(merged, config=config)
        assert metrics.shed > 0
        for outcome in sim.outcomes:
            if outcome.status == "shed":
                assert outcome.request.priority < Priority.HIGH

    def test_admission_prefers_shedding_newest_of_lowest(self):
        """With the queue full of LOW requests, a LOW newcomer is the
        newest lowest-priority candidate — it shovels itself."""
        config = ServingConfig(n_cores=1, slots_per_shard=8,
                               max_inflight=2)
        reqs = self.requests(6, gap=10, priority=Priority.LOW)
        sim, metrics = self.run(reqs, config=config)
        shed_indices = [o.request.index for o in sim.outcomes
                        if o.status == "shed"]
        kept = [o.request.index for o in sim.outcomes
                if o.status == "ok"]
        assert shed_indices and kept
        # the earliest arrivals survive; the late pile-on is shed
        assert min(kept) < min(shed_indices)

    def test_duplicate_request_index_rejected(self):
        """Indices rank shed victims and key chaos injections, so two
        requests sharing one are refused before any event runs.
        Admitted, the NORMAL #5 below would be shed in place of the
        queued LOW #5."""
        config = ServingConfig(n_cores=1, slots_per_shard=8,
                               max_inflight=3)
        reqs = [Request(0, "t0", 1_000_000, Priority.NORMAL, 10),
                Request(5, "t0", 30_000, Priority.LOW, 20),
                Request(5, "t0", 30_000, Priority.NORMAL, 30),
                Request(9, "t0", 30_000, Priority.NORMAL, 40)]
        sim = ServingSimulator("hfi", config, MachineParams(), seed=0)
        with pytest.raises(ValueError, match="duplicate request index 5"):
            sim.run(reqs)
        assert sim.outcomes == [] and sim.counters.requests == 0

    def test_normal_newcomer_evicts_queued_low(self):
        config = ServingConfig(n_cores=1, slots_per_shard=8,
                               max_inflight=2)
        reqs = [Request(0, "t0", 200_000, Priority.LOW, 100),
                Request(1, "t0", 200_000, Priority.LOW, 120),
                Request(2, "t0", 200_000, Priority.NORMAL, 140)]
        sim, metrics = self.run(reqs, config=config)
        statuses = {o.request.index: o.status for o in sim.outcomes}
        assert statuses[1] == "shed"        # queued LOW evicted
        assert statuses[2] == "ok"          # NORMAL admitted

    def test_breaker_opens_and_sheds_tenant(self):
        """A tenant whose guests keep faulting trips its breaker; its
        later requests shed without holding slots."""
        n = 12
        plan = {i: FaultKind.GUEST_FAULT for i in range(6)}
        injector = FakeInjector(plan)
        config = ServingConfig(n_cores=1, slots_per_shard=16,
                               max_inflight=16, breaker_threshold=3,
                               breaker_cooldown_cycles=10**9)
        sim, metrics = self.run(self.requests(n), injector=injector,
                                config=config)
        assert metrics.breaker_shed > 0
        assert sim.breakers["t0"].trips >= 1
        assert metrics.accounted

    def test_watchdog_kills_hung_guest(self):
        injector = FakeInjector({3: FaultKind.GUEST_HANG})
        sim, metrics = self.run(self.requests(8), injector=injector)
        assert metrics.killed == 1
        assert metrics.failed == 1
        killed = [o for o in sim.outcomes if o.detail == "watchdog"]
        assert len(killed) == 1 and killed[0].request.index == 3
        assert injector.plan[3].classified == "killed"

    def test_transient_faults_retried_inline(self):
        injector = FakeInjector({2: FaultKind.TRANSIENT_KERNEL,
                                 5: FaultKind.HEAP_OOM})
        sim, metrics = self.run(self.requests(8), injector=injector)
        assert metrics.retried == 2
        assert metrics.succeeded == 8       # retries still succeed
        retried = [o for o in sim.outcomes if o.attempts == 2]
        assert {o.request.index for o in retried} == {2, 5}

    def test_slot_corruption_quarantines_but_succeeds(self):
        injector = FakeInjector({4: FaultKind.SLOT_CORRUPTION})
        sim, metrics = self.run(self.requests(8), injector=injector)
        assert metrics.succeeded == 8
        assert metrics.quarantined == 1
        assert sim.pool.quarantined == 1

    def test_every_injection_classified_exactly_once(self):
        plan = {1: FaultKind.GUEST_FAULT, 3: FaultKind.GUEST_HANG,
                5: FaultKind.TRANSIENT_KERNEL, 7: FaultKind.HEAP_OOM,
                9: FaultKind.SLOT_CORRUPTION}
        injector = FakeInjector(plan)
        sim, metrics = self.run(self.requests(12), injector=injector)
        assert injector.unaccounted() == []
        ledger = {i.classified for i in injector.plan.values()}
        assert ledger <= {"retried", "shed", "quarantined", "killed"}
        assert metrics.accounted

    def test_work_stealing_engages_under_skew(self):
        """All traffic hashed to core 0 must steal from shard 1."""
        reqs = [Request(index=i * 2, tenant="t0", service_cycles=40_000,
                        priority=Priority.NORMAL,
                        arrival_cycle=100 + i * 10)
                for i in range(8)]          # even indices -> core 0
        config = ServingConfig(n_cores=2, slots_per_shard=4,
                               max_inflight=16)
        sim, metrics = self.run(reqs, config=config)
        assert metrics.steals > 0
        assert metrics.accounted

    def test_hfi_cheaper_tail_than_guard_pages_same_load(self):
        """Identical workload: HFI's batched teardown must not yield a
        worse p99 than guard-pages' per-request madvise."""
        reqs = build_requests(PoissonArrivals(9_000.0, seed=3), 600,
                              seed=3)
        config = ServingConfig(n_cores=2, slots_per_shard=8,
                               max_inflight=16)
        outcomes = {}
        for scheme in ("hfi", "guard-pages"):
            _, metrics = self.run(reqs, config=config, scheme=scheme)
            outcomes[scheme] = metrics
        assert (outcomes["hfi"].p99_cycles
                <= outcomes["guard-pages"].p99_cycles)

    def test_stats_snapshot_matches_metrics(self):
        sim, metrics = self.run(self.requests(20))
        stats = sim.stats()
        assert isinstance(stats, ServingStats)
        assert stats.requests == 20
        assert stats.succeeded == metrics.succeeded
        assert stats.accounted

    def test_telemetry_component_registered(self):
        telemetry = Telemetry()
        config = ServingConfig(n_cores=2, slots_per_shard=4,
                               max_inflight=8)
        sim = ServingSimulator("hfi", config, MachineParams(), seed=0,
                               telemetry=telemetry)
        sim.run(self.requests(10))
        snapshot = telemetry.snapshot()
        assert "serving" in str(snapshot)


# ----------------------------------------------------------------------
# the admission index against its full-scan reference
# ----------------------------------------------------------------------
class ScanCheckedSimulator(ServingSimulator):
    """Works out, before every victim choice, what a full scan would
    shed — ``shed_victims`` over every queued record plus the
    newcomer — and asserts the index shed that request (or none).
    After every change to the index it asserts that the index holds
    exactly the queued sheddable records, plus at most as many started
    ones."""

    def _scan(self, newcomer=None):
        candidates = [(record.request.index, record.request)
                      for core in self._cores for record in core.queue]
        if newcomer is not None:
            candidates.append((newcomer.index, newcomer))
        return shed_victims(candidates, 1, self.config.no_shed_priority)

    def _assert_shed(self, expected, before):
        assert [o.request.index for o in self.outcomes[before:]] == expected
        self._assert_index()

    def _assert_index(self):
        queued = {id(record) for core in self._cores
                  for record in core.queue
                  if record.request.priority < self.config.no_shed_priority}
        live = {id(record) for _, record in self._victims
                if not record.started}
        assert live == queued and self._victims_live == len(queued)
        assert len(self._victims) <= 2 * len(queued)

    def _make_room(self, newcomer, injection):
        expected, before = self._scan(newcomer), len(self.outcomes)
        admitted = super()._make_room(newcomer, injection)
        self._assert_shed(expected, before)
        return admitted

    def _evict_one_queued(self):
        expected, before = self._scan(), len(self.outcomes)
        evicted = super()._evict_one_queued()
        self._assert_shed(expected, before)
        return evicted

    def _maybe_start(self, heap, core_index):
        super()._maybe_start(heap, core_index)
        self._assert_index()


@st.composite
def overload_streams(draw):
    """5-60 requests of every priority, indices not in arrival order,
    some sharing an arrival cycle."""
    n = draw(st.integers(5, 60))
    clock, stream = 0, []
    for index in draw(st.permutations(range(n))):
        clock += draw(st.sampled_from((0, 0, 2_000, 20_000, 60_000)))
        stream.append(Request(
            index=index, tenant=f"t{index % 3}",
            service_cycles=draw(st.integers(10_000, 150_000)),
            priority=draw(st.sampled_from(list(Priority))),
            arrival_cycle=clock))
    return stream


@settings(max_examples=150, deadline=None)
@given(stream=overload_streams(), n_cores=st.integers(1, 4),
       slots=st.integers(1, 6), max_inflight=st.integers(1, 12),
       scheme=st.sampled_from(SERVING_SCHEMES))
def test_admission_index_matches_full_scan(stream, n_cores, slots,
                                           max_inflight, scheme):
    config = ServingConfig(n_cores=n_cores, slots_per_shard=slots,
                           max_inflight=max_inflight)
    sim = ScanCheckedSimulator(scheme, config, MachineParams(), seed=0)
    assert sim.run(stream).accounted


# ----------------------------------------------------------------------
# the convenience front door
# ----------------------------------------------------------------------
class TestSimulateServing:
    def test_reports_all_percentiles_ordered(self):
        metrics = simulate_serving("hfi", n_requests=300, seed=1,
                                   offered_load=0.9)
        assert (metrics.p50_cycles <= metrics.p99_cycles
                <= metrics.p999_cycles)
        assert metrics.p50_ms > 0
        assert metrics.accounted

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError):
            simulate_serving("hfi", n_requests=10, arrival="adversarial")

    def test_offered_load_scales_pressure(self):
        light = simulate_serving("hfi", n_requests=400, seed=4,
                                 offered_load=0.3)
        heavy = simulate_serving("hfi", n_requests=400, seed=4,
                                 offered_load=1.5)
        assert heavy.p99_cycles > light.p99_cycles
        assert heavy.utilization > light.utilization

    def test_explicit_requests_bypass_generation(self):
        reqs = build_requests(PoissonArrivals(20_000.0, seed=6), 50,
                              seed=6)
        metrics = simulate_serving("hfi", requests=reqs, seed=6)
        assert metrics.requests == 50
        assert metrics.arrival == "trace"

    def test_list_order_of_requests_does_not_matter(self):
        """Arrivals are ordered by cycle, not by list position: with
        distinct arrival cycles a reversed stream is the same run,
        offered rate included."""
        reqs = build_requests(PoissonArrivals(20_000.0, seed=6), 200,
                              seed=6)
        assert len({r.arrival_cycle for r in reqs}) == len(reqs)
        forward = simulate_serving("hfi", requests=reqs, seed=6)
        backward = simulate_serving("hfi", requests=reqs[::-1], seed=6)
        assert forward.offered_rps > 0
        assert backward == forward
