"""Tests for the unified telemetry subsystem (``repro.telemetry``):
the metrics registry, span nesting, per-sandbox attribution, null-sink
parity, and the uniform ``.stats()`` component API."""

import copy

import pytest

from repro.cpu import Cache, CacheHierarchy, Cpu, Tlb
from repro.cpu.predictors import (
    BranchTargetBuffer,
    PatternHistoryTable,
    ReturnStackBuffer,
)
from repro.params import MachineParams
from repro.runtime import (
    InstancePool,
    InvokeResult,
    SandboxManager,
    TransitionKind,
)
from repro.telemetry import (
    NULL_TELEMETRY,
    CycleAccumulator,
    MetricsRegistry,
    NullTelemetry,
    SpanLog,
    Telemetry,
    coalesce,
    to_json,
)
from repro.wasm import HfiStrategy, WasmRuntime, make_strategy
from repro.workloads import SPEC_BENCHMARKS


@pytest.fixture
def params():
    return MachineParams()


class TestRegistry:
    def test_counter_get_or_create_and_add(self):
        reg = MetricsRegistry()
        reg.counter("a.b").add()
        reg.counter("a.b").add(4)
        assert reg.counter("a.b").value == 5
        assert reg.as_dict()["counters"] == {"a.b": 5}

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 100):
            reg.histogram("lat").observe(v)
        h = reg.histogram("lat")
        assert h.count == 4
        assert h.mean == pytest.approx(26.5)
        assert h.min == 1 and h.max == 100

    def test_cycle_accumulator_by_key(self):
        acc = CycleAccumulator("x")
        acc.add(10, key=1)
        acc.add(5, key=1)
        acc.add(7, key=None)
        assert acc.total == 22
        assert acc.by_key == {1: 15, None: 7}

    def test_telemetry_count_and_snapshot(self):
        tel = Telemetry()
        tel.count("ev")
        tel.count("ev", 2)
        tel.observe("h", 8)
        tel.add_cycles("c", 100, sandbox_id=3)
        snap = tel.snapshot()
        assert snap["counters"]["ev"] == 3
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["cycles"]["c"]["by_key"] == {"3": 100}

    def test_reset(self):
        tel = Telemetry()
        tel.count("ev")
        tel.begin_span("s", 0)
        tel.reset()
        snap = tel.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == []


class TestSpans:
    def test_nesting_and_parents(self):
        log = SpanLog()
        outer = log.begin("run", 0)
        inner = log.begin("sandbox", 10, sandbox_id=7)
        log.end(20)
        log.end(30)
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1 and outer.depth == 0
        assert inner.duration == 10 and outer.duration == 30

    def test_sandbox_id_inherited_from_parent(self):
        log = SpanLog()
        log.begin("sandbox", 0, sandbox_id=4)
        child = log.begin("syscall", 5)
        assert child.sandbox_id == 4

    def test_named_end_closes_skipped_inner_spans(self):
        log = SpanLog()
        log.begin("run", 0)
        inner = log.begin("sandbox", 10)
        log.end(50, name="run")          # fault path skipped the exit
        assert inner.end_cycle == 50
        assert log.depth == 0

    def test_named_end_missing_is_noop(self):
        log = SpanLog()
        span = log.begin("run", 0)
        log.end(10, name="nonexistent")
        assert span.open
        assert log.depth == 1

    def test_event_is_zero_duration(self):
        log = SpanLog()
        ev = log.event("syscall", 42, nr=1)
        assert ev.duration == 0
        assert log.depth == 0

    def test_capacity_drops(self):
        log = SpanLog(capacity=2)
        log.event("a", 0)
        log.event("b", 1)
        assert log.event("c", 2) is None
        assert log.dropped == 1

    def test_sandbox_lifecycle_spans_nest_under_run(self, params):
        """hfi_enter/exit in simulated code open/close a span inside
        the cpu.run span, carrying transition attributes."""
        tel = Telemetry()
        runtime = WasmRuntime(params)
        runtime.cpu.attach_telemetry(tel)
        module = SPEC_BENCHMARKS["401.bzip2"](1)
        instance = runtime.instantiate(module, make_strategy("hfi"))
        result = runtime.run(instance)
        assert result.reason == "hlt"
        runs = tel.spans.named("cpu.run")
        boxes = tel.spans.named("hfi.sandbox")
        assert len(runs) == 1
        assert boxes, "expected at least one sandbox span"
        for box in boxes:
            assert box.parent_id == runs[0].span_id
            assert box.duration is not None and box.duration > 0
        assert tel.registry.counter("cpu.hfi_enter").value >= 1
        assert tel.registry.counter("cpu.hfi_exit").value >= 1


class TestAttribution:
    def test_attribution_sums_to_manager_total(self, params):
        tel = Telemetry()
        manager = SandboxManager(params, telemetry=tel)
        handles = [manager.create_sandbox(heap_bytes=1 << 18)
                   for _ in range(3)]
        for i, handle in enumerate(handles * 4):
            manager.invoke(handle, service_cycles=1_000 * (i + 1))
        manager.grow_heap(handles[1], 1 << 20)
        manager.destroy_sandbox(handles[2])
        attribution = tel.attribution()
        assert sum(attribution.values()) == manager.total_cycles
        assert set(attribution) == {1, 2, 3}
        assert all(v > 0 for v in attribution.values())

    def test_attribution_matches_handle_cycles(self, params):
        tel = Telemetry()
        manager = SandboxManager(params, telemetry=tel)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        manager.invoke(handle, service_cycles=5_000)
        assert tel.attribution()[handle.sandbox_id] == handle.cycles

    def test_pooled_invocation_attributes_recycle_cost(self, params):
        tel = Telemetry()
        manager = SandboxManager(params, telemetry=tel)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        pool = InstancePool(manager.space, HfiStrategy(), slots=2,
                            heap_bytes=1 << 18, params=params,
                            telemetry=tel)
        result = manager.invoke_pooled(handle, pool, 2_000,
                                       TransitionKind.ZERO_COST)
        assert result.slot_index is not None
        assert result.recycle_cycles > 0
        assert pool.available == 2
        assert sum(tel.attribution().values()) == manager.total_cycles


class TestNullSinkParity:
    def _run(self, params, telemetry):
        runtime = WasmRuntime(params)
        if telemetry is not None:
            runtime.cpu.attach_telemetry(telemetry)
        module = SPEC_BENCHMARKS["401.bzip2"](1)
        instance = runtime.instantiate(module, make_strategy("hfi"))
        return runtime.run(instance)

    def test_cycle_counts_identical_with_and_without_sink(self, params):
        """Telemetry must never feed back into the simulation: cycle
        and instruction counts are bit-identical either way."""
        off = self._run(params, None)
        on = self._run(params, Telemetry())
        assert on.stats.cycles == off.stats.cycles
        assert on.stats.instructions == off.stats.instructions
        assert on.stats.mispredicts == off.stats.mispredicts

    def test_manager_totals_identical(self, params):
        def drive(tel):
            manager = SandboxManager(params, telemetry=tel)
            h = manager.create_sandbox(heap_bytes=1 << 18)
            for _ in range(5):
                manager.invoke(h, service_cycles=777,
                               transition=TransitionKind.SPRINGBOARD)
            return manager.total_cycles
        assert drive(None) == drive(Telemetry())

    def test_null_sink_is_inert_and_shared(self):
        assert coalesce(None) is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.attribute(1, 100)
        NULL_TELEMETRY.begin_span("s", 0)
        assert NULL_TELEMETRY.snapshot()["counters"] == {}
        assert NULL_TELEMETRY.attribution() == {}

    def test_sinks_survive_deepcopy_as_identity(self):
        """The CPU deep-copies HfiState around speculation windows; a
        sink reached from any copied object must stay shared."""
        tel = Telemetry()
        assert copy.deepcopy(tel) is tel
        assert copy.copy(tel) is tel
        assert copy.deepcopy(NULL_TELEMETRY) is NULL_TELEMETRY


class TestUniformStats:
    def test_cache_stats_snapshot(self):
        cache = Cache(sets=4, ways=2, name="l1d")
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x8000)
        snap = cache.stats()
        assert snap.hits == 1
        assert snap.misses == 2
        assert snap.accesses == 3
        assert snap.component == "l1d"

    def test_cache_legacy_readthrough_removed(self):
        """PR-1's StatsAccessor shim (``cache.stats.hits``) is gone:
        ``stats`` is a plain method now, and the snapshot it returns is
        detached from the live counters."""
        cache = Cache(sets=4, ways=2, name="l1d")
        cache.access(0x1000)
        with pytest.raises(AttributeError):
            cache.stats.hits
        snap = cache.stats()
        cache.access(0x1000)
        assert snap.misses == 1 and snap.hits == 0   # frozen in time

    def test_tlb_stats_snapshot(self, params):
        tlb = Tlb(params)
        tlb.access(0x1000)
        tlb.access(0x1000)
        snap = tlb.stats()
        assert snap.hits == 1 and snap.misses == 1
        assert snap.accesses == 2

    def test_tlb_legacy_attributes_removed(self, params):
        """The deprecated ``tlb.hits``/``tlb.misses`` raw-counter
        properties were removed with the shim layer."""
        tlb = Tlb(params)
        tlb.access(0x1000)
        with pytest.raises(AttributeError):
            tlb.hits
        with pytest.raises(AttributeError):
            tlb.misses
        assert tlb.stats().misses == 1

    def test_predictor_stats_accounting(self):
        pht = PatternHistoryTable(size=16)
        pht.predict(0x40)
        pht.update(0x40, taken=True)    # init counter 1 -> not-taken
        pht.update(0x40, taken=True)    # counter 2 -> taken: correct
        snap = pht.stats()
        assert snap.lookups == 1
        assert snap.mispredicts == 1 and snap.correct == 1
        assert snap.accuracy == pytest.approx(0.5)

        btb = BranchTargetBuffer(size=4)
        btb.predict(0x100)
        btb.update(0x100, 0x200)        # cold miss -> mispredict
        btb.update(0x100, 0x200)        # now correct
        assert btb.stats().mispredicts == 1
        assert btb.stats().correct == 1

        rsb = ReturnStackBuffer(depth=2)
        rsb.pop()                       # empty -> underflow
        rsb.push(0x1)
        assert rsb.pop() == 0x1
        snap = rsb.stats()
        assert snap.underflows == 1
        assert snap.updates == 1 and snap.lookups == 2

    def test_hierarchy_and_manager_stats(self, params):
        hierarchy = CacheHierarchy(params)
        names = [s.component for s in hierarchy.stats()]
        assert names == ["l1d", "l1i", "l2"]

        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        manager.invoke(handle, service_cycles=100)
        snap = manager.stats()
        assert snap.sandboxes_created == 1
        assert snap.invocations == 1
        assert snap.attributed_cycles == manager.total_cycles
        assert snap.sandboxes[0].sandbox_id == handle.sandbox_id

    def test_component_collectors_in_snapshot(self, params):
        tel = Telemetry()
        cpu = Cpu(params, telemetry=tel)
        snap = tel.snapshot()
        assert {"l1d", "l1i", "l2", "dtlb", "pht", "btb",
                "rsb"} <= set(snap["components"])
        assert snap["components"]["l1d"]["component"] == "l1d"

    def test_as_dict_includes_properties(self):
        cache = Cache(sets=2, ways=1)
        cache.access(0x0)
        d = cache.stats().as_dict()
        assert d["accesses"] == 1
        assert "hit_rate" in d


class TestInvokeResult:
    def test_shape(self, params):
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        result = manager.invoke(handle, service_cycles=123)
        assert isinstance(result, InvokeResult)
        # Shares RunResult's field names (cycles is a property there).
        from repro.cpu.machine import RunResult
        for name in ("reason", "cycles", "fault"):
            assert hasattr(RunResult, name) or \
                name in RunResult.__dataclass_fields__
        assert result.reason == "hlt" and result.fault is None

    def test_as_dict_round_trips_json(self, params):
        import json
        manager = SandboxManager(params)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        result = manager.invoke(handle, service_cycles=10)
        assert json.loads(json.dumps(result.as_dict()))["reason"] == "hlt"


class TestExport:
    def test_to_json_and_write(self, params, tmp_path):
        import json
        tel = Telemetry()
        manager = SandboxManager(params, telemetry=tel)
        handle = manager.create_sandbox(heap_bytes=1 << 18)
        manager.invoke(handle, service_cycles=50)
        parsed = json.loads(to_json(tel))
        assert parsed["counters"]["sandbox.invoke"] == 1
        from repro.telemetry import write_csv, write_json
        path = tmp_path / "tel.json"
        write_json(tel, str(path))
        assert json.loads(path.read_text())["counters"]
        write_csv(tel, str(tmp_path / "tel"))
        sandboxes = (tmp_path / "tel_sandboxes.csv").read_text()
        assert str(handle.sandbox_id) in sandboxes
