"""The last-access hit path is exact.

A repeat access to a cache's or the dTLB's latest line or page counts
its hit without touching LRU order (the ``_last`` marker).  These tests
hold the marker to a plain LRU model that has none:

* at random, on a tiny L1D (2 sets x 2 ways) and a 4-entry dTLB, across
  every path that reads or changes them (``Cache.access``,
  ``InOrderTiming._side_effects``, ``Tlb.access``, ``flush_line``,
  ``flush_all`` and ``shootdown``), comparing ordered contents and
  counters after every step;
* on a speculation-heavy golden workload, replaying every committed
  and wrong-path fetch through a model L1I under both timing models.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.timing import TIMING_MODELS, InOrderTiming
from repro.cpu import Cpu
from repro.params import MachineParams
from repro.wasm import HfiStrategy, WasmRuntime
from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS


class LruModel:
    """Set-associative LRU with no last-access marker."""

    def __init__(self, n_sets, ways, line_bytes):
        self.n_sets = n_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = [[] for _ in range(n_sets)]   # LRU first
        self.hits = 0
        self.misses = 0

    @classmethod
    def like(cls, cache):
        """A model holding ``cache``'s current contents and counters."""
        model = cls(cache.n_sets, cache.ways, cache.line_bytes)
        model.sets = contents(cache)
        model.hits, model.misses = cache._hits, cache._misses
        return model

    def _locate(self, addr):
        line = addr // self.line_bytes
        return self.sets[line % self.n_sets], line // self.n_sets

    def access(self, addr):
        ways, tag = self._locate(addr)
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(tag)
        self.misses += 1
        return False

    def flush_line(self, addr):
        ways, tag = self._locate(addr)
        if tag in ways:
            ways.remove(tag)

    def flush_all(self):
        for ways in self.sets:
            ways.clear()


def contents(cache):
    return [list(ways) for ways in cache._sets]


def tiny_cpu():
    params = MachineParams().with_overrides(l1d_sets=2, l1d_ways=2,
                                            dtlb_entries=4)
    cpu = Cpu(params)
    assert type(cpu.timing) is InOrderTiming
    return cpu


def data_side_models(cpu):
    params = cpu.params
    l1d = LruModel(params.l1d_sets, params.l1d_ways, params.line_bytes)
    l2 = LruModel(params.l1d_sets * 16, params.l1d_ways, params.line_bytes)
    tlb = LruModel(1, params.dtlb_entries, params.page_bytes)
    return l1d, l2, tlb


def model_latency(cpu, l1d, l2, tlb, ea):
    """What ``_side_effects`` must return, from the models."""
    params = cpu.params
    cost = 0 if tlb.access(ea) else params.dtlb_miss_cycles
    if l1d.access(ea):
        return cost + params.l1d_hit_cycles
    if l2.access(ea):
        return cost + params.l2_hit_cycles
    return cost + params.mem_cycles


#: Five pages, two lines each, three offsets: 10 lines over 2 sets of
#: 2 ways and 5 pages over 4 dTLB entries.  -1 takes the latest
#: address again (the repeat the marker short-cuts), -2 and -3 an
#: earlier one (hits the marker must not take).
_line = st.builds(lambda page, line, off: page * 4096 + line * 64 + off,
                  st.integers(0, 4), st.integers(0, 1),
                  st.sampled_from([0, 8, 63]))
_addr = st.one_of(st.sampled_from([-1, -2, -3]), _line)
#: Weighted towards accesses, so sets fill and hit between flushes;
#: ``flush_all`` and ``shootdown`` ignore the address.
_KINDS = ("access", "access") + ("side_effects",) * 5 + (
    "tlb", "tlb", "flush_line", "flush_all", "shootdown")
_ops = st.lists(st.tuples(st.sampled_from(_KINDS), _addr),
                min_size=10, max_size=80)


@settings(max_examples=500, deadline=None)
@given(_ops)
def test_marker_matches_plain_lru(ops):
    cpu = tiny_cpu()
    caches, tlb = cpu.caches, cpu.tlb
    m_l1d, m_l2, m_tlb = data_side_models(cpu)
    history = [0, 0, 0]
    for kind, addr in ops:
        if addr < 0:
            addr = history[addr]
        history.append(addr)
        if kind == "access":
            assert caches.l1d.access(addr) == m_l1d.access(addr)
        elif kind == "side_effects":
            expected = model_latency(cpu, m_l1d, m_l2, m_tlb, addr)
            assert cpu.timing._side_effects(addr) == expected
        elif kind == "tlb":
            m_tlb.access(addr)
            tlb.access(addr)
        elif kind == "flush_line":
            caches.flush_line(addr)
            m_l1d.flush_line(addr)
            m_l2.flush_line(addr)
        elif kind == "flush_all":
            caches.flush_all()
            m_l1d.flush_all()
            m_l2.flush_all()
        else:
            tlb.shootdown()
            m_tlb.flush_all()
        for cache, model in ((caches.l1d, m_l1d), (caches.l2, m_l2)):
            assert contents(cache) == model.sets
            assert (cache._hits, cache._misses) == (model.hits,
                                                    model.misses)
        assert list(tlb._pages) == m_tlb.sets[0]
        assert (tlb._hits, tlb._misses) == (m_tlb.hits, m_tlb.misses)


class FetchLog:
    """A tracer keeping every fetched pc, committed and wrong-path, in
    fetch order."""

    def __init__(self):
        self.pcs = []

    def record(self, addr, ins, hfi_enabled, speculative=False):
        self.pcs.append(addr)


@pytest.mark.parametrize("timing", TIMING_MODELS)
def test_l1i_matches_a_replay_of_every_fetch(timing):
    """Golden ``sightglass_switch_hfi`` runs about three wrong-path
    instructions per committed one, so both fetch loops feed the L1I."""
    runtime = WasmRuntime(timing=timing)
    instance = runtime.instantiate(SIGHTGLASS_BENCHMARKS["switch"](1),
                                   HfiStrategy())
    cpu = runtime.cpu
    l1i = cpu.caches.l1i
    model = LruModel.like(l1i)
    accesses = l1i._hits + l1i._misses
    log = FetchLog()
    cpu.tracer = log
    assert runtime.run(instance).reason == "hlt"
    stats = cpu.stats
    assert stats.speculative_instructions > 2 * stats.instructions
    assert len(log.pcs) == stats.instructions + stats.speculative_instructions
    for pc in log.pcs:
        model.access(pc)
    assert l1i._hits + l1i._misses - accesses == len(log.pcs)
    assert contents(l1i) == model.sets
    assert (l1i._hits, l1i._misses) == (model.hits, model.misses)
