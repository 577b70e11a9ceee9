"""Set-associative caches with LRU replacement and visible timing.

Two properties carry the security story (paper §4.1):

* Speculative loads that *pass* HFI's checks fill the cache — that is
  the Spectre transmission channel flush+reload observes.
* Loads that *fail* HFI's checks never reach the cache: all bounds
  checks resolve before the physical address does, so no metadata (not
  even LRU bits) changes on a fault.

The simulator enforces the second property simply by never calling
:meth:`Cache.access` for a faulting access.

Statistics follow the uniform component-stats API: ``cache.stats()``
returns a :class:`repro.telemetry.CacheStats` snapshot (the legacy
``cache.stats.hits`` read-through shim is gone).  Counters stay plain
ints on the hot path — the telemetry layer samples
them at snapshot time instead of intercepting every access.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.stats import CacheStats


class Cache:
    """One level of set-associative cache, LRU within each set.

    ``_last``, the line of the latest access, is its set's most recent:
    the CPU's hot paths count a repeat access to it as a hit without
    touching ``_sets``.  :meth:`access` sets it; the flushes clear it.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int = 64,
                 name: str = "cache"):
        self.name = name
        self.n_sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        # Each set is an insertion-ordered dict of tag -> True; the
        # first key is the LRU victim.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(sets)]
        self._last = -1
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # uniform stats API
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        return CacheStats(component=self.name, hits=self._hits,
                          misses=self._misses)

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def lookup(self, addr: int) -> bool:
        """Probe without updating replacement state (telemetry only)."""
        set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def access(self, addr: int) -> bool:
        """Access a line: returns True on hit.  Fills on miss."""
        line = addr // self.line_bytes          # _locate, inlined: this
        n_sets = self.n_sets                    # runs once per simulated
        tag = line // n_sets                    # memory access
        ways = self._sets[line % n_sets]
        self._last = line
        if tag in ways:
            # refresh LRU position
            del ways[tag]
            ways[tag] = True
            self._hits += 1
            return True
        if len(ways) >= self.ways:
            victim = next(iter(ways))
            del ways[victim]
        ways[tag] = True
        self._misses += 1
        return False

    def flush_line(self, addr: int) -> None:
        """clflush: evict the line containing ``addr`` if present."""
        set_idx, tag = self._locate(addr)
        self._sets[set_idx].pop(tag, None)
        self._last = -1

    def flush_all(self) -> None:
        for ways in self._sets:
            ways.clear()
        self._last = -1


class CacheHierarchy:
    """L1 + unified L2 in front of memory; returns access latencies.

    The latencies are what ``rdtsc``-timed probe loops observe — the
    measurement Fig. 7 plots.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS):
        self.params = params
        self.l1d = Cache(params.l1d_sets, params.l1d_ways,
                         params.line_bytes, name="l1d")
        self.l1i = Cache(params.l1i_sets, params.l1i_ways,
                         params.line_bytes, name="l1i")
        self.l2 = Cache(params.l1d_sets * 16, params.l1d_ways,
                        params.line_bytes, name="l2")

    def stats(self) -> List[CacheStats]:
        """Snapshots for every level, in probe order."""
        return [self.l1d.stats(), self.l1i.stats(), self.l2.stats()]

    def data_access(self, addr: int) -> int:
        """Load/store timing: L1 hit, L2 hit, or memory."""
        if self.l1d.access(addr):
            return self.params.l1d_hit_cycles
        if self.l2.access(addr):
            return self.params.l2_hit_cycles
        return self.params.mem_cycles

    def fetch_access(self, addr: int) -> int:
        """Instruction-fetch timing."""
        if self.l1i.access(addr):
            return self.params.l1i_hit_cycles
        if self.l2.access(addr):
            return self.params.l1i_miss_cycles
        return self.params.mem_cycles

    def flush_line(self, addr: int) -> None:
        self.l1d.flush_line(addr)
        self.l2.flush_line(addr)

    def flush_all(self) -> None:
        self.l1d.flush_all()
        self.l1i.flush_all()
        self.l2.flush_all()
