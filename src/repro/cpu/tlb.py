"""A small fully-associative data TLB with LRU replacement.

HFI's region checks run *in parallel* with the dtb lookup (paper
Fig. 1), so an HFI-checked access pays no extra latency over the TLB
path — the simulator models this by charging the TLB cost identically
whether or not HFI is enabled.

``tlb.stats()`` returns a :class:`repro.telemetry.TlbStats` snapshot
(the legacy ``tlb.hits`` / ``tlb.misses`` raw attributes are gone;
the underscored counters remain plain ints on the hot path).
"""

from __future__ import annotations

from typing import Dict

from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.stats import TlbStats


class Tlb:
    """Page-granular translation cache.

    ``_last`` (the latest page, so the most recent) works as
    :class:`~repro.cpu.cache.Cache`'s does; a shootdown clears it.
    """

    def __init__(self, params: MachineParams = DEFAULT_PARAMS):
        self.params = params
        self.entries = params.dtlb_entries
        self._pages: Dict[int, bool] = {}
        self._last = -1
        self._hits = 0
        self._misses = 0
        self._shootdowns = 0

    # ------------------------------------------------------------------
    # uniform stats API
    # ------------------------------------------------------------------
    def stats(self) -> TlbStats:
        return TlbStats(component="dtlb", hits=self._hits,
                        misses=self._misses, shootdowns=self._shootdowns)

    def access(self, addr: int) -> int:
        """Translate; returns added latency (0 on hit, walk cost on miss)."""
        page = addr // self.params.page_bytes
        self._last = page
        if page in self._pages:
            del self._pages[page]
            self._pages[page] = True
            self._hits += 1
            return 0
        if len(self._pages) >= self.entries:
            victim = next(iter(self._pages))
            del self._pages[victim]
        self._pages[page] = True
        self._misses += 1
        return self.params.dtlb_miss_cycles

    def shootdown(self) -> None:
        """Invalidate everything (munmap/madvise in concurrent mode)."""
        self._pages.clear()
        self._last = -1
        self._shootdowns += 1
