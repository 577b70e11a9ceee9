"""Intel MPK (protection keys) — the hardware baseline of §6.4.2.

Models the pieces ERIM-style sandboxes rely on:

* 16 protection keys; key 0 is the default domain, so **15 are usable
  for sandboxes** — the hard scaling limit the paper contrasts with
  HFI's unbounded sandbox count (§7).
* ``pkey_mprotect`` tags pages with a key (a syscall).
* ``wrpkru`` switches the active domain set from userspace in ~25
  cycles, slightly cheaper than HFI's enter path because HFI must also
  move region metadata from memory into registers (Fig. 5).

Enforcement itself happens on the CPU's memory path: each access
checks the pkey of every VMA it touches against the process PKRU (see
``AddressSpace.load``/``store``, which ``Cpu._load_ea`` and
``Cpu._store_ea`` call).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..os.address_space import AddressSpace
from ..os.process import Process
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.stats import MpkDomainStats

NUM_KEYS = 16
USABLE_KEYS = NUM_KEYS - 1   # key 0 is the default domain

#: PKRU per-key bits.
AD = 0b01   # access disable
WD = 0b10   # write disable


class MpkError(Exception):
    """Key exhaustion or misuse."""


def pkru_allowing(keys: Set[int]) -> int:
    """Build a PKRU value that grants full access to ``keys`` (and key
    0) and denies everything else."""
    pkru = 0
    for key in range(1, NUM_KEYS):
        if key not in keys:
            pkru |= AD << (2 * key)
    return pkru


def pkru_read_only(keys: Set[int], writable: Set[int]) -> int:
    """Grant read access to ``keys``, write access only to ``writable``."""
    pkru = 0
    for key in range(1, NUM_KEYS):
        if key in writable:
            continue
        if key in keys:
            pkru |= WD << (2 * key)
        else:
            pkru |= AD << (2 * key)
    return pkru


@dataclass
class MpkDomain:
    """One allocated protection key and the ranges tagged with it."""

    key: int
    name: str = ""
    ranges: List = field(default_factory=list)   # (addr, length)


class MpkDomainManager:
    """Allocates keys and tags memory — the pkey_alloc/pkey_mprotect API."""

    def __init__(self, space: AddressSpace,
                 params: MachineParams = DEFAULT_PARAMS):
        self.space = space
        self.params = params
        self._domains: Dict[int, MpkDomain] = {}
        self._free_keys: List[int] = []    # min-heap: lowest key first
        self._next_key = 1
        self._allocs = 0
        self._frees = 0
        self._stale_untags = 0

    def pkey_alloc(self, name: str = "") -> MpkDomain:
        """Allocate a key, preferring recycled ones; raises
        :class:`MpkError` once all 15 are live — the scaling wall the
        paper calls out.  Freed keys return to a free list, so
        alloc/free churn never exhausts the table."""
        if self._free_keys:
            key = heapq.heappop(self._free_keys)
        elif self._next_key < NUM_KEYS:
            key = self._next_key
            self._next_key += 1
        else:
            raise MpkError(
                f"out of protection keys (MPK supports {USABLE_KEYS} "
                f"sandbox domains)")
        domain = MpkDomain(key=key, name=name)
        self._domains[key] = domain
        self._allocs += 1
        return domain

    def pkey_free(self, domain: MpkDomain) -> int:
        """Release a key back to the free pool; returns kernel cycles.

        Any pages still tagged with the key are re-tagged to the
        default domain (``pkey_mprotect(..., 0)``, a syscall per
        range) — Linux's pkey_free leaves tags in place, which is a
        well-known footgun: the next pkey_alloc would hand out a key
        that already grants (or denies) access to a stranger's pages.
        """
        live = self._domains.pop(domain.key, None)
        if live is None:
            return 0                      # double free: no-op, no recycle
        cost = 0
        for addr, length in domain.ranges:
            cost += self.params.syscall_cycles
            cost += self.space.set_pkey(addr, length, 0)
            self._stale_untags += 1
        domain.ranges.clear()
        heapq.heappush(self._free_keys, domain.key)
        self._frees += 1
        return cost

    def pkey_mprotect(self, domain: MpkDomain, addr: int,
                      length: int) -> int:
        """Tag pages with the domain's key; returns cycles (a syscall)."""
        if self._domains.get(domain.key) is not domain:
            raise MpkError(
                f"pkey_mprotect on freed/stale domain key {domain.key}")
        cost = self.params.syscall_cycles
        cost += self.space.set_pkey(addr, length, domain.key)
        domain.ranges.append((addr, length))
        return cost

    @property
    def allocated(self) -> List[MpkDomain]:
        return list(self._domains.values())

    def stats(self) -> MpkDomainStats:
        """Uniform component-stats snapshot (``repro.telemetry``).

        ``leaked_keys`` is the lifecycle invariant: keys handed out
        that are neither live nor on the free list.  It is 0 under the
        recycling allocator; any regression to increment-only key
        handout makes it positive under churn.
        """
        handed_out = self._next_key - 1
        return MpkDomainStats(
            component="mpk-domains",
            allocated=len(self._domains),
            free_keys=len(self._free_keys),
            allocs=self._allocs,
            frees=self._frees,
            stale_untags=self._stale_untags,
            leaked_keys=(handed_out - len(self._domains)
                         - len(self._free_keys)))


class MpkSandboxSwitcher:
    """ERIM-style userspace domain switching for a process.

    ``enter``/``exit`` model the wrpkru (+ lfence, to stop the switch
    being speculated past) sequence; costs come from params so Fig. 5's
    HFI-vs-MPK gap is reproducible.
    """

    def __init__(self, process: Process,
                 params: MachineParams = DEFAULT_PARAMS):
        self.process = process
        self.params = params
        self.switches = 0
        self._saved_pkru: List[int] = []
        # deferred import: repro.runtime pulls in the serving stack
        from ..runtime.transitions import TransitionModel
        self._transitions = TransitionModel(params)

    def switch_cost(self) -> int:
        # one ERIM gate — the shared formula in TransitionModel
        return self._transitions.mpk_switch_cost()

    def enter(self, allowed_keys: Set[int]) -> int:
        """Switch into a sandbox domain, saving the caller's PKRU so
        :meth:`exit` restores the caller's *view*, not a
        grant-everything mask.  Nests like a call stack."""
        self._saved_pkru.append(self.process.pkru)
        self.process.pkru = pkru_allowing(allowed_keys)
        self.switches += 1
        return self.switch_cost()

    def exit(self) -> int:
        """Restore the PKRU saved by the matching :meth:`enter`.

        The old behaviour — resetting to ``pkru_allowing(all keys)`` —
        meant the first exit left the process able to touch *every*
        sandbox domain, the exact confused-deputy hole MPK gates exist
        to close.
        """
        if not self._saved_pkru:
            raise MpkError("MpkSandboxSwitcher.exit without a matching "
                           "enter (no saved PKRU)")
        self.process.pkru = self._saved_pkru.pop()
        self.switches += 1
        return self.switch_cost()

    @property
    def depth(self) -> int:
        """Current enter/exit nesting depth."""
        return len(self._saved_pkru)
