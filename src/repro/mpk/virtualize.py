"""MPK protection-key virtualization — what it costs to push the
15-key hardware past its wall (paper §7, Fig. 5's scaling argument).

HFI's contrast claim is not that MPK *cannot* host thousands of
domains but that doing so stops being cheap: with more live domains
than keys, a runtime must virtualize keys libmpk-style (Park et al.,
ATC '19) — treat the 15 usable pkeys as a cache of the domain set and,
on a switch to a non-resident domain, *steal* the least-recently-used
key:

1. untag the evicted domain's pages (``pkey_mprotect(..., 0)`` per
   range — a syscall each, or the evicted domain silently shares the
   thief's access rights),
2. retag the incoming domain's pages with the stolen key (another
   ``pkey_mprotect`` per range), and
3. rewrite PKRU through the usual ERIM gate.

Steps 1-2 are kernel work proportional to the domains' mapped pages;
step 3 is the flat wrpkru cost every switch pays.  Below 16 live
domains every switch is a hit and MPK is a flat ~65-cycle gate; past
16 the miss rate — and with it the mean switch cost — grows with the
domain count, while HFI's per-transition cost never changes.  That
knee is exactly what ``benchmarks/test_domain_scaling.py`` gates.

The eviction path deliberately runs through
:meth:`MpkDomainManager.pkey_free`/:meth:`~MpkDomainManager.pkey_alloc`,
so thousands of steals exercise the repaired key-recycling free list:
under the old increment-only allocator the 16th steal raised
:class:`MpkError`, and freed keys kept their stale page tags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..os.address_space import AddressSpace, Prot
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.stats import MpkVirtStats
from .domains import USABLE_KEYS, MpkDomain, MpkDomainManager, MpkError


@dataclass
class VirtualDomain:
    """One sandbox domain under virtualization: its memory ranges and,
    when resident, the physical key currently standing in for it."""

    vid: int
    name: str = ""
    ranges: List[Tuple[int, int]] = field(default_factory=list)
    physical: Optional[MpkDomain] = None
    last_used: int = 0

    @property
    def resident(self) -> bool:
        return self.physical is not None


class MpkKeyVirtualizer:
    """Unbounded MPK domains over the 15-key hardware table.

    ``create_domain`` registers a domain (no key consumed until first
    use); ``switch_to`` returns the cycle cost of making the domain
    active — a bare ERIM gate on a residency hit, gate + key steal
    (untag + retag syscalls over real :class:`AddressSpace` pages) on
    a miss.
    """

    def __init__(self, space: AddressSpace,
                 params: MachineParams = DEFAULT_PARAMS):
        self.space = space
        self.params = params
        self.manager = MpkDomainManager(space, params)
        from ..runtime.transitions import TransitionModel
        self._transitions = TransitionModel(params)
        self._domains: Dict[int, VirtualDomain] = {}
        self._next_vid = 1
        self._tick = 0
        self.switches = 0
        self.hits = 0
        self.misses = 0
        self.key_steals = 0
        self.retag_cycles = 0

    # ------------------------------------------------------------------
    def create_domain(self, name: str = "",
                      ranges: Optional[List[Tuple[int, int]]] = None
                      ) -> VirtualDomain:
        """Register a virtual domain over ``ranges`` (addr, length).

        No physical key is consumed until the domain is first switched
        to — that's the whole point of virtualizing.
        """
        domain = VirtualDomain(vid=self._next_vid, name=name,
                               ranges=list(ranges or []))
        self._domains[domain.vid] = domain
        self._next_vid += 1
        return domain

    def destroy_domain(self, domain: VirtualDomain) -> int:
        """Unregister a domain; frees its physical key if resident."""
        cost = 0
        if domain.physical is not None:
            cost += self.manager.pkey_free(domain.physical)
            domain.physical = None
        self._domains.pop(domain.vid, None)
        return cost

    @property
    def domains(self) -> List[VirtualDomain]:
        return list(self._domains.values())

    @property
    def resident(self) -> List[VirtualDomain]:
        return [d for d in self._domains.values() if d.resident]

    # ------------------------------------------------------------------
    def switch_to(self, domain: VirtualDomain) -> int:
        """Make ``domain`` the active sandbox domain; returns cycles.

        Every switch pays the ERIM gate (wrpkru + validation + fence).
        A non-resident domain additionally pays the key steal: evict
        the LRU resident domain (untag its pages), then bind and retag
        the incoming domain under the recycled key.
        """
        if domain.vid not in self._domains:
            raise MpkError(f"switch to destroyed domain {domain.vid}")
        self._tick += 1
        self.switches += 1
        cost = self._transitions.mpk_switch_cost()
        if domain.resident:
            self.hits += 1
        else:
            self.misses += 1
            cost += self._make_resident(domain)
        domain.last_used = self._tick
        return cost

    def _make_resident(self, domain: VirtualDomain) -> int:
        """Bind a physical key to ``domain``, stealing one if the
        hardware table is full; returns the kernel-side cycle cost."""
        cost = 0
        if len(self.manager.allocated) >= USABLE_KEYS:
            victim = min(self.resident, key=lambda d: d.last_used)
            # pkey_free untags the victim's pages (syscalls) and
            # recycles the key through the repaired free list
            cost += self.manager.pkey_free(victim.physical)
            victim.physical = None
            self.key_steals += 1
        physical = self.manager.pkey_alloc(domain.name)
        for addr, length in domain.ranges:
            cost += self.manager.pkey_mprotect(physical, addr, length)
        domain.physical = physical
        self.retag_cycles += cost
        return cost

    # ------------------------------------------------------------------
    def stats(self) -> MpkVirtStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return MpkVirtStats(
            component="mpk-virtualizer",
            domains=len(self._domains),
            resident=len(self.resident),
            switches=self.switches,
            hits=self.hits,
            misses=self.misses,
            key_steals=self.key_steals,
            retag_cycles=self.retag_cycles)


# ----------------------------------------------------------------------
# the Fig. 5-analogue measurement: cost/transition vs domain count
# ----------------------------------------------------------------------
def measure_switch_costs(n_domains: int, n_switches: int, *,
                         seed: int = 0, pages_per_domain: int = 1,
                         params: MachineParams = DEFAULT_PARAMS) -> Dict:
    """One sweep point: mean per-transition cost over ``n_switches``
    seeded uniform-random switches across ``n_domains`` live domains.

    MPK switches run through :class:`MpkKeyVirtualizer` against a real
    :class:`AddressSpace` (every domain owns mapped pages, every steal
    pays real ``pkey_mprotect`` walks).  The HFI column prices the
    same transitions through
    :class:`~repro.runtime.transitions.TransitionModel` — serialized
    ``hfi_enter``/``hfi_exit`` with the metadata moves — which never
    reads the domain count, so its line is flat by construction *and*
    the sweep verifies it stays flat after any cost-model change.
    """
    from ..runtime.transitions import TransitionModel

    space = AddressSpace(params)
    virt = MpkKeyVirtualizer(space, params)
    span = pages_per_domain * params.page_bytes
    domains = []
    for i in range(n_domains):
        base = space.mmap(span, Prot.rw(), name=f"dom{i}")
        domains.append(virt.create_domain(f"dom{i}", [(base, span)]))
    transitions = TransitionModel(params)
    rng = random.Random((seed << 8) ^ 0xD0A1)
    # warm-up: touch every domain once so the measured phase sees
    # steady state — below the 15-key wall that leaves every domain
    # resident (zero capacity misses); above it the cache stays full
    # and only capacity misses remain.
    for domain in domains:
        virt.switch_to(domain)
    warm_stats = virt.stats()
    warm_retags = virt.retag_cycles
    mpk_total = 0
    hfi_total = 0
    for _ in range(n_switches):
        domain = domains[rng.randrange(n_domains)]
        mpk_total += virt.switch_to(domain)
        hfi_total += (transitions.hfi_enter_cost(serialized=True)
                      + transitions.hfi_exit_cost(serialized=True))
    stats = virt.stats()
    manager = virt.manager.stats()
    gate = transitions.mpk_switch_cost()
    mpk_mean = mpk_total / n_switches
    misses = stats.misses - warm_stats.misses
    return {
        "domains": n_domains,
        "switches": n_switches,
        "mpk_mean_cycles": mpk_mean,
        "mpk_gate_cycles": gate,
        "virtualization_overhead_cycles": mpk_mean - gate,
        "hfi_mean_cycles": hfi_total / n_switches,
        "miss_rate": misses / n_switches,
        "key_steals": stats.key_steals - warm_stats.key_steals,
        "retag_cycles": virt.retag_cycles - warm_retags,
        "key_allocs": manager.allocs,
        "key_frees": manager.frees,
        "leaked_keys": manager.leaked_keys,
    }
