"""A Wasmtime-style pooling instance allocator.

Production FaaS runtimes pre-reserve a pool of instance slots and
recycle them between requests: acquiring a slot is a free-list pop;
releasing it discards the dirtied memory with madvise (or, with the
HFI batching optimization of §5.1, defers and batches the discards).
This is the machinery behind the paper's §6.3.1 experiment, exposed as
a reusable component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..os.address_space import AddressSpace
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import PoolStats, ShardedPoolStats
from ..wasm.strategies import IsolationStrategy

#: Bytes written/read back by the scrub's poison-verify pass.
SCRUB_PROBE_BYTES = 256
SCRUB_POISON = 0x5A
#: Width of the word at the top of a slot's heap that holds a canary.
CANARY_BYTES = 8


@dataclass
class PoolSlot:
    index: int
    heap_base: int
    heap_bytes: int
    in_use: bool = False
    dirty: bool = False
    quarantined: bool = False
    #: The top word of the slot's heap.  Whatever a serving executor
    #: leaves there must still be there after the guest ran; anything
    #: else means the guest escaped its heap.
    canary_address: int = field(init=False, repr=False)

    def __post_init__(self):
        self.canary_address = self.heap_base + self.heap_bytes - CANARY_BYTES


class InstancePool:
    """Fixed-capacity pool of sandbox memory slots."""

    def __init__(self, space: AddressSpace,
                 strategy: IsolationStrategy, *, slots: int,
                 heap_bytes: int,
                 params: MachineParams = DEFAULT_PARAMS,
                 batch_teardown: bool = False,
                 telemetry: Optional[Telemetry] = None):
        self.space = space
        self.strategy = strategy
        self.params = params
        self.batch_teardown = batch_teardown
        self.slots: List[PoolSlot] = []
        self._free: List[int] = []
        self._pending_discard: List[PoolSlot] = []
        self._quarantined: List[int] = []
        # Optional sanitizer probe (repro.verify.invariants.PoolInvariants);
        # None in production runs so the hot paths stay branch-cheap.
        self.invariants = None
        self.setup_cycles = 0
        self.recycle_cycles = 0
        self.acquires = 0
        self.releases = 0
        self.batched_flushes = 0
        self.quarantines = 0
        self.scrubs = 0
        self.scrub_failures = 0
        for i in range(slots):
            base, cost = strategy.reserve_memory(
                space, heap_bytes, name=f"pool-slot{i}")
            self.setup_cycles += cost + 2 * params.syscall_cycles
            self.slots.append(PoolSlot(i, base, heap_bytes))
            self._free.append(i)
        coalesce(telemetry).register_component("pool", self.stats)

    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        return len(self._free)

    def acquire(self) -> Optional[PoolSlot]:
        """Pop a clean slot; None if the pool is exhausted."""
        if not self._free:
            return None
        slot = self.slots[self._free.pop()]
        slot.in_use = True
        self.acquires += 1
        if self.invariants is not None:
            self.invariants.on_acquire(self, slot)
        return slot

    def release(self, slot: PoolSlot) -> int:
        """Return a slot; discards (or defers discarding) its memory.

        Returns the cycles charged *now* — with batching enabled the
        zap is deferred to :meth:`flush_discards`."""
        if not slot.in_use:
            raise ValueError(f"slot {slot.index} not in use")
        slot.in_use = False
        slot.dirty = True
        self.releases += 1
        if self.batch_teardown:
            # The slot stays OFF the free list until flush_discards has
            # actually zapped its memory.  Handing it out earlier lets a
            # re-acquired live instance's heap be discarded by a later
            # flush — the dirty-slot recycling bug.
            self._pending_discard.append(slot)
            if self.invariants is not None:
                self.invariants.on_release(self, slot, batched=True)
            return 0
        cost = (self.params.syscall_cycles
                + self.space.madvise_dontneed(slot.heap_base,
                                              slot.heap_bytes))
        slot.dirty = False
        self._free.append(slot.index)
        self.recycle_cycles += cost
        if self.invariants is not None:
            self.invariants.on_release(self, slot, batched=False)
        return cost

    def flush_discards(self) -> int:
        """One batched madvise across all pending slots (§5.1).

        Spans from the lowest to the highest pending heap — with guard
        pages between slots the span necessarily covers them, which is
        what makes batching unprofitable without HFI."""
        if not self._pending_discard:
            return 0
        begin = min(s.heap_base for s in self._pending_discard)
        end = max(s.heap_base + s.heap_bytes
                  + self.strategy.guard_bytes
                  for s in self._pending_discard)
        cost = (self.params.syscall_cycles
                + self.space.madvise_dontneed(begin, end - begin))
        flushed = self._pending_discard
        self._pending_discard = []
        for slot in flushed:
            slot.dirty = False
            self._free.append(slot.index)
        if self.invariants is not None:
            self.invariants.on_flush(self, flushed)
        self.recycle_cycles += cost
        self.batched_flushes += 1
        return cost

    # ------------------------------------------------------------------
    # quarantine: the serving loop's fault containment path
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> int:
        return len(self._quarantined)

    def quarantine(self, slot: PoolSlot) -> None:
        """Pull a slot out of circulation after a fault touched it.

        A quarantined slot sits on neither the free list nor the
        pending-discard batch; it only returns to service through
        :meth:`scrub`, which poison-verifies the mapping first.
        Idempotent, and accepts slots in any state (in-use at fault
        time, already released, or pending a batched discard).
        """
        if slot.quarantined:
            return
        slot.in_use = False
        slot.dirty = True
        slot.quarantined = True
        if slot.index in self._free:
            self._free.remove(slot.index)
        self._pending_discard = [s for s in self._pending_discard
                                 if s is not slot]
        self._quarantined.append(slot.index)
        self.quarantines += 1
        if self.invariants is not None:
            self.invariants.on_quarantine(self, slot)

    def scrub(self, slot: PoolSlot) -> int:
        """Poison-verify a quarantined slot and return it to the free
        list.  Returns the cycles charged.

        The verify pass is the §3.3.2 trust boundary made mechanical:
        discard the (possibly corrupted) contents, write a poison
        pattern and read it back to prove the mapping is still sane
        RW memory, then discard again so the next instance observes a
        zero-filled heap.  A slot that fails verification stays
        quarantined (``scrub_failures``) rather than re-entering
        service.
        """
        if not slot.quarantined:
            raise ValueError(f"slot {slot.index} is not quarantined")
        probe = min(SCRUB_PROBE_BYTES, slot.heap_bytes)
        pattern = bytes([SCRUB_POISON]) * probe
        cost = (self.params.syscall_cycles
                + self.space.madvise_dontneed(slot.heap_base,
                                              slot.heap_bytes))
        self.space.write_bytes(slot.heap_base, pattern, check=False)
        verified = (self.space.read_bytes(slot.heap_base, probe,
                                          check=False) == pattern)
        cost += (self.params.syscall_cycles
                 + self.space.madvise_dontneed(slot.heap_base,
                                               slot.heap_bytes))
        verified = verified and (self.space.read_bytes(
            slot.heap_base, probe, check=False) == bytes(probe))
        cost += 4 * probe // 64  # the two write+read probe sweeps
        if not verified:
            self.scrub_failures += 1
            return cost
        self._quarantined.remove(slot.index)
        slot.quarantined = False
        slot.dirty = False
        self._free.append(slot.index)
        self.scrubs += 1
        self.recycle_cycles += cost
        if self.invariants is not None:
            self.invariants.on_scrub(self, slot)
        return cost

    def scrub_all(self) -> int:
        """Scrub every quarantined slot; returns total cycles."""
        total = 0
        for index in list(self._quarantined):
            total += self.scrub(self.slots[index])
        return total

    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return PoolStats(
            component="pool", slots=len(self.slots),
            available=self.available, acquires=self.acquires,
            releases=self.releases, batched_flushes=self.batched_flushes,
            setup_cycles=self.setup_cycles,
            recycle_cycles=self.recycle_cycles,
            pending_discards=len(self._pending_discard),
            quarantined=self.quarantined,
            quarantines=self.quarantines,
            scrubs=self.scrubs,
            scrub_failures=self.scrub_failures)


class ShardedInstancePool:
    """Per-core pool shards with work-stealing: the serving node's pool.

    Production serving runtimes shard the instance pool per worker
    core so the hot acquire/release path touches only core-local state
    (no cross-core contention in the real system; here, a faithful
    accounting of where slots come from).  When a core's shard runs
    dry it *steals* a slot from the richest other shard — the
    Firecracker/Faasm serving shape the discrete-event simulator in
    :mod:`repro.runtime.serving` drives at load.

    Every slot keeps the :class:`InstancePool` lifecycle (batched
    discards, quarantine, poison-verify scrub); this class adds the
    placement policy on top and accounts the cycles the rebalancing
    costs (flushes and scrubs triggered by a dry acquire are charged
    to the acquiring core).
    """

    def __init__(self, space: AddressSpace, strategy: IsolationStrategy,
                 *, shards: int, slots_per_shard: int, heap_bytes: int,
                 params: MachineParams = DEFAULT_PARAMS,
                 batch_teardown: bool = False,
                 telemetry: Optional[Telemetry] = None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.space = space
        self.params = params
        self.shards: List[InstancePool] = [
            InstancePool(space, strategy, slots=slots_per_shard,
                         heap_bytes=heap_bytes, params=params,
                         batch_teardown=batch_teardown)
            for _ in range(shards)]
        self.local_acquires = 0
        self.steals = 0
        self.exhausted = 0
        self.dry_flushes = 0
        self.scrub_rescues = 0
        coalesce(telemetry).register_component("sharded-pool", self.stats)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def total_slots(self) -> int:
        return sum(len(s.slots) for s in self.shards)

    @property
    def available(self) -> int:
        return sum(s.available for s in self.shards)

    @property
    def quarantined(self) -> int:
        return sum(s.quarantined for s in self.shards)

    def shard_available(self) -> List[int]:
        return [s.available for s in self.shards]

    # ------------------------------------------------------------------
    def acquire(self, shard: int) -> Tuple[Optional[PoolSlot], int, int]:
        """Acquire a slot for core ``shard``.

        Returns ``(slot, owner_shard, cycles)`` — ``owner_shard`` is
        where the slot must be released back to, and ``cycles`` is the
        rebalancing work charged now (batched-discard flushes or
        quarantine scrubs a dry pool forced).  ``slot`` is None only
        when every shard is exhausted beyond rescue.
        """
        cycles = 0
        local = self.shards[shard]
        slot = local.acquire()
        if slot is None and local._pending_discard:
            cycles += local.flush_discards()
            self.dry_flushes += 1
            slot = local.acquire()
        if slot is not None:
            self.local_acquires += 1
            return slot, shard, cycles
        # local shard dry: steal from the richest other shard
        victim = self._richest_other(shard)
        if victim is not None:
            slot = self.shards[victim].acquire()
            if slot is not None:
                self.steals += 1
                return slot, victim, cycles
        # everything dry: flush every pending discard, then steal again
        for index, other in enumerate(self.shards):
            if other._pending_discard:
                cycles += other.flush_discards()
                self.dry_flushes += 1
        order = [shard] + [i for i in range(self.n_shards) if i != shard]
        for index in order:
            slot = self.shards[index].acquire()
            if slot is not None:
                if index == shard:
                    self.local_acquires += 1
                else:
                    self.steals += 1
                return slot, index, cycles
        # last resort: scrub quarantined slots back into service
        for index in order:
            pool = self.shards[index]
            if pool.quarantined:
                cycles += pool.scrub_all()
                self.scrub_rescues += 1
                slot = pool.acquire()
                if slot is not None:
                    return slot, index, cycles
        self.exhausted += 1
        return None, shard, cycles

    def _richest_other(self, shard: int) -> Optional[int]:
        best, best_avail = None, 0
        for index, pool in enumerate(self.shards):
            available = len(pool._free)
            if available > best_avail and index != shard:
                best, best_avail = index, available
        return best

    # ------------------------------------------------------------------
    def release(self, slot: PoolSlot, owner: int) -> int:
        return self.shards[owner].release(slot)

    def quarantine(self, slot: PoolSlot, owner: int) -> None:
        self.shards[owner].quarantine(slot)

    def flush_all(self) -> int:
        return sum(s.flush_discards() for s in self.shards)

    def scrub_all(self) -> int:
        return sum(s.scrub_all() for s in self.shards)

    # ------------------------------------------------------------------
    def stats(self) -> ShardedPoolStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return ShardedPoolStats(
            component="sharded-pool",
            shards=self.n_shards,
            slots=self.total_slots,
            available=self.available,
            local_acquires=self.local_acquires,
            steals=self.steals,
            exhausted=self.exhausted,
            dry_flushes=self.dry_flushes,
            scrub_rescues=self.scrub_rescues,
            quarantined=sum(s.quarantined for s in self.shards),
            recycle_cycles=sum(s.recycle_cycles for s in self.shards),
            setup_cycles=sum(s.setup_cycles for s in self.shards))
