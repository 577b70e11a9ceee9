"""Sanitizer-style invariant checkers, armed behind explicit flags.

Nothing here runs unless a test or the ``repro-hfi verify`` CLI
installs it, so the simulator's default costs and behavior are
untouched.  Three probes:

* :class:`PoolInvariants` — a MemorySanitizer analogue for the pooling
  allocator.  A slot's heap is *dead* from ``release`` until the next
  ``acquire``: the probe poisons a prefix of the dead heap with
  ``0xA5`` and intercepts the address space's read paths, so any read
  of a dead slot's memory raises :class:`PoisonedReadError` at the
  exact access instead of silently consuming stale (or about-to-be-
  discarded) bytes.  It also re-checks free-list/``in_use``/
  ``_pending_discard`` consistency on every transition — the fixed
  dirty-slot recycling bug (a batched ``release`` parking the slot on
  the free list before ``flush_discards`` zapped it) is precisely a
  violation of these invariants.

* :class:`SpeculationIdentityProbe` — asserts that a speculation
  squash restores architectural state *in place*: ``cpu.regs``,
  ``cpu.regs.regs``, ``cpu.regs.flags``, ``cpu.hfi``, ``cpu.hfi.regs``
  and ``process.hfi_state`` must be the same objects after rollback
  that they were at window open (the historical deepcopy-and-swap
  squash broke all of these aliases).

* :func:`check_pool` — standalone structural audit of an
  :class:`~repro.runtime.pool.InstancePool`, usable without arming the
  poisoner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

POISON_BYTE = 0xA5
#: Poison only a bounded prefix of each dead heap so arming the
#: sanitizer on big pools stays cheap; the *recorded* poisoned range
#: covers the whole heap, so reads anywhere in it are still caught.
POISON_PREFIX_BYTES = 256


class InvariantViolation(AssertionError):
    """A checked structural invariant does not hold."""


class PoisonedReadError(InvariantViolation):
    """A read touched the heap of a released (dead) pool slot."""


def check_pool(pool) -> List[str]:
    """Audit free-list/``in_use``/``_pending_discard``/quarantine
    consistency.

    Returns a list of human-readable violations (empty when sound).
    """
    problems: List[str] = []
    free = list(pool._free)
    pending = [slot.index for slot in pool._pending_discard]
    quarantined = list(getattr(pool, "_quarantined", []))
    if len(set(free)) != len(free):
        problems.append(f"free list has duplicates: {sorted(free)}")
    for index in free:
        if pool.slots[index].in_use:
            problems.append(f"slot {index} is both free and in_use")
    for index in pending:
        if index in free:
            problems.append(
                f"slot {index} is pending discard but already on the "
                f"free list (dirty-slot recycling)")
        if pool.slots[index].in_use:
            problems.append(f"slot {index} is pending discard but in_use")
    for index in quarantined:
        slot = pool.slots[index]
        if not slot.quarantined:
            problems.append(
                f"slot {index} on the quarantine list without its "
                f"quarantined flag")
        if index in free:
            problems.append(
                f"slot {index} is quarantined but on the free list "
                f"(unscrubbed reuse)")
        if index in pending:
            problems.append(
                f"slot {index} is both quarantined and pending discard")
        if slot.in_use:
            problems.append(f"slot {index} is quarantined but in_use")
    in_use = sum(1 for slot in pool.slots if slot.in_use)
    total = len(free) + len(pending) + len(quarantined) + in_use
    if total != len(pool.slots):
        problems.append(
            f"slot accounting leak: {len(free)} free + {len(pending)} "
            f"pending + {len(quarantined)} quarantined + {in_use} "
            f"in_use != {len(pool.slots)} slots")
    return problems


class PoolInvariants:
    """Poison-on-discard sanitizer for :class:`InstancePool`.

    Install with :meth:`install`; the pool then calls back on every
    ``acquire``/``release``/``flush_discards``.  Reads through the
    pool's address space are intercepted (``read``, ``read_bytes`` and
    the CPU's ``load`` are shadowed on the instance) and checked
    against the live set of poisoned ranges.
    """

    #: The address space's read paths the probe shadows.
    READ_PATHS = ("read", "read_bytes", "load")

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.poison_writes = 0
        self.poison_hits = 0
        self.checks = 0
        self.violations = 0
        self.violation_log: List[str] = []
        #: slot index -> (heap_base, heap_bytes) of dead ranges
        self._poisoned: Dict[int, Tuple[int, int]] = {}
        self._pool = None
        self._space = None

    # ------------------------------------------------------------------
    def install(self, pool) -> "PoolInvariants":
        pool.invariants = self
        self._pool = pool
        self._space = pool.space
        for name in self.READ_PATHS:
            setattr(pool.space, name,
                    self._guarded(getattr(pool.space, name)))
        return self

    def _guarded(self, read):
        """``read`` (whose first two arguments are address and size),
        checked against the poisoned ranges first."""
        def guarded(addr, size=8, *args, **kwargs):
            self._check_read(addr, size)
            return read(addr, size, *args, **kwargs)
        return guarded

    def uninstall(self) -> None:
        if self._space is not None:
            # drop the instance-level shadows so attribute lookup falls
            # back to the plain class methods
            for name in self.READ_PATHS:
                self._space.__dict__.pop(name, None)
        if self._pool is not None:
            self._pool.invariants = None
        self._pool = self._space = None

    # ------------------------------------------------------------------
    # pool callbacks
    # ------------------------------------------------------------------
    def on_acquire(self, pool, slot) -> None:
        self._audit(pool)
        if any(s is slot for s in pool._pending_discard):
            self._violated(
                f"acquired slot {slot.index} while its discard is "
                f"still pending (dirty-slot recycling)")
        self._unpoison(slot)

    def on_release(self, pool, slot, batched: bool) -> None:
        self._poison(slot)
        self._audit(pool)

    def on_quarantine(self, pool, slot) -> None:
        # The runtime owns the slot while it is quarantined — its
        # scrub legitimately probes the heap, so lift the poison until
        # the scrub re-deadens it.
        self._unpoison(slot)
        self._audit(pool)

    def on_scrub(self, pool, slot) -> None:
        # Scrubbed slots are back on the free list: dead until the next
        # acquire, exactly like a released-and-discarded slot.
        self._poison(slot)
        self._audit(pool)

    def on_flush(self, pool, flushed) -> None:
        for slot in flushed:
            if slot.in_use:
                self._violated(
                    f"flush_discards zapped slot {slot.index} while it "
                    f"is live (in_use)")
            # madvise dropped the pages (and our poison pattern with
            # them); the slot is still dead until acquire — re-poison.
            self._poison(slot)
        self._audit(pool)

    # ------------------------------------------------------------------
    def _audit(self, pool) -> None:
        self.checks += 1
        for problem in check_pool(pool):
            self._violated(problem)

    def _violated(self, message: str) -> None:
        self.violations += 1
        self.violation_log.append(message)
        if self.raise_on_violation:
            raise InvariantViolation(message)

    def _check_read(self, addr: int, size: int) -> None:
        for index, (base, length) in self._poisoned.items():
            if addr < base + length and addr + size > base:
                self.poison_hits += 1
                message = (f"read of {size} bytes at {addr:#x} touches "
                           f"poisoned heap of released slot {index} "
                           f"[{base:#x}, {base + length:#x})")
                self.violation_log.append(message)
                raise PoisonedReadError(message)

    def _poison(self, slot) -> None:
        prefix = min(POISON_PREFIX_BYTES, slot.heap_bytes)
        self._space.write_bytes(slot.heap_base,
                                bytes([POISON_BYTE]) * prefix,
                                check=False)
        self._poisoned[slot.index] = (slot.heap_base, slot.heap_bytes)
        self.poison_writes += 1

    def _unpoison(self, slot) -> None:
        if slot.index not in self._poisoned:
            return
        del self._poisoned[slot.index]
        prefix = min(POISON_PREFIX_BYTES, slot.heap_bytes)
        # a freshly acquired slot must read as zeros, like a real
        # madvise(DONTNEED) heap
        self._space.write_bytes(slot.heap_base, bytes(prefix),
                                check=False)


class SpeculationIdentityProbe:
    """Checks that squash preserves architectural object identity.

    Arm via ``cpu.install_invariant_probe(probe)``; the speculation
    journal calls :meth:`on_open` when a window opens and
    :meth:`on_rollback` after the squash completes.
    """

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.checks = 0
        self.violations = 0
        self.violation_log: List[str] = []
        self._identities: Optional[Dict[str, int]] = None

    def _capture(self, cpu) -> Dict[str, int]:
        out = {
            "cpu.regs": id(cpu.regs),
            "cpu.regs.regs": id(cpu.regs.regs),
            "cpu.regs.flags": id(cpu.regs.flags),
            "cpu.hfi": id(cpu.hfi),
            "cpu.hfi.regs": id(cpu.hfi.regs),
        }
        if cpu.process is not None:
            out["process.hfi_state"] = id(cpu.process.hfi_state)
        return out

    def on_open(self, cpu) -> None:
        self._identities = self._capture(cpu)

    def on_rollback(self, cpu) -> None:
        if self._identities is None:
            return
        self.checks += 1
        after = self._capture(cpu)
        for name, before_id in self._identities.items():
            if after.get(name) != before_id:
                self.violations += 1
                message = (f"speculation squash rebound {name} "
                           f"(identity {before_id:#x} -> "
                           f"{after.get(name, 0):#x})")
                self.violation_log.append(message)
                if self.raise_on_violation:
                    raise InvariantViolation(message)
        if (cpu.process is not None
                and cpu.process.hfi_state is not cpu.hfi):
            self.violations += 1
            message = "process.hfi_state no longer aliases cpu.hfi"
            self.violation_log.append(message)
            if self.raise_on_violation:
                raise InvariantViolation(message)
        self._identities = None
