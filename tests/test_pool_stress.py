"""Stress and lifecycle tests for the pooling allocator.

Two concerns: ``acquire`` stays sound under adversarial interleavings
of ``release``/``flush_discards`` (the dirty-slot recycling bug's
family), and the quarantine → scrub lifecycle the serving loop's
recovery uses keeps the structural accounting exact.
"""

import random

import pytest

from repro.os import AddressSpace
from repro.params import MachineParams
from repro.runtime import InstancePool
from repro.verify import PoolInvariants, check_pool
from repro.wasm import HfiStrategy


@pytest.fixture
def params():
    return MachineParams()


def build_pool(params, slots=6, batch=True):
    space = AddressSpace(params)
    pool = InstancePool(space, HfiStrategy(), slots=slots,
                        heap_bytes=1 << 14, params=params,
                        batch_teardown=batch)
    return space, pool


class TestAcquireUnderInterleaving:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleave_never_hands_out_a_dirty_slot(
            self, params, seed):
        """Seeded storm of acquire/release/flush with the sanitizer
        armed: every acquired slot reads back zero, accounting stays
        exact, and the probe logs no violation."""
        space, pool = build_pool(params)
        probe = PoolInvariants(raise_on_violation=True).install(pool)
        rng = random.Random(seed)
        held = []
        try:
            for step in range(400):
                op = rng.random()
                if op < 0.45:
                    slot = pool.acquire()
                    if slot is not None:
                        assert space.read(slot.heap_base,
                                          check=False) == 0
                        space.write(slot.heap_base,
                                    0xBEEF0000 | step, check=False)
                        held.append(slot)
                elif op < 0.85 and held:
                    pool.release(held.pop(rng.randrange(len(held))))
                else:
                    pool.flush_discards()
                assert check_pool(pool) == []
                assert (pool.available + len(pool._pending_discard)
                        + len(held) == len(pool.slots))
        finally:
            probe.uninstall()
        assert probe.violations == 0 and probe.poison_hits == 0

    def test_acquire_returns_none_only_when_truly_empty(self, params):
        _, pool = build_pool(params, slots=3)
        held = [pool.acquire() for _ in range(3)]
        assert pool.acquire() is None
        pool.release(held.pop())
        # batched: released slot is pending, not free, until flushed
        assert pool.acquire() is None
        pool.flush_discards()
        assert pool.acquire() is not None


class TestQuarantineLifecycle:
    def test_quarantined_slot_leaves_circulation(self, params):
        _, pool = build_pool(params, slots=2)
        slot = pool.acquire()
        pool.quarantine(slot)
        assert slot.quarantined and not slot.in_use
        assert pool.quarantined == 1
        # drain the rest of the pool: the quarantined slot never comes
        other = pool.acquire()
        assert other is not None and other.index != slot.index
        assert pool.acquire() is None
        pool.flush_discards()
        assert pool.acquire() is None
        assert check_pool(pool) == []

    def test_quarantine_is_idempotent_and_state_agnostic(self, params):
        _, pool = build_pool(params, slots=3)
        in_use = pool.acquire()
        pending = pool.acquire()
        pool.release(pending)           # now on the pending batch
        for slot in (in_use, pending):
            pool.quarantine(slot)
            pool.quarantine(slot)       # second call is a no-op
        assert pool.quarantined == 2
        assert pool.quarantines == 2
        assert check_pool(pool) == []

    def test_scrub_restores_service_and_zeroes_heap(self, params):
        space, pool = build_pool(params, slots=2)
        slot = pool.acquire()
        space.write(slot.heap_base, 0xDEAD, check=False)
        pool.quarantine(slot)
        cost = pool.scrub(slot)
        assert cost > 0
        assert not slot.quarantined and pool.quarantined == 0
        assert pool.scrubs == 1 and pool.scrub_failures == 0
        # the slot is acquirable again and its heap is clean
        seen = {pool.acquire().index for _ in range(2)}
        assert slot.index in seen
        assert space.read(slot.heap_base, check=False) == 0
        assert check_pool(pool) == []

    def test_scrub_rejects_non_quarantined_slot(self, params):
        _, pool = build_pool(params)
        slot = pool.acquire()
        with pytest.raises(ValueError):
            pool.scrub(slot)

    def test_scrub_all_drains_the_quarantine(self, params):
        _, pool = build_pool(params, slots=4)
        for _ in range(3):
            pool.quarantine(pool.acquire())
        assert pool.quarantined == 3
        pool.scrub_all()
        assert pool.quarantined == 0
        assert pool.available == 4
        assert check_pool(pool) == []

    def test_stats_surface_quarantine_counters(self, params):
        _, pool = build_pool(params)
        slot = pool.acquire()
        pool.quarantine(slot)
        pool.scrub(slot)
        stats = pool.stats()
        assert stats.quarantines == 1
        assert stats.scrubs == 1
        assert stats.quarantined == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_quarantine_scrub_storm(self, params, seed):
        """Quarantine/scrub mixed into the acquire/release/flush storm
        with the sanitizer armed; accounting must stay exact at every
        step (free + pending + quarantined + in-use == slots)."""
        space, pool = build_pool(params, slots=5)
        probe = PoolInvariants(raise_on_violation=True).install(pool)
        rng = random.Random(1000 + seed)
        held = []
        try:
            for _ in range(300):
                op = rng.random()
                if op < 0.35:
                    slot = pool.acquire()
                    if slot is not None:
                        assert not slot.quarantined
                        assert space.read(slot.heap_base,
                                          check=False) == 0
                        held.append(slot)
                elif op < 0.60 and held:
                    pool.release(held.pop(rng.randrange(len(held))))
                elif op < 0.75 and held:
                    pool.quarantine(held.pop(rng.randrange(len(held))))
                elif op < 0.90:
                    pool.scrub_all()
                else:
                    pool.flush_discards()
                assert check_pool(pool) == []
                assert (pool.available + len(pool._pending_discard)
                        + pool.quarantined + len(held)
                        == len(pool.slots))
        finally:
            probe.uninstall()
        assert probe.violations == 0 and probe.poison_hits == 0
