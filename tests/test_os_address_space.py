"""Unit tests for the virtual-memory substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os import (
    PAGE,
    AccessKind,
    AddressSpace,
    OutOfAddressSpace,
    PageFault,
    Prot,
)
from repro.params import MachineParams


@pytest.fixture
def space():
    return AddressSpace(MachineParams())


class TestMmap:
    def test_mmap_returns_page_aligned(self, space):
        addr = space.mmap(100, Prot.rw())
        assert addr % PAGE == 0

    def test_mmap_fixed_placement(self, space):
        addr = space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        assert addr == 0x7000_0000

    def test_mmap_overlap_rejected(self, space):
        space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        with pytest.raises(ValueError):
            space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)

    def test_huge_reservation_is_cheap(self, space):
        # Wasm's 8 GiB guard scheme must not materialize pages.
        addr = space.mmap(8 << 30, Prot.NONE)
        assert space.present_pages == 0
        assert space.reserved_bytes >= 8 << 30
        assert space.find_vma(addr + (4 << 30)) is not None

    def test_va_exhaustion(self):
        space = AddressSpace(MachineParams(), va_bits=33)  # 8 GiB VA
        space.mmap(4 << 30, Prot.NONE)
        with pytest.raises(OutOfAddressSpace):
            space.mmap(8 << 30, Prot.NONE)

    def test_munmap_frees_range(self, space):
        addr = space.mmap(4 * PAGE, Prot.rw())
        space.write(addr, 0xAB, 1)
        space.munmap(addr, 4 * PAGE)
        assert space.find_vma(addr) is None
        assert space.present_pages == 0


class TestMprotect:
    def test_mprotect_changes_permissions(self, space):
        addr = space.mmap(4 * PAGE, Prot.NONE)
        with pytest.raises(PageFault):
            space.write(addr, 1)
        space.mprotect(addr, PAGE, Prot.rw())
        space.write(addr, 1)
        with pytest.raises(PageFault):
            space.write(addr + PAGE, 1)  # rest still PROT_NONE

    def test_mprotect_splits_vma(self, space):
        addr = space.mmap(4 * PAGE, Prot.NONE, name="heap")
        space.mprotect(addr + PAGE, PAGE, Prot.rw())
        vmas = [v for v in space.vmas() if v.name == "heap"]
        assert len(vmas) == 3

    def test_mprotect_unmapped_raises(self, space):
        with pytest.raises(PageFault):
            space.mprotect(0x9999_0000, PAGE, Prot.rw())

    def test_mprotect_cost_scales_with_pages(self, space):
        addr = space.mmap(1024 * PAGE, Prot.NONE)
        small = space.mprotect(addr, PAGE, Prot.rw())
        large = space.mprotect(addr, 1024 * PAGE, Prot.rw())
        assert large > small


class TestSetPkey:
    def test_tags_every_vma_the_range_covers(self, space):
        """Splitting the first VMA must not push the next one out of
        the walk."""
        addr = space.mmap(2 * PAGE, Prot.rw())
        space.mmap(2 * PAGE, Prot.rx(), addr=addr + 2 * PAGE)
        space.set_pkey(addr + PAGE, 2 * PAGE, 5)
        assert [(v.start - addr, v.end - addr, v.prot, v.pkey)
                for v in space.vmas()] == [
            (0, PAGE, Prot.rw(), 0),
            (PAGE, 2 * PAGE, Prot.rw(), 5),
            (2 * PAGE, 3 * PAGE, Prot.rx(), 5),
            (3 * PAGE, 4 * PAGE, Prot.rx(), 0)]


class TestMadvise:
    def test_dontneed_zeroes_contents(self, space):
        addr = space.mmap(2 * PAGE, Prot.rw())
        space.write(addr, 0x1234_5678)
        space.madvise_dontneed(addr, 2 * PAGE)
        assert space.read(addr) == 0

    def test_cost_proportional_to_present_pages(self, space):
        addr = space.mmap(512 * PAGE, Prot.rw())
        cold = space.madvise_dontneed(addr, 512 * PAGE)
        for i in range(256):
            space.write(addr + i * PAGE, 1, 1)
        warm = space.madvise_dontneed(addr, 512 * PAGE)
        assert warm > cold

    def test_guard_pages_still_cost(self, space):
        """Reserved-but-untouched ranges pay a walk cost — the reason
        non-HFI batched teardown loses (§6.3.1)."""
        heap = space.mmap(16 * PAGE, Prot.rw())
        space.mmap(4096 * PAGE, Prot.NONE, addr=heap + 16 * PAGE)
        narrow = space.madvise_dontneed(heap, 16 * PAGE)
        wide = space.madvise_dontneed(heap, (16 + 4096) * PAGE)
        assert wide > narrow


# ----------------------------------------------------------------------
# madvise against a plain walk over vmas() and a page set
# ----------------------------------------------------------------------
_BASE = AddressSpace.MMAP_BASE
#: Multi-GiB lengths, so the per-reserved-GiB term shows.
_HUGE = st.sampled_from((1 << 30, (3 << 30) + 5 * PAGE))


def plain_madvise(vmas, pages, params, concurrent, addr, length):
    """``madvise_dontneed``'s price and the pages it leaves, from a
    list of VMAs and a set of materialized page numbers."""
    start = addr - addr % PAGE
    end = -(-(addr + length) // PAGE) * PAGE
    dropped = {page for page in pages if start <= page * PAGE < end}
    hit = [vma for vma in vmas if vma.start < end and vma.end > start]
    reserved = sum(min(end, vma.end) - max(start, vma.start)
                   for vma in hit)
    cost = (params.madvise_fixed_cycles
            + len(dropped) * params.madvise_per_present_page_cycles
            + len(hit) * params.madvise_per_vma_cycles
            + (reserved >> 30) * params.madvise_per_reserved_gb_cycles)
    if concurrent and dropped:
        cost += params.tlb_shootdown_cycles
    return cost, pages - dropped


@st.composite
def vm_histories(draw):
    """mmap/mprotect/set_pkey/munmap/write steps over a 48-page window
    (a step the space refuses is skipped), leaving runs of adjacent
    VMAs with different protections and keys."""
    steps = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(
            ("mmap", "mmap", "mprotect", "set_pkey", "munmap", "write")))
        addr = _BASE + draw(st.integers(0, 47)) * PAGE
        if kind == "write":
            addr += draw(st.integers(0, PAGE - 1))
            steps.append((kind, addr, draw(st.integers(1, 8))))
            continue
        length = draw(_HUGE if draw(st.integers(0, 7)) == 0
                      else st.integers(1, 12 * PAGE))
        extra = (draw(st.sampled_from(list(Prot))) if kind != "set_pkey"
                 else draw(st.integers(0, 3)))
        steps.append((kind, addr, length, extra))
    return steps


def _apply(space, pages, step):
    kind, addr = step[0], step[1]
    if kind == "write":
        size = step[2]
        space.write(addr, (1 << 8 * size) - 1, size, check=False)
        pages.update(range(addr // PAGE, (addr + size - 1) // PAGE + 1))
        return
    length, extra = step[2], step[3]
    if kind == "mmap":
        try:
            space.mmap(length, extra, addr=addr)
        except ValueError:      # overlaps an existing mapping
            pass
    elif kind == "mprotect":
        try:
            space.mprotect(addr, length, extra)
        except PageFault:       # part of the range is unmapped
            pass
    elif kind == "set_pkey":
        space.set_pkey(addr, length, extra)
    else:
        space.munmap(addr, length)
        end = addr + length
        pages.difference_update(
            [page for page in pages if addr <= page * PAGE < end])


@settings(max_examples=200, deadline=None)
@given(history=vm_histories(), concurrent=st.booleans(),
       ranges=st.lists(st.tuples(st.integers(-2 * PAGE, 60 * PAGE),
                                 st.integers(1, 64 * PAGE) | _HUGE),
                       min_size=1, max_size=6))
def test_madvise_matches_a_plain_walk(history, concurrent, ranges):
    params = MachineParams()
    space = AddressSpace(params)
    space.concurrent = concurrent
    pages = set()
    for step in history:
        _apply(space, pages, step)
    assert set(space._pages) == pages
    for offset, length in ranges:
        vmas = space.vmas()
        want, pages = plain_madvise(vmas, pages, params, concurrent,
                                    _BASE + offset, length)
        assert space.madvise_dontneed(_BASE + offset, length) == want
        assert set(space._pages) == pages
        assert space.vmas() == vmas


class TestAccess:
    def test_read_write_roundtrip(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        space.write(addr + 100, 0xDEAD_BEEF_CAFE, 8)
        assert space.read(addr + 100, 8) == 0xDEAD_BEEF_CAFE

    def test_cross_page_access(self, space):
        addr = space.mmap(2 * PAGE, Prot.rw())
        space.write(addr + PAGE - 4, 0x1122334455667788, 8)
        assert space.read(addr + PAGE - 4, 8) == 0x1122334455667788

    def test_unmapped_read_faults(self, space):
        with pytest.raises(PageFault) as excinfo:
            space.read(0x5000_0000)
        assert excinfo.value.kind is AccessKind.READ

    def test_write_to_readonly_faults(self, space):
        addr = space.mmap(PAGE, Prot.READ)
        with pytest.raises(PageFault):
            space.write(addr, 1)

    def test_exec_check(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        with pytest.raises(PageFault):
            space.check_access(addr, 1, AccessKind.EXEC)

    def test_straddle_into_guard_faults(self, space):
        heap = space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        space.mmap(PAGE, Prot.NONE, addr=0x7000_0000 + PAGE)
        with pytest.raises(PageFault):
            space.write(heap + PAGE - 4, 1, 8)

    def test_bytes_roundtrip(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        space.write_bytes(addr, b"hello world")
        assert space.read_bytes(addr, 11) == b"hello world"
