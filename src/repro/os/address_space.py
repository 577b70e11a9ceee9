"""A per-process virtual address space with Linux-like VM semantics.

This substrate stands in for the parts of the Linux VM subsystem the
paper's evaluation depends on:

* huge ``PROT_NONE`` reservations (Wasm's 8 GiB guard-region scheme, §2),
* ``mprotect``-driven heap growth (§6.1's 30x heap-growth experiment),
* ``madvise(MADV_DONTNEED)`` teardown whose cost is proportional to the
  region being discarded (§5.1, §6.3.1), and
* a finite user virtual address space that caps sandbox concurrency
  (§6.3.2's 256,000-sandbox scalability result).

Mappings are tracked as VMAs (interval records) so that terabyte-scale
reservations cost O(1); page *contents* are allocated lazily on first
write, so only touched pages consume host memory.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from ..params import DEFAULT_PARAMS, MachineParams

PAGE = 4096


class Prot(enum.IntFlag):
    """Page protection bits (mmap/mprotect style)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    @classmethod
    def rw(cls) -> "Prot":
        return cls.READ | cls.WRITE

    @classmethod
    def rx(cls) -> "Prot":
        return cls.READ | cls.EXEC


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXEC = "exec"

    # Members are singletons; identity hashing makes the per-access
    # ``_REQUIRED_BITS[kind]`` lookup a C-speed operation.
    __hash__ = object.__hash__


_REQUIRED = {
    AccessKind.READ: Prot.READ,
    AccessKind.WRITE: Prot.WRITE,
    AccessKind.EXEC: Prot.EXEC,
}

#: Raw int protection bits per access kind: ``prot._value_ & bits``
#: avoids IntFlag.__and__ (a Python-level call that allocates a new
#: flag member) on the once-per-memory-access check path.
_REQUIRED_BITS = {kind: prot._value_ for kind, prot in _REQUIRED.items()}


class PageFault(Exception):
    """A hardware page fault (delivered to software as SIGSEGV)."""

    def __init__(self, addr: int, kind: AccessKind, reason: str):
        super().__init__(f"{kind.value} fault at {addr:#x}: {reason}")
        self.addr = addr
        self.kind = kind
        self.reason = reason


class OutOfAddressSpace(Exception):
    """The user virtual address space is exhausted."""


@dataclass(frozen=True)
class Vma:
    """A virtual memory area: ``[start, end)`` with uniform protection."""

    start: int
    end: int
    prot: Prot
    pkey: int = 0          # MPK protection key (0 = default domain)
    name: str = ""

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


def page_align_down(addr: int) -> int:
    return addr & ~(PAGE - 1)


def page_align_up(addr: int) -> int:
    return (addr + PAGE - 1) & ~(PAGE - 1)


class AddressSpace:
    """A single process's virtual address space.

    Cost-returning methods (:meth:`mprotect`, :meth:`madvise_dontneed`,
    ...) return the modelled kernel-side cycle cost *excluding* the
    ring-transition cost, which the :class:`~repro.os.kernel.Kernel`
    adds per syscall.
    """

    #: Default placement base for anonymous mmaps.
    MMAP_BASE = 0x1_0000_0000

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 va_bits: Optional[int] = None):
        self.params = params
        self.va_bits = va_bits if va_bits is not None else params.va_bits
        self.user_va_limit = 1 << self.va_bits
        self._vmas: List[Vma] = []
        self._starts: List[int] = []
        self._pages: Dict[int, bytearray] = {}
        self._mmap_next = self.MMAP_BASE
        self.concurrent = False  # multi-threaded: unmap => TLB shootdown

    # ------------------------------------------------------------------
    # VMA bookkeeping
    # ------------------------------------------------------------------
    def _insert(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        self._vmas.insert(idx, vma)
        self._starts.insert(idx, vma.start)

    def _remove_index(self, idx: int) -> None:
        del self._vmas[idx]
        del self._starts[idx]

    def find_vma(self, addr: int) -> Optional[Vma]:
        """Return the VMA containing ``addr``, if any."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0:
            vma = self._vmas[idx]
            if vma.start <= addr < vma.end:   # contains(), inlined
                return vma
        return None

    def vmas(self) -> List[Vma]:
        return list(self._vmas)

    def _overlapping(self, start: int, end: int) -> Iterator[int]:
        """Yield indices of VMAs overlapping ``[start, end)``, ascending."""
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._vmas):
            vma = self._vmas[idx]
            if vma.start >= end:
                break
            if vma.end > start:
                yield idx
            idx += 1

    def _is_free(self, start: int, end: int) -> bool:
        return next(iter(self._overlapping(start, end)), None) is None

    @property
    def reserved_bytes(self) -> int:
        """Total bytes of reserved virtual address space (all VMAs)."""
        return sum(v.length for v in self._vmas)

    @property
    def present_pages(self) -> int:
        """Number of pages with materialized contents."""
        return len(self._pages)

    # ------------------------------------------------------------------
    # mmap / munmap / mprotect / madvise
    # ------------------------------------------------------------------
    def mmap(self, length: int, prot: Prot = Prot.NONE,
             addr: Optional[int] = None, name: str = "",
             pkey: int = 0) -> int:
        """Reserve ``length`` bytes; returns the mapped address.

        With ``addr=None`` the kernel chooses placement (bump allocation
        above :data:`MMAP_BASE`).  Raises :class:`OutOfAddressSpace` when
        the user VA range is exhausted — the paper's §6.3.2 limit.
        """
        if length <= 0:
            raise ValueError("mmap length must be positive")
        length = page_align_up(length)
        if addr is None:
            addr = self._find_free(length)
        else:
            addr = page_align_down(addr)
            if addr + length > self.user_va_limit:
                raise OutOfAddressSpace(
                    f"mapping [{addr:#x}, {addr + length:#x}) exceeds "
                    f"{self.va_bits}-bit user address space")
            if not self._is_free(addr, addr + length):
                raise ValueError(f"mapping at {addr:#x} overlaps")
        self._insert(Vma(addr, addr + length, prot, pkey, name))
        return addr

    def _find_free(self, length: int) -> int:
        addr = self._mmap_next
        while addr + length <= self.user_va_limit:
            if self._is_free(addr, addr + length):
                self._mmap_next = addr + length
                return addr
            # skip past the blocking VMA
            idx = next(self._overlapping(addr, addr + length))
            addr = page_align_up(self._vmas[idx].end)
        raise OutOfAddressSpace(
            f"no free range of {length} bytes in "
            f"{self.va_bits}-bit user address space")

    def munmap(self, addr: int, length: int) -> int:
        """Unmap a range; returns kernel-side cycle cost."""
        start, end = page_align_down(addr), page_align_up(addr + length)
        self._carve(start, end, new_prot=None)
        dropped = self._drop_pages(start, end)
        cost = self.params.munmap_fixed_cycles + dropped * 8
        if self.concurrent:
            cost += self.params.tlb_shootdown_cycles
        return cost

    def mprotect(self, addr: int, length: int, prot: Prot) -> int:
        """Change protection on a range; returns kernel-side cycle cost.

        The whole range must be mapped (Linux returns ENOMEM otherwise).
        """
        start, end = page_align_down(addr), page_align_up(addr + length)
        covered = 0
        for idx in self._overlapping(start, end):
            vma = self._vmas[idx]
            covered += min(end, vma.end) - max(start, vma.start)
        if covered != end - start:
            raise PageFault(start, AccessKind.WRITE,
                            "mprotect over unmapped range")
        self._carve(start, end, new_prot=prot)
        self._merge_adjacent(start, end)
        pages = (end - start) // PAGE
        return (self.params.mprotect_fixed_cycles
                + pages * self.params.mprotect_per_page_cycles)

    def _merge_adjacent(self, start: int, end: int) -> None:
        """Coalesce equal-attribute neighbours (like Linux vma_merge),
        so repeated growth mprotects don't fragment the VMA list."""
        idx = max(0, bisect.bisect_right(self._starts, start) - 2)
        while idx < len(self._vmas) - 1:
            cur, nxt = self._vmas[idx], self._vmas[idx + 1]
            if cur.start > end:
                break
            if (cur.end == nxt.start and cur.prot == nxt.prot
                    and cur.pkey == nxt.pkey and cur.name == nxt.name):
                self._remove_index(idx + 1)
                self._remove_index(idx)
                self._insert(replace(cur, end=nxt.end))
                continue
            idx += 1

    def madvise_dontneed(self, addr: int, length: int) -> int:
        """Discard page contents in a range; returns kernel cycle cost.

        The cost is proportional to the region discarded (paper §5.1):
        present pages pay the zap cost; reserved-but-unpopulated spans
        (guard regions) pay a VMA-walk cost plus a sparse PTE-range
        skip proportional to their size — which is why batched
        teardown only wins once HFI elides the guard regions (§6.3.1).
        """
        start, end = page_align_down(addr), page_align_up(addr + length)
        present = self._drop_pages(start, end)
        reserved_bytes = 0
        vma_count = 0
        for idx in self._overlapping(start, end):
            vma = self._vmas[idx]
            vma_count += 1
            reserved_bytes += min(end, vma.end) - max(start, vma.start)
        cost = (self.params.madvise_fixed_cycles
                + present * self.params.madvise_per_present_page_cycles
                + vma_count * self.params.madvise_per_vma_cycles
                + (reserved_bytes >> 30)
                * self.params.madvise_per_reserved_gb_cycles)
        if self.concurrent and present:
            cost += self.params.tlb_shootdown_cycles
        return cost

    def _carve(self, start: int, end: int,
               new_prot: Optional[Prot], pkey: Optional[int] = None) -> None:
        """Split VMAs at ``start``/``end``; retag or remove the middle."""
        affected = list(self._overlapping(start, end))
        for idx in reversed(affected):
            vma = self._vmas[idx]
            self._remove_index(idx)
            if vma.start < start:
                self._insert(replace(vma, end=start))
            if vma.end > end:
                self._insert(replace(vma, start=end))
            mid_start, mid_end = max(vma.start, start), min(vma.end, end)
            if new_prot is not None:
                mid = replace(vma, start=mid_start, end=mid_end,
                              prot=new_prot)
                if pkey is not None:
                    mid = replace(mid, pkey=pkey)
                self._insert(mid)

    def set_pkey(self, addr: int, length: int, pkey: int) -> int:
        """pkey_mprotect: tag a range with an MPK protection key."""
        start, end = page_align_down(addr), page_align_up(addr + length)
        for idx in list(self._overlapping(start, end)):
            vma = self._vmas[idx]
            self._carve(max(start, vma.start), min(end, vma.end),
                        new_prot=vma.prot, pkey=pkey)
        pages = (end - start) // PAGE
        return (self.params.mprotect_fixed_cycles
                + pages * self.params.mprotect_per_page_cycles)

    def _drop_pages(self, start: int, end: int) -> int:
        first, last = start // PAGE, (end + PAGE - 1) // PAGE
        span = last - first
        if span < len(self._pages):
            doomed = [p for p in range(first, last) if p in self._pages]
        else:
            doomed = [p for p in self._pages if first <= p < last]
        for page in doomed:
            del self._pages[page]
        return len(doomed)

    # ------------------------------------------------------------------
    # access checks and data
    # ------------------------------------------------------------------
    def check_access(self, addr: int, size: int, kind: AccessKind) -> Vma:
        """Verify an access is permitted; raise :class:`PageFault` if not."""
        if addr < 0 or addr + size > self.user_va_limit:
            raise PageFault(addr, kind, "non-canonical address")
        vma = self.find_vma(addr)
        if vma is None:
            raise PageFault(addr, kind, "unmapped")
        required = _REQUIRED_BITS[kind]
        if addr + size > vma.end:
            # The access straddles into the next mapping (or a hole).
            nxt = self.find_vma(vma.end)
            if nxt is None or not nxt.prot._value_ & required:
                raise PageFault(vma.end, kind, "straddles unmapped/guard")
        if not vma.prot._value_ & required:
            raise PageFault(addr, kind, f"protection ({vma.prot!r})")
        return vma

    def page_copy(self, number: int) -> bytearray:
        """A copy of page ``number``'s contents (zeros if it was never
        written); unlike a write, it materializes nothing."""
        stored = self._pages.get(number)
        return bytearray(stored) if stored is not None else bytearray(PAGE)

    def _page(self, number: int) -> bytearray:
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE)
            self._pages[number] = page
        return page

    def read(self, addr: int, size: int = 8, *, check: bool = True) -> int:
        """Load a little-endian integer of ``size`` bytes."""
        if check:
            self.check_access(addr, size, AccessKind.READ)
        # Fast path: the access stays within one page (nearly every
        # CPU-issued load) — skip the chunked read_bytes walk.
        page, offset = divmod(addr, PAGE)
        end = offset + size
        if end <= PAGE:
            stored = self._pages.get(page)
            if stored is None:
                return 0                       # untouched pages read 0
            return int.from_bytes(stored[offset:end], "little")
        return int.from_bytes(self.read_bytes(addr, size, check=False),
                              "little")

    def write(self, addr: int, value: int, size: int = 8, *,
              check: bool = True) -> None:
        """Store a little-endian integer of ``size`` bytes."""
        if check:
            self.check_access(addr, size, AccessKind.WRITE)
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        page, offset = divmod(addr, PAGE)
        end = offset + size
        if end <= PAGE:
            stored = self._pages.get(page)
            if stored is None:
                stored = bytearray(PAGE)       # lazy page materialisation
                self._pages[page] = stored
            stored[offset:end] = data
            return
        self.write_bytes(addr, data, check=False)

    def read_bytes(self, addr: int, size: int, *, check: bool = True) -> bytes:
        if check:
            self.check_access(addr, size, AccessKind.READ)
        out = bytearray()
        while size > 0:
            page, offset = divmod(addr, PAGE)
            chunk = min(size, PAGE - offset)
            stored = self._pages.get(page)
            if stored is None:
                out += b"\x00" * chunk
            else:
                out += stored[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes, *,
                    check: bool = True) -> None:
        if check:
            self.check_access(addr, len(data), AccessKind.WRITE)
        pos = 0
        while pos < len(data):
            page, offset = divmod(addr + pos, PAGE)
            chunk = min(len(data) - pos, PAGE - offset)
            self._page(page)[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
