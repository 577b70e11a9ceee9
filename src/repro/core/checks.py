"""The HFI check logic: prefix matching and the hmov comparator.

Two implementations of the explicit-region bounds check are provided:

* :func:`hmov_effective_address` — the *golden* architectural
  semantics (what the ISA manual would specify).
* :func:`hmov_check_hardware` — the paper's §4.2 comparator: a single
  32-bit compare plus sign-bit and overflow checks, made sufficient by
  the large/small region alignment constraints.

The ablation benchmark samples the legal descriptor space and finds
the two in agreement there; it does not enumerate the space.  The
golden model is what the simulator executes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.registers import to_signed
from .faults import FaultCause, HfiFault
from .regions import (
    KIB64,
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
)

MASK64 = (1 << 64) - 1
VA_BITS = 48


def implicit_data_check(regions: List[Optional[ImplicitDataRegion]],
                        addr: int, size: int, is_write: bool) -> None:
    """First-match implicit region check for a load/store (§3.2).

    Every accessed byte must land in a region whose *first* prefix
    match grants the needed permission; otherwise HFI traps.
    """
    for byte_addr in (addr, addr + size - 1) if size > 1 else (addr,):
        matched = None
        for region in regions:
            if region is not None and region.matches(byte_addr):
                matched = region
                break
        if matched is None:
            raise HfiFault(FaultCause.DATA_OUT_OF_BOUNDS, byte_addr)
        allowed = (matched.permission_write if is_write
                   else matched.permission_read)
        if not allowed:
            raise HfiFault(FaultCause.DATA_PERMISSION, byte_addr,
                           "write" if is_write else "read")


def implicit_code_check(regions: List[Optional[ImplicitCodeRegion]],
                        addr: int) -> None:
    """Bound the program counter via prefix matching (§4.1).

    Runs in parallel with decode; a failure turns the decoded micro-ops
    into a faulting NOP so out-of-bounds code never executes, even
    speculatively.
    """
    for region in regions:
        if region is not None and region.matches(addr):
            if region.permission_exec:
                return
            raise HfiFault(FaultCause.CODE_OUT_OF_BOUNDS, addr,
                           "no execute permission")
    raise HfiFault(FaultCause.CODE_OUT_OF_BOUNDS, addr)


def code_pass_range(regions: List[Optional[ImplicitCodeRegion]],
                    addr: int) -> Tuple[int, int]:
    """:func:`implicit_code_check`, returning the range ``[lo, hi)`` of
    addresses on which it passes the same way ``addr`` does.

    That is the first matching region's range.  Prefix regions either
    nest or are disjoint, so an earlier slot can only cut into it by
    holding a region nested inside it; then the range is ``addr`` alone.
    Faults exactly where :func:`implicit_code_check` does.
    """
    for slot, region in enumerate(regions):
        if region is not None and region.matches(addr):
            if not region.permission_exec:
                raise HfiFault(FaultCause.CODE_OUT_OF_BOUNDS, addr,
                               "no execute permission")
            lo = region.base_prefix
            hi = lo + region.lsb_mask + 1
            for earlier in regions[:slot]:
                if earlier is not None and lo <= earlier.base_prefix < hi:
                    return addr, addr + 1
            return lo, hi
    raise HfiFault(FaultCause.CODE_OUT_OF_BOUNDS, addr)


def hmov_effective_address(region: Optional[ExplicitDataRegion],
                           index: int, scale: int, disp: int,
                           size: int, is_write: bool) -> int:
    """Golden hmov semantics (§3.2): returns the effective address.

    The base operand is *replaced* by the region base; the remaining
    operands must be non-negative; the effective-address computation
    must not overflow; and every accessed byte must fall inside
    ``[base, base + bound)``.
    """
    if region is None:
        raise HfiFault(FaultCause.HMOV_REGION_CLEAR)
    if to_signed(disp) < 0:
        raise HfiFault(FaultCause.HMOV_NEGATIVE_OPERAND, detail="disp < 0")
    if to_signed(index) < 0:
        raise HfiFault(FaultCause.HMOV_NEGATIVE_OPERAND, detail="index < 0")
    offset = index * scale + disp
    ea = region.base_address + offset
    if ea + size - 1 > MASK64:
        raise HfiFault(FaultCause.HMOV_OVERFLOW, detail="EA overflow")
    if offset + size > region.bound:
        raise HfiFault(FaultCause.HMOV_OUT_OF_BOUNDS, ea)
    allowed = region.permission_write if is_write else region.permission_read
    if not allowed:
        raise HfiFault(FaultCause.HMOV_PERMISSION, ea,
                       "write" if is_write else "read")
    return ea


def hmov_check_hardware(region: ExplicitDataRegion, index: int, scale: int,
                        disp: int, size: int = 1) -> Tuple[bool, int]:
    """The §4.2 hardware comparator: (in_bounds, effective_address).

    Checks, using only cheap logic:
      1. disp and index sign bits are zero,
      2. the EA computation does not overflow,
      3. a *single 32-bit comparison* of the access's **last byte**
         against the bound:
         - large regions: LAST[47:16] < (base+bound)[47:16]
           (base and bound are 64 KiB aligned, so this is exact), or
         - small regions: LAST[31:0] < (base+bound)[31:0]
           (the region cannot span a 4 GiB boundary, so the low
           32 bits order correctly).

    The comparator operates on the address of the access's last byte
    (``EA + size - 1``), not its first: an x86 access is 1-8 bytes
    wide, and comparing only the first byte would admit an access
    whose tail wraps past 2^64 (where the golden semantics raise
    ``HMOV_OVERFLOW``) or dangles past the bound (``HMOV_OUT_OF_BOUNDS``).
    ``size`` defaults to 1 for byte-granular sweeps; the verify layer's
    comparator fuzzer exercises the full 1/2/4/8 space.

    Out of scope, by design (classified by ``verify.fuzz_checks``):
    permissions (checked by the permission bits, not the bounds
    comparator) and large regions extending past 2^48 (the comparator
    is bits [47:16] wide; such descriptors are outside the installable
    architectural space).
    """
    if to_signed(disp) < 0 or to_signed(index) < 0:
        return False, 0
    ea = region.base_address + index * scale + disp
    last = ea + size - 1
    if last > MASK64:
        return False, 0
    end = region.base_address + region.bound
    if region.is_large_region:
        ok = (last >> 16) < (end >> 16) if region.bound else False
        # the comparator is 32 bits wide: bits [47:16]
        ok = ok and (last >> VA_BITS) == 0
    else:
        if region.bound == 0:
            ok = False
        else:
            low_last = last & 0xFFFF_FFFF
            low_end = end - (region.base_address & ~0xFFFF_FFFF)
            same_block = (last >> 32) == (region.base_address >> 32)
            ok = same_block and low_last < low_end
    return ok, ea
