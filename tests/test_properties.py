"""Property-based tests (hypothesis) on core invariants.

The most load-bearing one proves the paper's §4.2 claim: the single
32-bit-comparator hardware check is *equivalent* to the golden
base/bound semantics over the entire legal descriptor space — that is
the whole reason large/small region constraints exist.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExplicitDataRegion,
    HfiFault,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    hmov_check_hardware,
    hmov_effective_address,
    implicit_data_check,
)
from repro.core.encoding import (
    decode_region,
    decode_sandbox,
    encode_region,
    encode_sandbox,
)
from repro.core.registers import SandboxFlags
from repro.isa import Assembler, Imm, Opcode, Reg, encoded_length
from repro.os import AddressSpace, Prot
from repro.params import MachineParams
from repro.runtime import percentile

KIB64 = 1 << 16


# ----------------------------------------------------------------------
# hmov comparator equivalence (§4.2)
# ----------------------------------------------------------------------
large_regions = st.builds(
    lambda base, bound: ExplicitDataRegion(
        base * KIB64, bound * KIB64, permission_read=True,
        is_large_region=True),
    base=st.integers(0, (1 << 31) - 1),
    bound=st.integers(1, 1 << 14),
).filter(lambda r: r.base_address + r.bound <= 1 << 48)

small_regions = st.tuples(
    st.integers(0, (1 << 15) - 1),      # 4 GiB block
    st.integers(0, (1 << 32) - 2),      # offset within the block
    st.integers(1, 1 << 32),            # bound
).filter(lambda t: t[1] + t[2] <= 1 << 32).map(
    lambda t: ExplicitDataRegion((t[0] << 32) + t[1], t[2],
                                 permission_read=True,
                                 is_large_region=False))


def _golden(region, index, scale, disp):
    try:
        hmov_effective_address(region, index, scale, disp, 1, False)
        return True
    except HfiFault:
        return False


@given(region=st.one_of(large_regions, small_regions),
       offset=st.integers(0, 1 << 50),
       scale=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=400, deadline=None)
def test_hmov_hardware_matches_golden_semantics(region, offset, scale):
    index = offset // scale
    disp = offset - index * scale
    hw_ok, hw_ea = hmov_check_hardware(region, index, scale, disp)
    assert hw_ok == _golden(region, index, scale, disp)
    if hw_ok:
        assert hw_ea == region.base_address + offset


@given(region=st.one_of(large_regions, small_regions),
       offset=st.integers(0, 1 << 50),
       scale=st.sampled_from([1, 2, 4, 8]),
       size=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=400, deadline=None)
def test_hmov_hardware_matches_golden_at_every_size(region, offset,
                                                    scale, size):
    """Regression: the comparator must test the access's *last* byte,
    so wide accesses straddling the bound are rejected exactly when the
    golden model rejects them."""
    index = offset // scale
    disp = offset - index * scale
    hw_ok, hw_ea = hmov_check_hardware(region, index, scale, disp, size)
    try:
        hmov_effective_address(region, index, scale, disp, size, False)
        golden_ok = True
    except HfiFault:
        golden_ok = False
    assert hw_ok == golden_ok
    if hw_ok:
        assert hw_ea == region.base_address + offset


@given(region=st.one_of(large_regions, small_regions),
       value=st.integers(1 << 63, (1 << 64) - 1),
       scale=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100, deadline=None)
def test_hmov_negative_operands_always_rejected(region, value, scale):
    hw_ok, _ = hmov_check_hardware(region, value, scale, 0)
    assert not hw_ok
    assert not _golden(region, value, scale, 0)
    hw_ok, _ = hmov_check_hardware(region, 0, scale, value)
    assert not hw_ok


# ----------------------------------------------------------------------
# implicit regions
# ----------------------------------------------------------------------
@given(base=st.integers(0, 1 << 40), size=st.integers(1, 1 << 24))
@settings(max_examples=200, deadline=None)
def test_covering_region_contains_entire_range(base, size):
    region = ImplicitDataRegion.covering(base, size, read=True)
    assert region.matches(base)
    assert region.matches(base + size - 1)
    # Note: no multiplicative size bound holds — a 2-byte range
    # straddling a 2^k boundary needs a 2^(k+1) region.  That massive
    # over-cover at misaligned boundaries is exactly why HFI pairs
    # implicit regions with byte-granular explicit regions (§3.2).
    assert region.base_prefix <= base
    assert base + size <= region.base_prefix + region.size


@given(base=st.integers(0, 1 << 40), size=st.integers(1, 1 << 24),
       probe=st.integers(0, 1 << 41))
@settings(max_examples=200, deadline=None)
def test_implicit_match_is_prefix_consistent(base, size, probe):
    region = ImplicitCodeRegion.covering(base, size)
    inside = region.base_prefix <= probe <= region.base_prefix + region.lsb_mask
    assert region.matches(probe) == inside


@given(addr=st.integers(0, (1 << 30)), size=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100, deadline=None)
def test_no_regions_means_no_access(addr, size):
    try:
        implicit_data_check([None] * 4, addr, size, False)
        assert False, "default-deny violated"
    except HfiFault:
        pass


# ----------------------------------------------------------------------
# descriptor encoding
# ----------------------------------------------------------------------
region_descriptors = st.one_of(
    large_regions,
    small_regions,
    st.builds(lambda b, k, r, w: ImplicitDataRegion(
        b & ~((1 << k) - 1), (1 << k) - 1, r, w),
        b=st.integers(0, 1 << 47), k=st.integers(0, 47),
        r=st.booleans(), w=st.booleans()),
    st.builds(lambda b, k, x: ImplicitCodeRegion(
        b & ~((1 << k) - 1), (1 << k) - 1, x),
        b=st.integers(0, 1 << 47), k=st.integers(0, 47),
        x=st.booleans()),
)


@given(region=region_descriptors)
@settings(max_examples=300, deadline=None)
def test_region_encoding_roundtrips(region):
    assert decode_region(encode_region(region)) == region


@given(hybrid=st.booleans(), serialized=st.booleans(),
       soe=st.booleans(), handler=st.integers(0, (1 << 64) - 1))
def test_sandbox_encoding_roundtrips(hybrid, serialized, soe, handler):
    flags = SandboxFlags(hybrid, serialized, soe)
    got, got_handler = decode_sandbox(encode_sandbox(flags, handler))
    assert got == flags and got_handler == handler


# ----------------------------------------------------------------------
# address space invariants
# ----------------------------------------------------------------------
@st.composite
def vm_operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["mmap", "mprotect", "munmap",
                                     "madvise"]))
        addr = draw(st.integers(0, 1 << 22)) * 4096 + 0x1_0000_0000
        length = draw(st.integers(1, 64)) * 4096
        ops.append((kind, addr, length))
    return ops


@given(ops=vm_operations())
@settings(max_examples=150, deadline=None)
def test_address_space_vmas_stay_sorted_and_disjoint(ops):
    space = AddressSpace(MachineParams())
    for kind, addr, length in ops:
        try:
            if kind == "mmap":
                space.mmap(length, Prot.rw(), addr=addr)
            elif kind == "mprotect":
                space.mprotect(addr, length, Prot.READ)
            elif kind == "munmap":
                space.munmap(addr, length)
            else:
                space.madvise_dontneed(addr, length)
        except Exception:
            pass  # invalid ops may fail; invariants must still hold
        vmas = space.vmas()
        for a, b in zip(vmas, vmas[1:]):
            assert a.start < a.end <= b.start < b.end


@given(data=st.binary(min_size=1, max_size=300),
       offset=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_address_space_write_read_roundtrip(data, offset):
    space = AddressSpace(MachineParams())
    base = space.mmap(16 * 4096, Prot.rw())
    space.write_bytes(base + offset, data)
    assert space.read_bytes(base + offset, len(data)) == data


# ----------------------------------------------------------------------
# assembler layout
# ----------------------------------------------------------------------
@given(n=st.integers(1, 60), seed=st.integers(0, 1 << 20))
@settings(max_examples=50, deadline=None)
def test_assembler_layout_contiguous_and_indexed(n, seed):
    import random
    rng = random.Random(seed)
    asm = Assembler(base=0x1000)
    for i in range(n):
        choice = rng.randrange(4)
        if choice == 0:
            asm.nop()
        elif choice == 1:
            asm.mov(Reg.RAX, Imm(rng.randrange(1 << 32)))
        elif choice == 2:
            asm.add(Reg.RBX, Imm(rng.randrange(256)))
        else:
            asm.push(Reg.RCX)
    asm.hlt()
    program = asm.assemble()
    addr = 0x1000
    for ins in program.instructions:
        assert ins.addr == addr
        assert ins.length == encoded_length(ins.opcode, ins.operands)
        addr += ins.length
    assert program.size == addr - 0x1000


# ----------------------------------------------------------------------
# misc
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
       pct=st.floats(1, 100))
def test_percentile_bounds(values, pct):
    p = percentile(values, pct)
    assert min(values) <= p <= max(values)