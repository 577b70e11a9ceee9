"""Ablations of the design choices DESIGN.md calls out.

1. The §4.2 single-32-bit-comparator hmov check is *exactly equivalent*
   to the golden base/bound semantics over the legal descriptor space
   (this is why large/small region constraints exist at all).
2. switch-on-exit vs serialize-every-transition: transition cost as a
   function of sandbox switches.
3. Guard-page elision: virtual address-space pressure per instance.
4. First-match vs any-match implicit-region semantics differ exactly
   when overlapping regions disagree on permissions.
"""

import random

from repro.analysis import emit, format_table
from repro.core import (
    ExplicitDataRegion,
    HfiFault,
    HfiState,
    ImplicitDataRegion,
    SandboxFlags,
    hmov_check_hardware,
    hmov_effective_address,
    implicit_data_check,
)
from repro.params import MachineParams
from repro.os import AddressSpace
from repro.wasm import GuardPagesStrategy, HfiStrategy

KIB64 = 1 << 16


def _golden_ok(region, index, scale, disp):
    try:
        hmov_effective_address(region, index, scale, disp, 1, False)
        return True
    except HfiFault:
        return False


def sweep_comparator(trials=30_000, seed=7):
    """Randomized equivalence sweep: hardware comparator vs golden."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        if rng.random() < 0.5:
            base = rng.randrange(0, (1 << 47), KIB64)
            bound = rng.randrange(KIB64, min(1 << 30, (1 << 48) - base),
                                  KIB64)
            region = ExplicitDataRegion(base, bound, permission_read=True,
                                        is_large_region=True)
        else:
            bound = rng.randrange(1, 1 << 20)
            block = rng.randrange(0, 1 << 15) << 32
            base = block + rng.randrange(0, (1 << 32) - bound)
            region = ExplicitDataRegion(base, bound, permission_read=True,
                                        is_large_region=False)
        scale = rng.choice([1, 2, 4, 8])
        # bias offsets to straddle the boundary
        target = rng.randrange(0, 2 * region.bound + 64)
        index = target // scale
        disp = target - index * scale
        hw_ok, hw_ea = hmov_check_hardware(region, index, scale, disp)
        golden = _golden_ok(region, index, scale, disp)
        if hw_ok != golden:
            mismatches += 1
    return trials, mismatches


def transition_costs(params, switches=1000):
    """Serialize-always vs switch-on-exit for a burst of invocations."""
    serialize = HfiState(params)
    total_serialized = 0
    for _ in range(switches):
        total_serialized += serialize.enter(
            SandboxFlags(is_serialized=True))
        total_serialized += serialize.exit().cycles

    soe = HfiState(params)
    # runtime pins itself once in a serialized hybrid sandbox...
    total_soe = soe.enter(SandboxFlags(is_hybrid=True, is_serialized=True))
    for _ in range(switches):
        # ...then runs children unserialized with switch-on-exit
        total_soe += soe.enter(SandboxFlags(switch_on_exit=True))
        total_soe += soe.exit().cycles
    total_soe += soe.exit().cycles
    return total_serialized, total_soe


def va_pressure():
    params = MachineParams()
    results = {}
    for name, strategy in (("guard-pages", GuardPagesStrategy()),
                           ("hfi", HfiStrategy())):
        space = AddressSpace(params)
        strategy.reserve_memory(space, 64 * KIB64)  # a 4 MiB instance
        results[name] = space.reserved_bytes
    return results


def test_ablation_comparator_equivalence():
    trials, mismatches = sweep_comparator()
    emit("ablation_comparator",
         f"hmov hardware comparator vs golden semantics: "
         f"{trials} randomized trials, {mismatches} mismatches")
    assert mismatches == 0


def test_ablation_switch_on_exit(params):
    serialized, soe = transition_costs(params)
    saving = 100 * (1 - soe / serialized)
    emit("ablation_switch_on_exit", format_table(
        ["mode", "cycles for 1000 round trips"],
        [("serialize every enter/exit", serialized),
         ("switch-on-exit", soe)],
        title="§3.4/§4.5 switch-on-exit ablation")
        + f"\nserialization avoided: {saving:.1f}%")
    # switch-on-exit removes the per-transition drains (paper: "most
    # of this overhead")
    assert soe < serialized * 0.5


def test_ablation_guard_elision():
    results = va_pressure()
    ratio = results["guard-pages"] / results["hfi"]
    emit("ablation_guard_elision", format_table(
        ["scheme", "reserved VA for one 4 MiB instance"],
        [(k, f"{v / (1 << 30):.2f} GiB") for k, v in results.items()],
        title="§2 guard-page address-space pressure")
        + f"\nreservation ratio: {ratio:.0f}x")
    assert results["guard-pages"] >= 8 << 30   # the 8 GiB scheme
    assert ratio > 100                          # HFI reserves ~the heap


def test_ablation_region_register_renaming(params):
    """§4.3: renaming HFI metadata registers removes the hybrid-mode
    serialization on region updates — the heap-growth hot path."""
    def grow_burst(rename):
        p = params.with_overrides(hfi_region_rename=rename)
        state = HfiState(p)
        state.enter(SandboxFlags(is_hybrid=True))
        region = ExplicitDataRegion(0x10_0000, 1 << 16,
                                    permission_read=True,
                                    permission_write=True)
        total = 0
        for i in range(1, 501):
            total += state.set_region(6, region.resize((i + 1) << 16))
        return total

    def run():
        return grow_burst(False), grow_burst(True)

    serialized, renamed = run()
    emit("ablation_region_rename", format_table(
        ["metadata registers", "cycles for 500 in-sandbox grows"],
        [("architectural (serialize)", serialized),
         ("renamed (no serialize)", renamed)],
        title="§4.3 region-register renaming ablation"))
    assert renamed < serialized / 3


def test_ablation_first_match_semantics():
    """First-match lets a runtime deny a sub-range of an allowed area
    by ordering regions — any-match could not express this."""
    wide = ImplicitDataRegion(0, 0xFFFF, permission_read=True,
                              permission_write=True)
    deny = ImplicitDataRegion(0x8000, 0xFFF, permission_read=False,
                              permission_write=False)

    def check(regions, addr):
        try:
            implicit_data_check(regions, addr, 8, False)
            return True
        except HfiFault:
            return False

    def run():
        return (check([deny, wide, None, None], 0x8100),
                check([wide, deny, None, None], 0x8100),
                check([deny, wide, None, None], 0x100))

    deny_first, allow_first, outside = run()
    emit("ablation_first_match",
         "first-match: deny-listed sub-range readable? "
         f"deny-first={deny_first}, wide-first={allow_first}, "
         f"outside-deny={outside}")
    assert not deny_first      # deny region shadows the wide region
    assert allow_first         # ordering flips the decision
    assert outside             # unrelated addresses unaffected