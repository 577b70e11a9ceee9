"""§6.3.2 — scalability of sandbox creation.

Paper: eliding guard pages lets Wasmtime create up to 256,000 1 GiB
sandboxes in a single process (full use of the address space), where
the 8 GiB guard-page scheme caps out at ~16K-32K instances.
"""

import pytest

from repro.analysis import emit, format_table
from repro.os import AddressSpace, OutOfAddressSpace
from repro.params import MachineParams
from repro.wasm import GuardPagesStrategy, HfiStrategy

GIB = 1 << 30


def count_instances(strategy, va_bits, heap_bytes=GIB,
                    cap=400_000) -> int:
    params = MachineParams()
    space = AddressSpace(params, va_bits=va_bits)
    count = 0
    while count < cap:
        try:
            strategy.reserve_memory(space, heap_bytes)
        except OutOfAddressSpace:
            break
        count += 1
    return count


def run():
    results = {}
    for va_bits in (47, 48):
        results[("guard-pages", va_bits)] = count_instances(
            GuardPagesStrategy(), va_bits)
        results[("hfi", va_bits)] = count_instances(
            HfiStrategy(), va_bits)
    return results


def test_sec632_scalability():
    results = run()
    rows = [(scheme, f"{bits}-bit", f"{count:,}")
            for (scheme, bits), count in sorted(results.items())]
    table = format_table(
        ["scheme", "user VA", "max 1 GiB sandboxes"],
        rows,
        title=("§6.3.2 concurrent 1 GiB sandboxes per process "
               "(paper: 256,000 with guard pages elided; ~16K for the "
               "8 GiB scheme on a 47-bit VA)"))
    emit("sec632_scalability", table)

    # Paper's headline: 256,000 sandboxes with guards elided (48-bit VA)
    assert results[("hfi", 48)] >= 250_000
    # The 8 GiB scheme is ~8x worse at every VA width
    for bits in (47, 48):
        ratio = results[("hfi", bits)] / results[("guard-pages", bits)]
        assert ratio >= 7.5, ratio
    # and the classic 2^47 figure: ~16K instances
    assert 14_000 <= results[("guard-pages", 47)] <= 17_000