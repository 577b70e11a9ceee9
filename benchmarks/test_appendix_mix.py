"""Appendix — the instruction mixes behind the Fig. 3 shapes.

EXPERIMENTS.md explains Fig. 3 with instruction-mix deltas: bounds
checks add a compare and a conditional branch per access; HFI swaps
``mov`` for ``hmov`` and frees the pinned heap-base register, so it
spills less; and gobmk's ``hmov`` encodings make its HFI binary larger
than its guard-page binary, the paper's i-cache regression.  One
representative workload per suite runs under the three Fig. 3
strategies with a tracer attached, and the deltas the prose states are
asserted.
"""

from repro.analysis import compare, emit, format_table
from repro.workloads import SIGHTGLASS_BENCHMARKS, SPEC_BENCHMARKS

STRATEGIES = ["guard-pages", "bounds-check", "hfi"]
PICKS = [
    ("sieve", SIGHTGLASS_BENCHMARKS["sieve"]),
    ("445.gobmk", SPEC_BENCHMARKS["445.gobmk"]),
    ("429.mcf", SPEC_BENCHMARKS["429.mcf"]),
]


def run():
    return {name: compare(make_module(1), STRATEGIES)
            for name, make_module in PICKS}


def format_mixes(profiles) -> str:
    sections = []
    for name, _ in PICKS:
        rows = []
        for strategy in STRATEGIES:
            p = profiles[name][strategy]
            rows.append((strategy, f"{p.cycles:,}", f"{p.instructions:,}",
                         f"{p.memory_ops:,}", f"{p.branches:,}",
                         f"{p.binary_size:,}", f"{p.ipc_proxy:.2f}"))
        table = format_table(
            ["strategy", "cycles", "instructions", "mem ops",
             "branches", "binary B", "insn/cycle"],
            rows, title=f"== {name} ==")
        top = ", ".join(f"{op}:{n}"
                        for op, n in profiles[name]["hfi"].top(6))
        sections.append(f"{table}\nhfi top opcodes: {top}")
    return "\n\n".join(sections)


def test_appendix_mix():
    profiles = run()
    emit("appendix_mix", format_mixes(profiles))

    for name, _ in PICKS:
        guard = profiles[name]["guard-pages"]
        bounds = profiles[name]["bounds-check"]
        # a compare and a branch before every access
        assert bounds.instructions > guard.instructions, name
        assert bounds.branches > guard.branches, name
    for name in ("sieve", "429.mcf"):
        # no pinned heap base: fewer spill loads and stores
        assert (profiles[name]["hfi"].memory_ops
                < profiles[name]["guard-pages"].memory_ops), name
    gobmk = profiles["445.gobmk"]
    # the hmov prefix bytes behind gobmk's i-cache regression
    assert gobmk["hfi"].binary_size > gobmk["guard-pages"].binary_size
