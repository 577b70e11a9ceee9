"""Benchmark the out-of-order timing backend against the in-order one.

Four experiments over *simulated cycles* (not wall clock), all on the
staged engine so only the timing model varies:

* **dispatch suite** — dispatch-bound workloads (a synthetic
  straight-line ALU kernel plus loopy Sightglass/SPEC members) under
  both timing models.  Gated: the OoO
  backend must never report more cycles than the in-order model on
  this suite (a wide machine strictly adds overlap on dispatch-bound
  code), and architectural counters must be bit-identical.
* **width/depth sweep** — the straight-line ALU kernel across machine
  widths {1, 2, 4, 8} x ROB depths {16, 64, 128}.  Gated: cycles are
  monotonically non-increasing as either resource grows (a scoreboard
  that slows down when given more hardware is wrong).
* **hmov overlap** (§4.2) — the load/store-dense kernel under the HFI
  strategy with the hmov bounds check forced to cost 3 cycles.  Gated:
  the OoO cycle count does not move (the check hides under the dTLB +
  L1D latency of the access it guards), while the in-order model —
  which by construction charges it serially — gets strictly slower.
  This is the paper's "checks run in parallel with TLB lookup" claim,
  demonstrated structurally rather than assumed.
* **serialization drain** (§3.4, Figs. 6/7 analogue) — the NGINX-shaped
  sandbox transition loop with serialized vs unserialized
  ``hfi_enter``/``hfi_exit``.  Gated: serialization costs cycles under
  both models, and costs *more* on the OoO machine, which loses the
  window of in-flight work a drain empties — the reason the paper
  treats serialized transitions as the expensive deployment mode.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/bench_ooo.py

Writes ``BENCH_ooo_sweep.json`` (the shared bench envelope).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_common import gate, write_envelope

OUT_DEFAULT = pathlib.Path(__file__).resolve().parents[1] / \
    "BENCH_ooo_sweep.json"

TIMINGS = ("inorder", "ooo")
WIDTHS = (1, 2, 4, 8)
ROB_DEPTHS = (16, 64, 128)
TRANSITION_ITERS = 200

#: (suite, benchmark, strategy, scale) of the dispatch-bound suite.
DISPATCH_SUITE = [
    ("synthetic", "alu", "guard-pages", 8),
    ("synthetic", "alu", "hfi", 8),
    ("sightglass", "fib2", "guard-pages", 8),
    ("sightglass", "memmove", "hfi", 6),
    ("spec", "429.mcf", "hfi", 4),
]


def build_alu_kernel(scale):
    """A hot straight-line ALU loop: four independent chains."""
    from repro.wasm.ir import (BinOp, BinaryOp, Const, Function, Loop,
                               Module, StoreGlobal)
    ops = [Const("a", 1), Const("b", 2), Const("c", 3), Const("d", 4)]
    chain = []
    for _ in range(4):
        chain += [
            BinOp(BinaryOp.ADD, "a", "a", "b"),
            BinOp(BinaryOp.XOR, "b", "b", "c"),
            BinOp(BinaryOp.ADD, "c", "c", "d"),
            BinOp(BinaryOp.SUB, "d", "d", "a"),
        ]
    ops.append(Loop(scale * 1500, chain))
    ops.append(StoreGlobal("result", "a"))
    return Module("alu-kernel", [Function("main", ops)],
                  globals=["result"])


def build_mem_kernel(scale):
    """A load/store-dense loop: one bounds check per access."""
    from repro.wasm.ir import (BinOp, BinaryOp, Const, Function, Load,
                               Loop, Module, Store, StoreGlobal)
    ops = [Const("addr", 64), Const("acc", 0)]
    chain = []
    for i in range(4):
        chain += [
            Load("t", "addr", offset=8 * i),
            BinOp(BinaryOp.ADD, "acc", "acc", "t"),
            Store("addr", "acc", offset=8 * i + 256),
        ]
    chain.append(BinOp(BinaryOp.ADD, "addr", "addr", 8))
    ops.append(Loop(scale * 1000, chain))
    ops.append(StoreGlobal("result", "acc"))
    return Module("mem-kernel", [Function("main", ops)],
                  globals=["result"])


SYNTHETIC = {"alu": build_alu_kernel, "mem": build_mem_kernel}


def _builder(suite, name):
    if suite == "synthetic":
        return SYNTHETIC[name]
    if suite == "sightglass":
        from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS
        return SIGHTGLASS_BENCHMARKS[name]
    from repro.workloads.spec import SPEC_BENCHMARKS
    return SPEC_BENCHMARKS[name]


def _run_workload(suite, name, strategy, scale, timing, params=None):
    """One workload on the staged engine under ``timing``; returns the
    CPU stats plus (for ooo) the scoreboard counters."""
    from repro.params import MachineParams
    from repro.wasm import WasmRuntime, make_strategy

    module = _builder(suite, name)(scale)
    runtime = WasmRuntime(params or MachineParams(), timing=timing)
    instance = runtime.instantiate(module, make_strategy(strategy))
    result = runtime.run(instance, max_instructions=50_000_000)
    assert result.reason == "hlt", (name, timing, result.reason)
    stats = runtime.cpu.stats
    row = {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "branches": stats.branches,
        "mispredicts": stats.mispredicts,
    }
    if timing == "ooo":
        row["ooo"] = runtime.cpu.timing.ooo_stats().as_dict()
        assert runtime.cpu.timing.audit() == [], (name, "audit")
    return row


# ----------------------------------------------------------------------
# 1. dispatch-bound suite, both timing models
# ----------------------------------------------------------------------
def run_dispatch_suite():
    rows = []
    for suite, name, strategy, scale in DISPATCH_SUITE:
        per = {t: _run_workload(suite, name, strategy, scale, t)
               for t in TIMINGS}
        base, ooo = per["inorder"], per["ooo"]
        arch_identical = all(base[k] == ooo[k] for k in
                             ("instructions", "loads", "stores",
                              "branches", "mispredicts"))
        row = {
            "workload": f"{suite}:{name}:{strategy}",
            "scale": scale,
            "timings": per,
            "speedup": round(base["cycles"] / ooo["cycles"], 2),
            "arch_identical": arch_identical,
        }
        rows.append(row)
        print(f"[dispatch] {row['workload']:38s} "
              f"{base['cycles']:>10,d} -> {ooo['cycles']:>10,d} cycles "
              f"({row['speedup']:.2f}x, "
              f"{'identical' if arch_identical else 'DIVERGED'})",
              flush=True)
    return rows


# ----------------------------------------------------------------------
# 2. width x ROB-depth sweep on the ALU kernel
# ----------------------------------------------------------------------
def run_sweep():
    from repro.params import MachineParams

    grid = {}
    for width in WIDTHS:
        for depth in ROB_DEPTHS:
            params = MachineParams().with_overrides(
                ooo_width=width, ooo_rob_depth=depth)
            row = _run_workload("synthetic", "alu", "guard-pages", 2,
                                "ooo", params=params)
            grid[f"w{width}_rob{depth}"] = {
                "width": width, "rob_depth": depth,
                "cycles": row["cycles"],
                "rob_stalls": row["ooo"]["rob_stalls"],
                "peak_inflight": row["ooo"]["peak_inflight"],
            }
            print(f"[sweep   ] width={width} rob={depth:>3d}  "
                  f"{row['cycles']:>9,d} cycles  "
                  f"rob_stalls={row['ooo']['rob_stalls']:,d}  "
                  f"peak_inflight={row['ooo']['peak_inflight']}",
                  flush=True)
    return grid


def _sweep_monotone(grid):
    """Cycles never increase as width or ROB depth grows."""
    violations = []
    for depth in ROB_DEPTHS:
        for lo, hi in zip(WIDTHS, WIDTHS[1:]):
            a = grid[f"w{lo}_rob{depth}"]["cycles"]
            b = grid[f"w{hi}_rob{depth}"]["cycles"]
            if b > a:
                violations.append(f"rob={depth}: width {lo}->{hi} "
                                  f"{a}->{b}")
    for width in WIDTHS:
        for lo, hi in zip(ROB_DEPTHS, ROB_DEPTHS[1:]):
            a = grid[f"w{width}_rob{lo}"]["cycles"]
            b = grid[f"w{width}_rob{hi}"]["cycles"]
            if b > a:
                violations.append(f"width={width}: rob {lo}->{hi} "
                                  f"{a}->{b}")
    return violations


# ----------------------------------------------------------------------
# 3. hmov bounds-check overlap (§4.2)
# ----------------------------------------------------------------------
def run_hmov_overlap(check_cycles=3):
    from repro.params import MachineParams

    results = {}
    for timing in TIMINGS:
        per = {}
        for extra in (0, check_cycles):
            params = MachineParams().with_overrides(
                hmov_extra_cycles=extra)
            row = _run_workload("synthetic", "mem", "hfi", 2, timing,
                                params=params)
            per[f"extra{extra}"] = row["cycles"]
            if timing == "ooo":
                per.setdefault("overlap_rate", round(
                    row["ooo"]["checks_overlapped"]
                    / max(1, row["ooo"]["checks_overlapped"]
                          + row["ooo"]["checks_exposed"]), 4))
        per["delta"] = per[f"extra{check_cycles}"] - per["extra0"]
        results[timing] = per
        print(f"[hmov    ] {timing:8s} extra=0: {per['extra0']:,d}  "
              f"extra={check_cycles}: {per[f'extra{check_cycles}']:,d}  "
              f"delta={per['delta']:,d}", flush=True)
    return results


# ----------------------------------------------------------------------
# 4. serialization drain (§3.4, Figs. 6/7 analogue)
# ----------------------------------------------------------------------
def _transition_cycles(timing, serialized, iterations=TRANSITION_ITERS):
    """The golden NGINX transition loop, parameterized on whether the
    sandbox descriptor marks enter/exit as serialized."""
    from repro.core import (ImplicitCodeRegion, ImplicitDataRegion,
                            SandboxFlags)
    from repro.core.encoding import encode_region, encode_sandbox
    from repro.core.regions import ExplicitDataRegion
    from repro.cpu.machine import Cpu
    from repro.isa import Assembler, Imm, Mem, Reg
    from repro.os.address_space import AddressSpace, Prot
    from repro.params import MachineParams

    params = MachineParams()
    mem = AddressSpace(params)
    cpu = Cpu(params, memory=mem, timing=timing)
    heap = mem.mmap(1 << 20, Prot.rw(), addr=0x10_0000)
    stack = mem.mmap(1 << 16, Prot.rw(), addr=0x7F_0000)
    cpu.regs.write(Reg.RSP, stack + (1 << 16) - 64)
    desc = mem.mmap(4096, Prot.rw(), addr=0x20_0000)

    code = ImplicitCodeRegion.covering(0x40_0000, 1 << 16)
    data = ImplicitDataRegion(heap, 0xFFFF, True, True)
    stack_region = ImplicitDataRegion(0x7F_0000, 0xFFFF, True, True)
    explicit = ExplicitDataRegion(heap, 1 << 16, permission_read=True,
                                  permission_write=True)
    mem.write_bytes(desc, encode_region(code))
    mem.write_bytes(desc + 24, encode_region(data))
    mem.write_bytes(desc + 48, encode_region(stack_region))
    mem.write_bytes(desc + 72, encode_region(explicit))
    mem.write_bytes(desc + 96, encode_sandbox(
        SandboxFlags(is_hybrid=False, is_serialized=serialized)))

    asm = Assembler()
    asm.mov(Reg.RDI, Imm(desc))
    asm.hfi_set_region(0, Reg.RDI)
    asm.mov(Reg.RDI, Imm(desc + 24))
    asm.hfi_set_region(2, Reg.RDI)
    asm.mov(Reg.RDI, Imm(desc + 48))
    asm.hfi_set_region(3, Reg.RDI)
    asm.mov(Reg.RDI, Imm(desc + 72))
    asm.hfi_set_region(6, Reg.RDI)
    asm.mov(Reg.R8, Imm(iterations))
    asm.mov(Reg.RDI, Imm(desc + 96))
    asm.label("request")
    asm.hfi_enter(Reg.RDI)
    asm.mov(Reg.RBX, Imm(heap))
    asm.mov(Reg.RAX, Mem(base=Reg.RBX, disp=16))
    asm.add(Reg.RAX, Imm(0x1234))
    asm.mov(Mem(base=Reg.RBX, disp=16), Reg.RAX)
    asm.mov(Reg.RCX, Imm(64))
    asm.hmov(0, Reg.RDX, Mem(index=Reg.RCX, scale=1, disp=0))
    asm.hmov(0, Mem(index=Reg.RCX, scale=1, disp=8), Reg.RDX)
    asm.hfi_exit()
    asm.dec(Reg.R8)
    asm.jne("request")
    asm.hlt()
    program = asm.assemble()
    cpu.load_program(program)
    result = cpu.run(program.base, max_instructions=1_000_000)
    assert result.reason == "hlt", (timing, serialized, result.reason)
    return cpu.stats.cycles


def run_serialization_drain():
    results = {}
    for timing in TIMINGS:
        serialized = _transition_cycles(timing, True)
        unserialized = _transition_cycles(timing, False)
        per_transition = ((serialized - unserialized)
                          / (2 * TRANSITION_ITERS))  # enter + exit
        results[timing] = {
            "serialized_cycles": serialized,
            "unserialized_cycles": unserialized,
            "drain_cost_per_transition": round(per_transition, 2),
        }
        print(f"[drain   ] {timing:8s} serialized: {serialized:,d}  "
              f"unserialized: {unserialized:,d}  "
              f"per-transition: {per_transition:.1f}", flush=True)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_DEFAULT)
    args = parser.parse_args()

    dispatch = run_dispatch_suite()
    sweep = run_sweep()
    hmov = run_hmov_overlap()
    drain = run_serialization_drain()

    monotone_violations = _sweep_monotone(sweep)
    gates = {
        "ooo_not_slower": gate(
            all(r["timings"]["ooo"]["cycles"]
                <= r["timings"]["inorder"]["cycles"] for r in dispatch),
            slower=[r["workload"] for r in dispatch
                    if r["timings"]["ooo"]["cycles"]
                    > r["timings"]["inorder"]["cycles"]]),
        "arch_identical": gate(
            all(r["arch_identical"] for r in dispatch),
            diverged=[r["workload"] for r in dispatch
                      if not r["arch_identical"]]),
        "width_monotone": gate(not monotone_violations,
                               violations=monotone_violations),
        "hmov_overlapped": gate(
            hmov["ooo"]["delta"] == 0 and hmov["inorder"]["delta"] > 0,
            ooo_delta=hmov["ooo"]["delta"],
            inorder_delta=hmov["inorder"]["delta"],
            overlap_rate=hmov["ooo"].get("overlap_rate")),
        "drain_costs_cycles": gate(
            all(d["serialized_cycles"] > d["unserialized_cycles"]
                for d in drain.values()),
            per_transition={t: d["drain_cost_per_transition"]
                            for t, d in drain.items()}),
        "drain_hurts_ooo_more": gate(
            drain["ooo"]["drain_cost_per_transition"]
            >= drain["inorder"]["drain_cost_per_transition"],
            ooo=drain["ooo"]["drain_cost_per_transition"],
            inorder=drain["inorder"]["drain_cost_per_transition"]),
    }
    payload = write_envelope(
        args.out, "ooo_sweep",
        config={"engine": "staged", "timing": None,  # swept
                "timings": list(TIMINGS), "widths": list(WIDTHS),
                "rob_depths": list(ROB_DEPTHS),
                "dispatch_suite": [list(e) for e in DISPATCH_SUITE],
                "transition_iterations": TRANSITION_ITERS},
        results={"dispatch": dispatch, "sweep": sweep, "hmov": hmov,
                 "serialization_drain": drain},
        gates=gates)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
