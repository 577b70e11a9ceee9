"""The out-of-order timing backend against the in-order one.

Four experiments over *simulated cycles*, all on the one execution
engine so only the timing model varies:

* **dispatch suite** — dispatch-bound workloads (a synthetic
  straight-line ALU kernel plus loopy Sightglass/SPEC members) under
  both timing models.  Gated: the OoO backend must never report more
  cycles than the in-order model on this suite (a wide machine
  strictly adds overlap on dispatch-bound code), and architectural
  counters must be bit-identical.
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

Writes ``benchmarks/results/ooo_sweep.json``.
"""

from repro.analysis import emit_json
from repro.cpu import default_timing
from repro.params import MachineParams
from repro.wasm import WasmRuntime, make_strategy
from repro.wasm.ir import (BinOp, BinaryOp, Const, Function, Load, Loop,
                           Module, Store, StoreGlobal)
from repro.workloads.golden import transition_loop
from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS

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


BUILDERS = {
    "synthetic": {"alu": build_alu_kernel, "mem": build_mem_kernel},
    "sightglass": SIGHTGLASS_BENCHMARKS,
    "spec": SPEC_BENCHMARKS,
}


def run_workload(suite, name, strategy, scale, timing, params=None):
    """One workload under ``timing``; returns the CPU stats plus (for
    ooo) the scoreboard counters."""
    module = BUILDERS[suite][name](scale)
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
        per = {t: run_workload(suite, name, strategy, scale, t)
               for t in TIMINGS}
        base, ooo = per["inorder"], per["ooo"]
        rows.append({
            "workload": f"{suite}:{name}:{strategy}",
            "scale": scale,
            "timings": per,
            "speedup": round(base["cycles"] / ooo["cycles"], 2),
            "arch_identical": all(base[k] == ooo[k] for k in
                                  ("instructions", "loads", "stores",
                                   "branches", "mispredicts")),
        })
    return rows


# ----------------------------------------------------------------------
# 2. width x ROB-depth sweep on the ALU kernel
# ----------------------------------------------------------------------
def run_sweep():
    grid = {}
    for width in WIDTHS:
        for depth in ROB_DEPTHS:
            params = MachineParams().with_overrides(
                ooo_width=width, ooo_rob_depth=depth)
            row = run_workload("synthetic", "alu", "guard-pages", 2,
                               "ooo", params=params)
            grid[f"w{width}_rob{depth}"] = {
                "width": width, "rob_depth": depth,
                "cycles": row["cycles"],
                "rob_stalls": row["ooo"]["rob_stalls"],
                "peak_inflight": row["ooo"]["peak_inflight"],
            }
    return grid


def sweep_violations(grid):
    """Every step where cycles increase as width or ROB depth grows."""
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
    results = {}
    for timing in TIMINGS:
        per = {}
        for extra in (0, check_cycles):
            params = MachineParams().with_overrides(
                hmov_extra_cycles=extra)
            row = run_workload("synthetic", "mem", "hfi", 2, timing,
                               params=params)
            per[f"extra{extra}"] = row["cycles"]
            if timing == "ooo":
                per.setdefault("overlap_rate", round(
                    row["ooo"]["checks_overlapped"]
                    / max(1, row["ooo"]["checks_overlapped"]
                          + row["ooo"]["checks_exposed"]), 4))
        per["delta"] = per[f"extra{check_cycles}"] - per["extra0"]
        results[timing] = per
    return results


# ----------------------------------------------------------------------
# 4. serialization drain (§3.4, Figs. 6/7 analogue)
# ----------------------------------------------------------------------
def transition_cycles(timing, serialized, iterations=TRANSITION_ITERS):
    """The golden NGINX transition loop under ``timing``, with enter and
    exit serialized or not."""
    with default_timing(timing):
        metrics = transition_loop(iterations, serialized=serialized)
    assert metrics["reason"] == "hlt", (timing, serialized,
                                        metrics["reason"])
    return metrics["cycles"]


def run_serialization_drain():
    results = {}
    for timing in TIMINGS:
        serialized = transition_cycles(timing, True)
        unserialized = transition_cycles(timing, False)
        per_transition = ((serialized - unserialized)
                          / (2 * TRANSITION_ITERS))  # enter + exit
        results[timing] = {
            "serialized_cycles": serialized,
            "unserialized_cycles": unserialized,
            "drain_cost_per_transition": round(per_transition, 2),
        }
    return results


def test_ooo_sweep():
    dispatch = run_dispatch_suite()
    sweep = run_sweep()
    hmov = run_hmov_overlap()
    drain = run_serialization_drain()

    slower = [r["workload"] for r in dispatch
              if r["timings"]["ooo"]["cycles"]
              > r["timings"]["inorder"]["cycles"]]
    diverged = [r["workload"] for r in dispatch if not r["arch_identical"]]
    violations = sweep_violations(sweep)
    per_transition = {t: d["drain_cost_per_transition"]
                      for t, d in drain.items()}
    gates = {
        "ooo_not_slower": {"passed": not slower, "slower": slower},
        "arch_identical": {"passed": not diverged, "diverged": diverged},
        "width_monotone": {"passed": not violations,
                           "violations": violations},
        "hmov_overlapped": {
            "passed": (hmov["ooo"]["delta"] == 0
                       and hmov["inorder"]["delta"] > 0),
            "ooo_delta": hmov["ooo"]["delta"],
            "inorder_delta": hmov["inorder"]["delta"],
            "overlap_rate": hmov["ooo"].get("overlap_rate")},
        "drain_costs_cycles": {
            "passed": all(d["serialized_cycles"] > d["unserialized_cycles"]
                          for d in drain.values()),
            "per_transition": per_transition},
        "drain_hurts_ooo_more": {
            "passed": per_transition["ooo"] >= per_transition["inorder"],
            "ooo": per_transition["ooo"],
            "inorder": per_transition["inorder"]},
    }
    emit_json("ooo_sweep", {
        "config": {"timings": list(TIMINGS), "widths": list(WIDTHS),
                   "rob_depths": list(ROB_DEPTHS),
                   "dispatch_suite": [list(e) for e in DISPATCH_SUITE],
                   "transition_iterations": TRANSITION_ITERS},
        "results": {"dispatch": dispatch, "sweep": sweep, "hmov": hmov,
                    "serialization_drain": drain},
        "gates": gates,
    })
    for name, gate in gates.items():
        assert gate["passed"], f"gate {name} failed: {gate}"
