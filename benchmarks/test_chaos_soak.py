"""Goodput retained under injected faults: HFI vs guard pages.

Runs the chaos soak (``repro.chaos.run_soak``) at escalating injected
fault rates — 1%, 5%, 20% — for a pool backed by each isolation
strategy, and reports *goodput retained*: successful base-workload
requests per simulated second, relative to the same seeded workload
served fault-free.

Gates:

1. **all_clean** (robustness): every seeded run at every rate ends
   clean — zero leaked pool slots, zero zombie sandboxes, clean pool
   invariants, and every injected fault classified.
2. **goodput_retained** (graceful degradation): at the 5% fault rate
   the serving loop on real sandboxes retains at least 90% of
   fault-free goodput (watchdog kills, quarantine scrubs, backoff, and
   shed bursts together cost < 10%).

Writes ``benchmarks/results/chaos_soak.json``.
"""

from repro.analysis import emit_json
from repro.chaos import run_soak

SEEDS = range(20)
REQUESTS = 200
FAULT_RATES = (0.01, 0.05, 0.20)
STRATEGIES = ("hfi", "guard-pages")
GATE_RATE = 0.05
GATE_RETAINED = 0.90


def test_chaos_soak():
    results = {"strategies": {}}
    all_clean = True
    gate_retained = {}
    for strategy in STRATEGIES:
        rows = []
        for rate in FAULT_RATES:
            report = run_soak(SEEDS, n_requests=REQUESTS,
                              fault_rate=rate, strategy=strategy)
            retained = report.goodput_retained
            all_clean = all_clean and report.clean
            if rate == GATE_RATE:
                gate_retained[strategy] = retained
            rows.append({
                "fault_rate": rate,
                "injected": report.injected,
                "breakdown": report.breakdown(),
                "unaccounted": report.unaccounted,
                "leaked_slots": report.leaked_slots,
                "zombie_sandboxes": report.zombie_sandboxes,
                "invariant_violations": report.invariant_violations,
                "goodput_retained": round(retained, 4),
                "clean": report.clean,
            })
        results["strategies"][strategy] = rows
    retained_at_gate = {k: round(v, 4) for k, v in gate_retained.items()}
    results["goodput_retained_at_gate"] = retained_at_gate

    gates = {
        "all_clean": {"passed": all_clean},
        "goodput_retained": {
            "passed": all(r is not None and r >= GATE_RETAINED
                          for r in gate_retained.values()),
            "floor": GATE_RETAINED, "retained": retained_at_gate},
    }
    emit_json("chaos_soak", {
        "config": {"seeds": len(SEEDS), "requests_per_seed": REQUESTS,
                   "fault_rates": list(FAULT_RATES),
                   "gate_fault_rate": GATE_RATE,
                   "min_goodput_retained": GATE_RETAINED},
        "results": results,
        "gates": gates,
    })
    for name, gate in gates.items():
        assert gate["passed"], f"gate {name} failed: {gate}"
