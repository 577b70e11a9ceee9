#!/usr/bin/env python
"""Measure the overhead of the telemetry subsystem.

Runs two workloads with the default null sink and with a live
:class:`repro.telemetry.Telemetry` sink, and checks the guarantees the
subsystem makes:

1. **Null-sink parity**: simulated cycle counts are bit-identical with
   telemetry off or on (telemetry never feeds back into accounting).
2. **Bounded cost on the simulator**: a live sink adds at most 5%
   wall-clock to a cycle-level SPEC-analogue run (``workload``),
   because hot paths only pay an ``enabled`` flag test and sink
   events fire at sandbox-transition granularity.
3. **Bounded cost on the manager path**: a live sink at most doubles
   the wall-clock of the analytic ``SandboxManager`` invoke loop
   (``manager_invoke``), which does almost no work per call and so
   maximally exposes the per-invocation span cost.

Each overhead is the median, over 21 paired reps, of the on/off
wall-time ratio; the side that runs first alternates between reps, so
warm-up and drift fall on both sides equally.

Writes ``BENCH_telemetry_overhead.json`` at the repo root and exits 1
if a gate fails.  It is the one wall-clock result the repo commits;
every simulated number is written by ``pytest benchmarks``.

Run:  python scripts/bench_telemetry_overhead.py
"""

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.params import MachineParams
from repro.runtime import SandboxManager, TransitionKind
from repro.telemetry import Telemetry
from repro.wasm import WasmRuntime, make_strategy
from repro.workloads import SPEC_BENCHMARKS

REPS = 21
WORKLOAD = "401.bzip2"
SCALE = 2
MANAGER_INVOCATIONS = 2_000
#: Overhead budget of each workload, in percent.
BUDGET_PCT = {"workload": 5.0, "manager_invoke": 100.0}


def run_simulator(telemetry):
    params = MachineParams()
    runtime = WasmRuntime(params)
    if telemetry is not None:
        runtime.cpu.attach_telemetry(telemetry)
    module = SPEC_BENCHMARKS[WORKLOAD](SCALE)
    instance = runtime.instantiate(module, make_strategy("hfi"))
    result = runtime.run(instance)
    assert result.reason == "hlt", result.reason
    return result.stats.cycles, result.stats.instructions


def run_manager(telemetry):
    params = MachineParams()
    manager = SandboxManager(params, telemetry=telemetry)
    handles = [manager.create_sandbox(heap_bytes=1 << 18,
                                      hybrid=(i % 2 == 1))
               for i in range(8)]
    for n in range(MANAGER_INVOCATIONS):
        handle = handles[n % len(handles)]
        kind = (TransitionKind.ZERO_COST if handle.is_hybrid
                else TransitionKind.SPRINGBOARD)
        manager.invoke(handle, service_cycles=1_000, transition=kind)
    return manager.total_cycles


def measure(fn):
    """Time ``REPS`` off/on pairs, alternating which side runs first,
    and verify value parity every rep.  Returns the value and the
    medians of the off time, the on time and the per-pair on/off
    ratio."""
    fn(None)          # warm up imports / allocator before timing
    off_s, on_s, ratios = [], [], []
    for rep in range(REPS):
        times, values = {}, {}
        for on in ((False, True) if rep % 2 == 0 else (True, False)):
            begin = time.perf_counter()
            values[on] = fn(Telemetry() if on else None)
            times[on] = time.perf_counter() - begin
        assert values[False] == values[True], (
            f"null-sink parity violated: {values[False]} != {values[True]}")
        off_s.append(times[False])
        on_s.append(times[True])
        ratios.append(times[True] / times[False])
    return (values[False], statistics.median(off_s),
            statistics.median(on_s), statistics.median(ratios))


def main():
    results = {}
    # measure() asserts parity every rep, so reaching the gates means
    # the null-sink guarantee held.
    gates = {"null_sink_parity": {"passed": True}}
    for name, fn in (("workload", run_simulator),
                     ("manager_invoke", run_manager)):
        value, off_s, on_s, ratio = measure(fn)
        overhead = round(100 * (ratio - 1), 2)
        results[name] = {
            "cycles_match": True,
            "simulated": value if isinstance(value, int) else list(value),
            "wall_s_telemetry_off": round(off_s, 6),
            "wall_s_telemetry_on": round(on_s, 6),
            "overhead_pct": overhead,
        }
        gates[f"{name}_overhead"] = {
            "passed": overhead <= BUDGET_PCT[name],
            "budget_pct": BUDGET_PCT[name],
            "overhead_pct": overhead}
        print(f"{name:16s} off={off_s:.4f}s on={on_s:.4f}s "
              f"overhead={overhead:+.2f}% (budget {BUDGET_PCT[name]}%, "
              "cycles identical)")

    payload = {
        "schema_version": 2,
        "bench": "telemetry_overhead",
        "python": sys.version.split()[0],
        "config": {"workload": WORKLOAD, "scale": SCALE, "reps": REPS,
                   "manager_invocations": MANAGER_INVOCATIONS,
                   "budget_pct": BUDGET_PCT,
                   "statistic": "median of paired on/off time ratios"},
        "results": results,
        "gates": gates,
        "ok": all(g["passed"] for g in gates.values()),
    }
    path = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_telemetry_overhead.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    print(f"overhead gates: {'OK' if payload['ok'] else 'FAIL'}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
