#!/usr/bin/env python
"""Measure the overhead of the telemetry subsystem.

Runs the same cycle-level SPEC-analogue workload with the default null
sink and with a live :class:`repro.telemetry.Telemetry` sink, and
checks the two guarantees the subsystem makes:

1. **Null-sink parity**: simulated cycle counts are bit-identical with
   telemetry off or on (telemetry never feeds back into accounting).
2. **Bounded cost**: instrumentation adds at most 5% wall-clock to the
   workload, because hot paths only pay an ``enabled`` flag test and
   sink events fire at sandbox-transition granularity.

An attribution micro-benchmark (the analytic ``SandboxManager`` invoke
loop, which does almost no work per call and so maximally exposes
per-event recording cost) is also reported, informationally.

Writes ``BENCH_telemetry_overhead.json`` at the repo root and exits 1
if a gate fails.  It is the one wall-clock result the repo commits;
every simulated number is written by ``pytest benchmarks``.

Run:  python scripts/bench_telemetry_overhead.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.params import MachineParams
from repro.runtime import SandboxManager, TransitionKind
from repro.telemetry import Telemetry
from repro.wasm import WasmRuntime, make_strategy
from repro.workloads import SPEC_BENCHMARKS

REPS = 7
WORKLOAD = "401.bzip2"
SCALE = 2
MANAGER_INVOCATIONS = 2_000
BUDGET_PCT = 5.0


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
    """Interleave off/on reps (to cancel warm-up drift), keep the best
    time of each configuration, and verify value parity every rep."""
    best_off = best_on = float("inf")
    value_off = value_on = None
    fn(None)          # warm up imports / allocator before timing
    for _ in range(REPS):
        begin = time.perf_counter()
        value_off = fn(None)
        best_off = min(best_off, time.perf_counter() - begin)
        begin = time.perf_counter()
        value_on = fn(Telemetry())
        best_on = min(best_on, time.perf_counter() - begin)
        assert value_off == value_on, (
            f"null-sink parity violated: {value_off} != {value_on}")
    return value_off, best_off, best_on


def main():
    results = {}
    for name, fn, gated in (("workload", run_simulator, True),
                            ("attribution_microbench", run_manager, False)):
        value, off_s, on_s = measure(fn)
        overhead = 100 * (on_s / off_s - 1)
        results[name] = {
            "cycles_match": True,
            "simulated": value if isinstance(value, int) else list(value),
            "wall_s_telemetry_off": round(off_s, 6),
            "wall_s_telemetry_on": round(on_s, 6),
            "overhead_pct": round(overhead, 2),
            "gated": gated,
        }
        print(f"{name:24s} off={off_s:.4f}s on={on_s:.4f}s "
              f"overhead={overhead:+.2f}%  (cycles identical)")

    overhead_pct = results["workload"]["overhead_pct"]
    gates = {
        # measure() asserts parity every rep, so reaching here means
        # the null-sink guarantee held.
        "null_sink_parity": {"passed": True},
        "overhead_budget": {"passed": overhead_pct <= BUDGET_PCT,
                            "budget_pct": BUDGET_PCT,
                            "overhead_pct": overhead_pct},
    }
    payload = {
        "schema_version": 1,
        "bench": "telemetry_overhead",
        "python": sys.version.split()[0],
        "config": {"workload": WORKLOAD, "scale": SCALE, "reps": REPS,
                   "budget_pct": BUDGET_PCT},
        "results": results,
        "gates": gates,
        "ok": all(g["passed"] for g in gates.values()),
    }
    path = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_telemetry_overhead.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    print(f"overhead budget {BUDGET_PCT}%: "
          f"{'OK' if payload['ok'] else 'FAIL'}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
