#!/usr/bin/env python
"""Regenerate tests/golden_serving.json — the serving layer's
bit-exact regression fixture.

The serving simulator is deterministic by construction: integer-cycle
event times, a stable event order, and seeded RNG only.  This script
pins that property down — for each isolation scheme it runs three
fixed workloads (a steady 0.9x Poisson load, a bursty 1.15x MMPP
overload, and the steady load again under a seeded 5% chaos injector,
which pins how the cost model prices each fault) and records the
exact integer results: request fates, latency percentiles in cycles,
steal/peak counters, and the metrics digest.
``tests/test_golden_serving.py`` replays the same runs and asserts
bit-for-bit equality.

Only regenerate after an *intentional* behavior change, and review the
diff — every changed number is a semantic change to the serving layer:

    python scripts/gen_golden_serving.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chaos import ChaosConfig, ChaosInjector
from repro.runtime import SERVING_SCHEMES, ServingConfig, simulate_serving

#: (label, arrival, offered load) — steady state, bursty overload, and
#: steady state with faults injected.
SCENARIOS = (("steady", "poisson", 0.9), ("burst", "mmpp", 1.15),
             ("chaos", "poisson", 0.9))
SEED = 11
REQUESTS = 600
CONFIG = dict(n_cores=4, slots_per_shard=8, max_inflight=32)
#: The chaos scenario's per-request fault rate.  Its burst injections
#: add no traffic here, so only the per-invocation faults fire.
CHAOS_FAULT_RATE = 0.05

#: The integer fields pinned per run (everything digest() covers,
#: named explicitly so fixture diffs read as a checklist).
PINNED = ("requests", "succeeded", "failed", "shed", "retried",
          "quarantined", "killed", "breaker_shed", "steals",
          "peak_inflight", "duration_cycles", "busy_cycles",
          "recycle_cycles", "p50_cycles", "p99_cycles", "p999_cycles")


def golden_runs():
    runs = {}
    for scheme in SERVING_SCHEMES:
        for label, arrival, load in SCENARIOS:
            injector = None
            if label == "chaos":
                injector = ChaosInjector(
                    SEED, ChaosConfig(fault_rate=CHAOS_FAULT_RATE))
                injector.plan(REQUESTS)
            metrics = simulate_serving(
                scheme, n_requests=REQUESTS, seed=SEED, arrival=arrival,
                offered_load=load, config=ServingConfig(**CONFIG),
                injector=injector)
            entry = {field: getattr(metrics, field) for field in PINNED}
            entry["digest"] = metrics.digest()
            runs[f"{scheme}/{label}"] = entry
    return runs


def main():
    fixture = {
        "_comment": "Generated by scripts/gen_golden_serving.py -- "
                    "do not edit by hand.",
        "seed": SEED,
        "requests": REQUESTS,
        "config": CONFIG,
        "scenarios": [list(s) for s in SCENARIOS],
        "chaos_fault_rate": CHAOS_FAULT_RATE,
        "runs": golden_runs(),
    }
    out = os.path.join(os.path.dirname(__file__), "..", "tests",
                       "golden_serving.json")
    with open(out, "w") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in fixture["runs"].items():
        print(f"{name:24s} ok={entry['succeeded']:4d} "
              f"shed={entry['shed']:3d} steals={entry['steals']:3d} "
              f"p99={entry['p99_cycles']}")
    print(f"wrote {os.path.abspath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
