#!/usr/bin/env python
"""Batch font/image render pipelines as sustained traffic (§6.2's
Firefox workloads under a serving loop).

Phase 1 — **measure**: run every render job (``graphite_reflow`` plus
the full ``jpeg_decode`` resolution x compression grid) to completion
on the Wasm toolchain under each compiler scheme's real codegen
(``hfi``, ``guard-pages``, ``bounds-check``).  The measured guest
cycles bake in register pressure, bounds-check instruction tax, and
serialized HFI transitions; result globals are asserted equal across
schemes.

Phase 2 — **serve**: feed a seeded job mix through the discrete-event
serving simulator at escalating offered loads, with each scheme's
service times taken from its measured column and its teardown shape
from §6.3.1 (guard-page slots must madvise their reservations
immediately; HFI/bounds-check slots batch).  Arrivals are sized
against the guard-pages baseline and shared across schemes.

Gates:

1. **accounting**: every job ends in exactly one of
   succeeded/failed/shed at every load point.
2. **measured_cells**: all (job, scheme) cells executed to ``hlt``
   with positive cycle counts, and HFI's codegen beats bounds-check's
   on every job (the Fig. 4 direction).
3. **hfi_serves_better**: at the heaviest load HFI's goodput is at
   least guard-pages' and its p99 latency is no worse — the measured
   codegen advantage must survive the serving loop.

Writes ``BENCH_render_pipelines.json`` (shared bench envelope) at the
repo root.

Run:  python scripts/bench_render_pipelines.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from bench_common import gate, write_envelope
from repro.runtime import ServingConfig, ServingSimulator
from repro.workloads import (
    RENDER_SCHEMES,
    measure_render_jobs,
    render_requests,
    render_scheme_costs,
)

SEED = 2023
JOBS = 3000
CORES = 8
SLOTS_PER_SHARD = 32
LOAD_POINTS = (0.6, 0.9, 1.2)
BASELINE_SCHEME = "guard-pages"


def main():
    print("measuring render jobs under each scheme's codegen ...")
    table = measure_render_jobs()
    for job in sorted(table):
        cells = "  ".join(f"{scheme}={table[job][scheme]:7d}"
                          for scheme in RENDER_SCHEMES)
        print(f"  {job:22s} {cells}")
    cells_ok = all(
        cycles > 0 for per in table.values() for cycles in per.values())
    hfi_beats_bounds = all(per["hfi"] < per["bounds-check"]
                           for per in table.values())

    config = ServingConfig(n_cores=CORES, slots_per_shard=SLOTS_PER_SHARD,
                           max_inflight=CORES * SLOTS_PER_SHARD)
    results = {"job_cycles": {job: dict(per)
                              for job, per in sorted(table.items())},
               "schemes": {scheme: [] for scheme in RENDER_SCHEMES}}
    all_accounted = True
    goodput_at_peak = {}
    p99_at_peak = {}
    print()
    for load in LOAD_POINTS:
        streams = render_requests(table, JOBS, seed=SEED, load=load,
                                  n_cores=CORES,
                                  baseline_scheme=BASELINE_SCHEME)
        for scheme in RENDER_SCHEMES:
            sim = ServingSimulator(render_scheme_costs(scheme), config)
            metrics = sim.run(streams[scheme])
            all_accounted = all_accounted and metrics.accounted
            if load == LOAD_POINTS[-1]:
                goodput_at_peak[scheme] = metrics.goodput_rps
                p99_at_peak[scheme] = metrics.p99_cycles
            results["schemes"][scheme].append({
                "load": load,
                "goodput_rps": round(metrics.goodput_rps, 1),
                "throughput_rps": round(metrics.throughput_rps, 1),
                "p50_cycles": metrics.p50_cycles,
                "p99_cycles": metrics.p99_cycles,
                "mean_latency_cycles": round(
                    metrics.mean_latency_cycles, 1),
                "shed": metrics.shed,
                "failed": metrics.failed,
                "peak_inflight": metrics.peak_inflight,
                "utilization": round(metrics.utilization, 4),
                "accounted": metrics.accounted,
            })
            print(f"{scheme:12s} load={load:4.2f}  "
                  f"goodput={metrics.goodput_rps:10,.0f} jobs/s  "
                  f"p50={metrics.p50_cycles:9,d}cy  "
                  f"p99={metrics.p99_cycles:10,d}cy  "
                  f"shed={metrics.shed:4d}  "
                  f"util={metrics.utilization:4.2f}")

    serves_better = (goodput_at_peak["hfi"]
                     >= goodput_at_peak["guard-pages"]
                     and p99_at_peak["hfi"] <= p99_at_peak["guard-pages"])

    print()
    payload = write_envelope(
        os.path.join(os.path.dirname(__file__), "..",
                     "BENCH_render_pipelines.json"),
        "render_pipelines",
        config={"seed": SEED, "jobs_per_point": JOBS, "cores": CORES,
                "slots_per_shard": SLOTS_PER_SHARD,
                "load_points": list(LOAD_POINTS),
                "baseline_scheme": BASELINE_SCHEME},
        results=results,
        gates={
            "accounting": gate(all_accounted),
            "measured_cells": gate(
                cells_ok and hfi_beats_bounds,
                cells=len(table) * len(RENDER_SCHEMES),
                hfi_beats_bounds_check=hfi_beats_bounds),
            "hfi_serves_better": gate(
                serves_better,
                goodput_hfi=round(goodput_at_peak["hfi"]),
                goodput_guard_pages=round(
                    goodput_at_peak["guard-pages"]),
                p99_hfi=p99_at_peak["hfi"],
                p99_guard_pages=p99_at_peak["guard-pages"]),
        })
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
