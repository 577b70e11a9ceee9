#!/usr/bin/env python
"""NGINX + sandboxed OpenSSL under connection churn (§6.4.2 at
production intensity).

Drives the discrete-event serving simulator with TLS *connections*
(handshake + keep-alive requests + teardown) instead of flat
requests.  Every connection gets a fresh crypto sandbox, so each
scheme pays its real lifecycle:

* **setup** at accept: measured mmap/mprotect walks from
  :func:`repro.runtime.serving.connection_lifecycle_costs` against a
  live :class:`AddressSpace` (plus descriptor staging for HFI, plus
  ``pkey_mprotect`` heap tagging for MPK);
* **per-crypto-call domain switches** inside the service time, priced
  by the one shared :class:`TransitionModel` formula;
* **teardown** at close: measured ``madvise_dontneed`` page zapping
  (plus pkey untag for MPK).

Every scheme sees the identical connection stream per load point
(same arrivals, tenants, file sizes, keep-alive counts), so cost
differences — never traffic differences — explain the results.

Gates:

1. **accounting**: every connection ends in exactly one of
   succeeded/failed/shed at every load point.
2. **measured_lifecycle**: setup/teardown costs are nonzero and
   ordered — MPK's pkey tag/untag syscalls make its lifecycle
   strictly the most expensive; HFI's descriptor staging costs no
   syscall.
3. **isolation_tax_ordering**: at the heaviest load, mean latency
   orders unprotected <= hfi <= mpk (HFI's switch tax is below
   ERIM's double-gate wrpkru pairs).

Writes ``BENCH_nginx_churn.json`` (shared bench envelope) at the repo
root.

Run:  python scripts/bench_nginx_churn.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from bench_common import gate, write_envelope
from repro.runtime import ServingConfig, ServingSimulator
from repro.workloads import (
    CHURN_SCHEMES,
    build_connection_profiles,
    churn_requests,
    churn_scheme_costs,
)

SEED = 2023
CONNECTIONS = 4000
CORES = 8
SLOTS_PER_SHARD = 32
#: load multiplier relative to the unprotected server's capacity, so
#: protection overhead surfaces as queueing — identical-offered-load
#: methodology, like scripts/bench_serving.py.
LOAD_POINTS = ((0.5, "poisson"), (0.8, "poisson"), (0.95, "poisson"),
               (1.2, "mmpp"))


def main():
    config = ServingConfig(n_cores=CORES, slots_per_shard=SLOTS_PER_SHARD,
                           max_inflight=CORES * SLOTS_PER_SHARD)
    costs = {scheme: churn_scheme_costs(scheme)
             for scheme in CHURN_SCHEMES}
    results = {"lifecycle": {scheme: {"setup_cycles": c.setup_cycles,
                                      "teardown_cycles": c.teardown_cycles}
                             for scheme, c in costs.items()},
               "schemes": {scheme: [] for scheme in CHURN_SCHEMES}}
    all_accounted = True
    mean_latency_at_peak = {}
    for load, arrival in LOAD_POINTS:
        profiles = build_connection_profiles(
            CONNECTIONS, seed=SEED, load=load, n_cores=CORES,
            arrival=arrival)
        for scheme in CHURN_SCHEMES:
            sim = ServingSimulator(costs[scheme], config)
            metrics = sim.run(churn_requests(profiles, scheme))
            metrics.arrival = arrival
            all_accounted = all_accounted and metrics.accounted
            if (load, arrival) == LOAD_POINTS[-1]:
                mean_latency_at_peak[scheme] = metrics.mean_latency_cycles
            results["schemes"][scheme].append({
                "load": load,
                "arrival": arrival,
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
            print(f"{scheme:12s} load={load:4.2f} {arrival:7s}  "
                  f"goodput={metrics.goodput_rps:10,.0f} conn/s  "
                  f"p50={metrics.p50_cycles:9,d}cy  "
                  f"p99={metrics.p99_cycles:10,d}cy  "
                  f"shed={metrics.shed:4d}  "
                  f"util={metrics.utilization:4.2f}")

    lc = results["lifecycle"]
    lifecycle_ok = (
        all(v["setup_cycles"] > 0 and v["teardown_cycles"] > 0
            for v in lc.values())
        and lc["mpk"]["setup_cycles"] > lc["hfi"]["setup_cycles"]
        and lc["mpk"]["setup_cycles"] > lc["unprotected"]["setup_cycles"]
        and lc["mpk"]["teardown_cycles"]
            > lc["unprotected"]["teardown_cycles"]
        and lc["hfi"]["setup_cycles"]
            >= lc["unprotected"]["setup_cycles"])
    ordering_ok = (mean_latency_at_peak["unprotected"]
                   <= mean_latency_at_peak["hfi"]
                   <= mean_latency_at_peak["mpk"])

    print()
    payload = write_envelope(
        os.path.join(os.path.dirname(__file__), "..",
                     "BENCH_nginx_churn.json"),
        "nginx_churn",
        config={"seed": SEED, "connections_per_point": CONNECTIONS,
                "cores": CORES, "slots_per_shard": SLOTS_PER_SHARD,
                "load_points": [{"load": load, "arrival": arrival}
                                for load, arrival in LOAD_POINTS]},
        results=results,
        gates={
            "accounting": gate(all_accounted),
            "measured_lifecycle": gate(
                lifecycle_ok,
                **{f"{scheme}_setup": v["setup_cycles"]
                   for scheme, v in lc.items()},
                **{f"{scheme}_teardown": v["teardown_cycles"]
                   for scheme, v in lc.items()}),
            "isolation_tax_ordering": gate(
                ordering_ok,
                **{f"mean_latency_{scheme}": round(v, 1)
                   for scheme, v in mean_latency_at_peak.items()}),
        })
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
