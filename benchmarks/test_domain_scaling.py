"""MPK-vs-HFI domain-count scaling (the Fig. 5 scaling argument).

Sweeps the number of live protection domains from 1 to 2048 and
measures the mean cost per domain transition under

* **MPK with key virtualization** (``repro.mpk.virtualize``): the 15
  usable hardware keys form a cache of the domain set; a switch to a
  non-resident domain steals the LRU key — untag the victim's pages,
  retag the incoming domain's pages (``pkey_mprotect`` walks against a
  real :class:`AddressSpace`), then the usual ERIM wrpkru gate.
* **HFI** (``repro.runtime.transitions``): serialized
  ``hfi_enter``/``hfi_exit`` with the metadata moves — the cost never
  reads the domain count.

Each sweep point runs a warm-up pass (every domain touched once) and
then measures seeded uniform-random switches in steady state, so the
below-knee points show the *capacity* behaviour: at <=15 domains every
switch is a residency hit and virtualization adds nothing; at 16 the
first capacity miss appears and the per-switch mean jumps by the
untag+retag syscall cost.

Gates (the acceptance criteria for the repaired MPK key lifecycle):

1. **mpk_knee_above_15**: virtualization overhead is ~0 through 15
   domains and strictly positive *and growing* at every point past 15.
2. **hfi_flat**: HFI's per-transition cost varies by <5% from 1 to
   2048 domains (it is flat by construction; the gate pins that any
   future cost-model change keeps it flat).
3. **churn_survives**: the sweep drives far more than 15 pkey
   alloc/free cycles through :class:`MpkDomainManager` without raising
   ``MpkError`` and without leaking a single key — the regression the
   old increment-only allocator failed at key 16.

Writes ``benchmarks/results/domain_scaling.json``.
"""

from repro.analysis import emit_json
from repro.mpk import USABLE_KEYS
from repro.mpk.virtualize import measure_switch_costs

SEED = 2023
SWITCHES_PER_POINT = 2000
PAGES_PER_DOMAIN = 1
DOMAIN_COUNTS = (1, 2, 4, 8, 12, 15, 16, 24, 32, 64, 128, 256, 512,
                 1024, 2048)
HFI_FLATNESS_PCT = 5.0
CHURN_FLOOR = USABLE_KEYS  # the old allocator died at free/alloc #16


def test_domain_scaling():
    rows = []
    for n in DOMAIN_COUNTS:
        try:
            rows.append(measure_switch_costs(
                n, SWITCHES_PER_POINT, seed=SEED,
                pages_per_domain=PAGES_PER_DOMAIN))
        except Exception as exc:           # any MpkError fails the gate
            rows.append({"domains": n, "error": str(exc)})

    clean = [r for r in rows if "error" not in r]
    no_errors = len(clean) == len(rows)

    below = [r for r in clean if r["domains"] <= USABLE_KEYS]
    above = [r for r in clean if r["domains"] > USABLE_KEYS]
    flat_below = all(r["virtualization_overhead_cycles"] < 1.0
                     for r in below)
    positive_above = all(r["virtualization_overhead_cycles"] > 0
                         for r in above)
    overheads = [r["virtualization_overhead_cycles"] for r in above]
    growing = all(b > a for a, b in zip(overheads, overheads[1:]))

    hfi_means = [r["hfi_mean_cycles"] for r in clean]
    hfi_spread_pct = (100.0 * (max(hfi_means) - min(hfi_means))
                      / min(hfi_means)) if hfi_means else float("inf")

    total_frees = sum(r["key_frees"] for r in clean)
    leaked = sum(r["leaked_keys"] for r in clean)

    gates = {
        "mpk_knee_above_15": {
            "passed": (no_errors and flat_below and positive_above
                       and growing),
            "flat_below_knee": flat_below,
            "positive_above_knee": positive_above,
            "strictly_growing": growing,
            "overhead_at_15": round(below[-1][
                "virtualization_overhead_cycles"], 1) if below else None,
            "overhead_at_16": round(overheads[0], 1) if overheads else None,
            "overhead_at_2048": (round(overheads[-1], 1)
                                 if overheads else None)},
        "hfi_flat": {
            "passed": hfi_spread_pct < HFI_FLATNESS_PCT,
            "spread_pct": round(hfi_spread_pct, 3),
            "bound_pct": HFI_FLATNESS_PCT,
            "hfi_cycles": hfi_means[0] if hfi_means else None},
        "churn_survives": {
            "passed": (no_errors and total_frees > CHURN_FLOOR
                       and leaked == 0),
            "alloc_free_cycles": total_frees, "floor": CHURN_FLOOR,
            "leaked_keys": leaked, "mpk_errors": len(rows) - len(clean)},
    }
    emit_json("domain_scaling", {
        "config": {"seed": SEED, "switches_per_point": SWITCHES_PER_POINT,
                   "pages_per_domain": PAGES_PER_DOMAIN,
                   "domain_counts": list(DOMAIN_COUNTS),
                   "usable_keys": USABLE_KEYS},
        "results": {"sweep": rows},
        "gates": gates,
    })
    for name, gate in gates.items():
        assert gate["passed"], f"gate {name} failed: {gate}"
