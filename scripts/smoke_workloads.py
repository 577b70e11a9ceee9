"""Dev smoke: run a workload suite across strategies, print ratios.

Every (workload, strategy) cell runs under both timing models.  A row
reads ``BAD`` when the strategies disagree on the workload's result, a
run does not halt, the in-order and out-of-order models disagree on
a cell's stop reason, result or committed-instruction count
(architectural state must not depend on timing), or an out-of-order
cell's scoreboard audit reports a problem (printed under the row); the
script then exits 1.  The ratios are in-order cycles; ``ooo`` is the
out-of-order guard-pages run's cycles over the in-order one's.

    PYTHONPATH=src python scripts/smoke_workloads.py sightglass|spec [scale]
"""

import sys
import time

from repro.cpu.timing import TIMING_MODELS
from repro.wasm import (
    BoundsCheckStrategy,
    GuardPagesStrategy,
    HfiEmulationStrategy,
    HfiStrategy,
    WasmRuntime,
)

STRATEGIES = (GuardPagesStrategy, BoundsCheckStrategy, HfiStrategy,
              HfiEmulationStrategy)


def main(which: str, scale: int = 1) -> int:
    """Print one row per workload; return how many rows are ``BAD``."""
    if which == "sightglass":
        from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS as SUITE
    else:
        from repro.workloads.spec import SPEC_BENCHMARKS as SUITE
    bad = 0
    for name, builder in SUITE.items():
        mod = builder(scale)
        results = {}
        problems = []
        t0 = time.time()
        for strategy in STRATEGIES:
            for timing in TIMING_MODELS:
                strat = strategy()
                rt = WasmRuntime(timing=timing)
                inst = rt.instantiate(mod, strat)
                res = rt.run(inst)
                g = rt.space.read(inst.layout.globals_base)
                # the in-order model's audit is always empty
                problems += [f"{strat.name}/{timing}: {problem}"
                             for problem in rt.cpu.timing.audit()]
                results[strat.name, timing] = (res.reason, g,
                                               res.stats.instructions,
                                               res.stats.cycles)
        vals = {v[1] for v in results.values()}
        # Stop reason, result and instruction count, per strategy.
        agree = all(results[s, "inorder"][:3] == results[s, "ooo"][:3]
                    for s, _ in results)
        ok = "OK " if len(vals) == 1 and agree and not problems and all(
            v[0] == "hlt" for v in results.values()) else "BAD"
        if ok == "BAD":
            bad += 1
        gp = results["guard-pages", "inorder"][3]
        bc = results["bounds-check", "inorder"][3]
        hf = results["hfi", "inorder"][3]
        em = results["hfi-emulation", "inorder"][3]
        ooo = results["guard-pages", "ooo"][3]
        print(f"{ok} {name:16s} "
              f"insn={results['guard-pages', 'inorder'][2]:7d} "
              f"gp={gp:9d} bc={bc/gp:5.2f} hfi={hf/gp:5.2f} "
              f"emu/hfi={em/hf:5.3f} ooo={ooo/gp:5.2f} "
              f"t={time.time()-t0:.1f}s", flush=True)
        for problem in problems:
            print(f"    audit {problem}", flush=True)
    return bad


if __name__ == "__main__":
    bad = main(sys.argv[1] if len(sys.argv) > 1 else "sightglass",
               int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    sys.exit(1 if bad else 0)
