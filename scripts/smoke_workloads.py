"""Dev smoke: run a workload suite across strategies, print ratios.

A row reads ``BAD`` when the strategies disagree on the workload's
result or a run does not halt; the script then exits 1.

    PYTHONPATH=src python scripts/smoke_workloads.py sightglass|spec [scale]
"""

import sys
import time

from repro.wasm import (
    BoundsCheckStrategy,
    GuardPagesStrategy,
    HfiEmulationStrategy,
    HfiStrategy,
    WasmRuntime,
)


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
        t0 = time.time()
        for strat in (GuardPagesStrategy(), BoundsCheckStrategy(),
                      HfiStrategy(), HfiEmulationStrategy()):
            rt = WasmRuntime()
            inst = rt.instantiate(mod, strat)
            res = rt.run(inst)
            g = rt.space.read(inst.layout.globals_base)
            results[strat.name] = (res.reason, g, res.stats.cycles,
                                   res.stats.instructions)
        vals = {v[1] for v in results.values()}
        ok = "OK " if len(vals) == 1 and all(
            v[0] == "hlt" for v in results.values()) else "BAD"
        if ok == "BAD":
            bad += 1
        gp = results["guard-pages"][2]
        bc = results["bounds-check"][2]
        hf = results["hfi"][2]
        em = results["hfi-emulation"][2]
        print(f"{ok} {name:16s} insn={results['guard-pages'][3]:7d} "
              f"gp={gp:9d} bc={bc/gp:5.2f} hfi={hf/gp:5.2f} "
              f"emu/hfi={em/hf:5.3f} t={time.time()-t0:.1f}s", flush=True)
    return bad


if __name__ == "__main__":
    bad = main(sys.argv[1] if len(sys.argv) > 1 else "sightglass",
               int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    sys.exit(1 if bad else 0)
