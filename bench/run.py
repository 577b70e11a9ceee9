"""The repo benchmark: simulator host speed on five workloads.

Usage, from the repo root::

    python bench/run.py --seed N [--workload NAME] [--seconds S] [--trace [0|1]]

Each workload runs as rounds, each round in a fresh child process, one
child at a time, single-threaded.  Rounds are interleaved round-robin
across the selected workloads until each has measured ``--seconds`` of
op host time (at least three rounds each), so a slow spell on a shared
machine hits only some rounds of every workload.  An op's host time is
its median over rounds and ``wall_s`` is the sum of those medians.
Host times are in reference-speed seconds: each span is scaled by the
host speed probed around it (see ``speed.py``).

``--trace`` reports the per-layer metrics instead of the end-to-end
ones.  It runs one untraced round per workload, whatever ``--seconds``
says, then one profiled round per workload, and writes the benchmark's
own spans as a Chrome trace to ``bench/out/trace-<workload>.json``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``; names are
prefixed ``<workload>/`` when several workloads run).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))

from layers import LAYERS  # noqa: E402
from recorder import chrome_trace  # noqa: E402

MIN_ROUNDS = 3
#: A round takes 1-8 s here; a hung child must not hold the run past
#: a few minutes.
ROUND_TIMEOUT_S = 60
SPAN_NAMES = ("instantiate", "run", "memory_grow", "teardown",
              "build_requests", "serve", "generate")
#: Counters reported as read (summed over a round's ops, or the max
#: for the two peak values the serving layer reports per cell).
PLAIN_COUNTS = (
    "cpu.instructions", "cpu.speculative_instructions", "cpu.sim_cycles",
    "cpu.loads_stores", "cpu.serializations", "decode.predecoded",
    "decode.lazy_decodes", "decode.cached_ops", "journal.windows",
    "journal.rollbacks", "blocks.compiled", "blocks.fallbacks",
    "ooo.rob_stalls", "ooo.iq_stalls", "ooo.lsq_stalls", "ooo.drains",
    "ooo.checks_overlapped", "serving.requests", "serving.shed",
    "serving.steals", "serving.p99_cycles", "serving.peak_inflight",
    "wasm.sandboxes_live",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_round(workload: str, seed: int, profile: bool = False) -> dict:
    """One round in a fresh child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # str hashing drives set iteration order; fix it so every round
    # simulates exactly the same thing
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           repr(time.monotonic())] + (["--profile"] if profile else [])
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, pct: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(pct) - 1]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def op_medians(rounds) -> dict:
    """Each op's host time, as its median over rounds."""
    times = {}
    for r in rounds:
        for op in r["ops"]:
            times.setdefault(op["key"], []).append(op["t"])
    return {key: statistics.median(ts) for key, ts in times.items()}


def end_to_end(rounds) -> dict:
    per_op = list(op_medians(rounds).values())
    wall = sum(per_op)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "sim_rate": ratio(rounds[0]["work"], wall),
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_p90_ms": percentile(per_op, 90) * 1e3,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }


def derived_counts(c: dict) -> dict:
    """Per-layer counters, and the rates built from them."""
    def g(name):
        return c.get(name, 0)

    def miss_rate(unit):
        return ratio(g(f"{unit}.misses"), g(f"{unit}.hits")
                     + g(f"{unit}.misses"))

    def mispredict_rate(unit):
        return ratio(g(f"{unit}.mispredicts"), g(f"{unit}.correct")
                     + g(f"{unit}.mispredicts"))

    out = {name: g(name) for name in PLAIN_COUNTS}
    out["cpu.sim_ipc"] = ratio(g("cpu.instructions"), g("cpu.sim_cycles"))
    for unit in ("l1i", "l1d", "l2", "dtlb"):
        out[f"{unit}.miss_rate"] = miss_rate(unit)
    for unit in ("pht", "btb"):
        out[f"{unit}.mispredict_rate"] = mispredict_rate(unit)
    out["blocks.coverage"] = ratio(
        g("blocks.block_instructions"),
        g("cpu.instructions") + g("cpu.speculative_instructions"))
    return out


def per_layer(rounds, traced) -> dict:
    layers = traced["layers"]
    profiled = sum(layers.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]
        out[f"{layer}.share"] = ratio(layers[layer], profiled)
    for name in SPAN_NAMES:
        out[f"span.{name}_s"] = statistics.median(
            r["totals"].get(name, 0.0) for r in rounds)
    out["span.op_self_s"] = statistics.median(
        r["totals"]["op_self"] for r in rounds)
    out.update(derived_counts(rounds[0]["counts"]))
    out["host.trace_overhead"] = ratio(traced["timed_s"],
                                       end_to_end(rounds)["wall_s"])
    return out


def summarize(rounds, traced=None) -> dict:
    """Metrics and op outcomes of one workload over its rounds."""
    failures = [f"{op['key']}: {op['error']}" for r in rounds
                for op in r["ops"] if op["error"]]
    # a deterministic simulator repeats every count exactly
    drift = [i for i, r in enumerate(rounds[1:], 1)
             if (r["counts"], r["work"]) != (rounds[0]["counts"],
                                             rounds[0]["work"])]
    if drift:
        failures.append(f"simulated counts of rounds {drift} differ "
                        "from round 0")
    return {
        "rounds": len(rounds),
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(1 for r in rounds for op in r["ops"] if op["error"]),
        "failures": failures,
        "engine": rounds[0]["engine"],
        "timing": rounds[0]["timing"],
        "check_s": statistics.median(r["check_s"] for r in rounds),
        "raw_timed_s": statistics.median(r["raw_timed_s"] for r in rounds),
        "metrics": (per_layer(rounds, traced) if traced is not None
                    else end_to_end(rounds)),
    }


def write_trace(workload: str, round_result: dict) -> Path:
    spans = round_result["spans"]
    out = BENCH / "out" / f"trace-{workload}.json"
    out.parent.mkdir(exist_ok=True)
    origin = min((s[2] for s in spans), default=0.0)
    out.write_text(json.dumps(chrome_trace(spans, origin)))
    return out


def measure(workloads, seed: int, seconds: float, trace: bool) -> dict:
    """Interleaved rounds of every workload, then the profiled rounds."""
    rounds = {w: [] for w in workloads}
    measured = dict.fromkeys(workloads, 0.0)
    while True:
        if trace:
            # one untraced round, for the spans and host.trace_overhead
            pending = [w for w in workloads if not rounds[w]]
        else:
            pending = [w for w in workloads if len(rounds[w]) < MIN_ROUNDS
                       or measured[w] < seconds]
        if not pending:
            break
        for w in pending:
            result = run_round(w, seed)
            rounds[w].append(result)
            measured[w] += result["raw_timed_s"]
    summaries = {}
    for w in workloads:
        traced = run_round(w, seed, profile=True) if trace else None
        if trace:
            write_trace(w, rounds[w][0])
        summaries[w] = summarize(rounds[w], traced)
    return summaries


def report(summaries: dict, spec: dict, trace: bool) -> dict:
    """Print a human-readable table; return the final JSON object."""
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    single = len(summaries) == 1
    metrics = {}
    for w, s in summaries.items():
        print(f"== {w}: {s['rounds']} rounds, {s['attempted']} ops, "
              f"{s['failed']} failed, engine={s['engine']} "
              f"timing={s['timing']}")
        print(f"   unscaled op time per round {s['raw_timed_s']:.3f} s, "
              f"check_s {s['check_s']:.3f} s (not metrics)")
        for failure in s["failures"][:5]:
            print(f"   FAILED {failure.splitlines()[-1]}")
        for name, unit in units.items():
            value = s["metrics"][name]
            print(f"   {name:32s} {value:14.6g} {unit}")
            metrics[name if single else f"{w}/{name}"] = {
                "value": value, "unit": unit}
    return {
        "correct": all(not s["failures"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="op host time to measure per workload "
                             "(ignored with --trace)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else names
    summaries = measure(workloads, args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps(report(summaries, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
