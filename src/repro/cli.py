"""Command-line interface: run workloads, attacks, and experiments.

Examples::

    repro-hfi list-workloads
    repro-hfi run sieve --strategy hfi --scale 2
    repro-hfi compare 445.gobmk --strategies guard-pages,bounds-check,hfi
    repro-hfi attack pht --hfi
    repro-hfi nginx
    repro-hfi heap-growth
    repro-hfi chaos --seeds 50

(Installed as the ``repro-hfi`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import format_table, format_telemetry
from .cpu.timing import TIMING_MODELS
from .params import MachineParams
from .wasm import STRATEGIES, WasmRuntime, make_strategy


def _emit(args, payload: dict, text: str) -> None:
    """Print machine-readable JSON with ``--json``, tables otherwise."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _all_workloads():
    from .workloads import FAAS_APPS, SIGHTGLASS_BENCHMARKS, SPEC_BENCHMARKS
    table = {}
    for suite, registry in (("sightglass", SIGHTGLASS_BENCHMARKS),
                            ("spec2006", SPEC_BENCHMARKS),
                            ("faas", FAAS_APPS)):
        for name, builder in registry.items():
            table[name] = (suite, builder)
    return table


def cmd_list_workloads(args) -> int:
    rows = [(name, suite) for name, (suite, _) in
            sorted(_all_workloads().items())]
    print(format_table(["workload", "suite"], rows))
    print(f"\nstrategies: {', '.join(sorted(STRATEGIES))}")
    return 0


def _run_one(name: str, strategy_name: str, scale: int,
             timing: Optional[str] = None):
    workloads = _all_workloads()
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"try: repro-hfi list-workloads")
    _, builder = workloads[name]
    module = builder(scale)
    runtime = WasmRuntime(MachineParams(), timing=timing)
    instance = runtime.instantiate(module, make_strategy(strategy_name))
    result = runtime.run(instance)
    value = runtime.space.read(instance.layout.globals_base)
    return result, value, instance


def cmd_run(args) -> int:
    result, value, instance = _run_one(args.workload, args.strategy,
                                       args.scale, timing=args.timing)
    stats = result.stats
    payload = {
        "workload": args.workload, "scale": args.scale,
        "strategy": args.strategy, "timing": args.timing,
        "reason": result.reason,
        "result": value, "cycles": stats.cycles,
        "instructions": stats.instructions, "loads": stats.loads,
        "stores": stats.stores, "branches": stats.branches,
        "mispredicts": stats.mispredicts,
        "binary_size": instance.compiled.binary_size,
        "fault": ({"kind": result.fault.kind,
                   "cause": result.fault.hfi_cause.name,
                   "addr": result.fault.addr}
                  if result.fault is not None else None),
    }
    lines = [f"workload:     {args.workload} (scale {args.scale})",
             f"strategy:     {args.strategy}",
             f"timing:       {args.timing}",
             f"stopped:      {result.reason}"]
    if result.fault is not None:
        lines.append(f"fault:        {result.fault.kind} "
                     f"{result.fault.hfi_cause.name} "
                     f"at {result.fault.addr:#x}")
    lines += [f"result:       {value:#x}",
              f"cycles:       {stats.cycles:,}",
              f"instructions: {stats.instructions:,}",
              f"loads/stores: {stats.loads:,}/{stats.stores:,}",
              f"branches:     {stats.branches:,} "
              f"({stats.mispredicts:,} mispredicted)",
              f"binary size:  {instance.compiled.binary_size:,} B"]
    _emit(args, payload, "\n".join(lines))
    return 0 if result.reason == "hlt" else 1


def cmd_compare(args) -> int:
    names = args.strategies.split(",")
    rows = []
    entries = []
    baseline = None
    values = set()
    for strategy_name in names:
        result, value, instance = _run_one(args.workload, strategy_name,
                                           args.scale)
        values.add(value)
        cycles = result.stats.cycles
        if baseline is None:
            baseline = cycles
        entries.append({"strategy": strategy_name, "cycles": cycles,
                        "relative": cycles / baseline,
                        "binary_size": instance.compiled.binary_size})
        rows.append((strategy_name, f"{cycles:,}",
                     f"{100 * cycles / baseline:.1f}%",
                     f"{instance.compiled.binary_size:,}"))
    agreed = len(values) == 1
    payload = {"workload": args.workload, "scale": args.scale,
               "baseline": names[0], "strategies": entries,
               "agreed": agreed}
    text = format_table(
        ["strategy", "cycles", f"vs {names[0]}", "binary B"], rows,
        title=f"{args.workload} (scale {args.scale})")
    if not agreed:
        text += "\nWARNING: strategies disagreed on the result!"
    _emit(args, payload, text)
    return 0 if agreed else 1


def cmd_attack(args) -> int:
    from .attacks import (SpectreBtbAttack, SpectrePhtAttack,
                          SpectreRsbAttack)
    cls = {"pht": SpectrePhtAttack, "btb": SpectreBtbAttack,
           "rsb": SpectreRsbAttack}[args.kind]
    attack = cls(MachineParams(), protect_with_hfi=args.hfi)
    result = attack.attack(secret_value=ord(args.secret))
    shield = "with HFI" if args.hfi else "without HFI"
    print(f"Spectre-{args.kind.upper()} {shield}:")
    if result.leaked:
        print(f"  LEAKED {chr(result.leaked_value)!r} "
              f"(latency {result.hits[result.leaked_value]} cycles, "
              f"threshold {result.threshold})")
        return 1
    print(f"  no leak: min latency {min(result.latencies)} cycles "
          f"> threshold {result.threshold}")
    return 0


def cmd_nginx(args) -> int:
    from .workloads import FILE_SIZES, NginxModel
    model = NginxModel(MachineParams())
    rows = []
    entries = []
    for size in FILE_SIZES:
        entries.append({
            "file_bytes": size,
            "unprotected_rps": model.throughput_rps(size, "unprotected"),
            "hfi_overhead_pct": model.overhead_pct(size, "hfi"),
            "mpk_overhead_pct": model.overhead_pct(size, "mpk")})
        rows.append((f"{size >> 10}kb",
                     f"{model.throughput_rps(size, 'unprotected'):,.0f}",
                     f"{model.overhead_pct(size, 'hfi'):.2f}%",
                     f"{model.overhead_pct(size, 'mpk'):.2f}%"))
    _emit(args, {"experiment": "nginx", "rows": entries}, format_table(
        ["file size", "unprotected rps", "HFI overhead", "MPK overhead"],
        rows, title="NGINX + sandboxed OpenSSL (Fig. 5)"))
    return 0


def cmd_heap_growth(args) -> int:
    from .wasm import WASM_PAGE, GuardPagesStrategy, HfiStrategy, WasmRuntime
    params = MachineParams()
    rows = []
    for label, strategy in (("mprotect (guard pages)",
                             GuardPagesStrategy()),
                            ("hfi_set_region", HfiStrategy())):
        runtime = WasmRuntime(params)
        instance = runtime.reserve_instance(strategy, WASM_PAGE)
        total = sum(runtime.memory_grow(instance, 1)
                    for _ in range((args.gib << 30) // WASM_PAGE - 1))
        rows.append((label, f"{total:,}",
                     f"{params.cycles_to_seconds(total):.3f}"))
    payload = {"experiment": "heap-growth", "gib": args.gib,
               "rows": [{"mechanism": label, "cycles": int(c.replace(",", "")),
                         "seconds": float(s)} for label, c, s in rows]}
    _emit(args, payload,
          format_table(["mechanism", "cycles", "modelled seconds"], rows,
                       title=f"heap growth to {args.gib} GiB (§6.1)"))
    return 0


def cmd_chain(args) -> int:
    from .runtime import ChainModel
    model = ChainModel(MachineParams())
    rows = []
    entries = []
    for mechanism in ("in-process", "in-process-serialized", "ipc"):
        cycles = model.chain_cycles(args.functions, mechanism=mechanism,
                                    payload_bytes=args.payload)
        entries.append({"mechanism": mechanism, "cycles": cycles,
                        "us": MachineParams().cycles_to_us(cycles)})
        rows.append((mechanism, f"{cycles:,}",
                     f"{MachineParams().cycles_to_us(cycles):.2f}"))
    speedup = model.speedup(args.functions, args.payload)
    payload = {"experiment": "chain", "functions": args.functions,
               "payload_bytes": args.payload, "rows": entries,
               "speedup_vs_ipc": speedup}
    text = (format_table(["mechanism", "cycles", "us"], rows,
                         title=(f"{args.functions}-function chain, "
                                f"{args.payload}B payload (§2)"))
            + f"\n\nin-process advantage over IPC: {speedup:,.0f}x")
    _emit(args, payload, text)
    return 0


def cmd_startup(args) -> int:
    from .runtime import StartupModel
    from .wasm import GuardPagesStrategy, HfiStrategy
    model = StartupModel(MachineParams())
    comparison = model.compare(HfiStrategy())
    rows = [(k, f"{v:,.1f}") for k, v in comparison.items()]
    _emit(args,
          {"experiment": "startup",
           "startup_us": {k: v for k, v in comparison.items()}},
          format_table(["mechanism", "startup (us)"], rows,
                       title="context start-up latency (§1)"))
    return 0


def cmd_telemetry(args) -> int:
    """Run a short multi-sandbox demo with a live telemetry sink and
    report per-sandbox attribution, component counters, and spans."""
    from .runtime import InstancePool, SandboxManager, TransitionKind
    from .telemetry import Telemetry, write_json
    from .wasm import HfiStrategy

    if args.sandboxes < 1:
        raise SystemExit("--sandboxes must be >= 1")
    if args.invocations < 0:
        raise SystemExit("--invocations must be >= 0")
    telemetry = Telemetry()
    manager = SandboxManager(MachineParams(), telemetry=telemetry)
    handles = []
    for i in range(args.sandboxes):
        handles.append(manager.create_sandbox(
            heap_bytes=1 << 20, hybrid=(i % 2 == 1),
            serialized=(i % 2 == 0)))
    pool = InstancePool(manager.space, HfiStrategy(),
                        slots=max(2, args.sandboxes // 2),
                        heap_bytes=1 << 20, params=manager.params,
                        telemetry=telemetry)
    for n in range(args.invocations):
        handle = handles[n % len(handles)]
        kind = (TransitionKind.ZERO_COST if handle.is_hybrid
                else TransitionKind.SPRINGBOARD)
        # Vary service time per sandbox so the attribution table has
        # visible structure.
        service = 2_000 + 1_000 * (handle.sandbox_id % 3)
        manager.invoke_pooled(handle, pool, service, kind)
    manager.grow_heap(handles[0], 1 << 21)
    # A destroyed sandbox keeps its cycles in the ledger.
    manager.destroy_sandbox(handles[-1])

    stats = manager.stats()
    payload = {
        "sandboxes": args.sandboxes,
        "invocations": args.invocations,
        "total_cycles": stats.total_cycles,
        "attributed_cycles": stats.attributed_cycles,
        "attribution": {str(s.sandbox_id): s.cycles
                        for s in stats.sandboxes},
        "telemetry": telemetry.snapshot(),
    }
    if args.out:
        write_json(telemetry, args.out)
    _emit(args, payload, format_telemetry(telemetry))
    # The per-sandbox ledger must account for every manager cycle.
    return 0 if stats.attributed_cycles == stats.total_cycles else 1


def cmd_verify(args) -> int:
    """Run the differential-oracle + invariant battery (repro.verify).

    Exit status 0 iff the run is clean: zero divergences among the
    differential's cells, zero unclassified comparator disagreements,
    zero poison hits, zero invariant violations, zero failed attack
    cells."""
    from .verify import run_verify

    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    # The seed base also picks the comparator sweep, so every seed
    # window fuzzes its own trials.
    stats, report = run_verify(
        seeds=seeds, comparator_trials=args.comparator_trials,
        comparator_seed=args.seed_base)
    comparator = report["comparator"]
    lines = [
        f"cells:             {' vs '.join(report['matrix'])}",
        f"oracle runs:       {report['oracle_runs']} "
        f"(seeds {seeds.start}..{seeds.stop - 1}, "
        f"{report['instructions']:,} instructions, "
        f"{report['fault_stops']:,} fault stops compared)",
        f"divergences:       {report['divergences']}",
        f"comparator trials: {comparator['trials']:,} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(comparator['classified'].items()))})",
        f"unclassified:      {comparator['unclassified']}",
        f"poison writes:     {report['poison_writes']} "
        f"(hits: {report['poison_hits']})",
        f"invariant checks:  {report['invariant_checks']} "
        f"(violations: {report['invariant_violations']})",
        f"determinism runs:  {report['determinism']['runs']} "
        f"(mismatches: {report['determinism']['mismatches']})",
        f"attack cells:      {report['attacks']['cells']} "
        f"(failures: {report['attacks']['failures']})",
        f"verdict:           {'CLEAN' if stats.clean else 'DIRTY'}",
    ]
    lines += [f"  FAIL: {failure}" for failure in report["failures"]]
    _emit(args, dict(report, stats=stats.as_dict()), "\n".join(lines))
    return 0 if stats.clean else 1


def cmd_chaos(args) -> int:
    """Run the chaos soak: seeded fault-injection through the serving
    loop on real sandboxes (repro.chaos).

    Exit status 0 iff every seeded run ends clean: zero leaked pool
    slots, zero zombie sandboxes, clean pool invariants, and every
    injected fault classified (retried/shed/quarantined/killed)."""
    from .chaos import run_soak

    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    if not 0.0 <= args.fault_rate <= 1.0:
        raise SystemExit("--fault-rate must be in [0, 1]")
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    report = run_soak(seeds, n_requests=args.requests,
                      fault_rate=args.fault_rate,
                      strategy=args.strategy,
                      baseline=not args.no_baseline)
    breakdown = report.breakdown()
    retained = report.goodput_retained
    lines = [
        f"soak runs:         {report.runs} "
        f"(seeds {seeds.start}..{seeds.stop - 1}, "
        f"{args.requests} requests each, "
        f"fault rate {args.fault_rate:.0%})",
        f"faults injected:   {report.injected} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(breakdown.items()))})",
        f"unaccounted:       {report.unaccounted}",
        f"leaked slots:      {report.leaked_slots}",
        f"zombie sandboxes:  {report.zombie_sandboxes}",
        f"invariant issues:  {report.invariant_violations}",
    ]
    if retained is not None:
        lines.append(f"goodput retained:  {retained:.1%} of fault-free")
    lines.append(
        f"verdict:           {'CLEAN' if report.clean else 'DIRTY'}")
    lines += [f"  FAIL: {failure}" for failure in report.failures()]
    payload = report.as_dict()
    if not args.verbose:
        payload.pop("seeds", None)
    _emit(args, payload, "\n".join(lines))
    return 0 if report.clean else 1


def cmd_serve(args) -> int:
    """Run the discrete-event production serving simulator
    (repro.runtime.serving) and compare isolation schemes under the
    same open-loop offered load."""
    from .runtime import SERVING_SCHEMES, ServingConfig, simulate_serving

    if args.requests < 1:
        raise SystemExit("--requests must be >= 1")
    if args.load <= 0:
        raise SystemExit("--load must be > 0")
    if args.cores < 1:
        raise SystemExit("--cores must be >= 1")
    if args.slots_per_shard < 1:
        raise SystemExit("--slots-per-shard must be >= 1")
    if args.max_inflight < 0:
        raise SystemExit("--max-inflight must be >= 0")
    schemes = ([s.strip() for s in args.schemes.split(",") if s.strip()]
               if args.schemes else list(SERVING_SCHEMES))
    config = ServingConfig(
        n_cores=args.cores, slots_per_shard=args.slots_per_shard,
        max_inflight=args.max_inflight
        if args.max_inflight else args.cores * args.slots_per_shard)
    rows = []
    runs = {}
    for scheme in schemes:
        metrics = simulate_serving(
            scheme, n_requests=args.requests, seed=args.seed,
            arrival=args.arrival, offered_load=args.load,
            config=config)
        runs[scheme] = metrics.as_dict()
        rows.append((scheme, f"{metrics.goodput_rps:,.0f}",
                     f"{metrics.p50_ms:.2f}", f"{metrics.p99_ms:.2f}",
                     f"{metrics.p999_ms:.2f}", str(metrics.shed),
                     str(metrics.failed), str(metrics.steals),
                     str(metrics.peak_inflight)))
    table = format_table(
        ("scheme", "goodput req/s", "p50 ms", "p99 ms", "p99.9 ms",
         "shed", "failed", "steals", "peak inflight"), rows)
    header = (f"open-loop {args.arrival} arrivals, offered load "
              f"{args.load:.2f}x capacity, {args.cores} cores x "
              f"{args.slots_per_shard} slots, {args.requests} requests, "
              f"seed {args.seed}")
    payload = {"config": {"requests": args.requests, "seed": args.seed,
                          "arrival": args.arrival, "load": args.load,
                          "cores": args.cores,
                          "slots_per_shard": args.slots_per_shard},
               "schemes": runs}
    _emit(args, payload, f"{header}\n\n{table}")
    # every request must be accounted for in every run
    return 0 if all(r["accounted"] for r in runs.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hfi",
        description="HFI (ASPLOS '23) reproduction toolkit")
    # Shared by every subcommand that renders results.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads",
                   help="list workloads and strategies").set_defaults(
        func=cmd_list_workloads)

    p = sub.add_parser("run", parents=[output],
                       help="run one workload under one strategy")
    p.add_argument("workload")
    p.add_argument("--strategy", default="hfi",
                   choices=sorted(STRATEGIES))
    p.add_argument("--timing", default="inorder",
                   choices=sorted(TIMING_MODELS),
                   help="timing backend (default: inorder)")
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", parents=[output],
                       help="run one workload under several strategies")
    p.add_argument("workload")
    p.add_argument("--strategies",
                   default="guard-pages,bounds-check,hfi")
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("attack", help="run a Spectre PoC")
    p.add_argument("kind", choices=["pht", "btb", "rsb"])
    p.add_argument("--hfi", action="store_true",
                   help="protect the victim with HFI regions")
    p.add_argument("--secret", default="I")
    p.set_defaults(func=cmd_attack)

    sub.add_parser("nginx", parents=[output],
                   help="Fig. 5 throughput model").set_defaults(
        func=cmd_nginx)

    p = sub.add_parser("heap-growth", parents=[output],
                       help="§6.1 growth comparison")
    p.add_argument("--gib", type=int, default=1)
    p.set_defaults(func=cmd_heap_growth)

    p = sub.add_parser("chain", parents=[output],
                       help="§2 function chaining vs IPC")
    p.add_argument("--functions", type=int, default=4)
    p.add_argument("--payload", type=int, default=4096)
    p.set_defaults(func=cmd_chain)

    sub.add_parser("startup", parents=[output],
                   help="§1 start-up latency table").set_defaults(
        func=cmd_startup)

    p = sub.add_parser(
        "telemetry", parents=[output],
        help="multi-sandbox demo through a live telemetry sink")
    p.add_argument("--sandboxes", type=int, default=4)
    p.add_argument("--invocations", type=int, default=32)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the full telemetry snapshot as JSON")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "verify", parents=[output],
        help="differential oracle + comparator fuzz + invariant probes")
    p.add_argument("--seeds", type=int, default=50,
                   help="number of ISA fuzz seeds to run (default 50)")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first ISA seed and the comparator seed "
                        "(CI rotates this nightly)")
    p.add_argument("--comparator-trials", type=int, default=20_000,
                   help="randomized comparator fuzz trials")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "chaos", parents=[output],
        help="seeded fault-injection soak: the serving loop on real "
             "sandboxes, audited for leaks and unaccounted faults")
    p.add_argument("--seeds", type=int, default=50,
                   help="number of seeded soak runs (default 50)")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first seed (CI rotates this nightly)")
    p.add_argument("--requests", type=int, default=200,
                   help="base requests per seeded run")
    p.add_argument("--fault-rate", type=float, default=0.05,
                   help="per-request fault-injection probability")
    p.add_argument("--strategy", default="hfi",
                   choices=sorted(STRATEGIES),
                   help="isolation strategy backing the pool slots")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the fault-free baseline runs (faster; "
                        "omits goodput-retained)")
    p.add_argument("--verbose", action="store_true",
                   help="include per-seed detail in --json output")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve", parents=[output],
        help="discrete-event serving simulator: open-loop load over "
             "sharded pools with work-stealing")
    p.add_argument("--schemes", default="",
                   help="comma-separated isolation schemes "
                        "(default: hfi,guard-pages,mpk)")
    p.add_argument("--requests", type=int, default=5000,
                   help="open-loop requests to offer (default 5000)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (runs are seed-deterministic)")
    p.add_argument("--arrival", default="poisson",
                   choices=("poisson", "mmpp"),
                   help="arrival process (mmpp = bursty)")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load relative to node capacity")
    p.add_argument("--cores", type=int, default=4,
                   help="worker cores, one pool shard each")
    p.add_argument("--slots-per-shard", type=int, default=16,
                   help="pooled instances per core shard")
    p.add_argument("--max-inflight", type=int, default=0,
                   help="admission bound on in-flight requests "
                        "(default: cores x slots-per-shard)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
