"""The benchmark's five workloads.

Each workload turns a seed into a *plan* (the ordered list of ops one
round runs; every op has a key that is stable across rounds) and runs
a plan against a :class:`~recorder.Recorder`.  The seed is the only
input: it fixes the serving cells' order and request streams, and the
generated modules and strategy rotation of ``sandbox-churn``.  The
kernels workloads run fixed programs in a fixed order.

Every op's output is checked.  Kernel and churn ops must halt with the
result global and linear memory of the Wasm IR reference interpreter;
serving ops must balance their request ledger.  Observations are
captured inside the op (untimed) and compared with the reference after
the round's last op, so reference work never runs between timed calls.
"""

from __future__ import annotations

import gc
import hashlib
import random
from typing import Dict, List, Tuple

from repro.runtime.serving import (
    SERVING_SCHEMES,
    MmppArrivals,
    PoissonArrivals,
    ServingConfig,
    TraceArrivals,
    build_requests,
    simulate_serving,
)
from repro.telemetry import Telemetry
from repro.wasm import WasmRuntime, make_strategy
from repro.wasm.fuzz import ProgramGenerator
from repro.wasm.interp import interpret
from repro.workloads.sightglass import SIGHTGLASS_BENCHMARKS
from repro.workloads.spec import SPEC_BENCHMARKS

from recorder import CHECK, PREP, TIMED, Recorder

PROGRAMS = {**SIGHTGLASS_BENCHMARKS, **SPEC_BENCHMARKS}
STRATEGIES = ("hfi", "guard-pages", "bounds-check")


def cpu_counts(cpu) -> Dict[str, int]:
    """A core's simulated counters, read through the public stats API.

    The sink is attached only after the run and detached again, so
    timed calls always run with the default null sink.
    """
    stats = cpu.stats
    counts = {
        "cpu.instructions": stats.instructions,
        "cpu.speculative_instructions": stats.speculative_instructions,
        "cpu.sim_cycles": stats.cycles,
        "cpu.loads_stores": stats.loads + stats.stores,
        "cpu.serializations": stats.serializations,
    }
    telemetry = Telemetry()
    cpu.attach_telemetry(telemetry)
    for component, snapshot in telemetry.collect().items():
        for field, value in vars(snapshot).items():
            if type(value) is int:
                counts[f"{component}.{field}"] = value
    cpu.attach_telemetry(None)
    return counts


def observe(runtime, instance, result) -> Tuple[str, int, str]:
    """Stop reason, ``result`` global and linear-memory digest of a run."""
    module = instance.module
    value = runtime.space.read(instance.layout.globals_base
                               + 8 * module.globals.index("result"))
    heap = runtime.space.read_bytes(instance.heap_base, module.memory_bytes,
                                    check=False)
    return result.reason, value, hashlib.sha256(heap).hexdigest()


def expected(module, reference) -> Tuple[str, int, str]:
    """What :func:`observe` must return, per the reference interpreter."""
    ref = reference(module)
    return ("hlt", ref.global_value("result"),
            hashlib.sha256(bytes(ref.memories[0])).hexdigest())


def mismatch(seen, want) -> str:
    """Why an observation differs from the reference ('' if it does not)."""
    for field, a, b in zip(("stop reason", "result global",
                            "linear memory"), seen, want):
        if a != b:
            return f"{field} differs from the reference interpreter"
    return ""


class WasmWorkload:
    """Shared checking for workloads that run Wasm modules."""

    #: The reference the outputs are checked against (a test may swap
    #: in a corrupted one to prove that failures are counted).
    reference = staticmethod(interpret)

    def _check(self, rec: Recorder, observed: List[tuple]) -> None:
        """``observed`` holds ``(op index, reference key, module, seen)``."""
        with rec.span("check", CHECK):
            wants: Dict[object, tuple] = {}
            for index, key, module, seen in observed:
                try:
                    if key not in wants:
                        wants[key] = expected(module, self.reference)
                    reason = mismatch(seen, wants[key])
                except Exception as exc:  # noqa: BLE001 -- counted as failed
                    reason = f"reference raised {exc!r}"
                if reason:
                    rec.fail(index, reason)


class Kernels(WasmWorkload):
    """Whole programs, each under every strategy on a fresh runtime.

    One op is ``WasmRuntime.run`` on a freshly instantiated module, so
    modelled caches and predictors start empty for every op, as in the
    figure scripts.  Building and instantiating are preparation.
    """

    def __init__(self, programs, scale: int, timing=None):
        self.programs = programs
        self.scale = scale
        #: None defers to the process default, as users get it.
        self.timing = timing

    def plan(self, seed: int) -> List[tuple]:
        # The programs are fixed inputs, and so is their order: an op's
        # host time depends on which ops ran before it in the process
        # (the interpreter specializes shared code to what it saw), and
        # with a seeded order op_p50_ms spread by 18% over ten seeds.
        return [(p, s) for p in self.programs for s in STRATEGIES]

    def run(self, rec: Recorder, plan: List[tuple]) -> None:
        observed = []
        for program, strategy in plan:
            with rec.op(f"{program}/{strategy}"):
                with rec.span("generate", PREP):
                    module = PROGRAMS[program](self.scale)
                with rec.span("instantiate", PREP):
                    runtime = WasmRuntime(timing=self.timing)
                    instance = runtime.instantiate(module,
                                                   make_strategy(strategy))
                with rec.span("run", TIMED):
                    result = runtime.run(instance)
                with rec.span("observe", CHECK):
                    observed.append((len(rec.ops) - 1, program, module,
                                     observe(runtime, instance, result)))
                    counts = cpu_counts(runtime.cpu)
                rec.add_counts(counts)
                rec.add_counts({"wasm.sandboxes_live":
                                len(runtime.instances)}, max)
                rec.work += (counts["cpu.instructions"]
                             + counts["cpu.speculative_instructions"])
                # free the op's runtime before the next op, so neither
                # an op's collector pauses nor the round's peak RSS
                # depend on the ops that ran before it
                with rec.span("gc", CHECK):
                    del runtime, instance, result
                    gc.collect()
        self._check(rec, observed)


def ir_size(ops) -> int:
    """Static op count of an IR body, nested bodies included."""
    return sum(1 + ir_size(getattr(op, "body", ()))
               + ir_size(getattr(op, "then_body", ()))
               + ir_size(getattr(op, "else_body", ())) for op in ops)


class SandboxChurn(WasmWorkload):
    """FaaS-style churn: many small generated modules on one runtime.

    One op is a sandbox lifetime: instantiate, run, grow memory by two
    pages, tear down.  Alternate batches of ``BATCH`` sandboxes are torn
    down with one ``teardown_batch`` whose time is split evenly among
    them.  The runtime lives for the whole round, so torn-down
    instances accumulate, as they do in a long-lived server.

    After every batch the heap is collected and frozen, untimed.  Young
    collections still land in the ops that allocate, but no op pays
    for a full collection rescanning everything the runtime has kept:
    those 14-35 ms pauses fell on a seed-dependent few ops and spans,
    and made up most of the run-to-run spread.
    """

    SANDBOXES = 1200
    BATCH = 8
    #: Generated modules are drawn from one size class: loops nest at
    #: most twice and the body has SIZE ops.  Unbounded, the round's
    #: work varied by 10% between seeds and swamped the host-time
    #: spread; bounded, the seed still picks every module's code.
    DEPTH = 2
    SIZE = range(25, 46)

    def module(self, module_seed: int):
        """The first module in the size class from ``module_seed``'s
        stream of candidates."""
        attempt = 0
        while True:
            module = ProgramGenerator(
                module_seed + (attempt << 32), max_depth=self.DEPTH,
            ).module(name=f"fuzz{module_seed}")
            if ir_size(module.functions[0].body) in self.SIZE:
                return module
            attempt += 1

    @staticmethod
    def _freeze(rec: Recorder) -> None:
        with rec.span("gc", CHECK):
            gc.collect()
            gc.freeze()

    def plan(self, seed: int) -> List[tuple]:
        rng = random.Random(seed)
        rotation = list(STRATEGIES)
        rng.shuffle(rotation)
        return [(rng.randrange(1 << 32), rotation[i % len(rotation)])
                for i in range(self.SANDBOXES)]

    def run(self, rec: Recorder, plan: List[tuple]) -> None:
        with rec.span("instantiate", PREP):
            runtime = WasmRuntime()
        self._freeze(rec)
        observed = []
        for start in range(0, len(plan), self.BATCH):
            batched = (start // self.BATCH) % 2 == 1
            held = []
            for offset, (module_seed, strategy) in enumerate(
                    plan[start:start + self.BATCH]):
                with rec.op(f"{start + offset:03d}/{strategy}"):
                    index = len(rec.ops) - 1
                    with rec.span("generate", PREP):
                        module = self.module(module_seed)
                    with rec.span("instantiate", TIMED):
                        instance = runtime.instantiate(
                            module, make_strategy(strategy))
                    with rec.span("run", TIMED):
                        result = runtime.run(instance)
                    with rec.span("observe", CHECK):
                        observed.append((index, module_seed, module,
                                         observe(runtime, instance, result)))
                    with rec.span("memory_grow", TIMED):
                        runtime.memory_grow(instance, 2)
                    if batched:
                        held.append((index, instance))
                    else:
                        with rec.span("teardown", TIMED):
                            runtime.teardown(instance)
                    rec.work += 1
            if held:
                indices = [i for i, _ in held]
                try:
                    with rec.shared("teardown", indices):
                        runtime.teardown_batch([inst for _, inst in held])
                except Exception as exc:  # noqa: BLE001 -- counted as failed
                    for i in indices:
                        rec.fail(i, f"teardown_batch raised {exc!r}")
            self._freeze(rec)
        gc.unfreeze()
        with rec.span("observe", CHECK):
            rec.add_counts(cpu_counts(runtime.cpu))
            rec.add_counts({"wasm.sandboxes_live": len(runtime.instances)},
                           max)
        self._check(rec, observed)


class Serve:
    """The discrete-event serving simulator; no CPU simulation at all.

    One op is one (scheme, load) cell.  Load is relative to bare
    capacity (service time only), so every scheme gets the identical
    request stream at each load: under-load Poisson, then bursty MMPP
    and Poisson above capacity, which fill all 320 slots, shed and
    steal.
    """

    #: Once the slots are full, an arrival's host time grows with the
    #: number in flight: the 2x cell took 0.35 s with 40 slots per
    #: shard and 0.24 s with 20.
    CONFIG = ServingConfig(n_cores=16, slots_per_shard=20,
                           max_inflight=16 * 20)
    SERVICE_CYCLES = (20_000, 120_000)
    #: (offered load, arrival process, requests).  The cells above
    #: capacity are shorter because shedding costs far more host time
    #: per request than serving.  The backlog grows by 1 - 1/load per
    #: arrival, so the slots fill about a third of the way into the
    #: 1.2x cell and a fifth into the 2x cell.
    LOADS = ((0.5, "poisson", 10_000), (1.2, "mmpp", 6_000),
             (2.0, "poisson", 3_000))

    def plan(self, seed: int) -> List[tuple]:
        rng = random.Random(seed)
        points = [load + (rng.randrange(1 << 32),) for load in self.LOADS]
        cells = [(point, scheme) for point in points
                 for scheme in SERVING_SCHEMES]
        rng.shuffle(cells)
        return cells

    def requests(self, point: tuple):
        """The cell's stream, stretched to offer exactly its load.

        The drawn gaps are rescaled so that total service time over
        ``n_cores`` x the arrival span is the load.  Unscaled, MMPP's
        bursts shorten the mean gap 1.17x, and the realized load of
        either process varied by seed (1.18-1.26 at 1.2x), which moved
        the shed count and the cell's host time by up to 20%.
        """
        load, arrival, n_requests, stream_seed = point
        mean_gap = (sum(self.SERVICE_CYCLES) / 2.0
                    / (load * self.CONFIG.n_cores))
        process = (MmppArrivals if arrival == "mmpp" else PoissonArrivals)(
            mean_gap, seed=stream_seed)
        gaps = list(process.interarrivals(n_requests))

        def stream(gaps):
            return build_requests(TraceArrivals(gaps), n_requests,
                                  seed=stream_seed,
                                  service_cycles=self.SERVICE_CYCLES)

        service = sum(r.service_cycles for r in stream(gaps))
        scale = service / (load * self.CONFIG.n_cores * sum(gaps))
        return stream([max(1, round(g * scale)) for g in gaps])

    def run(self, rec: Recorder, plan: List[tuple]) -> None:
        streams = {}
        for point, scheme in plan:
            load, arrival, _, stream_seed = point
            with rec.op(f"{scheme}@{load}x-{arrival}"):
                if point not in streams:
                    with rec.span("build_requests", PREP):
                        streams[point] = self.requests(point)
                with rec.span("serve", TIMED):
                    metrics = simulate_serving(
                        scheme, seed=stream_seed, config=self.CONFIG,
                        requests=streams[point])
                if not metrics.accounted:
                    rec.fail(len(rec.ops) - 1,
                             "request ledger does not balance")
                rec.work += metrics.requests
                rec.add_counts({"serving.requests": metrics.requests,
                                "serving.shed": metrics.shed,
                                "serving.steals": metrics.steals})
                rec.add_counts({"serving.p99_cycles": metrics.p99_cycles,
                                "serving.peak_inflight":
                                metrics.peak_inflight}, max)
                with rec.span("gc", CHECK):  # as in Kernels.run
                    del metrics
                    gc.collect()


HOT = ("fib2", "sieve", "memmove", "ratelimit", "nestedloop", "random",
       "429.mcf", "462.libquantum", "473.astar")
MIXED = ("xchacha20", "blake3-scalar", "keccak", "switch", "ackermann",
         "minicsv", "400.perlbench", "403.gcc", "445.gobmk", "464.h264ref",
         "483.xalancbmk")
OOO = ("fib2", "sieve", "memmove", "429.mcf", "462.libquantum",
       "xchacha20", "keccak", "400.perlbench", "464.h264ref")

#: name -> workload, in the order rounds are interleaved.
WORKLOADS = {
    "kernels-hot": Kernels(HOT, scale=2),
    "kernels-mixed": Kernels(MIXED, scale=1),
    "kernels-ooo": Kernels(OOO, scale=1, timing="ooo"),
    "serve": Serve(),
    "sandbox-churn": SandboxChurn(),
}
