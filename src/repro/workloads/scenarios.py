"""Production-traffic scenario matrix: the paper's §6 workloads at load.

Three sustained-traffic scenarios built on the discrete-event serving
loop (:mod:`repro.runtime.serving`), each exercising a different cost
path of the OS/MPK/HFI stack:

* **NGINX connection churn** — the §6.4.2 native-sandboxing scenario
  at production intensity: every connection performs a TLS handshake,
  a few keep-alive requests, and a teardown, with a *fresh* sandbox
  per connection.  Per-connection setup/teardown cycles are measured
  from :class:`~repro.os.address_space.AddressSpace`
  (``mprotect``/``madvise_dontneed`` walks via
  :func:`~repro.runtime.serving.connection_lifecycle_costs`), and the
  per-crypto-call domain switches inside each request come from the
  one shared :class:`~repro.runtime.transitions.TransitionModel`
  formula (Kolosick et al.'s "one source of truth for transition
  costs").

* **Render pipelines** — the §6.2 Firefox workloads
  (``graphite_reflow``, ``jpeg_decode``) wrapped as batch job streams:
  per-job guest cycles are *executed, not estimated* — each (job,
  scheme) cell runs once on the Wasm toolchain under that scheme's
  real codegen, so register pressure, bounds checks, and serialized
  HFI transitions all land in the service time.

* **Domain-count scaling** — the Fig. 5-analogue sweep lives in
  :func:`repro.mpk.virtualize.measure_switch_costs`; this module only
  re-exports it for symmetry.

Every scenario produces *identical offered load per scheme* (same
arrival cycles, tenants, priorities) so the schemes' costs — never the
traffic — explain the differences, matching the paper's methodology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.encoding import descriptor_cycles
from ..params import DEFAULT_PARAMS, MachineParams
from ..runtime.serving import (
    SchemeCosts,
    arrival_process,
    connection_lifecycle_costs,
)
from ..runtime.startup import POOLED_POP_CYCLES
from ..runtime.supervisor import Priority, Request
from .font import graphite_reflow
from .image import COMPRESSION_ROUNDS, RESOLUTIONS, jpeg_decode
from .nginx import FILE_SIZES, NginxModel

# ----------------------------------------------------------------------
# NGINX + OpenSSL connection churn
# ----------------------------------------------------------------------

#: Native-sandboxing schemes of the §6.4.2 scenario (guard pages don't
#: apply to native code — that axis lives in the render scenario).
CHURN_SCHEMES = ("unprotected", "hfi", "mpk")

#: Web-shaped file-size mix over Fig. 5's x-axis: mostly small objects,
#: a thin tail of large ones.
_FILE_SIZE_WEIGHTS = (2, 10, 14, 16, 14, 10, 6, 3, 1)

assert len(_FILE_SIZE_WEIGHTS) == len(FILE_SIZES)


@dataclass(frozen=True)
class ConnectionProfile:
    """One TLS connection's traffic shape (scheme-independent)."""

    index: int
    tenant: str
    priority: int
    arrival_cycle: int
    file_bytes: int
    keepalive_requests: int


def connection_service_cycles(model: NginxModel,
                              profile: ConnectionProfile,
                              scheme: str) -> int:
    """Core cycles one connection holds under ``scheme``.

    The first request pays the TLS handshake's crypto-call switches;
    keep-alive followers only pay the per-record calls.  All switch
    costs flow through the model's :class:`TransitionModel`, so every
    scheme prices its domain crossings from the same table.
    """
    per_request = model.request_cycles(profile.file_bytes, scheme)
    handshake = model.handshake_crypto_calls * model.switch_cost(scheme)
    followers = profile.keepalive_requests - 1
    return per_request + followers * (per_request - handshake)


def build_connection_profiles(n_connections: int, *, seed: int = 0,
                              load: float = 0.8, n_cores: int = 4,
                              tenants: int = 8,
                              arrival: str = "poisson",
                              keepalive: Tuple[int, int] = (1, 8),
                              high_fraction: float = 0.08,
                              low_fraction: float = 0.20,
                              params: MachineParams = DEFAULT_PARAMS,
                              ) -> List[ConnectionProfile]:
    """Seeded open-loop connection traffic, shared by every scheme.

    ``load`` is relative to the *unprotected* server's capacity (bare
    service time), so each scheme faces the identical stream and its
    protection overhead shows up as queueing/shedding, exactly like
    the tail-latency benchmark
    (``benchmarks/test_serving_tail_latency.py``).
    """
    model = NginxModel(params)
    rng = random.Random((seed << 8) ^ 0xC4A2)
    # expected connection cost under the unprotected scheme
    weights_total = sum(_FILE_SIZE_WEIGHTS)
    mean_keepalive = (keepalive[0] + keepalive[1]) / 2.0
    mean_request = sum(
        w * model.request_cycles(size, "unprotected")
        for w, size in zip(_FILE_SIZE_WEIGHTS, FILE_SIZES)) / weights_total
    mean_connection = mean_keepalive * mean_request
    mean_gap = mean_connection / (max(1e-9, load) * n_cores)
    process = arrival_process(arrival, mean_gap, seed)
    profiles: List[ConnectionProfile] = []
    clock = 0
    for index, gap in enumerate(process.interarrivals(n_connections)):
        clock += gap
        draw = rng.random()
        priority = (Priority.HIGH if draw < high_fraction
                    else Priority.LOW if draw < high_fraction + low_fraction
                    else Priority.NORMAL)
        profiles.append(ConnectionProfile(
            index=index,
            tenant=f"tenant-{rng.randrange(tenants)}",
            priority=priority,
            arrival_cycle=clock,
            file_bytes=rng.choices(FILE_SIZES,
                                   weights=_FILE_SIZE_WEIGHTS)[0],
            keepalive_requests=rng.randint(*keepalive)))
    return profiles


def churn_requests(profiles: Sequence[ConnectionProfile], scheme: str,
                   params: MachineParams = DEFAULT_PARAMS,
                   ) -> List[Request]:
    """Materialize one scheme's request stream over shared profiles."""
    model = NginxModel(params)
    return [Request(index=p.index, tenant=p.tenant,
                    service_cycles=connection_service_cycles(model, p,
                                                             scheme),
                    priority=p.priority, arrival_cycle=p.arrival_cycle)
            for p in profiles]


def churn_scheme_costs(scheme: str, *, heap_bytes: int = 1 << 16,
                       touched_bytes: int = 16 * 1024,
                       params: MachineParams = DEFAULT_PARAMS,
                       ) -> SchemeCosts:
    """Per-connection serving costs for the churn scenario.

    Transition round trips are already inside the request service
    cycles (they happen per crypto call, not per connection), so
    ``transition_cycles`` is 0 here; what the serving loop charges is
    the *sandbox lifecycle* — measured mmap/mprotect setup at accept
    and madvise teardown at close, plus the pkey tag/untag syscalls
    for MPK.
    """
    if scheme == "unprotected":
        setup, teardown = connection_lifecycle_costs(
            "native-unsafe", heap_bytes=heap_bytes,
            touched_bytes=touched_bytes, params=params)
        return SchemeCosts(name="unprotected",
                           strategy_name="native-unsafe",
                           transition_cycles=0,
                           dispatch_cycles=POOLED_POP_CYCLES,
                           batch_teardown=True,
                           setup_cycles=setup, teardown_cycles=teardown)
    if scheme == "hfi":
        setup, teardown = connection_lifecycle_costs(
            "native-hfi", heap_bytes=heap_bytes,
            touched_bytes=touched_bytes, params=params)
        # staging the implicit-region descriptors: three word stores
        setup += descriptor_cycles(params, 3 * 8)
        return SchemeCosts(name="hfi", strategy_name="native-hfi",
                           transition_cycles=0,
                           dispatch_cycles=POOLED_POP_CYCLES,
                           batch_teardown=True,
                           setup_cycles=setup, teardown_cycles=teardown)
    if scheme == "mpk":
        setup, teardown = connection_lifecycle_costs(
            "native-unsafe", heap_bytes=heap_bytes,
            touched_bytes=touched_bytes, tag_pkey=True, params=params)
        return SchemeCosts(name="mpk", strategy_name="native-unsafe",
                           transition_cycles=0,
                           dispatch_cycles=(POOLED_POP_CYCLES
                                            + params.wrpkru_cycles),
                           batch_teardown=True,
                           setup_cycles=setup, teardown_cycles=teardown)
    raise ValueError(f"unknown churn scheme {scheme!r}; "
                     f"known: {CHURN_SCHEMES}")


# ----------------------------------------------------------------------
# batch render pipelines (font + image)
# ----------------------------------------------------------------------

#: The Fig. 4/§6.2 compiler schemes — here the *codegen* differs, so
#: guest cycles are measured by running each job under each scheme.
RENDER_SCHEMES = ("hfi", "guard-pages", "bounds-check")

#: job name -> wir module builder; the bench runs the full image grid,
#: tests can pass a trimmed subset.
RENDER_JOBS: Dict[str, Callable] = {
    "font/reflow": graphite_reflow,
    **{f"image/{res}-{comp}":
       (lambda res=res, comp=comp: jpeg_decode(res, comp))
       for comp in COMPRESSION_ROUNDS for res in RESOLUTIONS},
}


def measure_render_jobs(jobs: Optional[Dict[str, Callable]] = None,
                        schemes: Sequence[str] = RENDER_SCHEMES,
                        max_instructions: int = 30_000_000,
                        ) -> Dict[str, Dict[str, int]]:
    """Execute each job under each scheme's real codegen; return
    measured guest cycles: ``{job: {scheme: cycles}}``.

    Each cell instantiates the module on the Wasm toolchain with that
    scheme's strategy and runs it to completion, so the service times
    the serving loop consumes include register pressure, bounds
    checks, per-row host-call transitions, and serialized HFI
    enters — the §6.2 effects — rather than flat constants.  Result
    globals are asserted equal across schemes (the codegen must not
    change semantics).
    """
    from ..wasm import WasmRuntime, make_strategy

    jobs = RENDER_JOBS if jobs is None else jobs
    table: Dict[str, Dict[str, int]] = {}
    for job, builder in jobs.items():
        module = builder()
        cycles: Dict[str, int] = {}
        values = set()
        for scheme in schemes:
            runtime = WasmRuntime()
            instance = runtime.instantiate(module, make_strategy(scheme))
            result = runtime.run(instance, max_instructions)
            if result.reason != "hlt":
                raise RuntimeError(
                    f"{job} under {scheme}: {result.reason} "
                    f"{result.fault}")
            cycles[scheme] = result.stats.cycles
            values.add(runtime.space.read(instance.layout.globals_base))
        if len(values) != 1:
            raise RuntimeError(
                f"{job}: schemes disagree on the result global "
                f"({values})")
        table[job] = cycles
    return table


def build_render_profiles(n_jobs: int, *, seed: int = 0,
                          jobs: Optional[Sequence[str]] = None,
                          tenants: int = 8,
                          high_fraction: float = 0.08,
                          low_fraction: float = 0.20,
                          ) -> List[Tuple[int, str, str, int]]:
    """Seeded job mix: ``(index, job, tenant, priority)``.

    Arrival cycles are attached later (they depend on the measured
    baseline capacity), so this returns the scheme-independent part.
    """
    names = list(RENDER_JOBS if jobs is None else jobs)
    rng = random.Random((seed << 8) ^ 0xF0D7)
    out = []
    for index in range(n_jobs):
        draw = rng.random()
        priority = (Priority.HIGH if draw < high_fraction
                    else Priority.LOW if draw < high_fraction + low_fraction
                    else Priority.NORMAL)
        out.append((index, names[rng.randrange(len(names))],
                    f"tenant-{rng.randrange(tenants)}", priority))
    return out


def render_requests(job_table: Dict[str, Dict[str, int]],
                    n_jobs: int, *, seed: int = 0, load: float = 0.8,
                    n_cores: int = 4, arrival: str = "poisson",
                    baseline_scheme: str = "guard-pages",
                    ) -> Dict[str, List[Request]]:
    """Per-scheme request streams over one shared seeded job mix.

    Arrival gaps are sized against the *baseline scheme's* measured
    mean job cost, so every scheme sees identical arrivals and the
    measured codegen differences (HFI's register-pressure win, the
    bounds-check tax) surface as goodput/latency differences.
    """
    profiles = build_render_profiles(n_jobs, seed=seed,
                                     jobs=list(job_table))
    mean_job = (sum(job_table[job][baseline_scheme]
                    for _, job, _, _ in profiles)
                / max(1, len(profiles)))
    mean_gap = mean_job / (max(1e-9, load) * n_cores)
    process = arrival_process(arrival, mean_gap, seed)
    gaps = list(process.interarrivals(len(profiles)))
    arrivals = []
    clock = 0
    for gap in gaps:
        clock += gap
        arrivals.append(clock)
    streams: Dict[str, List[Request]] = {}
    for scheme in next(iter(job_table.values())):
        streams[scheme] = [
            Request(index=index, tenant=tenant,
                    service_cycles=job_table[job][scheme],
                    priority=priority, arrival_cycle=arrivals[index])
            for index, job, tenant, priority in profiles]
    return streams


def render_scheme_costs(scheme: str,
                        params: MachineParams = DEFAULT_PARAMS,
                        ) -> SchemeCosts:
    """Serving costs for the render pipelines.

    Guest cycles (including in-sandbox transitions) are measured into
    the service time, so ``transition_cycles`` stays 0; the scheme's
    remaining serving-side difference is pooled staging plus the
    §6.3.1 teardown shape — HFI and bounds-check reservations carry no
    guard regions, so their slot discards batch; guard-page slots must
    madvise immediately.
    """
    if scheme not in RENDER_SCHEMES:
        raise ValueError(f"unknown render scheme {scheme!r}; "
                         f"known: {RENDER_SCHEMES}")
    return SchemeCosts(name=scheme, strategy_name=scheme,
                       transition_cycles=0,
                       dispatch_cycles=POOLED_POP_CYCLES,
                       batch_teardown=(scheme != "guard-pages"))
