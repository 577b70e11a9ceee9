"""Discrete-event production serving simulator (paper §6.3 at scale).

The paper's FaaS/CDN scenario is where HFI's cheap transitions pay
off: one process multiplexes thousands of sandboxed invocations, and
the per-request protection cost (transition round trips, instance
staging, teardown madvise) decides how much offered load the node
sustains before the tail blows up.  This module models that node as
a discrete-event simulator in the image of the Firecracker serving
architecture and the Faasm cluster setup (SNIPPETS.md):

* **open-loop arrivals** — Poisson, bursty (2-state MMPP), or
  replayed gaps; the offered load never waits for the server;
* **N worker cores**, each owning a shard of a
  :class:`~repro.runtime.pool.ShardedInstancePool` with work-stealing
  when the local shard runs dry;
* the **recovery policy** of :mod:`repro.runtime.supervisor` —
  admission control shedding lowest-priority-newest-first (never
  HIGH), per-tenant circuit breakers, watchdog kills — with the
  ``Injection`` fault ledger, so shed/failed requests are accounted
  distinctly from successes.  Queued sheddable requests sit in a heap
  ordered by ``shed_rank``, so an arrival past the admission bound
  picks its victim in O(log n) of the number in flight;
* **one executor seam** — an invocation runs on the scheme's cost
  model, :class:`SchemeCosts`, or on real HFI sandboxes,
  :class:`~repro.runtime.sandbox.SandboxExecutor` (the chaos soak's).
  Each cost model's transition round trip comes from
  :class:`~repro.runtime.transitions.TransitionModel`, its pooled
  instance staging from :class:`~repro.runtime.startup.StartupModel`,
  and its teardown from the pool's real (batched or immediate)
  madvise accounting.

Everything inside the loop is integer cycles with a deterministic
event order and no RNG, so the request stream, seeded or replayed,
fully determines a run — the property the golden serving fixture
(tests/golden_serving.json) and the ``repro-hfi verify`` determinism
gate pin down.  Arrivals stream from the request list, stably sorted
by ``arrival_cycle`` (same-cycle arrivals keep their list order); only
the completions of started invocations, at most one per core, wait in
a heap keyed by ``(cycle, seq)``.  Before each arrival, every
completion at or before its cycle runs, in cycle order and then in the
order the invocations started.  Latency percentiles (p50/p99/p999)
are computed over integer cycle latencies with the exact nearest-rank
rule of :func:`percentile`.

Table 1 runs here too: fed one constant service time and a zero-cost
:class:`SchemeCosts`, the node is an FCFS M/D/c queue — request *i*
goes to core *i mod n*, and with equal service times the earliest-free
core is always the one that took request *i - n*.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..os.address_space import AddressSpace
from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import ServingStats
from ..wasm import make_strategy
from .pool import PoolSlot, ShardedInstancePool
from .startup import POOLED_POP_CYCLES, StartupModel
from .supervisor import (
    BACKOFF_CYCLES,
    BREAKER_COOLDOWN_CYCLES,
    BREAKER_THRESHOLD,
    FAULT_PROGRESS,
    NO_SHED_PRIORITY,
    FaultKind,
    Injection,
    Priority,
    Request,
    RequestOutcome,
    TenantBreaker,
    breaker_admits,
    classify_fault,
    pending_fault,
    record_breaker_fault,
    record_breaker_success,
    shed_rank,
    watchdog_budget,
)
from .transitions import TransitionKind, TransitionModel


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class ArrivalProcess:
    """Seeded open-loop interarrival generator (integer cycles)."""

    name = "arrivals"

    def interarrivals(self, n: int) -> Iterator[int]:
        raise NotImplementedError


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed mean rate."""

    mean_interarrival_cycles: float
    seed: int = 0
    name = "poisson"

    def interarrivals(self, n: int) -> Iterator[int]:
        rng = random.Random((self.seed << 12) ^ 0x9015)
        mean = max(1.0, float(self.mean_interarrival_cycles))
        for _ in range(n):
            yield max(1, int(rng.expovariate(1.0 / mean)))


@dataclass
class MmppArrivals(ArrivalProcess):
    """Bursty arrivals: a 2-state Markov-modulated Poisson process.

    The calm state arrives at the base rate; the burst state arrives
    ``burst_factor`` times faster.  State transitions are drawn per
    arrival, so the long-run offered load exceeds the calm rate by the
    stationary burst share — the overload shape that exercises
    admission control and work-stealing.
    """

    mean_interarrival_cycles: float
    burst_factor: float = 8.0
    p_calm_to_burst: float = 0.02
    p_burst_to_calm: float = 0.10
    seed: int = 0
    name = "mmpp"

    def interarrivals(self, n: int) -> Iterator[int]:
        rng = random.Random((self.seed << 12) ^ 0x3117)
        mean = max(1.0, float(self.mean_interarrival_cycles))
        burst = False
        for _ in range(n):
            state_mean = mean / self.burst_factor if burst else mean
            yield max(1, int(rng.expovariate(1.0 / max(1.0, state_mean))))
            draw = rng.random()
            burst = (draw >= self.p_burst_to_calm if burst
                     else draw < self.p_calm_to_burst)


@dataclass
class TraceArrivals(ArrivalProcess):
    """Replay explicit interarrival gaps (e.g. from a recorded trace)."""

    gaps: Sequence[int]
    name = "trace"

    def interarrivals(self, n: int) -> Iterator[int]:
        for i in range(n):
            yield max(0, int(self.gaps[i % len(self.gaps)]))


def arrival_process(arrival: str, mean_interarrival: float,
                    seed: int) -> ArrivalProcess:
    """The named arrival process for a target mean interarrival gap.

    ``"mmpp"`` sets the calm-state gap to 2.2x the target.  Bursts
    take 1/6 of arrivals at 8x the calm rate, so the mean gap is
    0.854x the calm gap and the stream offers about 0.53x the target
    load, not the target itself (ROADMAP.md open item 6).
    """
    if arrival == "poisson":
        return PoissonArrivals(mean_interarrival, seed=seed)
    if arrival == "mmpp":
        return MmppArrivals(mean_interarrival * 2.2, seed=seed)
    raise ValueError(f"unknown arrival process {arrival!r}; "
                     "expected 'poisson' or 'mmpp'")


def build_requests(arrivals: ArrivalProcess, n_requests: int, *,
                   seed: int = 0, tenants: int = 8,
                   service_cycles: Tuple[int, int] = (20_000, 120_000),
                   high_fraction: float = 0.08,
                   low_fraction: float = 0.20) -> List[Request]:
    """Deterministic open-loop tenant traffic over an arrival process."""
    rng = random.Random((seed << 8) ^ 0x5E2F)
    lo, hi = service_cycles
    clock = 0
    requests: List[Request] = []
    for index, gap in enumerate(arrivals.interarrivals(n_requests)):
        clock += gap
        draw = rng.random()
        priority = (Priority.HIGH if draw < high_fraction
                    else Priority.LOW if draw < high_fraction + low_fraction
                    else Priority.NORMAL)
        requests.append(Request(
            index=index, tenant=f"tenant-{rng.randrange(tenants)}",
            service_cycles=rng.randrange(lo, hi), priority=priority,
            arrival_cycle=clock))
    return requests


# ----------------------------------------------------------------------
# per-scheme cost plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeCosts:
    """One isolation scheme's per-request serving costs.

    ``transition_cycles`` and ``dispatch_cycles`` are *measured* from
    the transition/startup models; teardown is not a constant here —
    it is whatever the pool's (batched or immediate) madvise
    accounting charges at release time, which is where the §6.3.1
    batching win shows up.

    ``setup_cycles``/``teardown_cycles`` are the *per-request sandbox
    lifecycle* costs for churn-shaped traffic (one sandbox per
    connection, NGINX-style): setup is charged with dispatch, teardown
    with the slot release.  They default to 0 — the FaaS scenario
    reuses pooled instances, so only connection-churn scenarios
    populate them (from :func:`connection_lifecycle_costs`, i.e. real
    ``mprotect``/``madvise_dontneed`` walks, not flat constants).

    This is one of the two executors :class:`ServingSimulator` runs
    invocations on; the other,
    :class:`~repro.runtime.sandbox.SandboxExecutor`, runs them on real
    sandboxes.  Both price a clean invocation (:meth:`run`), an
    invocation whose guest faults (:meth:`fault`) and the reap of a
    killed guest's sandbox (:meth:`reap`), and say whether a slot is
    still :meth:`intact` after its guest ran.
    """

    name: str
    strategy_name: str          # backs the pool slots' reservations
    transition_cycles: int      # boundary round trip per invocation
    dispatch_cycles: int        # pooled instance staging per dispatch
    batch_teardown: bool
    setup_cycles: int = 0       # per-connection sandbox establishment
    teardown_cycles: int = 0    # per-connection sandbox teardown

    #: The cost model keeps no guest memory, so the simulator gives the
    #: pool a scratch address space.
    space = None

    def run(self, request: Request, slot: PoolSlot,
            service_cycles: int) -> int:
        """Cycles of an invocation doing ``service_cycles`` of guest
        work: dispatch, the boundary round trip and any setup."""
        return (self.dispatch_cycles + self.transition_cycles
                + self.setup_cycles + service_cycles)

    def fault(self, request: Request, slot: PoolSlot) -> int:
        """Cycles of an invocation whose guest traps
        :data:`FAULT_PROGRESS` of the way through its work."""
        return self.run(request, slot,
                        int(request.service_cycles * FAULT_PROGRESS))

    def reap(self, request: Request) -> int:
        """A cost model keeps no sandbox to reap."""
        return 0

    def intact(self, space: AddressSpace, slot: PoolSlot) -> bool:
        """The cost model's guests write no memory, so the slot's top
        word reads zero unless something scribbled over it."""
        return space.read(slot.canary_address, check=False) == 0


#: The schemes the serving benchmark compares.
SERVING_SCHEMES = ("hfi", "guard-pages", "mpk")


def scheme_costs(name: str,
                 params: MachineParams = DEFAULT_PARAMS) -> SchemeCosts:
    """Derive a scheme's serving costs from the runtime cost models."""
    from ..wasm import HfiStrategy

    transitions = TransitionModel(params)
    startup = StartupModel(params)
    if name == "hfi":
        return SchemeCosts(
            name="hfi", strategy_name="hfi",
            transition_cycles=transitions.round_trip(
                TransitionKind.ZERO_COST, serialized=True),
            dispatch_cycles=startup.wasm_instance_cycles(
                HfiStrategy(), pooled=True),
            batch_teardown=True)
    if name == "guard-pages":
        # Stock Wasm: entry/exit is a compiler-proven call; dispatch is
        # a bare free-list pop.  The per-request cost lives in teardown:
        # guard regions make batched discards span the whole pool
        # (§6.3.1), so releases madvise immediately, one syscall each.
        return SchemeCosts(
            name="guard-pages", strategy_name="guard-pages",
            transition_cycles=2 * transitions.software_cost(
                TransitionKind.ZERO_COST),
            dispatch_cycles=POOLED_POP_CYCLES,
            batch_teardown=False)
    if name == "mpk":
        # ERIM-style pkey switching on guard-page-shaped reservations:
        # wrpkru in/out per invocation plus a pkey tag at dispatch.
        return SchemeCosts(
            name="mpk", strategy_name="guard-pages",
            transition_cycles=transitions.mpk_round_trip(),
            dispatch_cycles=POOLED_POP_CYCLES + params.wrpkru_cycles,
            batch_teardown=False)
    raise ValueError(f"unknown serving scheme {name!r}; "
                     f"known: {SERVING_SCHEMES}")


def connection_lifecycle_costs(strategy_name: str, *,
                               heap_bytes: int = 1 << 16,
                               touched_bytes: int = 16 * 1024,
                               tag_pkey: bool = False,
                               params: MachineParams = DEFAULT_PARAMS,
                               ) -> Tuple[int, int]:
    """Measured per-connection sandbox (setup, teardown) cycles.

    Runs the strategy's real reservation against a scratch
    :class:`AddressSpace` — ``mmap`` + ``mprotect`` (plus a
    ``pkey_mprotect`` tag when ``tag_pkey``) for setup — then dirties
    the connection's working set and measures the
    ``madvise_dontneed`` teardown, so present pages pay the zap cost
    and guard-page reservations pay the sparse PTE-range walk the
    paper's §6.3.1 batching argument hinges on.  This is what
    churn-shaped scenarios feed into :class:`SchemeCosts` instead of
    flat constants.
    """
    space = AddressSpace(params)
    strategy = make_strategy(strategy_name)
    base, reserve = strategy.reserve_memory(space, heap_bytes)
    setup = reserve + 2 * params.syscall_cycles
    if tag_pkey:
        setup += params.syscall_cycles + space.set_pkey(base, heap_bytes,
                                                        1)
    page = params.page_bytes
    for off in range(0, min(touched_bytes, heap_bytes), page):
        space.write(base + off, 0xAB, 1, check=False)
    teardown = strategy.teardown_cost(space, base, heap_bytes, params)
    if tag_pkey:
        # the key must be recycled clean: untag before the key is freed
        teardown += params.syscall_cycles + space.set_pkey(base,
                                                           heap_bytes, 0)
    return setup, teardown


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
@dataclass
class ServingConfig:
    """Knobs for one serving run; the recovery policy's other values
    live in :mod:`repro.runtime.supervisor`."""

    n_cores: int = 4
    slots_per_shard: int = 16
    #: Admission bound on in-flight requests (queued + executing, each
    #: holding a pool slot).  Overflow sheds lowest-priority-newest.
    max_inflight: int = 64
    breaker_threshold: int = BREAKER_THRESHOLD
    breaker_cooldown_cycles: int = BREAKER_COOLDOWN_CYCLES


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no numpy dependency in the hot path).

    The rank is computed in exact (rational) arithmetic: the naive
    ``ceil(pct / 100.0 * n)`` rounds the wrong way whenever the binary
    product ``pct / 100 * n`` lands just above the true integer — e.g.
    ``pct=7, n=100`` gives ``ceil(7.000000000000001) = 8`` and returns
    the 8th-ranked element instead of the 7th.  Caught by the property
    suite (``tests/test_percentile_properties.py``) against a
    Fraction-based oracle.  ``pct`` at or below 0 clamps to the
    minimum, at or above 100 to the maximum — the nearest-rank rule is
    only defined on (0, 100].
    """
    return _nearest_rank(sorted(values), pct)


def _nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` of values already sorted ascending."""
    if not ordered:
        return 0.0
    if pct <= 0:
        return ordered[0]
    if pct >= 100:
        return ordered[-1]
    rank = math.ceil(Fraction(pct) * len(ordered) / 100)
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


@dataclass
class ServingMetrics:
    """Results of one serving run (cycle-exact, JSON-ready)."""

    scheme: str
    arrival: str
    n_cores: int
    requests: int
    succeeded: int
    failed: int
    shed: int
    retried: int
    quarantined: int
    killed: int
    breaker_shed: int
    steals: int
    peak_inflight: int
    duration_cycles: int
    busy_cycles: int
    recycle_cycles: int
    p50_cycles: int
    p99_cycles: int
    p999_cycles: int
    mean_latency_cycles: float
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    utilization: float
    frequency_ghz: float

    def _cycles_to_ms(self, cycles: float) -> float:
        return cycles / (self.frequency_ghz * 1e6)

    @property
    def p50_ms(self) -> float:
        return self._cycles_to_ms(self.p50_cycles)

    @property
    def p99_ms(self) -> float:
        return self._cycles_to_ms(self.p99_cycles)

    @property
    def p999_ms(self) -> float:
        return self._cycles_to_ms(self.p999_cycles)

    @property
    def accounted(self) -> bool:
        """Every request ended in exactly one terminal state."""
        return self.succeeded + self.failed + self.shed == self.requests

    def as_dict(self) -> dict:
        out = {f: getattr(self, f)
               for f in self.__dataclass_fields__}  # noqa: E501 — dataclass introspection
        out["p50_ms"] = self.p50_ms
        out["p99_ms"] = self.p99_ms
        out["p999_ms"] = self.p999_ms
        out["accounted"] = self.accounted
        return out

    def digest(self) -> str:
        """Bit-exact fingerprint for the determinism gate: every
        integer field of the run, in a stable order."""
        ints = {f: getattr(self, f) for f in self.__dataclass_fields__
                if isinstance(getattr(self, f), int)}
        return json.dumps(ints, sort_keys=True)


class _InFlight:
    """One admitted request holding a pool slot (compared by identity,
    so removing it from a core queue never compares fields)."""

    __slots__ = ("request", "slot", "owner_shard", "core", "injection",
                 "started", "pending")

    def __init__(self, request: Request, slot: PoolSlot, owner_shard: int,
                 core: int, injection: Optional[Injection]):
        self.request = request
        self.slot = slot
        self.owner_shard = owner_shard
        self.core = core
        self.injection = injection
        self.started = False
        #: The fault this invocation acts on, fixed when it starts.
        self.pending: Optional[FaultKind] = None


class _Core:
    __slots__ = ("queue", "running", "busy_until", "busy_cycles")

    def __init__(self):
        self.queue: deque = deque()
        self.running: Optional[_InFlight] = None
        self.busy_until = 0
        self.busy_cycles = 0


def _reject_duplicate_indices(requests: Sequence[Request]) -> None:
    """Raise ValueError naming the smallest index two requests share.

    A sorted list rather than a set: a set of the serving benchmark's
    10k indices raised its peak RSS by 0.6 MB.
    """
    indices = sorted(request.index for request in requests)
    for i in range(1, len(indices)):
        if indices[i] == indices[i - 1]:
            raise ValueError(f"duplicate request index {indices[i]}")


_arrival_cycle = attrgetter("arrival_cycle")


class ServingSimulator:
    """Discrete-event serving loop over sharded pools for one scheme.

    ``scheme`` is a scheme name, or the executor the invocations run
    on: a :class:`SchemeCosts` cost model or a
    :class:`~repro.runtime.sandbox.SandboxExecutor` over real
    sandboxes.  The pool lives in the executor's address space, if it
    has one.  Which fault an invocation meets, and what follows, is
    decided here, once, for both executors.

    A simulator serves one request stream: its counters, outcomes,
    breakers, clock and pool are that stream's ledger.
    """

    def __init__(self, scheme="hfi",
                 config: Optional[ServingConfig] = None,
                 params: Optional[MachineParams] = None, *,
                 telemetry: Optional[Telemetry] = None):
        self.params = params if params is not None else MachineParams()
        self.config = config if config is not None else ServingConfig()
        self.scheme = (scheme_costs(scheme, self.params)
                       if isinstance(scheme, str) else scheme)
        self.space = (self.scheme.space if self.scheme.space is not None
                      else AddressSpace(self.params))
        self.pool = ShardedInstancePool(
            self.space, make_strategy(self.scheme.strategy_name),
            shards=self.config.n_cores,
            slots_per_shard=self.config.slots_per_shard,
            heap_bytes=1 << 16, params=self.params,
            batch_teardown=self.scheme.batch_teardown)
        self.breakers: Dict[str, TenantBreaker] = {}
        self.counters = ServingStats(component="serving")
        self.outcomes: List[RequestOutcome] = []
        self.latencies: List[int] = []
        self.clock = 0
        self._inflight = 0
        self._cores = [_Core() for _ in range(self.config.n_cores)]
        #: Completions of started invocations, at most one per core, as
        #: a heap of ``(cycle, seq, record)``; ``seq`` counts starts, so
        #: same-cycle completions run in the order their invocations
        #: started.
        self._completions: List[tuple] = []
        self._seq = 0
        #: Queued (not started) records below ``no_shed_priority``, as a
        #: heap of ``(shed_rank, record)``.  A record that starts stays
        #: in it until it reaches the top; ``_victims_live`` counts the
        #: entries still queued.
        self._victims: List[tuple] = []
        self._victims_live = 0
        self._used = False
        coalesce(telemetry).register_component("serving", self.stats)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request],
            injector=None) -> ServingMetrics:
        """Drive ``requests`` through the node in ``arrival_cycle``
        order (same-cycle arrivals in list order).

        Request indices must be unique: they rank shed victims and key
        chaos injections.  A simulator runs once; a second call raises
        RuntimeError rather than mix two streams in one ledger.
        """
        if self._used:
            raise RuntimeError(
                "this ServingSimulator already served a request stream; "
                "build one simulator per stream")
        _reject_duplicate_indices(requests)
        self._used = True
        # a stable sort: same-cycle arrivals keep their list order
        arrivals = sorted(requests, key=_arrival_cycle)
        completions = self._completions
        on_arrival, complete_next = self._on_arrival, self._complete_next
        for request in arrivals:
            cycle = request.arrival_cycle
            # completions drain before same-cycle arrivals so a freed
            # slot is visible to the arrival that needs it
            while completions and completions[0][0] <= cycle:
                complete_next()
            if cycle > self.clock:
                self.clock = cycle
            on_arrival(request, injector)
        while completions:
            complete_next()
        # the last event ends the run: the clock has passed every arrival
        return self._metrics(arrivals, self.clock)

    def _complete_next(self) -> None:
        """Pop the earliest completion and run it."""
        cycle, _, record = heapq.heappop(self._completions)
        if cycle > self.clock:
            self.clock = cycle
        self._on_complete(record)

    # ------------------------------------------------------------------
    # arrivals: breaker -> admission -> slot -> enqueue
    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request, injector) -> None:
        counters = self.counters
        counters.requests += 1
        injection = request.injection or (
            injector.injection_for(request.index) if injector else None)
        breaker = self.breakers.get(request.tenant)
        if breaker is None:
            breaker = self.breakers[request.tenant] = TenantBreaker()
        clock = self.clock
        if not breaker_admits(breaker, clock):
            counters.breaker_shed += 1
            self._shed(request, injection, "breaker")
            return
        # --- admission control: bounded in-flight ---------------------
        if self._inflight >= self.config.max_inflight:
            if not self._make_room(request, injection):
                return                      # the newcomer was the victim
        # --- slot acquisition (work-stealing shard pool) --------------
        core_index = request.index % self.config.n_cores
        slot, owner, cycles = self.pool.acquire(core_index)
        if slot is None and request.priority >= NO_SHED_PRIORITY:
            # a no-shed request found every slot held: evict a queued
            # lower-priority record and take its slot
            if self._evict_one_queued():
                slot, owner, extra = self.pool.acquire(core_index)
                cycles += extra
        core = self._cores[core_index]
        busy_until = core.busy_until
        core.busy_until = (busy_until if busy_until > clock
                           else clock) + cycles
        core.busy_cycles += cycles
        counters.recycle_cycles += cycles
        if slot is None:
            self._shed(request, injection, "capacity")
            return
        record = _InFlight(request, slot, owner, core_index, injection)
        self._inflight += 1
        if self._inflight > counters.peak_inflight:
            counters.peak_inflight = self._inflight
        core.queue.append(record)
        if request.priority < NO_SHED_PRIORITY:
            heapq.heappush(self._victims,
                           (shed_rank(request.index, request), record))
            self._victims_live += 1
        self._maybe_start(core_index)

    def _make_room(self, newcomer: Request,
                   injection: Optional[Injection]) -> bool:
        """Shed one victim to admit ``newcomer``; False if the
        newcomer itself was shed.  Victims come from the queued
        (not-yet-started) population plus the newcomer, chosen by the
        recovery policy: lowest ``shed_rank`` first, never
        ``NO_SHED_PRIORITY``.  With no sheddable victim (all HIGH) the
        newcomer is admitted anyway — HIGH is never dropped.
        """
        top = self._top_victim()
        if (newcomer.priority < NO_SHED_PRIORITY
                and (top is None
                     or shed_rank(newcomer.index, newcomer) < top[0])):
            self._shed(newcomer, injection, "admission")
            return False
        if top is not None:
            self._evict_top_victim("admission")
        return True

    def _evict_one_queued(self) -> bool:
        """Shed one queued (not yet started) record below the no-shed
        priority and free its slot; False if nothing is evictable."""
        if self._top_victim() is None:
            return False
        self._evict_top_victim("evicted")
        return True

    def _top_victim(self) -> Optional[tuple]:
        """The lowest-ranked queued sheddable ``(rank, record)``, after
        dropping records that have started since they were pushed."""
        victims = self._victims
        while victims and victims[0][1].started:
            heapq.heappop(victims)
        return victims[0] if victims else None

    def _evict_top_victim(self, why: str) -> None:
        _, record = heapq.heappop(self._victims)
        self._victim_left()
        self._cores[record.core].queue.remove(record)
        self._release_record(record, quarantine=False)
        self._shed(record.request, record.injection, why)

    def _victim_left(self) -> None:
        """A sheddable record left the queue; once started records
        outnumber queued ones in the heap, rebuild it without them."""
        self._victims_live -= 1
        if len(self._victims) > 2 * self._victims_live:
            self._victims = [entry for entry in self._victims
                             if not entry[1].started]
            heapq.heapify(self._victims)

    def _shed(self, request: Request, injection: Optional[Injection],
              why: str) -> None:
        self.counters.shed += 1
        classify_fault(injection, "shed")
        self.outcomes.append(RequestOutcome(request, "shed", detail=why))

    # ------------------------------------------------------------------
    # dispatch and completion
    # ------------------------------------------------------------------
    def _maybe_start(self, core_index: int) -> None:
        core = self._cores[core_index]
        if core.running is not None or not core.queue:
            return
        record = core.queue.popleft()
        core.running = record
        record.started = True
        record.pending = pending_fault(record.injection)
        if record.request.priority < NO_SHED_PRIORITY:
            self._victim_left()
        clock, busy_until = self.clock, core.busy_until
        start = busy_until if busy_until > clock else clock
        duration = self._invocation_cycles(record)
        core.busy_until = start + duration
        core.busy_cycles += duration
        self._seq += 1
        heapq.heappush(self._completions,
                       (start + duration, self._seq, record))

    def _invocation_cycles(self, record: _InFlight) -> int:
        """Run the invocation on the executor, meeting its pending
        fault; returns the cycles the core is held.

        The one-shot pending fault (``record.pending``) is consumed
        here; its classification and slot consequences land at
        completion so the ledger is stamped exactly once.
        """
        executor, request, slot = self.scheme, record.request, record.slot
        pending = record.pending
        if pending is None:
            return executor.run(request, slot, request.service_cycles)
        if pending is FaultKind.GUEST_HANG:
            # the guest never yields: the watchdog's signal kills it at
            # the budget, and its sandbox is reaped
            budget = watchdog_budget(request.service_cycles)
            return (executor.run(request, slot, budget)
                    + self.params.signal_delivery_cycles
                    + executor.reap(request))
        if pending is FaultKind.GUEST_FAULT:
            # the HFI fault reaches the runtime as SIGSEGV, and the
            # guest's sandbox is reaped
            return (executor.fault(request, slot)
                    + self.params.signal_delivery_cycles
                    + executor.reap(request))
        cycles = 0
        if pending in (FaultKind.TRANSIENT_KERNEL, FaultKind.HEAP_OOM):
            # a pre-invoke kernel call failed, or a heap grow was denied
            # and the deferred discards are flushed: back off, run once
            cycles = self.params.syscall_cycles + BACKOFF_CYCLES
            if pending is FaultKind.HEAP_OOM:
                flushed = self.pool.flush_all()
                self.counters.recycle_cycles += flushed
                cycles += flushed
        cycles += executor.run(request, slot, request.service_cycles)
        if pending is FaultKind.SLOT_CORRUPTION:
            # the guest scribbles past its heap, over the slot's top word
            word = slot.canary_address
            self.space.write(word, ~self.space.read(word, check=False),
                             check=False)
        return cycles

    def _on_complete(self, record: _InFlight) -> None:
        core = self._cores[record.core]
        core.running = None
        request, injection = record.request, record.injection
        breaker = self.breakers[request.tenant]     # made at arrival
        pending = record.pending
        if pending is FaultKind.GUEST_HANG:
            self._release_record(record, quarantine=True)
            classify_fault(injection, "killed")
            self.counters.killed += 1
            self.counters.failed += 1
            self._breaker_fault(breaker)
            self.outcomes.append(RequestOutcome(
                request, "failed", attempts=1, detail="watchdog"))
        elif pending is FaultKind.GUEST_FAULT:
            self._release_record(record, quarantine=True)
            classify_fault(injection, "quarantined")
            self.counters.quarantined += 1
            self.counters.failed += 1
            self._breaker_fault(breaker)
            self.outcomes.append(RequestOutcome(
                request, "failed", attempts=1, detail="guest-fault"))
        else:
            attempts = 1
            if pending in (FaultKind.TRANSIENT_KERNEL, FaultKind.HEAP_OOM):
                classify_fault(injection, "retried")
                self.counters.retried += 1
                attempts = 2
            if self.scheme.intact(self.space, record.slot):
                self._release_record(record, quarantine=False)
                record_breaker_success(breaker)
            else:
                # the answer stands, but the slot never recycles
                # unscrubbed and the tenant counts a breaker fault
                self._release_record(record, quarantine=True)
                classify_fault(injection, "quarantined")
                self.counters.quarantined += 1
                self._breaker_fault(breaker)
            latency = self.clock - request.arrival_cycle
            self.latencies.append(latency)
            self.counters.succeeded += 1
            self.outcomes.append(RequestOutcome(
                request, "ok", attempts=attempts, cycles=latency))
        self._maybe_start(record.core)

    def _release_record(self, record: _InFlight,
                        quarantine: bool) -> None:
        self._inflight -= 1
        if quarantine:
            self.pool.quarantine(record.slot, record.owner_shard)
            return
        cost = (self.pool.release(record.slot, record.owner_shard)
                + self.scheme.teardown_cycles)
        core = self._cores[record.core]
        clock, busy_until = self.clock, core.busy_until
        core.busy_until = (busy_until if busy_until > clock
                           else clock) + cost
        core.busy_cycles += cost
        self.counters.recycle_cycles += cost

    def _breaker_fault(self, breaker: TenantBreaker) -> None:
        record_breaker_fault(breaker, self.clock,
                             self.config.breaker_threshold,
                             self.config.breaker_cooldown_cycles)

    # ------------------------------------------------------------------
    def _metrics(self, arrivals: Sequence[Request],
                 duration: int) -> ServingMetrics:
        """The run's metrics; ``arrivals`` is the stream in arrival
        order."""
        counters = self.counters
        counters.steals = self.pool.steals
        counters.duration_cycles = duration
        counters.busy_cycles = sum(c.busy_cycles for c in self._cores)
        latencies = sorted(self.latencies)
        counters.p50_cycles = int(_nearest_rank(latencies, 50))
        counters.p99_cycles = int(_nearest_rank(latencies, 99))
        counters.p999_cycles = int(_nearest_rank(latencies, 99.9))
        n = len(arrivals)
        seconds = self.params.cycles_to_seconds(duration) or 1e-12
        # the span of the stream, not its list order: the loop accepts
        # requests in any order
        mean_gap = ((arrivals[-1].arrival_cycle
                     - arrivals[0].arrival_cycle) / (n - 1)
                    if n > 1 else 0.0)
        offered_rps = (1.0 / self.params.cycles_to_seconds(mean_gap)
                       if mean_gap else 0.0)
        done = counters.succeeded + counters.failed
        return ServingMetrics(
            scheme=self.scheme.name,
            arrival="trace",
            n_cores=self.config.n_cores,
            requests=n,
            succeeded=counters.succeeded,
            failed=counters.failed,
            shed=counters.shed,
            retried=counters.retried,
            quarantined=counters.quarantined,
            killed=counters.killed,
            breaker_shed=counters.breaker_shed,
            steals=counters.steals,
            peak_inflight=counters.peak_inflight,
            duration_cycles=duration,
            busy_cycles=counters.busy_cycles,
            recycle_cycles=counters.recycle_cycles,
            p50_cycles=counters.p50_cycles,
            p99_cycles=counters.p99_cycles,
            p999_cycles=counters.p999_cycles,
            mean_latency_cycles=(sum(self.latencies) / len(self.latencies)
                                 if self.latencies else 0.0),
            offered_rps=offered_rps,
            throughput_rps=done / seconds,
            goodput_rps=counters.succeeded / seconds,
            utilization=(counters.busy_cycles
                         / (duration * self.config.n_cores)
                         if duration else 0.0),
            frequency_ghz=self.params.frequency_ghz)

    def stats(self) -> ServingStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        snapshot = ServingStats(**{
            f: getattr(self.counters, f)
            for f in self.counters.__dataclass_fields__})
        snapshot.component = "serving"
        snapshot.steals = self.pool.steals
        return snapshot


# ----------------------------------------------------------------------
# convenience front door (CLI, bench, verify gate)
# ----------------------------------------------------------------------
def mean_service_cycles(scheme: SchemeCosts,
                        service_cycles: Tuple[int, int]) -> float:
    """Expected per-request core occupancy under a scheme."""
    return ((service_cycles[0] + service_cycles[1]) / 2.0
            + scheme.transition_cycles + scheme.dispatch_cycles)


def simulate_serving(scheme: str = "hfi", *, n_requests: int = 2000,
                     seed: int = 0, arrival: str = "poisson",
                     offered_load: float = 0.8,
                     service_cycles: Tuple[int, int] = (20_000, 120_000),
                     config: Optional[ServingConfig] = None,
                     params: Optional[MachineParams] = None,
                     requests: Optional[Sequence[Request]] = None,
                     injector=None,
                     telemetry: Optional[Telemetry] = None,
                     ) -> ServingMetrics:
    """One serving run: build traffic (unless given), simulate, report.

    ``offered_load`` is relative to the scheme-adjusted node capacity:
    1.0 offers exactly ``n_cores / mean_service`` requests per cycle.
    """
    params = params if params is not None else MachineParams()
    config = config if config is not None else ServingConfig()
    costs = scheme_costs(scheme, params) if isinstance(scheme, str) \
        else scheme
    sim = ServingSimulator(costs, config, params, telemetry=telemetry)
    arrival_name = arrival
    if requests is None:
        mean_interarrival = (mean_service_cycles(costs, service_cycles)
                             / (max(1e-9, offered_load) * config.n_cores))
        requests = build_requests(
            arrival_process(arrival, mean_interarrival, seed),
            n_requests, seed=seed, service_cycles=service_cycles)
    else:
        arrival_name = "trace"
    metrics = sim.run(requests, injector=injector)
    metrics.arrival = arrival_name
    return metrics
