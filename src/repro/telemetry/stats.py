"""Uniform component statistics — the ``.stats()`` API.

Every measurable component (caches, TLB, predictors, tracer, HFI
state, sandbox manager, pools, kernel, serving loop) counts its own
events in plain-int fields and exposes them through one method::

    component.stats() -> ComponentStats

returning a frozen-in-time dataclass snapshot.  Those fields are the
only count of each event: the telemetry sink keeps no counters of its
own and samples the registered components at snapshot time.  The
dataclasses share a small base so the sink can treat them
generically: ``as_dict()`` includes derived properties (hit rates,
shares) alongside raw counters, which is what
:meth:`~repro.telemetry.Telemetry.snapshot` and ``repro-hfi telemetry
--json`` emit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ComponentStats:
    """Base snapshot type: a named component plus its counters."""

    component: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Fields plus computed ``@property`` values, JSON-ready."""
        out = dataclasses.asdict(self)
        for klass in type(self).__mro__:
            for name, attr in vars(klass).items():
                if isinstance(attr, property) and name not in out:
                    out[name] = getattr(self, name)
        return out


# ----------------------------------------------------------------------
# per-component snapshot types
# ----------------------------------------------------------------------
@dataclass
class CacheStats(ComponentStats):
    """One cache level (or the TLB treated as a cache of translations)."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class TlbStats(CacheStats):
    """dTLB hit/miss counters plus shootdown count."""

    shootdowns: int = 0


@dataclass
class PredictorStats(ComponentStats):
    """PHT/BTB/RSB counters.

    ``correct``/``mispredicts`` are resolved at update time from the
    predictor's own pre-update state, so they agree with the CPU's
    global accounting without the predictor needing a backchannel.
    The RSB cannot see resolution, so it reports push/pop traffic and
    underflows instead (``correct``/``mispredicts`` stay zero).
    """

    lookups: int = 0
    updates: int = 0
    correct: int = 0
    mispredicts: int = 0
    underflows: int = 0
    entries: int = 0
    capacity: int = 0

    @property
    def accuracy(self) -> float:
        resolved = self.correct + self.mispredicts
        return self.correct / resolved if resolved else 0.0


@dataclass
class TracerStats(ComponentStats):
    """Summary of a committed/speculative instruction trace."""

    instructions: int = 0
    speculative_instructions: int = 0
    dropped: int = 0
    hfi_instructions: int = 0
    transitions: int = 0
    mix: Dict[str, int] = field(default_factory=dict)
    spec_mix: Dict[str, int] = field(default_factory=dict)

    @property
    def hfi_fraction(self) -> float:
        return (self.hfi_instructions / self.instructions
                if self.instructions else 0.0)


@dataclass
class SandboxStats(ComponentStats):
    """One sandbox's share of the manager's cycle ledger."""

    sandbox_id: int = 0
    invocations: int = 0
    cycles: int = 0
    heap_bytes: int = 0
    is_hybrid: bool = False


@dataclass
class SandboxManagerStats(ComponentStats):
    """Whole-manager rollup.

    ``sandboxes`` is the per-sandbox cycle ledger: it lists every
    sandbox the manager created, destroyed ones included, so
    ``attributed_cycles`` always equals ``total_cycles``.
    ``invocations`` counts faulting invocations too; ``faults`` counts
    those alone.
    """

    sandboxes_created: int = 0
    live_sandboxes: int = 0
    invocations: int = 0
    faults: int = 0
    total_cycles: int = 0
    sandboxes: List[SandboxStats] = field(default_factory=list)

    @property
    def attributed_cycles(self) -> int:
        return sum(s.cycles for s in self.sandboxes)


@dataclass
class HfiDeviceStats(ComponentStats):
    """The HFI state machine's own observability counters."""

    enabled: bool = False
    is_hybrid: bool = False
    serializations: int = 0
    enters: int = 0
    exits: int = 0
    region_installs: int = 0


@dataclass
class PoolStats(ComponentStats):
    """Pooling-allocator slot traffic and recycle costs."""

    slots: int = 0
    available: int = 0
    acquires: int = 0
    releases: int = 0
    batched_flushes: int = 0
    setup_cycles: int = 0
    recycle_cycles: int = 0
    pending_discards: int = 0
    quarantined: int = 0
    quarantines: int = 0
    scrubs: int = 0
    scrub_failures: int = 0


@dataclass
class ShardedPoolStats(ComponentStats):
    """Per-core pool shards + work-stealing placement counters.

    ``local_acquires``/``steals`` partition successful acquires by
    where the slot came from; ``dry_flushes``/``scrub_rescues`` count
    how often a dry acquire had to force a batched-discard flush or a
    quarantine scrub to find capacity.
    """

    shards: int = 0
    slots: int = 0
    available: int = 0
    local_acquires: int = 0
    steals: int = 0
    exhausted: int = 0
    dry_flushes: int = 0
    scrub_rescues: int = 0
    quarantined: int = 0
    recycle_cycles: int = 0
    setup_cycles: int = 0

    @property
    def steal_rate(self) -> float:
        total = self.local_acquires + self.steals
        return self.steals / total if total else 0.0


@dataclass
class ServingStats(ComponentStats):
    """The discrete-event serving simulator's request ledger
    (``repro.runtime.serving``).

    Latency percentiles are in integer cycles (the simulator's native
    unit) so snapshots are bit-exact reproducible; presentation layers
    convert to wall time.  Every request ends in exactly one of
    ``succeeded``/``failed``/``shed``.
    """

    requests: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    retried: int = 0
    quarantined: int = 0
    killed: int = 0
    breaker_shed: int = 0
    steals: int = 0
    peak_inflight: int = 0
    duration_cycles: int = 0
    busy_cycles: int = 0
    recycle_cycles: int = 0
    p50_cycles: int = 0
    p99_cycles: int = 0
    p999_cycles: int = 0

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.requests if self.requests else 0.0

    @property
    def accounted(self) -> bool:
        return (self.succeeded + self.failed + self.shed
                == self.requests)


@dataclass
class MpkDomainStats(ComponentStats):
    """MPK key-table lifecycle counters (``repro.mpk.MpkDomainManager``).

    ``stale_untags`` counts ranges that were still tagged when their
    key was freed and had to be re-tagged to the default domain —
    each one is a stale-tag leak the old (non-recycling) allocator
    would have handed to the next tenant.  ``leaked_keys`` is the
    conservation check: keys handed out minus live minus free; it
    must stay 0 under any alloc/free interleaving.
    """

    allocated: int = 0
    free_keys: int = 0
    allocs: int = 0
    frees: int = 0
    stale_untags: int = 0
    leaked_keys: int = 0

    @property
    def churn(self) -> int:
        """Completed alloc→free cycles the table has absorbed."""
        return self.frees


@dataclass
class MpkVirtStats(ComponentStats):
    """Key-virtualization counters (``repro.mpk.MpkKeyVirtualizer``).

    Past 15 live domains, MPK switches stop being a bare wrpkru: a
    miss steals the least-recently-used physical key, paying
    ``pkey_mprotect`` untag+retag syscalls over both domains' pages.
    ``hits``/``misses`` partition switches by residency;
    ``retag_cycles`` is the virtualization tax the Fig. 5-analogue
    sweep plots against HFI's flat line.
    """

    domains: int = 0
    resident: int = 0
    switches: int = 0
    hits: int = 0
    misses: int = 0
    key_steals: int = 0
    retag_cycles: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.switches if self.switches else 0.0


@dataclass
class KernelStats(ComponentStats):
    """Syscall dispatch counters."""

    syscalls: int = 0
    seccomp_diverted: int = 0
    segv_delivered: int = 0
    syscall_cycles: int = 0


@dataclass
class DecodeCacheStats(ComponentStats):
    """The staged engine's code map.

    ``predecoded`` counts the ops ``load_program`` has mapped (a
    reloaded program counts again), and ``cached_ops`` the ops the
    core maps now.  Every op is decoded ahead of time, so there is no
    miss to count.
    """

    predecoded: int = 0
    cached_ops: int = 0


@dataclass
class SpeculationJournalStats(ComponentStats):
    """What journaled wrong-path speculation cost.

    One ``window`` per mispredict that opened speculation; every window
    rolls back, so ``rollbacks`` should equal ``windows``.
    ``shadow_pages`` counts pages copied by wrong-path stores (one per
    page a window stored to).  ``hfi_snapshots`` counts
    copy-on-first-write HFI bank saves — it stays far below ``windows``
    because most wrong paths never touch HFI state, which is exactly
    the saving over eager deepcopy.
    """

    windows: int = 0
    rollbacks: int = 0
    shadow_pages: int = 0
    hfi_snapshots: int = 0


@dataclass
class OooStats(ComponentStats):
    """Scoreboard counters of the out-of-order timing backend
    (``cpu/ooo.py``, ``timing="ooo"``).

    ``rob_stalls``/``prf_stalls``/``iq_stalls``/``lsq_stalls`` count
    dispatches delayed because the reorder buffer, physical register
    file, issue queue, or load/store queue was full. ``drains`` counts
    window drains (serializing instructions, precise exceptions,
    explicit ``drain_pending``). ``checks_overlapped`` vs
    ``checks_exposed`` is the paper's §4.2 claim in counter form: how
    often the hmov bounds check hid entirely under the access's own
    TLB+cache latency versus ending up on the critical path.
    """

    retired: int = 0
    drains: int = 0
    redirects: int = 0
    rob_stalls: int = 0
    prf_stalls: int = 0
    iq_stalls: int = 0
    lsq_stalls: int = 0
    peak_inflight: int = 0
    checks_overlapped: int = 0
    checks_exposed: int = 0

    @property
    def checks(self) -> int:
        return self.checks_overlapped + self.checks_exposed

    @property
    def overlap_rate(self) -> float:
        return self.checks_overlapped / self.checks if self.checks else 0.0


@dataclass
class VerifyStats(ComponentStats):
    """Correctness-tooling counters from the ``repro.verify`` layer.

    ``oracle_runs`` counts staged-vs-reference differential executions,
    ``divergences`` how many disagreed on architectural end-state.
    ``comparator_trials``/``comparator_disagreements``/``unclassified_disagreements``
    come from the hmov comparator fuzzer (a *classified* disagreement —
    permission, va-width — is an understood design limit; an
    unclassified one is a bug).  ``poison_hits`` and the invariant
    counters come from the sanitizer probes in ``verify.invariants``.
    ``attack_cells`` counts Spectre (attack, HFI on/off, timing) cells
    run, ``attack_failures`` the cells that leaked with HFI on or failed
    to leak the secret without it.
    """

    oracle_runs: int = 0
    divergences: int = 0
    comparator_trials: int = 0
    comparator_disagreements: int = 0
    unclassified_disagreements: int = 0
    poison_writes: int = 0
    poison_hits: int = 0
    invariant_checks: int = 0
    invariant_violations: int = 0
    chaos_runs: int = 0
    chaos_faults_injected: int = 0
    chaos_faults_unaccounted: int = 0
    chaos_leaked_slots: int = 0
    chaos_zombie_sandboxes: int = 0
    determinism_runs: int = 0
    determinism_mismatches: int = 0
    attack_cells: int = 0
    attack_failures: int = 0

    @property
    def clean(self) -> bool:
        return (self.divergences == 0
                and self.unclassified_disagreements == 0
                and self.poison_hits == 0
                and self.invariant_violations == 0
                and self.chaos_faults_unaccounted == 0
                and self.chaos_leaked_slots == 0
                and self.chaos_zombie_sandboxes == 0
                and self.determinism_mismatches == 0
                and self.attack_failures == 0)
