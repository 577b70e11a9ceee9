"""The timing seam: every cycle charged by the exec layer flows here.

The staged engine keeps instruction *semantics* (the ``exec_*``
modules) separate from instruction *cost* so the two can evolve
independently — the gem5 split between functional and timing models.
Timing is a pluggable axis: a :class:`TimingBackend` is selected
per-``Cpu`` via ``Cpu(timing=...)`` and process-wide via
:func:`set_default_timing` / :func:`default_timing`.  Two conforming
backends ship:

* ``inorder`` (:class:`InOrderTiming`, the fast default) — the charge
  stream is accumulated directly into ``stats.cycles`` as each
  instruction commits, and the commit loop adds fetch+base cost inline
  (``inline_commit`` is True).
* ``ooo`` (:class:`repro.cpu.ooo.OutOfOrderTiming`) — a scoreboarded
  out-of-order model (register renaming, issue queue, ROB with
  in-order retirement, LSQ) driven by the same commit stream through
  the :meth:`~TimingBackend.issue` / :meth:`~TimingBackend.retire`
  hooks.  Architectural state is bit-identical to ``inorder`` (the
  verify matrix sweeps both); only ``stats.cycles`` differs.

Three charging disciplines exist in the machine model and each has a
named method, because mixing them up is exactly the kind of silent
timing drift the golden-cycle fixture exists to catch:

* :meth:`~TimingBackend.charge` — commit-only cost.  Squashed with the
  wrong path (ALU latencies, transition costs, mispredict penalties).
* :meth:`~TimingBackend.charge_always` — paid even speculatively
  (``rdtsc`` reads the real cycle counter on the wrong path too).
* :meth:`~TimingBackend.mem_access` — the subtle one: TLB and
  data-cache *side effects* always happen (that persistence is the
  Spectre channel), but their latency is charged at commit only.

``fetch`` is the bound i-side access used by both the commit loop and
the speculation loop when the fetch misses the L1I's last-access
marker (a repeat of the latest line only counts its hit); fetch
latency policy lives in the callers (the commit loop charges it, the
wrong path does not).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Protocol, runtime_checkable

#: Timing backends accepted by ``Cpu(timing=...)`` and ``--timing``.
TIMING_MODELS = ("inorder", "ooo")

#: Process-wide default, changed with :func:`set_default_timing`.
DEFAULT_TIMING = "inorder"


def _validate_timing(name: str) -> str:
    if name not in TIMING_MODELS:
        raise ValueError(
            f"unknown timing model {name!r}; expected one of "
            f"{', '.join(TIMING_MODELS)}")
    return name


def set_default_timing(name: str) -> str:
    """Set the process-wide default timing model; returns the old one."""
    global DEFAULT_TIMING
    previous = DEFAULT_TIMING
    DEFAULT_TIMING = _validate_timing(name)
    return previous


@contextlib.contextmanager
def default_timing(name: str) -> Iterator[str]:
    """Scope the process-wide default timing model to a ``with`` block."""
    previous = set_default_timing(name)
    try:
        yield DEFAULT_TIMING
    finally:
        set_default_timing(previous)


def create_timing(name: Optional[str], cpu) -> "TimingBackend":
    """Instantiate the named timing backend bound to ``cpu``."""
    resolved = _validate_timing(name if name is not None else DEFAULT_TIMING)
    if resolved == "ooo":
        from .ooo import OutOfOrderTiming   # deferred: ooo imports isa
        return OutOfOrderTiming(cpu)
    return InOrderTiming(cpu)


@runtime_checkable
class TimingBackend(Protocol):
    """The contract every timing model satisfies.

    The exec layer only ever talks to these members; the commit loop
    in :meth:`Cpu._run` additionally consults :attr:`inline_commit` to
    decide whether to add fetch+base cycles itself (the in-order fast
    path) or to hand each instruction to :meth:`issue` / :meth:`retire`.
    """

    #: Registry name ("inorder", "ooo", ...).
    name: str
    #: True if the commit loop may add fetch+base cost inline and skip
    #: the per-instruction issue/retire protocol.
    inline_commit: bool

    def charge(self, cycles: int) -> None: ...
    def charge_always(self, cycles: int) -> None: ...
    def mem_access(self, ea: int) -> None: ...
    def hmov_check(self, extra: int) -> None: ...
    def mispredict(self) -> None: ...
    def serialize_drain(self, cost: Optional[int] = None,
                        count: bool = True) -> None: ...
    def issue(self, dop, fetch_cycles: int) -> None: ...
    def retire(self, dop) -> None: ...
    def drain_pending(self) -> None: ...
    def audit(self) -> List[str]: ...


class InOrderTiming:
    """Cycle accounting for one in-order core, bound to its stats block.

    This is the conforming fast default: every charge lands directly in
    ``stats.cycles`` at the call site, the commit loop adds fetch+base
    cost inline (``inline_commit``), and the issue/retire/drain hooks
    are no-ops.
    """

    name = "inorder"
    inline_commit = True

    __slots__ = ("cpu", "stats", "params", "fetch", "_tlb", "_dcache",
                 "_l1d", "_page_bytes")

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.stats = cpu.stats          # never rebound after Cpu.__init__
        self.params = cpu.params
        #: i-side access (cache side effects + returned latency).
        self.fetch = cpu.caches.fetch_access
        self._tlb = cpu.tlb
        self._page_bytes = cpu.params.page_bytes
        self._dcache = cpu.caches.data_access
        self._l1d = cpu.caches.l1d

    def charge(self, cycles: int) -> None:
        """Commit-only cost: squashed along with the wrong path."""
        if not self.cpu._speculative:
            self.stats.cycles += cycles

    def charge_always(self, cycles: int) -> None:
        """Cost paid even on the wrong path."""
        self.stats.cycles += cycles

    def _side_effects(self, ea: int) -> int:
        """dTLB + L1D fills for one data access; returns the latency.

        The side effects (LRU refresh, fills, hit counters) always
        happen — that persistence is the Spectre channel — while the
        caller decides what to do with the returned latency.  A repeat
        of the latest page or line (the ``_last`` markers) only counts
        its hit; any other access takes the full ``Tlb.access`` /
        hierarchy path.
        """
        tlb = self._tlb
        if ea // self._page_bytes == tlb._last:
            tlb._hits += 1
            tlb_cost = 0
        else:
            tlb_cost = tlb.access(ea)
        l1d = self._l1d
        if ea // l1d.line_bytes == l1d._last:
            l1d._hits += 1
            return tlb_cost + self.params.l1d_hit_cycles
        return tlb_cost + self._dcache(ea)

    def mem_access(self, ea: int) -> None:
        """One data-side access: fills always, latency at commit only."""
        cost = self._side_effects(ea)
        if not self.cpu._speculative:
            self.stats.cycles += cost

    def hmov_check(self, extra: int) -> None:
        """The hmov bounds check.  In-order it is a serial charge; the
        OoO model overlaps it with the access's own translation."""
        if not self.cpu._speculative:
            self.stats.cycles += extra

    def mispredict(self) -> None:
        """Pipeline flush on a resolved misprediction (commit path)."""
        self.stats.cycles += self.params.branch_mispredict_penalty

    def serialize_drain(self, cost: Optional[int] = None,
                        count: bool = True) -> None:
        """Full (or partial, for ``lfence``) pipeline drain at commit.

        ``count=False`` charges the drain cost without bumping
        ``stats.serializations`` — for sites (hfi exit, syscall) whose
        lifecycle counters are tracked elsewhere.
        """
        self.stats.cycles += (cost if cost is not None
                              else self.params.serialize_drain_cycles)
        if count:
            self.stats.serializations += 1

    # -- issue/retire protocol: no-ops for the inline in-order model --

    def issue(self, dop, fetch_cycles: int) -> None:
        """Generic (non-inline) entry: fetch + base cost up front."""
        self.stats.cycles += fetch_cycles + self.params.base_cycles

    def retire(self, dop) -> None:
        return None

    def drain_pending(self) -> None:
        return None

    def audit(self) -> List[str]:
        return []
