"""Seeded fault planners — the chaos half of the robustness layer.

A :class:`ChaosInjector` is built from a seed and a
:class:`ChaosConfig` and *plans* faults up front: for each request
index an independent draw decides whether a fault fires and which
:class:`~repro.runtime.supervisor.FaultKind` it is.  Planning is pure
(no global RNG, no wall clock), so a seed fully determines a run —
the property the soak gate and CI rely on.

Burst overload is special: it manifests as *extra traffic*, not a
per-request failure, so the injector also synthesizes tagged
low-priority requests (:meth:`ChaosInjector.burst_requests`) sized
past the serving loop's admission limit — guaranteeing the fault is
observable (and therefore classifiable as ``shed``) rather than
silently absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runtime.supervisor import FaultKind, Injection, Priority, Request

#: Catalog order is load-bearing: the planner's weighted draw walks it
#: in this order, so reordering would change seeded plans.
CHAOS_KINDS: List[FaultKind] = [
    FaultKind.TRANSIENT_KERNEL,
    FaultKind.GUEST_FAULT,
    FaultKind.GUEST_HANG,
    FaultKind.SLOT_CORRUPTION,
    FaultKind.HEAP_OOM,
    FaultKind.BURST_OVERLOAD,
]

#: Relative weights: transient errors dominate real fleets; hangs and
#: bursts are rarer but costlier.
DEFAULT_MIX: Dict[FaultKind, float] = {
    FaultKind.TRANSIENT_KERNEL: 0.30,
    FaultKind.GUEST_FAULT: 0.25,
    FaultKind.GUEST_HANG: 0.15,
    FaultKind.SLOT_CORRUPTION: 0.12,
    FaultKind.HEAP_OOM: 0.10,
    FaultKind.BURST_OVERLOAD: 0.08,
}


@dataclass
class ChaosConfig:
    """Knobs for one injector."""

    fault_rate: float = 0.05
    mix: Dict[FaultKind, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX))
    #: Synthetic requests per burst beyond the admission limit; sized
    #: so at least this many must be shed.
    burst_margin: int = 8
    #: Service cycles for synthetic burst requests.
    burst_service_cycles: int = 30_000


class ChaosInjector:
    """Plans a deterministic fault schedule over a request stream."""

    def __init__(self, seed: int, config: Optional[ChaosConfig] = None):
        self.seed = seed
        self.config = config if config is not None else ChaosConfig()
        self._rng = random.Random((seed << 20) ^ 0xCA05)
        self._by_request: Dict[int, Injection] = {}
        self._planned: List[Injection] = []
        self._plan_drawn = False

    # ------------------------------------------------------------------
    def plan(self, n_requests: int) -> List[Injection]:
        """Draw the fault schedule for request indices [0, n)."""
        if self._plan_drawn:
            raise RuntimeError("injector already planned; build a new one")
        self._plan_drawn = True
        config = self.config
        kinds = [k for k in CHAOS_KINDS if config.mix.get(k, 0.0) > 0]
        weights = [config.mix[k] for k in kinds]
        for index in range(n_requests):
            if self._rng.random() >= config.fault_rate:
                continue
            kind = self._rng.choices(kinds, weights=weights, k=1)[0]
            injection = Injection(
                injection_id=len(self._planned),
                request_index=index, kind=kind)
            self._planned.append(injection)
            self._by_request[index] = injection
        return list(self._planned)

    def injection_for(self, request_index: int) -> Optional[Injection]:
        """The serving loop's per-request lookup (stable across calls)."""
        return self._by_request.get(request_index)

    # ------------------------------------------------------------------
    def burst_requests(self, trigger: Request, admission_limit: int,
                       next_index: int) -> List[Request]:
        """Synthesize the extra traffic for a burst injection at
        ``trigger``'s arrival instant.

        Returns ``admission_limit + burst_margin`` tagged LOW-priority
        requests — strictly more than admission can hold, so the
        serving loop must shed some of them and the injection is
        guaranteed to be accounted.
        """
        injection = self._by_request.get(trigger.index)
        if injection is None or injection.kind is not FaultKind.BURST_OVERLOAD:
            return []
        size = admission_limit + self.config.burst_margin
        injection.detail["burst_size"] = size
        return [
            Request(index=next_index + k,
                    tenant=f"burst-{self.seed}-{injection.injection_id}",
                    service_cycles=self.config.burst_service_cycles,
                    priority=Priority.LOW,
                    arrival_cycle=trigger.arrival_cycle,
                    injection=injection)
            for k in range(size)
        ]

    # ------------------------------------------------------------------
    @property
    def injected(self) -> int:
        return len(self._planned)

    def injections(self) -> List[Injection]:
        return list(self._planned)

    def unaccounted(self) -> List[Injection]:
        """Injections the serving loop never classified — each one is a
        soak-gate failure."""
        return [i for i in self._planned if i.classified is None]

    def breakdown(self) -> Dict[str, int]:
        """``{classification: count}`` over the classified plan."""
        out: Dict[str, int] = {}
        for injection in self._planned:
            key = injection.classified or "unaccounted"
            out[key] = out.get(key, 0) + 1
        return out
