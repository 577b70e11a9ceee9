"""Deterministic, seeded chaos/fault-injection for the serving runtime.

Two halves:

* :mod:`repro.chaos.injectors` — a seeded planner that decides, per
  request, which fault from the catalog fires
  (:class:`~repro.runtime.supervisor.FaultKind`), plus synthetic burst
  traffic for overload injection.  Same seed → same plan, always.
* :mod:`repro.chaos.soak` — the soak harness and gate: N seeded runs
  of the serving loop (:class:`~repro.runtime.serving.ServingSimulator`)
  on real sandboxes (:class:`~repro.runtime.sandbox.SandboxExecutor`),
  each audited for leaked pool slots, zombie sandboxes, pool-invariant
  violations, and unaccounted injections.

``repro-hfi chaos`` and the CI ``chaos-soak`` job wrap
:func:`run_soak`; ``repro.verify`` runs a short soak as part of its
gate.
"""

from .injectors import CHAOS_KINDS, ChaosConfig, ChaosInjector, DEFAULT_MIX
from .soak import SeedOutcome, SoakReport, run_soak

__all__ = [
    "ChaosConfig", "ChaosInjector", "DEFAULT_MIX", "CHAOS_KINDS",
    "SeedOutcome", "SoakReport", "run_soak",
]
