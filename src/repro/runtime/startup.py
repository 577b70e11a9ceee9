"""Sandbox startup economics — the paper's §1 motivation.

"Production FaaS systems can spin up a new Wasm instance in 30 us,
instead of the tens to hundreds of milliseconds it takes to spin up a
container or VM."  This model makes those magnitudes concrete and
comparable under one clock: Wasm/HFI instance creation is measured
from the actual reservation costs in this library; process, container,
and microVM costs are literature-calibrated constants expressed in
cycles so everything scales with the configured core frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.encoding import REGION_DESCRIPTOR_BYTES, descriptor_cycles
from ..os.address_space import AddressSpace
from ..params import DEFAULT_PARAMS, MachineParams
from ..wasm.strategies import IsolationStrategy

#: Free-list pop cost of a pooled instance.
POOLED_POP_CYCLES = 200


@dataclass
class StartupModel:
    """Start-up cost of one execution context, per mechanism."""

    params: MachineParams = field(default_factory=lambda: DEFAULT_PARAMS)
    #: fork+exec, page-table setup, loader (≈ a few hundred us).
    process_spawn_us: float = 400.0
    #: namespace + cgroup + overlayfs + runtime handshake (≈ 50-300 ms).
    container_spawn_us: float = 120_000.0
    #: firecracker-class microVM boot (≈ 125 ms+).
    microvm_spawn_us: float = 150_000.0

    # ------------------------------------------------------------------
    def wasm_instance_cycles(self, strategy: IsolationStrategy,
                             heap_bytes: int = 1 << 20, *,
                             pooled: bool = False) -> int:
        """Measured cost of creating one sandbox under ``strategy``.

        ``pooled=True`` models a pre-reserved slot (free-list pop plus
        HFI descriptor staging) — the fast path FaaS providers use.
        """
        if pooled:
            # free-list pop + three region installs, each loading its
            # staged descriptor
            return POOLED_POP_CYCLES + 3 * (
                self.params.hfi_set_region_cycles
                + descriptor_cycles(self.params, REGION_DESCRIPTOR_BYTES))
        space = AddressSpace(self.params)
        _, cost = strategy.reserve_memory(space, heap_bytes)
        return cost + 2 * self.params.syscall_cycles

    def wasm_instance_us(self, strategy: IsolationStrategy,
                         heap_bytes: int = 1 << 20, *,
                         pooled: bool = False) -> float:
        return self.params.cycles_to_us(
            self.wasm_instance_cycles(strategy, heap_bytes,
                                      pooled=pooled))

    # ------------------------------------------------------------------
    def compare(self, strategy: IsolationStrategy) -> Dict[str, float]:
        """Start-up latency (us) per mechanism — the §1 table."""
        return {
            "wasm-instance-pooled": self.wasm_instance_us(strategy,
                                                          pooled=True),
            "wasm-instance-cold": self.wasm_instance_us(strategy),
            "process": self.process_spawn_us,
            "container": self.container_spawn_us,
            "microvm": self.microvm_spawn_us,
        }

    def advantage(self, strategy: IsolationStrategy,
                  versus: str = "container") -> float:
        """How many times faster a cold Wasm instance starts."""
        table = self.compare(strategy)
        return table[versus] / table["wasm-instance-cold"]
