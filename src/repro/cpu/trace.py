"""Execution tracing for the CPU simulator.

Attach a :class:`Tracer` to a :class:`~repro.cpu.machine.Cpu` to record
committed instructions — useful for debugging compiled modules, for
inspecting sandbox transitions, and for the instruction-mix analysis in
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import HFI_OPS, Opcode
from ..telemetry.stats import TracerStats


@dataclass
class TraceEntry:
    addr: int
    opcode: Opcode
    hfi_enabled: bool
    speculative: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "S" if self.hfi_enabled else "-"
        spec = "?" if self.speculative else " "
        return f"{self.addr:#010x} {mode}{spec} {self.opcode.value}"


class Tracer:
    """Bounded committed-instruction trace with mix statistics."""

    def __init__(self, capacity: int = 100_000,
                 record_entries: bool = True):
        self.capacity = capacity
        self.record_entries = record_entries
        self.entries: List[TraceEntry] = []
        self.mix: Counter = Counter()        # committed instructions
        self.spec_mix: Counter = Counter()   # wrong-path instructions
        self.dropped = 0

    def record(self, addr: int, ins: Instruction, hfi_enabled: bool,
               speculative: bool = False) -> None:
        (self.spec_mix if speculative else self.mix)[ins.opcode] += 1
        if not self.record_entries:
            return
        if len(self.entries) >= self.capacity:
            self.dropped += 1
            return
        self.entries.append(TraceEntry(addr, ins.opcode, hfi_enabled,
                                       speculative))

    # ------------------------------------------------------------------
    def stats(self) -> TracerStats:
        """Uniform component-stats snapshot (``repro.telemetry``).

        ``tracer.mix`` / ``tracer.spec_mix`` remain the live counters;
        this is the export-friendly view of the same data.
        """
        return TracerStats(
            component="tracer",
            instructions=self.total,
            speculative_instructions=sum(self.spec_mix.values()),
            dropped=self.dropped,
            hfi_instructions=self.hfi_instruction_count(),
            transitions=self.transitions(),
            mix={op.value: n for op, n in self.mix.items()},
            spec_mix={op.value: n for op, n in self.spec_mix.items()})

    @property
    def total(self) -> int:
        return sum(self.mix.values())

    def fraction(self, *opcodes: Opcode) -> float:
        """Share of the trace made up of the given opcodes."""
        if not self.total:
            return 0.0
        return sum(self.mix[op] for op in opcodes) / self.total

    def hfi_instruction_count(self) -> int:
        return sum(self.mix[op] for op in HFI_OPS)

    def transitions(self) -> int:
        """Sandbox enters + exits observed."""
        return (self.mix[Opcode.HFI_ENTER] + self.mix[Opcode.HFI_EXIT]
                + self.mix[Opcode.HFI_REENTER])

    def summary(self) -> str:
        lines = [f"instructions: {self.total}"]
        for opcode, count in self.mix.most_common(12):
            lines.append(f"  {opcode.value:16s} {count:8d} "
                         f"({100 * count / self.total:.1f}%)")
        if self.dropped:
            lines.append(f"  ... {self.dropped} entries dropped")
        return "\n".join(lines)
