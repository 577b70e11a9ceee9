"""The harness every Spectre PoC runs in (§5.3): one victim address
space, its HFI sandbox and the flush+reload receiver.

With HFI on, the sandbox's implicit regions cover the code, the victim
data, the probe array and the stack — never the secret, which the host
protects exactly as §5.3 describes.  The transmitter is a speculative
load of ``PROBE_BASE + secret*stride``; the receiver flushes the probe
array, lets the victim run, then times one load per slot, as an
``rdtsc``-bracketed load observes it on the simulator (base cost + the
cache hierarchy's access latency).  A slot below the threshold was
filled during speculation — its index is the leaked byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..core import (IMPLICIT_DATA_BASE_NUMBER, ImplicitCodeRegion,
                    ImplicitDataRegion, SandboxDescriptor)
from ..cpu.machine import Cpu
from ..isa import Assembler, Program, Reg
from ..os.address_space import AddressSpace, Prot
from ..params import DEFAULT_PARAMS, MachineParams

#: Slot spacing: one byte value per cache-line-disjoint slot (the
#: classic 512-byte stride defeats adjacent-line prefetching).
PROBE_STRIDE = 512
PROBE_SLOTS = 256

CODE_BASE = 0x40_0000
DATA_BASE = 0x10_0000       # victim data (sandbox-visible)
PROBE_BASE = 0x20_0000      # the probe array (sandbox-visible)
SECRET_BASE = 0x30_0000     # host secret (NOT covered by HFI regions)
STACK_BASE = 0x0F_0000
DESC_BASE = 0x0E_0000

_BLOCK = 1 << 16            # code, victim data and stack are 64 KiB
_PROBE_BYTES = PROBE_STRIDE * PROBE_SLOTS + 4096
STACK_TOP = STACK_BASE + _BLOCK - 64


@dataclass
class AttackResult:
    """Outcome of one leak attempt."""

    latencies: List[int]
    threshold: int
    hits: Dict[int, int]
    leaked_value: Optional[int]

    @property
    def leaked(self) -> bool:
        return self.leaked_value is not None


class SpectreAttack:
    """Maps the victim's memory, stages its sandbox and reads the probe.

    A subclass supplies :meth:`_build_victim`, bracketing its sandboxed
    code with :meth:`_enter` and :meth:`_exit`; its training; and its
    strike, which it runs between :meth:`flush` and :meth:`reload`.
    """

    #: Probe slots the training fills architecturally: no leak evidence.
    ignored_slots: FrozenSet[int] = frozenset()

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False):
        self.params = params
        self.protect_with_hfi = protect_with_hfi
        self.space = AddressSpace(params)
        self.cpu = Cpu(params, memory=self.space)
        for size, base, name in ((_BLOCK, DATA_BASE, "victim-data"),
                                 (_PROBE_BYTES, PROBE_BASE, "probe"),
                                 (1 << 12, SECRET_BASE, "secret"),
                                 (_BLOCK, STACK_BASE, "stack"),
                                 (1 << 12, DESC_BASE, "descriptors")):
            self.space.mmap(size, Prot.rw(), addr=base, name=name)
        for program in self._build_victim():
            self.cpu.load_program(program)
        self.cpu.regs.write(Reg.RSP, STACK_TOP)

    def _build_victim(self) -> List[Program]:
        """Write the victim data; return the programs to load."""
        raise NotImplementedError

    def _code_regions(self) -> List[ImplicitCodeRegion]:
        """The implicit code regions, in region-number order."""
        return [ImplicitCodeRegion.covering(CODE_BASE, _BLOCK)]

    def descriptor(self) -> SandboxDescriptor:
        """The serialized hybrid sandbox: the code regions, then
        implicit data regions over the victim data, the probe array
        and the stack."""
        data = [ImplicitDataRegion.covering(base, size)
                for base, size in ((DATA_BASE, _BLOCK),
                                   (PROBE_BASE, _PROBE_BYTES),
                                   (STACK_BASE, _BLOCK))]
        return SandboxDescriptor.hybrid(
            list(enumerate(self._code_regions()))
            + list(enumerate(data, IMPLICIT_DATA_BASE_NUMBER)),
            serialized=True)

    def _enter(self, asm: Assembler) -> None:
        """With HFI on, stage :meth:`descriptor` at ``DESC_BASE`` and
        emit the ``hfi_set_region``…``hfi_enter`` prologue."""
        if not self.protect_with_hfi:
            return
        descriptor = self.descriptor()
        descriptor.stage(self.space, DESC_BASE)
        descriptor.emit_install(asm, DESC_BASE)
        descriptor.emit_enter(asm, DESC_BASE)

    def _exit(self, asm: Assembler) -> None:
        """Leave the sandbox (with HFI on) and halt."""
        if self.protect_with_hfi:
            asm.hfi_exit()
        asm.hlt()

    # ------------------------------------------------------------------
    def plant_secret(self, value: int) -> None:
        """Write the secret byte into host memory."""
        self.space.write(SECRET_BASE, value, 1)

    def flush(self) -> None:
        """clflush every probe slot (receiver-side, pre-strike)."""
        for value in range(PROBE_SLOTS):
            self.cpu.caches.flush_line(PROBE_BASE + value * PROBE_STRIDE)

    def reload(self) -> AttackResult:
        """Time one load per slot.  Each slot is measured before its
        own fill, so one pass is sound; the probe was flushed after
        training, so the fastest slot at or under the threshold (an L2
        hit or better) is the one the speculative load filled."""
        caches, params = self.cpu.caches, self.params
        latencies = [params.base_cycles
                     + caches.data_access(PROBE_BASE + value * PROBE_STRIDE)
                     for value in range(PROBE_SLOTS)]
        threshold = params.l2_hit_cycles + params.base_cycles + 1
        hits = {value: lat for value, lat in enumerate(latencies)
                if lat <= threshold}
        candidates = {value: lat for value, lat in hits.items()
                      if value not in self.ignored_slots}
        leaked = (min(candidates, key=candidates.get) if candidates
                  else None)
        return AttackResult(latencies=latencies, threshold=threshold,
                            hits=hits, leaked_value=leaked)
