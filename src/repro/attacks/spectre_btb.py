"""In-place Spectre-BTB (branch target injection), after TransientFail.

The victim dispatches through a function pointer.  The attacker first
makes the pointer target a *disclosure gadget* (training the BTB), then
switches it to a benign target: the BTB still predicts the gadget, so
the gadget runs speculatively and loads a secret-indexed probe line.

Two HFI defences are demonstrated, matching §4.1:

* With the secret outside the sandbox's implicit data regions, the
  gadget's speculative load faults before any cache update.
* With the gadget *outside the code regions*, decode turns its
  micro-ops into a faulting NOP, so it never executes at all — even
  speculatively.

(The paper notes gem5's BTB modelling is too coarse for the raw
TransientFail PoC and models the attack with concrete control flow;
our BTB does predict indirect targets, so we run the real shape.)
"""

from __future__ import annotations

from typing import List

from ..core import ImplicitCodeRegion
from ..isa import Assembler, Imm, Mem, Program, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from .harness import (CODE_BASE, DATA_BASE, PROBE_BASE, SECRET_BASE,
                      AttackResult, SpectreAttack)

_GADGET_BASE = 0x48_0000     # separate 64K block: can be excluded from
                             # the code regions to show the fetch defence
_FNPTR_ADDR = DATA_BASE
_SECRET_PTR_ADDR = DATA_BASE + 8
_DUMMY_ADDR = DATA_BASE + 128    # in-bounds byte the training runs read


class SpectreBtbAttack(SpectreAttack):
    """Builds victim + gadget, trains the BTB, attacks, reloads."""

    # the training reads the dummy byte (0) through the gadget
    ignored_slots = frozenset({0})

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False,
                 gadget_in_code_region: bool = True):
        self.gadget_in_code_region = gadget_in_code_region
        super().__init__(params, protect_with_hfi)

    def _code_regions(self) -> List[ImplicitCodeRegion]:
        # without the gadget, the second code slot points elsewhere:
        # the gadget is not executable
        second = _GADGET_BASE if self.gadget_in_code_region else CODE_BASE
        return [ImplicitCodeRegion.covering(base, 1 << 16)
                for base in (CODE_BASE, second)]

    def _build_victim(self) -> List[Program]:
        self.space.write(_DUMMY_ADDR, 0, 1)
        asm = Assembler(base=CODE_BASE)
        self._enter(asm)
        asm.mov(Reg.R8, Mem(disp=_FNPTR_ADDR))
        asm.jmp(Reg.R8)                      # the BTB-predicted dispatch
        asm.label("legit")
        self._exit(asm)
        self.victim = asm.assemble()
        self.legit_addr = self.victim.labels["legit"]

        gadget = Assembler(base=_GADGET_BASE)
        gadget.mov(Reg.R9, Mem(disp=_SECRET_PTR_ADDR))
        gadget.mov(Reg.RAX, Mem(base=Reg.R9, size=1))
        gadget.shl(Reg.RAX, Imm(9))
        gadget.mov(Reg.RSI, Mem(base=Reg.RAX, disp=PROBE_BASE, size=1))
        self._exit(gadget)
        self.gadget = gadget.assemble()
        return [self.victim, self.gadget]

    # ------------------------------------------------------------------
    def _invoke_victim(self, fn_target: int, secret_ptr: int) -> None:
        self.space.write(_FNPTR_ADDR, fn_target, 8)
        self.space.write(_SECRET_PTR_ADDR, secret_ptr, 8)
        self.cpu.run(self.victim.base, max_instructions=200)

    def train(self, rounds: int = 6) -> None:
        """Run the dispatch with the gadget as the *architectural*
        target (reading a dummy byte) so the BTB learns it."""
        for _ in range(rounds):
            self._invoke_victim(self.gadget.base, _DUMMY_ADDR)

    def attack(self, secret_value: int = ord("S"),
               train_rounds: int = 6) -> AttackResult:
        self.plant_secret(secret_value)
        self.train(train_rounds)
        self.flush()
        self._invoke_victim(self.legit_addr, SECRET_BASE)
        return self.reload()
