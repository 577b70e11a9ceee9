"""In-place Spectre-PHT (bounds-check bypass), after Google SafeSide.

The victim is the canonical gadget::

    if (x < array1_size)
        y = array2[array1[x] * 512];

The attacker trains the branch with in-bounds ``x``, then supplies an
out-of-bounds ``x`` whose ``array1[x]`` aliases a secret byte in host
memory.  On the mispredicted path the two loads execute speculatively
and the secret-indexed probe line is filled — unless HFI's implicit
data regions reject the first load *before any cache update* (§4.1),
in which case no probe slot ever dips below the hit threshold.

This reproduces the paper's §5.3 experiment and the Fig. 7 latency
plot.
"""

from __future__ import annotations

from typing import List

from ..isa import Assembler, Imm, Mem, Program, Reg
from ..params import DEFAULT_PARAMS, MachineParams
from .harness import (CODE_BASE, DATA_BASE, PROBE_BASE, SECRET_BASE,
                      AttackResult, SpectreAttack)

_X_ADDR = DATA_BASE             # x, array1_size, array1
_SIZE_ADDR = DATA_BASE + 8
_ARRAY1_ADDR = DATA_BASE + 64


class SpectrePhtAttack(SpectreAttack):
    """Builds the victim, trains the PHT, runs the attack, reloads."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 protect_with_hfi: bool = False,
                 array1_size: int = 16):
        self.array1_size = array1_size
        super().__init__(params, protect_with_hfi)

    def _build_victim(self) -> List[Program]:
        self.space.write(_SIZE_ADDR, self.array1_size, 8)
        for i in range(self.array1_size):
            self.space.write(_ARRAY1_ADDR + i, i & 0xFF, 1)
        asm = Assembler(base=CODE_BASE)
        self._enter(asm)
        # --- the SafeSide gadget ---
        asm.mov(Reg.RBX, Mem(disp=_X_ADDR))          # x
        asm.mov(Reg.RCX, Mem(disp=_SIZE_ADDR))       # array1_size
        asm.cmp(Reg.RBX, Reg.RCX)
        asm.jae("done")                              # bounds check
        asm.mov(Reg.RAX, Mem(base=Reg.RBX, disp=_ARRAY1_ADDR, size=1))
        asm.shl(Reg.RAX, Imm(9))                     # * 512
        asm.mov(Reg.RSI, Mem(base=Reg.RAX, disp=PROBE_BASE, size=1))
        asm.label("done")
        self._exit(asm)
        self.program = asm.assemble()
        return [self.program]

    # ------------------------------------------------------------------
    def plant_secret(self, value: int) -> int:
        """Write the secret byte into host memory; returns the
        out-of-bounds x that aliases it through array1."""
        super().plant_secret(value)
        return SECRET_BASE - _ARRAY1_ADDR

    def _invoke_victim(self, x: int) -> None:
        self.space.write(_X_ADDR, x, 8)
        self.cpu.run(self.program.base, max_instructions=100)

    def train(self, rounds: int = 8) -> None:
        """Teach the PHT that the bounds check passes."""
        for i in range(rounds):
            self._invoke_victim(i % self.array1_size)

    def attack(self, secret_value: int = ord("I"),
               train_rounds: int = 8) -> AttackResult:
        """Full in-place Spectre-PHT attempt; returns the evidence."""
        oob_x = self.plant_secret(secret_value)
        self.train(train_rounds)
        self.flush()
        self._invoke_victim(oob_x)
        return self.reload()
