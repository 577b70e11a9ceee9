"""Spectre-RSB: return-address mispredictions as the speculation source.

Beyond the paper's PHT/BTB evaluation (§5.3), SafeSide also ships RSB
variants; since our CPU models a return-stack buffer, we reproduce the
in-place shape:

The victim function *switches stacks* before returning, so the
architectural return target differs from the RSB's prediction (the
instruction after the call site).  The attacker arranges a disclosure
gadget at exactly that predicted location: it runs speculatively,
loads a secret-indexed probe line, and flush+reload recovers the byte.
HFI regions block the gadget's secret load the same way as for
PHT/BTB — before any cache fill.
"""

from __future__ import annotations

from typing import List

from ..isa import Assembler, Imm, Mem, Program, Reg
from .harness import (CODE_BASE, DATA_BASE, PROBE_BASE, SECRET_BASE,
                      STACK_TOP, AttackResult, SpectreAttack)

_SECRET_PTR_ADDR = DATA_BASE


class SpectreRsbAttack(SpectreAttack):
    """Builds the stack-switching victim and runs the leak."""

    def _build_victim(self) -> List[Program]:
        asm = Assembler(base=CODE_BASE)
        self._enter(asm)
        asm.call("victim")
        # --- the disclosure gadget sits at the *predicted* return ---
        asm.mov(Reg.R9, Mem(disp=_SECRET_PTR_ADDR))
        asm.mov(Reg.RAX, Mem(base=Reg.R9, size=1))
        asm.shl(Reg.RAX, Imm(9))
        asm.mov(Reg.RSI, Mem(base=Reg.RAX, disp=PROBE_BASE, size=1))
        asm.label("after_gadget")
        self._exit(asm)
        asm.label("landing")                 # architectural return
        self._exit(asm)
        asm.label("victim")
        # overwrite the return address: the RSB still predicts the
        # gadget address (call site + 1)
        asm.mov(Reg.R8, Imm(0))              # patched to 'landing'
        asm.mov(Mem(base=Reg.RSP), Reg.R8)
        asm.ret()
        self.program = asm.assemble()
        landing = self.program.labels["landing"]
        victim_idx = next(i for i, ins in
                          enumerate(self.program.instructions)
                          if ins.label == "victim")
        self.program.instructions[victim_idx].operands = (
            Reg.R8, Imm(landing))
        return [self.program]

    # ------------------------------------------------------------------
    def _invoke(self, secret_ptr: int) -> None:
        self.space.write(_SECRET_PTR_ADDR, secret_ptr, 8)
        self.cpu.regs.write(Reg.RSP, STACK_TOP)
        self.cpu.run(self.program.base, max_instructions=200)

    def attack(self, secret_value: int = ord("R")) -> AttackResult:
        self.plant_secret(secret_value)
        self.flush()
        self._invoke(SECRET_BASE)
        return self.reload()
