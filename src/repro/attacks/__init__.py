"""Spectre attack suite (SafeSide / TransientFail analogues, §5.3)."""

from .harness import PROBE_SLOTS, PROBE_STRIDE, AttackResult, SpectreAttack
from .spectre_btb import SpectreBtbAttack
from .spectre_pht import SpectrePhtAttack
from .spectre_rsb import SpectreRsbAttack

__all__ = [
    "PROBE_SLOTS", "PROBE_STRIDE", "AttackResult", "SpectreAttack",
    "SpectrePhtAttack", "SpectreBtbAttack", "SpectreRsbAttack",
]
