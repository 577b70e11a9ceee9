"""Cycle-level CPU simulator with HFI hooks — the gem5 analogue.

The staged execution engine splits the old monolithic interpreter into
:mod:`.decode` (predecode cache + handler-table dispatch), the exec
units (:mod:`.exec_alu`, :mod:`.exec_mem`, :mod:`.exec_control`,
:mod:`.exec_system`, :mod:`.exec_hfi`), the :mod:`.timing` seam, and
the :mod:`.journal` (a register snapshot and page shadows) that
squashes wrong-path speculation without deepcopy.  :mod:`.machine`
keeps the pipeline skeleton.
"""

from .cache import Cache, CacheHierarchy, CacheStats
from .decode import DecodedOp, decode_one, decode_program
from .journal import SpeculationJournal
from .machine import Cpu, CpuStats, FaultInfo, RunResult
from .predictors import (
    BranchTargetBuffer,
    PatternHistoryTable,
    ReturnStackBuffer,
)
from .timing import (
    TIMING_MODELS,
    InOrderTiming,
    TimingBackend,
    create_timing,
    default_timing,
    set_default_timing,
)
from .tlb import Tlb
from .trace import TraceEntry, Tracer

__all__ = [
    "Cpu", "CpuStats", "FaultInfo", "RunResult", "Cache", "CacheHierarchy",
    "CacheStats", "Tlb", "PatternHistoryTable", "BranchTargetBuffer",
    "ReturnStackBuffer", "Tracer", "TraceEntry", "DecodedOp",
    "decode_one", "decode_program", "SpeculationJournal",
    "InOrderTiming", "TimingBackend", "TIMING_MODELS", "create_timing",
    "default_timing", "set_default_timing",
]
