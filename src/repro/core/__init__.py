"""HFI core: regions, register file, state machine, and the sandbox
descriptor every runtime stages, installs and prices.

This package is the paper's primary contribution (§3-§4): the HFI ISA
extension's architectural semantics, independent of any particular CPU
pipeline model.
"""

from .checks import (
    hmov_check_hardware,
    hmov_effective_address,
    implicit_code_check,
    implicit_data_check,
)
from .encoding import SandboxDescriptor
from .faults import ExitInfo, FaultCause, HfiFault
from .regions import (
    CODE_BASE_NUMBER,
    EXPLICIT_BASE_NUMBER,
    GIB4,
    IMPLICIT_DATA_BASE_NUMBER,
    KIB64,
    LARGE_MAX_BOUND,
    NUM_CODE_REGIONS,
    NUM_EXPLICIT_REGIONS,
    NUM_IMPLICIT_DATA_REGIONS,
    NUM_REGIONS,
    SMALL_MAX_BOUND,
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
    Region,
    RegionError,
    region_class,
)
from .registers import REGISTER_COUNT, HfiRegisterFile, SandboxFlags
from .state import ExitOutcome, HfiState

__all__ = [
    "SandboxDescriptor", "HfiState", "ExitOutcome",
    "HfiRegisterFile", "SandboxFlags", "REGISTER_COUNT",
    "ExplicitDataRegion", "ImplicitCodeRegion", "ImplicitDataRegion",
    "Region", "RegionError", "region_class", "ExitInfo", "FaultCause",
    "HfiFault", "implicit_code_check", "implicit_data_check",
    "hmov_effective_address", "hmov_check_hardware",
    "KIB64", "GIB4", "LARGE_MAX_BOUND", "SMALL_MAX_BOUND",
    "NUM_CODE_REGIONS", "NUM_IMPLICIT_DATA_REGIONS",
    "NUM_EXPLICIT_REGIONS", "NUM_REGIONS", "CODE_BASE_NUMBER",
    "IMPLICIT_DATA_BASE_NUMBER", "EXPLICIT_BASE_NUMBER",
]
