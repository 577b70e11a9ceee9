"""Attribute profiled host self time to the simulator's layers.

A layer is a set of source files under ``src/repro``; the first rule
that matches a file's path (relative to the package) names its layer.
There is no catch-all rule: ``other.repro`` lists its files too, so a
test can insist that every module is placed on purpose.  Time in files
outside the package (the standard library, builtins, and the
benchmark's own glue between calls) is booked to ``python``.
"""

from __future__ import annotations

import os
import pstats
from fnmatch import fnmatchcase
from typing import Dict, Optional

#: (path pattern relative to src/repro, layer), first match wins.
RULES = (
    ("cpu/machine.py", "cpu.machine"),
    ("cpu/__init__.py", "cpu.machine"),
    ("cpu/trace.py", "cpu.machine"),
    ("cpu/decode.py", "cpu.decode"),
    ("cpu/exec_*.py", "cpu.exec"),
    ("cpu/blocks.py", "cpu.blocks"),
    ("cpu/journal.py", "cpu.journal"),
    ("cpu/timing.py", "cpu.timing"),
    ("cpu/ooo.py", "cpu.ooo"),
    ("cpu/cache.py", "cpu.memsys"),
    ("cpu/tlb.py", "cpu.memsys"),
    ("cpu/predictors.py", "cpu.predictors"),
    ("core/checks.py", "core.checks"),
    ("core/regions.py", "core.checks"),
    ("core/*.py", "core.state"),
    ("isa/*.py", "isa"),
    ("wasm/compiler.py", "wasm.compiler"),
    ("wasm/strategies.py", "wasm.compiler"),
    ("wasm/ir.py", "wasm.compiler"),
    ("wasm/*.py", "wasm.runtime"),
    ("os/address_space.py", "os.address_space"),
    ("os/*.py", "os.kernel"),
    ("runtime/serving.py", "runtime.serving"),
    ("runtime/pool.py", "runtime.pool"),
    ("runtime/*.py", "runtime.other"),
    ("telemetry/*.py", "telemetry"),
    ("workloads/*.py", "workloads"),
    ("__init__.py", "other.repro"),
    ("cli.py", "other.repro"),
    ("params.py", "other.repro"),
    ("analysis/*.py", "other.repro"),
    ("attacks/*.py", "other.repro"),
    ("chaos/*.py", "other.repro"),
    ("mpk/*.py", "other.repro"),
    ("verify/*.py", "other.repro"),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in RULES)) + ("python",)


def layer_of(relpath: str) -> Optional[str]:
    """The layer of a file under src/repro, or None if no rule names it."""
    for pattern, layer in RULES:
        if fnmatchcase(relpath, pattern):
            return layer
    return None


def self_times(profiler, package_dir: str) -> Dict[str, float]:
    """Profiled self seconds per layer (every layer present, maybe 0)."""
    package_dir = os.path.realpath(package_dir) + os.sep
    by_file: Dict[str, str] = {}
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, self_s, _, _) in \
            pstats.Stats(profiler).stats.items():
        layer = by_file.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if path.startswith(package_dir):
                layer = (layer_of(path[len(package_dir):]
                                  .replace(os.sep, "/"))
                         or "other.repro")
            else:
                layer = "python"
            by_file[filename] = layer
        out[layer] += self_s
    return out
