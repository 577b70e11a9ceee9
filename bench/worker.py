"""Run one benchmark round in this (fresh) process; print it as JSON.

Usage, normally from ``run.py``::

    python bench/worker.py WORKLOAD SEED SPAWNED [--profile]

``SPAWNED`` is ``time.monotonic()`` in the parent just before it
started this process, so set-up time includes interpreter start and
imports.  ``--profile`` runs cProfile inside the round's preparation
and timed spans and reports self time per layer.

All reported times except ``check_s`` are in reference-speed seconds
(see :mod:`speed`); ``raw_timed_s`` is the unscaled op host time.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time

import repro
from repro.cpu import machine, timing

from layers import self_times
from recorder import CHECK, PREP, TIMED, Recorder
from speed import SpeedProbe
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """This process's peak resident set size since it started.

    ``ru_maxrss`` is no use here on Linux: it carries over from the
    forked parent across ``exec``, so it reported the parent's size
    whenever that was the larger.  ``VmHWM`` starts afresh at exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def round_result(workload, plan, startup: float, profiler=None) -> dict:
    """Run ``plan`` on ``workload``; everything ``run.py`` aggregates.

    ``startup`` is the raw time from process start to this call.
    """
    speed = SpeedProbe()
    speed.probe()
    first = speed.samples[0][0]
    rec = Recorder(profiler, speed)
    workload.run(rec, plan)
    speed.probe()
    totals = rec.totals(speed.factor)
    times = rec.op_times(speed.factor)
    for op, seconds in zip(rec.ops, times):
        op["t"] = seconds
    result = {
        "engine": machine.DEFAULT_ENGINE,
        "timing": timing.DEFAULT_TIMING,
        "ops": rec.ops,
        "work": rec.work,
        "counts": rec.counts,
        "timed_s": sum(times),
        "raw_timed_s": sum(rec.op_times()),
        "setup_s": startup * speed.factor(first, first) + totals[PREP],
        "check_s": rec.totals()[CHECK],
        "totals": totals,
        "spans": rec.spans,
        "rss_mb": peak_rss_mb(),
    }
    if profiler is not None:
        scale = speed.median_factor()
        result["layers"] = {
            layer: seconds * scale for layer, seconds in self_times(
                profiler, os.path.dirname(repro.__file__)).items()}
    return result


def main(argv) -> int:
    name, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    profiler = cProfile.Profile() if "--profile" in argv[3:] else None
    workload = WORKLOADS[name]
    plan = workload.plan(seed)
    startup = time.monotonic() - spawned
    print(json.dumps(round_result(workload, plan, startup, profiler)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
