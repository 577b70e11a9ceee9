"""Host-time spans recorded by the benchmark around its calls into the
simulator, and their export as a Chrome trace.

Every span has a kind that decides where its time is booked:

* ``op``    -- one benchmark operation; the parent of the spans below.
* ``prep``  -- untimed per-op preparation, booked to ``setup_s``.
* ``timed`` -- the calls an op measures, booked to the op's host time.
* ``check`` -- output checking and freeing an op's garbage before the
  next op, booked to ``check_s`` only.

An op's host time is the sum of its ``timed`` children, so harness
code between the calls (the op span minus its children) is never
measured as simulator time.  When a profiler is attached it runs only
inside ``prep`` and ``timed`` spans, so checking never shows in the
per-layer profile.  Durations are kept raw; :meth:`Recorder.op_times`
and :meth:`Recorder.totals` scale each span by a caller-given factor
(the host-speed correction of :mod:`speed`).
"""

from __future__ import annotations

import operator
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

PREP, TIMED, CHECK, OP = "prep", "timed", "check", "op"

#: ``scale(start, end)`` -> factor applied to a span's duration.
Scale = Callable[[float, float], float]


def unscaled(start: float, end: float) -> float:
    return 1.0


class Recorder:
    """Spans and per-op outcomes of one round, kept in memory."""

    def __init__(self, profiler=None, speed=None):
        self.profiler = profiler
        #: Probed before each op (at most every ``speed.EVERY_S``).
        self.speed = speed
        #: ``[name, kind, start, end, parent]`` with ``parent`` an index
        #: into this list (or None), in start order.
        self.spans: List[list] = []
        #: One entry per op: its key, and an error (None if it passed).
        self.ops: List[Dict[str, object]] = []
        #: ``(timed span index, op indices sharing its time)``.
        self.charges: List[tuple] = []
        self.work = 0
        self.counts: Dict[str, int] = {}
        self._open: Optional[int] = None
        self._op: Optional[int] = None

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str):
        """Time the ``with`` body as a child of the open span."""
        index = len(self.spans)
        record = [name, kind, 0.0, 0.0, self._open]
        self.spans.append(record)
        parent, self._open = self._open, index
        if kind == TIMED and self._op is not None:
            self.charges.append((index, [self._op]))
        profile = self.profiler is not None and kind in (PREP, TIMED)
        record[2] = time.perf_counter()
        if profile:
            self.profiler.enable()
        try:
            yield
        finally:
            if profile:
                self.profiler.disable()
            record[3] = time.perf_counter()
            self._open = parent

    @contextmanager
    def op(self, key: str):
        """One operation; an exception inside it fails the op only."""
        if self.speed is not None:
            self.speed.maybe_probe()
        self._op = len(self.ops)
        entry = {"key": key, "error": None}
        self.ops.append(entry)
        try:
            with self.span(key, OP):
                yield entry
        except Exception:  # noqa: BLE001 -- a failing op must not end the run
            entry["error"] = traceback.format_exc(limit=3).strip()
        finally:
            self._op = None

    @contextmanager
    def shared(self, name: str, op_indices: List[int]):
        """A timed span outside any op whose time is split evenly among
        ``op_indices`` (e.g. one batched teardown of several sandboxes).
        """
        self.charges.append((len(self.spans), list(op_indices)))
        with self.span(name, TIMED):
            yield

    def fail(self, op_index: int, reason: str) -> None:
        if self.ops[op_index]["error"] is None:
            self.ops[op_index]["error"] = reason

    def add_counts(self, counts: Dict[str, int], combine=operator.add) -> None:
        """Fold one op's counters into the round's (summed by default)."""
        for name, value in counts.items():
            self.counts[name] = (combine(self.counts[name], value)
                                 if name in self.counts else value)

    # ------------------------------------------------------------------
    def _seconds(self, index: int, scale: Scale) -> float:
        _, _, start, end, _ = self.spans[index]
        return (end - start) * scale(start, end)

    def op_times(self, scale: Scale = unscaled) -> List[float]:
        """Each op's host time: its timed spans, scaled."""
        times = [0.0] * len(self.ops)
        for index, owners in self.charges:
            seconds = self._seconds(index, scale) / len(owners)
            for op in owners:
                times[op] += seconds
        return times

    def totals(self, scale: Scale = unscaled) -> Dict[str, float]:
        """Scaled seconds per kind, per span name, and of harness
        overhead (``op_self``: op spans minus their direct children)."""
        out: Dict[str, float] = {PREP: 0.0, TIMED: 0.0, CHECK: 0.0,
                                 "op_self": 0.0}
        for index, (name, kind, _, _, parent) in enumerate(self.spans):
            seconds = self._seconds(index, scale)
            if kind == OP:
                out["op_self"] += seconds
            else:
                out[kind] += seconds
                out[name] = out.get(name, 0.0) + seconds
            if parent is not None and self.spans[parent][1] == OP:
                out["op_self"] -= seconds
        return out


def chrome_trace(spans: List[list], origin: float) -> Dict[str, object]:
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
    events = []
    for name, kind, start, end, parent in spans:
        events.append({
            "name": name, "cat": kind, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"parent": spans[parent][0] if parent is not None
                     else None},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
