"""Branch prediction structures: PHT, BTB, and RSB.

These are the speculation sources the paper's §5.3 security evaluation
exercises: Spectre-PHT trains the pattern history table; Spectre-BTB
poisons the branch target buffer.  HFI does not change how predictors
are trained (§3.4's final caveat) — it constrains what *speculatively
fetched* code and data can do.

Each predictor exposes the uniform ``.stats()`` API
(:class:`repro.telemetry.PredictorStats`).  Correctness is resolved at
``update`` time from the predictor's own pre-update state, so the
counters agree with the CPU's global mispredict accounting without any
backchannel; the RSB cannot observe resolution, so it reports push/pop
traffic and underflows instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..telemetry.stats import PredictorStats


class PatternHistoryTable:
    """Per-PC 2-bit saturating counters (taken >= 2)."""

    def __init__(self, size: int = 1024):
        self.size = size
        self._counters: List[int] = [1] * size  # weakly not-taken
        self._lookups = 0
        self._correct = 0
        self._mispredicts = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.size

    def predict(self, pc: int) -> bool:
        self._lookups += 1
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        counter = self._counters[idx]
        if (counter >= 2) == taken:
            self._correct += 1
        else:
            self._mispredicts += 1
        self._counters[idx] = (min(3, counter + 1) if taken
                               else max(0, counter - 1))

    def resolve(self, pc: int, taken: bool) -> bool:
        """:meth:`predict`, then :meth:`update`, in one call; returns
        the prediction.  Counters and stats end as the two calls leave
        them."""
        self._lookups += 1
        counters = self._counters
        idx = (pc >> 2) % self.size
        counter = counters[idx]
        if counter >= 2:
            if taken:
                self._correct += 1
                counters[idx] = 3
            else:
                self._mispredicts += 1
                counters[idx] = counter - 1
            return True
        if taken:
            self._mispredicts += 1
            counters[idx] = counter + 1
        else:
            self._correct += 1
            if counter:
                counters[idx] = 0
        return False

    def stats(self) -> PredictorStats:
        return PredictorStats(
            component="pht", lookups=self._lookups,
            updates=self._correct + self._mispredicts,
            correct=self._correct, mispredicts=self._mispredicts,
            entries=self.size, capacity=self.size)


class BranchTargetBuffer:
    """PC -> predicted target for indirect branches, LRU-bounded."""

    def __init__(self, size: int = 512):
        self.size = size
        self._targets: Dict[int, int] = {}
        self._lookups = 0
        self._correct = 0
        self._mispredicts = 0

    def predict(self, pc: int) -> Optional[int]:
        self._lookups += 1
        target = self._targets.get(pc)
        if target is not None:
            del self._targets[pc]
            self._targets[pc] = target
        return target

    def update(self, pc: int, target: int) -> None:
        # A miss (no entry) and a wrong entry both cost the front end a
        # redirect, matching the CPU's mispredict accounting.
        if self._targets.get(pc) == target:
            self._correct += 1
        else:
            self._mispredicts += 1
        if pc in self._targets:
            del self._targets[pc]
        elif len(self._targets) >= self.size:
            victim = next(iter(self._targets))
            del self._targets[victim]
        self._targets[pc] = target

    def stats(self) -> PredictorStats:
        return PredictorStats(
            component="btb", lookups=self._lookups,
            updates=self._correct + self._mispredicts,
            correct=self._correct, mispredicts=self._mispredicts,
            entries=len(self._targets), capacity=self.size)


class ReturnStackBuffer:
    """A small circular stack of predicted return addresses."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._stack: List[int] = []
        self._pushes = 0
        self._pops = 0
        self._underflows = 0

    def push(self, addr: int) -> None:
        self._pushes += 1
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(addr)

    def pop(self) -> Optional[int]:
        self._pops += 1
        if not self._stack:
            self._underflows += 1
            return None
        return self._stack.pop()

    def stats(self) -> PredictorStats:
        return PredictorStats(
            component="rsb", lookups=self._pops, updates=self._pushes,
            underflows=self._underflows, entries=len(self._stack),
            capacity=self.depth)
