"""Undo-log journal for the speculation engine.

The old interpreter squashed a wrong path by deep-copying the whole
architectural state up front (``RegisterFile.copy()`` plus
``copy.deepcopy(self.hfi)``) and swapping the copies back afterwards.
That is O(state) per misprediction and rebinds ``cpu.regs`` /
``cpu.hfi`` object identity on every window.

The journal inverts the cost: entering a window records only a handful
of scalars (rip, flags, pkru), and every *write* performed on the wrong
path logs an ``(location, old_value)`` undo entry.  Squash replays the
log backwards, so a window that writes three registers undoes three
dictionary stores — independent of how big the register file or the
HFI bank is.  Object identity of ``cpu.regs``, ``cpu.hfi`` and
``Process.hfi_state`` is preserved across speculation.

HFI state is journaled copy-on-first-write: the first mutating
``HfiState`` method executed inside a window (they all call
:meth:`snapshot_hfi` via their ``_journal`` hook) banks the register
file and lifecycle counters once; most windows never touch HFI state
and pay nothing.

What deliberately does **not** roll back — cache fills, TLB fills, and
predictor updates — is exactly the paper's Spectre channel; the journal
never records those structures.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..telemetry.stats import SpeculationJournalStats


class SpeculationJournal:
    """Per-core undo log, recorded only while ``cpu._speculative``."""

    __slots__ = ("entries", "windows", "rollbacks", "reg_entries",
                 "hfi_snapshots", "_rip", "_flags", "_pkru", "_hfi_undo",
                 "probe")

    def __init__(self) -> None:
        #: Wrong-path GPR writes as ``(Reg, old_value)``; writer
        #: closures append here directly (hot path).
        self.entries: List[Tuple[object, int]] = []
        self.windows = 0
        self.rollbacks = 0
        self.reg_entries = 0
        self.hfi_snapshots = 0
        self._rip = 0
        self._flags = (False, False, False, False)
        self._pkru = 0
        self._hfi_undo: Optional[tuple] = None
        #: Optional sanitizer probe (verify.invariants); checks that
        #: squash preserves object identity of the architectural state.
        self.probe = None

    # ------------------------------------------------------------------
    # window lifecycle
    # ------------------------------------------------------------------
    def open(self, cpu) -> None:
        """Record the pre-window scalars and arm the HFI hook."""
        self.windows += 1
        self.entries.clear()
        regs = cpu.regs
        flags = regs.flags
        self._rip = regs.rip
        self._flags = (flags.zf, flags.sf, flags.cf, flags.of)
        self._pkru = cpu.process.pkru if cpu.process is not None else 0
        self._hfi_undo = None
        cpu.hfi._journal = self
        if self.probe is not None:
            self.probe.on_open(cpu)

    def snapshot_hfi(self, hfi) -> None:
        """Copy-on-first-write bank of the HFI state for this window.

        Called by every mutating ``HfiState`` method while a window is
        open; only the first call per window does any work.
        """
        if self._hfi_undo is None:
            self.hfi_snapshots += 1
            self._hfi_undo = (hfi.regs.snapshot(), hfi._shadow,
                              hfi._reenter_bank, hfi.serializations,
                              hfi.enters, hfi.exits, hfi.region_installs)

    def rollback(self, cpu) -> None:
        """Squash: replay the undo log backwards, in place."""
        entries = self.entries
        self.reg_entries += len(entries)
        regs = cpu.regs.regs
        while entries:
            reg, old = entries.pop()
            regs[reg] = old
        flags = cpu.regs.flags
        flags.zf, flags.sf, flags.cf, flags.of = self._flags
        cpu.regs.rip = self._rip
        if cpu.process is not None:
            cpu.process.pkru = self._pkru
        hfi = cpu.hfi
        undo = self._hfi_undo
        if undo is not None:
            bank, shadow, reenter, serializations, enters, exits, \
                installs = undo
            hfi.regs.restore(bank)
            hfi._shadow = shadow
            hfi._reenter_bank = reenter
            hfi.serializations = serializations
            hfi.enters = enters
            hfi.exits = exits
            hfi.region_installs = installs
            self._hfi_undo = None
        hfi._journal = None
        self.rollbacks += 1
        if self.probe is not None:
            self.probe.on_rollback(cpu)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> SpeculationJournalStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return SpeculationJournalStats(
            component="journal", windows=self.windows,
            rollbacks=self.rollbacks, reg_entries=self.reg_entries,
            hfi_snapshots=self.hfi_snapshots)
