"""Wrong-path state for the speculation engine.

A wrong-path instruction costs what a committed one costs, and squash
never deep-copies the machine:

* opening a window copies the 16-entry GPR dict and the rip, flags and
  pkru scalars; squash restores them in place (``dict.update``), so
  register writers need no speculation test;
* the first wrong-path store to a page copies that page (a zero page
  if it was never written: :meth:`AddressSpace.page_copy` materializes
  nothing) into :attr:`SpeculationJournal.shadows`; later stores write
  into the copy, wrong-path loads read whole words from it, an access
  that crosses a page boundary is split there, and squash drops them;
* HFI state is banked copy-on-first-write: the first mutating
  ``HfiState`` method in a window (each calls :meth:`snapshot_hfi` via
  its ``_journal`` hook) saves the register file and lifecycle
  counters once; most windows never touch HFI state.

Object identity of ``cpu.regs``, ``cpu.regs.regs``, ``cpu.hfi`` and
``Process.hfi_state`` survives speculation.  Cache fills, TLB fills and
predictor updates deliberately do **not** roll back: they are the
paper's Spectre channel, and the journal never records them.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..os.address_space import PAGE
from ..telemetry.stats import SpeculationJournalStats


class SpeculationJournal:
    """Per-core wrong-path state, live while ``cpu._speculative``."""

    __slots__ = ("shadows", "windows", "rollbacks", "shadow_pages",
                 "hfi_snapshots", "_gprs", "_rip", "_flags", "_pkru",
                 "_hfi_undo", "probe")

    def __init__(self) -> None:
        #: Page number -> the window's copy of that page; empty outside
        #: a window (the CPU's load path tests it for that reason).
        self.shadows: Dict[int, bytearray] = {}
        self.windows = 0
        self.rollbacks = 0
        self.shadow_pages = 0
        self.hfi_snapshots = 0
        self._gprs: Dict[object, int] = {}
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
        """Snapshot the registers and scalars; arm the HFI hook."""
        self.windows += 1
        regs = cpu.regs
        flags = regs.flags
        self._gprs = regs.regs.copy()
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
        """Squash: restore the snapshot in place, drop the shadows."""
        cpu.regs.regs.update(self._gprs)
        flags = cpu.regs.flags
        flags.zf, flags.sf, flags.cf, flags.of = self._flags
        cpu.regs.rip = self._rip
        if cpu.process is not None:
            cpu.process.pkru = self._pkru
        self.shadow_pages += len(self.shadows)
        self.shadows.clear()
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
    # wrong-path memory
    # ------------------------------------------------------------------
    def load(self, mem, ea: int, size: int) -> int:
        """A wrong-path load: shadowed pages, else memory."""
        page, offset = divmod(ea, PAGE)
        low = min(size, PAGE - offset)
        shadow = self.shadows.get(page)
        if shadow is None:
            value = mem.read(ea, low, check=False)
        else:
            value = int.from_bytes(shadow[offset:offset + low], "little")
        if low < size:                      # split at the page boundary
            value |= self.load(mem, ea + low, size - low) << (8 * low)
        return value

    def store(self, mem, ea: int, size: int, value: int) -> None:
        """A wrong-path store, into its page's (copied once) shadow."""
        page, offset = divmod(ea, PAGE)
        low = min(size, PAGE - offset)
        shadow = self.shadows.get(page)
        if shadow is None:
            shadow = self.shadows[page] = mem.page_copy(page)
        shadow[offset:offset + low] = (
            value & ((1 << (8 * low)) - 1)).to_bytes(low, "little")
        if low < size:                      # split at the page boundary
            self.store(mem, ea + low, size - low, value >> (8 * low))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> SpeculationJournalStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return SpeculationJournalStats(
            component="journal", windows=self.windows,
            rollbacks=self.rollbacks, shadow_pages=self.shadow_pages,
            hfi_snapshots=self.hfi_snapshots)
