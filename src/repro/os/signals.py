"""POSIX-style signals, the path HFI faults take to the trusted runtime.

Per paper §3.3.2: an HFI bounds-check violation disables the sandbox,
records the cause in an MSR, and raises a hardware trap that the OS
delivers as SIGSEGV; the runtime's signal handler reads the MSR to
disambiguate the cause.

Delivery semantics (relied on by the serving runtime's
:class:`~repro.runtime.sandbox.SandboxExecutor`):

* A signal whose number is in the table's *blocked* mask is queued on
  ``pending`` instead of dispatched; :meth:`unblock` drains the queue
  in arrival (FIFO) order.
* While a handler runs, its own signal is implicitly masked (the
  default ``sigaction`` behavior) — a fault raised *inside* the fault
  handler is deferred until the handler returns rather than recursing.
* ``delivered`` records every dispatch in dispatch order, so tests and
  the runtime can audit exactly what ran when.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set


class Signal(enum.Enum):
    SIGSEGV = 11
    SIGILL = 4
    SIGTRAP = 5
    SIGSYS = 31


@dataclass
class SigInfo:
    """Payload delivered to a signal handler."""

    signal: Signal
    fault_addr: int = 0
    #: Snapshot of the HFI cause MSR at delivery time (0 = not HFI).
    hfi_cause: int = 0
    description: str = ""


Handler = Callable[[SigInfo], None]


@dataclass
class SignalTable:
    """Registered dispositions for one process."""

    handlers: Dict[Signal, Handler] = field(default_factory=dict)
    #: Every dispatched (handler-visible) signal, in dispatch order.
    delivered: List[SigInfo] = field(default_factory=list)
    #: Explicitly masked signals (sigprocmask).
    blocked: Set[Signal] = field(default_factory=set)
    #: Signals that arrived while masked, in arrival order.
    pending: List[SigInfo] = field(default_factory=list)
    #: Signals whose handler is currently on the stack (implicit mask).
    _handling: Set[Signal] = field(default_factory=set)

    def register(self, signal: Signal, handler: Handler) -> None:
        self.handlers[signal] = handler

    # ------------------------------------------------------------------
    def block(self, *signals: Signal) -> None:
        """Mask ``signals``; subsequent deliveries queue on ``pending``."""
        self.blocked.update(signals)

    def unblock(self, *signals: Signal) -> List[SigInfo]:
        """Unmask ``signals`` and drain newly deliverable pending ones.

        Returns the drained infos in the order they were dispatched
        (arrival order, interleaved with anything their handlers raise).
        """
        for signal in signals:
            self.blocked.discard(signal)
        before = len(self.delivered)
        self._drain()
        return self.delivered[before:]

    # ------------------------------------------------------------------
    def deliver(self, info: SigInfo) -> bool:
        """Dispatch ``info`` (or queue it if masked).

        Returns True iff a handler ran *now*; a queued or unhandled
        signal returns False.
        """
        if info.signal in self.blocked or info.signal in self._handling:
            self.pending.append(info)
            return False
        return self._dispatch(info)

    def _dispatch(self, info: SigInfo) -> bool:
        self.delivered.append(info)
        handler = self.handlers.get(info.signal)
        if handler is None:
            return False
        # sigaction-style implicit mask: the signal cannot preempt its
        # own handler; re-raises are queued and drained afterwards.
        self._handling.add(info.signal)
        try:
            handler(info)
        finally:
            self._handling.discard(info.signal)
        self._drain()
        return True

    def _drain(self) -> None:
        """Dispatch pending signals that are no longer masked, FIFO."""
        while True:
            for i, info in enumerate(self.pending):
                if (info.signal not in self.blocked
                        and info.signal not in self._handling):
                    del self.pending[i]
                    self._dispatch(info)
                    break
            else:
                return
