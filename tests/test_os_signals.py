"""Delivery-ordering tests for the POSIX-style signal table.

The serving runtime leans on three semantics here (paper §3.3.2
delivers HFI faults as SIGSEGV): blocked signals queue FIFO and drain
in arrival order, a handler implicitly masks its own signal
(sigaction), and ``delivered`` is a faithful dispatch-order audit log.
"""

import pytest

from repro.os.signals import SigInfo, Signal, SignalTable


def info(signal=Signal.SIGSEGV, addr=0, description=""):
    return SigInfo(signal, fault_addr=addr, description=description)


class TestBasicDispatch:
    def test_handler_runs_immediately_when_unmasked(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        assert table.deliver(info(addr=0x10)) is True
        assert [s.fault_addr for s in seen] == [0x10]
        assert [s.fault_addr for s in table.delivered] == [0x10]

    def test_unhandled_signal_is_recorded_but_returns_false(self):
        table = SignalTable()
        assert table.deliver(info(Signal.SIGILL)) is False
        assert table.delivered[-1].signal is Signal.SIGILL

    def test_signals_do_not_cross_talk(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        table.deliver(info(Signal.SIGTRAP))
        assert seen == []


class TestBlockingOrder:
    def test_blocked_signal_queues_instead_of_dispatching(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        table.block(Signal.SIGSEGV)
        assert table.deliver(info(addr=1)) is False
        assert seen == [] and len(table.pending) == 1

    def test_unblock_drains_in_arrival_order(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        table.block(Signal.SIGSEGV)
        for addr in (1, 2, 3):
            table.deliver(info(addr=addr))
        drained = table.unblock(Signal.SIGSEGV)
        assert [s.fault_addr for s in seen] == [1, 2, 3]
        assert [s.fault_addr for s in drained] == [1, 2, 3]
        assert table.pending == []

    def test_unblock_only_drains_the_unmasked_signal(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        table.register(Signal.SIGTRAP, seen.append)
        table.block(Signal.SIGSEGV, Signal.SIGTRAP)
        table.deliver(info(Signal.SIGTRAP))
        table.deliver(info(Signal.SIGSEGV, addr=7))
        table.unblock(Signal.SIGSEGV)
        assert [s.signal for s in seen] == [Signal.SIGSEGV]
        assert [s.signal for s in table.pending] == [Signal.SIGTRAP]
        table.unblock(Signal.SIGTRAP)
        assert [s.signal for s in seen] == [Signal.SIGSEGV,
                                            Signal.SIGTRAP]

    def test_mixed_blocked_and_live_delivery_ordering(self):
        """Dispatch order is: everything deliverable at its arrival,
        then the blocked backlog in arrival order at unblock time."""
        table = SignalTable()
        table.register(Signal.SIGSEGV, lambda s: None)
        table.register(Signal.SIGTRAP, lambda s: None)
        table.block(Signal.SIGSEGV)
        table.deliver(info(Signal.SIGSEGV, addr=1))   # queued
        table.deliver(info(Signal.SIGTRAP, addr=2))   # live
        table.deliver(info(Signal.SIGSEGV, addr=3))   # queued
        table.unblock(Signal.SIGSEGV)
        assert [s.fault_addr for s in table.delivered] == [2, 1, 3]


class TestHandlerImplicitMask:
    def test_reraise_inside_handler_defers_until_return(self):
        """sigaction semantics: a signal cannot preempt its own
        handler; the nested raise queues and runs afterwards."""
        table = SignalTable()
        order = []

        def handler(sig):
            order.append(("enter", sig.fault_addr))
            if sig.fault_addr == 1:
                # Raised mid-handler: must NOT run reentrantly.
                table.deliver(info(addr=2))
                order.append(("exit", sig.fault_addr))

        table.register(Signal.SIGSEGV, handler)
        table.deliver(info(addr=1))
        assert order[:2] == [("enter", 1), ("exit", 1)]
        assert ("enter", 2) in order
        assert order.index(("exit", 1)) < order.index(("enter", 2))

    def test_nested_raise_of_other_signal_preempts(self):
        table = SignalTable()
        order = []
        table.register(Signal.SIGTRAP, lambda s: order.append("trap"))

        def segv(sig):
            table.deliver(info(Signal.SIGTRAP))
            order.append("segv")

        table.register(Signal.SIGSEGV, segv)
        table.deliver(info())
        # SIGTRAP is not masked by SIGSEGV's handler: it ran inline.
        assert order == ["trap", "segv"]

    def test_handler_mask_clears_after_dispatch(self):
        table = SignalTable()
        seen = []
        table.register(Signal.SIGSEGV, seen.append)
        table.deliver(info(addr=1))
        table.deliver(info(addr=2))
        assert [s.fault_addr for s in seen] == [1, 2]
        assert table.pending == []


class TestSupervisorCriticalSection:
    def test_fault_during_masked_reap_queues_and_drains(self):
        """The runtime's reap pattern: mask SIGSEGV, tear down,
        unmask — a fault raised mid-teardown arrives afterwards, in
        order, instead of interleaving with recovery."""
        table = SignalTable()
        log = []
        table.register(Signal.SIGSEGV,
                       lambda s: log.append(s.description))
        table.block(Signal.SIGSEGV)
        log.append("reap-start")
        table.deliver(info(description="nested-fault"))
        log.append("reap-end")
        table.unblock(Signal.SIGSEGV)
        assert log == ["reap-start", "reap-end", "nested-fault"]
